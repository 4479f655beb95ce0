// WAL framing and group-commit tests: payload round-trips (including a
// pinned byte-level golden — the on-disk format is a compatibility
// surface), the torn-tail truncation matrix (a journal cut at EVERY byte of
// its last record recovers exactly the complete prefix), CRC bit-flip
// detection, and a concurrent multi-writer group-commit run that reopens
// and verifies every acknowledged document (the TSan job runs this test).

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/document_store.hpp"
#include "testkit/reference_edit.hpp"
#include "wal/record.hpp"
#include "wal/wal.hpp"
#include "xml/generator.hpp"
#include "xml/parser.hpp"

namespace gkx::wal {
namespace {

xml::Document ParseOk(std::string_view xml) {
  auto doc = xml::ParseDocument(xml);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

std::string TempDirFor(const char* name) {
  std::string dir = ::testing::TempDir() + "/wal_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------------------------- payloads

TEST(WalRecordTest, PutRoundTripPreservesDocument) {
  Record record;
  record.op = Op::kPut;
  record.revision = 17;
  record.key = "doc/alpha";
  record.doc = ParseOk("<r a='1'><b>text</b><c labels='G I1'/></r>");
  std::string payload;
  EncodePayload(record, &payload);
  auto decoded = DecodePayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, Op::kPut);
  EXPECT_EQ(decoded->revision, 17);
  EXPECT_EQ(decoded->key, "doc/alpha");
  std::string why;
  EXPECT_TRUE(testkit::ExhaustiveEquals(record.doc, decoded->doc, &why)) << why;
}

TEST(WalRecordTest, UpdateRoundTripPreservesEveryEditKind) {
  const xml::Document subtree = ParseOk("<sub><leaf/></sub>");
  for (auto kind : {xml::SubtreeEdit::Kind::kReplaceSubtree,
                    xml::SubtreeEdit::Kind::kRemoveSubtree,
                    xml::SubtreeEdit::Kind::kInsertSubtree,
                    xml::SubtreeEdit::Kind::kSetText,
                    xml::SubtreeEdit::Kind::kRelabel}) {
    Record record;
    record.op = Op::kUpdate;
    record.revision = 3;
    record.key = "k";
    record.edit.kind = kind;
    record.edit.target = 2;
    record.edit.position = 1;
    record.edit.text = "new text";
    record.edit.label = "Label9";
    const bool carries_subtree = kind == xml::SubtreeEdit::Kind::kReplaceSubtree ||
                                 kind == xml::SubtreeEdit::Kind::kInsertSubtree;
    if (carries_subtree) record.edit.subtree = xml::Document(subtree);
    std::string payload;
    EncodePayload(record, &payload);
    auto decoded = DecodePayload(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->edit.kind, kind);
    EXPECT_EQ(decoded->edit.target, 2);
    EXPECT_EQ(decoded->edit.position, 1);
    EXPECT_EQ(decoded->edit.text, "new text");
    EXPECT_EQ(decoded->edit.label, "Label9");
    if (carries_subtree) {
      std::string why;
      EXPECT_TRUE(
          testkit::ExhaustiveEquals(subtree, decoded->edit.subtree, &why))
          << why;
    } else {
      EXPECT_TRUE(decoded->edit.subtree.empty());
    }
  }
}

TEST(WalRecordTest, StampRevisionPatchesWithoutReencoding) {
  Record record;
  record.op = Op::kRemove;
  record.revision = 0;  // placeholder, as DocumentStore encodes it
  record.key = "victim";
  std::string payload;
  EncodePayload(record, &payload);
  StampRevision(&payload, 424242);
  auto decoded = DecodePayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->revision, 424242);
  EXPECT_EQ(decoded->key, "victim");
}

// The on-disk bytes are a compatibility surface: this golden pins the frame
// encoding of the simplest record (Remove, revision 7, key "k") byte by
// byte. If it changes, kJournalFormatVersion must be bumped.
TEST(WalRecordTest, FrameGoldenBytes) {
  Record record;
  record.op = Op::kRemove;
  record.revision = 7;
  record.key = "k";
  std::string payload;
  EncodePayload(record, &payload);
  std::string frame;
  AppendFrame(payload, &frame);
  const unsigned char expected[] = {
      0x0e, 0x00, 0x00, 0x00,                          // payload size 14
      0xc9, 0x30, 0xe2, 0xd5,                          // crc32(payload)
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // revision 7 (i64 LE)
      0x03,                                            // op = kRemove
      0x01, 0x00, 0x00, 0x00,                          // key size 1
      0x6b,                                            // 'k'
  };
  ASSERT_EQ(frame.size(), sizeof(expected));
  for (size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(frame[i]), expected[i]) << "byte " << i;
  }
}

TEST(WalRecordTest, JournalHeaderGoldenAndValidation) {
  std::string header;
  AppendJournalHeader(&header);
  ASSERT_EQ(header.size(), kJournalHeaderBytes);
  EXPECT_EQ(header.substr(0, 8), std::string("GKXWAL1\n"));
  auto offset = CheckJournalHeader(header);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, kJournalHeaderBytes);

  std::string bad_magic = header;
  bad_magic[0] = 'Z';
  EXPECT_FALSE(CheckJournalHeader(bad_magic).ok());
  std::string bad_version = header;
  bad_version[8] = 9;
  auto version = CheckJournalHeader(bad_version);
  ASSERT_FALSE(version.ok());
  EXPECT_NE(version.status().message().find("format version"),
            std::string::npos);
  EXPECT_FALSE(CheckJournalHeader(header.substr(0, 11)).ok());
}

TEST(WalRecordTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodePayload("").ok());
  EXPECT_FALSE(DecodePayload("short").ok());
  // Unknown op.
  Record record;
  record.op = Op::kRemove;
  record.key = "k";
  std::string payload;
  EncodePayload(record, &payload);
  payload[8] = 99;
  EXPECT_FALSE(DecodePayload(payload).ok());
  // Trailing bytes after a valid body.
  EncodePayload(record, &payload);
  payload += 'x';
  EXPECT_FALSE(DecodePayload(payload).ok());
}

// ------------------------------------------------------------- framing

/// Builds a journal byte string: header + one frame per record.
std::string BuildJournal(const std::vector<Record>& records) {
  std::string bytes;
  AppendJournalHeader(&bytes);
  for (const Record& record : records) {
    std::string payload;
    EncodePayload(record, &payload);
    AppendFrame(payload, &bytes);
  }
  return bytes;
}

/// Scans frames as recovery does; returns how many complete records were
/// read before the scan stopped (cleanly or at a torn tail).
int ScanFrames(std::string_view journal, bool* torn) {
  uint64_t offset = kJournalHeaderBytes;
  int frames = 0;
  *torn = false;
  while (offset < journal.size()) {
    auto payload = ReadFrame(journal, &offset);
    if (!payload.ok()) {
      *torn = true;
      return frames;
    }
    EXPECT_TRUE(DecodePayload(*payload).ok());
    ++frames;
  }
  return frames;
}

std::vector<Record> ThreeRecords() {
  std::vector<Record> records(3);
  records[0].op = Op::kPut;
  records[0].revision = 1;
  records[0].key = "a";
  records[0].doc = ParseOk("<r><x/></r>");
  records[1].op = Op::kUpdate;
  records[1].revision = 2;
  records[1].key = "a";
  records[1].edit.kind = xml::SubtreeEdit::Kind::kSetText;
  records[1].edit.target = 1;
  records[1].edit.text = "t";
  records[2].op = Op::kRemove;
  records[2].revision = 3;
  records[2].key = "a";
  return records;
}

// A journal cut at EVERY byte position inside the last record must recover
// exactly the two complete records before it — never a partial third,
// never fewer than two.
TEST(WalFramingTest, TruncationMatrixCutsAtEveryByteOfLastRecord) {
  const std::vector<Record> records = ThreeRecords();
  const std::string full = BuildJournal(records);
  const std::string two = BuildJournal({records[0], records[1]});
  ASSERT_LT(two.size(), full.size());
  // Cutting exactly at the record boundary is not torn — it IS a clean
  // two-record journal (a crash after a completed batch, before the next).
  {
    bool torn = false;
    EXPECT_EQ(ScanFrames(std::string_view(full).substr(0, two.size()), &torn),
              2);
    EXPECT_FALSE(torn);
  }
  for (size_t cut = two.size() + 1; cut < full.size(); ++cut) {
    bool torn = false;
    const int frames = ScanFrames(std::string_view(full).substr(0, cut), &torn);
    EXPECT_EQ(frames, 2) << "cut at byte " << cut;
    EXPECT_TRUE(torn) << "cut at byte " << cut;
  }
  // The uncut journal reads all three, cleanly.
  bool torn = false;
  EXPECT_EQ(ScanFrames(full, &torn), 3);
  EXPECT_FALSE(torn);
}

// Any single corrupted byte in a record makes the scan stop at that record:
// the complete prefix survives, nothing after it is applied.
TEST(WalFramingTest, BitFlipAnywhereIsCaught) {
  const std::vector<Record> records = ThreeRecords();
  const std::string full = BuildJournal(records);
  const size_t first_frame_end =
      BuildJournal({records[0]}).size();
  const size_t second_frame_end = BuildJournal({records[0], records[1]}).size();
  // Flip a byte at every offset of the SECOND frame (header and payload
  // alike): exactly one record must survive. A size-field flip may make the
  // remaining bytes implausible or mis-frame the third record — either way
  // the scan reports torn and never yields a corrupted decode.
  for (size_t at = first_frame_end; at < second_frame_end; ++at) {
    std::string bytes = full;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x40);
    bool torn = false;
    const int frames = ScanFrames(bytes, &torn);
    EXPECT_TRUE(torn) << "flip at byte " << at;
    EXPECT_LE(frames, 1) << "flip at byte " << at;
  }
}

// ----------------------------------------------------- group commit (TSan)

// Concurrent writers through the store: every acknowledged Put must be on
// disk when the WAL closes, whatever batches the committer chose. Reopening
// must reproduce all documents node-for-node. This is the test the TSan CI
// job runs to race Enqueue/WaitDurable/CommitterLoop/Checkpoint.
TEST(WalGroupCommitTest, ConcurrentWritersAllDurable) {
  const std::string dir = TempDirFor("group_commit");
  constexpr int kThreads = 4;
  constexpr int kDocsPerThread = 24;
  {
    service::DocumentStore store;
    WalOptions options;
    options.dir = dir;
    RecoveryReport report;
    auto wal = Wal::OpenAndRecover(options, &store, &report);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    store.AttachWal(wal->get());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        for (int i = 0; i < kDocsPerThread; ++i) {
          const std::string key =
              "doc" + std::to_string(t) + "_" + std::to_string(i);
          ASSERT_TRUE(
              store
                  .Put(key, xml::ChainDocument(3 + (t * kDocsPerThread + i) % 7))
                  .ok());
        }
      });
    }
    // A checkpoint racing the writers: its manifest captures some prefix,
    // replay covers the rest.
    std::thread checkpointer([&store, &wal] {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE((*wal)->Checkpoint(store).ok());
      }
    });
    for (auto& thread : threads) thread.join();
    checkpointer.join();
    ASSERT_EQ(store.size(), static_cast<size_t>(kThreads * kDocsPerThread));
    store.AttachWal(nullptr);
  }  // clean close

  service::DocumentStore recovered;
  WalOptions options;
  options.dir = dir;
  RecoveryReport report;
  auto wal = Wal::OpenAndRecover(options, &recovered, &report);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_FALSE(report.torn()) << report.torn_tail_reason;
  ASSERT_EQ(recovered.size(), static_cast<size_t>(kThreads * kDocsPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kDocsPerThread; ++i) {
      const std::string key =
          "doc" + std::to_string(t) + "_" + std::to_string(i);
      auto stored = recovered.Get(key);
      ASSERT_NE(stored, nullptr) << key;
      std::string why;
      EXPECT_TRUE(testkit::ExhaustiveEquals(
          stored->doc(), xml::ChainDocument(3 + (t * kDocsPerThread + i) % 7),
          &why))
          << key << ": " << why;
    }
  }
  std::filesystem::remove_all(dir);
}

// Revisions survive recovery: a post-recovery mutation must draw a revision
// strictly above everything a pre-crash observer could have seen.
TEST(WalGroupCommitTest, RevisionFloorSurvivesReopen) {
  const std::string dir = TempDirFor("revision_floor");
  int64_t before = 0;
  {
    service::DocumentStore store;
    WalOptions options;
    options.dir = dir;
    RecoveryReport report;
    auto wal = Wal::OpenAndRecover(options, &store, &report);
    ASSERT_TRUE(wal.ok());
    store.AttachWal(wal->get());
    ASSERT_TRUE(store.Put("a", xml::ChainDocument(3)).ok());
    ASSERT_TRUE(store.Put("a", xml::ChainDocument(4)).ok());
    ASSERT_TRUE(store.Put("b", xml::ChainDocument(5)).ok());
    before = store.last_revision();
    EXPECT_EQ(before, 3);
    store.AttachWal(nullptr);
  }
  service::DocumentStore recovered;
  WalOptions options;
  options.dir = dir;
  RecoveryReport report;
  auto wal = Wal::OpenAndRecover(options, &recovered, &report);
  ASSERT_TRUE(wal.ok());
  EXPECT_GE(recovered.last_revision(), before);
  EXPECT_EQ(report.revision_watermark, recovered.last_revision());
  recovered.AttachWal(wal->get());
  ASSERT_TRUE(recovered.Put("c", xml::ChainDocument(6)).ok());
  EXPECT_GT(recovered.Get("c")->revision(), before);
  recovered.AttachWal(nullptr);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gkx::wal
