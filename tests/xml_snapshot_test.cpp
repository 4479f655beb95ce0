// Snapshot format tests: save/map round-trips (including payload-heavy and
// mapped-copy cases), serving queries straight off a mapping, and the
// corruption matrix — truncations at every prefix length, version bumps,
// checksum damage, bad magic, and missing files must all fail with clean
// diagnostics, never UB.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testkit/reference_edit.hpp"
#include "xml/edit.hpp"
#include "xml/generator.hpp"
#include "xml/index.hpp"
#include "xml/parser.hpp"
#include "xml/snapshot.hpp"

namespace gkx::xml {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

Document PayloadHeavyDoc() {
  auto doc = ParseDocument(
      "<r id='1' class='x y'><a labels='G R I1'>alpha</a>"
      "<b>beta<b2 k='v'/>gamma</b><c labels='G'/><d/></r>");
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

void ExpectMapFails(const std::string& path, std::string_view fragment) {
  auto mapped = MapSnapshot(path);
  ASSERT_FALSE(mapped.ok()) << "expected failure containing '" << fragment
                            << "'";
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument)
      << mapped.status().ToString();
  EXPECT_NE(mapped.status().message().find(fragment), std::string::npos)
      << mapped.status().message();
}

TEST(SnapshotTest, RoundTripPreservesEveryField) {
  const std::string path = TempPath("roundtrip.gkx");
  Document original = PayloadHeavyDoc();
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  auto mapped = MapSnapshot(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->mapped());
  std::string why;
  EXPECT_TRUE(testkit::ExhaustiveEquals(original, *mapped, &why)) << why;
  std::remove(path.c_str());
}

TEST(SnapshotTest, MappedDocumentServesQueries) {
  const std::string path = TempPath("serving.gkx");
  Document original = PayloadHeavyDoc();
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  auto mapped = MapSnapshot(path);
  ASSERT_TRUE(mapped.ok());
  // Name lookups, payload reads, and the index all work off the mapping.
  EXPECT_TRUE(mapped->NodeHasName(1, "G"));
  EXPECT_EQ(mapped->AttributeValue(0, "class"), "x y");
  EXPECT_EQ(mapped->StringValue(2), "betagamma");
  DocumentIndex index(*mapped);
  DocumentIndex fresh(original);
  for (const std::string& name : original.InternedNames()) {
    EXPECT_EQ(index.NodesWithName(name), fresh.NodesWithName(name)) << name;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, MappedDocumentCopiesMaterializeAndEdit) {
  const std::string path = TempPath("editable.gkx");
  Document original = PayloadHeavyDoc();
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  auto mapped = MapSnapshot(path);
  ASSERT_TRUE(mapped.ok());
  SubtreeEdit edit;
  edit.kind = SubtreeEdit::Kind::kSetText;
  edit.target = 1;
  edit.text = "edited";
  auto edited = ApplyEdit(*mapped, edit);
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  EXPECT_FALSE(edited->mapped());
  EXPECT_EQ(edited->text(1), "edited");
  // The mapping is untouched.
  EXPECT_EQ(mapped->text(1), "alpha");
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveOverwritesAtomically) {
  const std::string path = TempPath("overwrite.gkx");
  Document original = PayloadHeavyDoc();
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  Document small = ChainDocument(3);
  ASSERT_TRUE(SaveSnapshot(small, path).ok());
  auto mapped = MapSnapshot(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->size(), 3);
  std::remove(path.c_str());
}

// --- the corruption matrix ---

TEST(SnapshotCorruptionTest, EveryTruncationFailsCleanly) {
  const std::string path = TempPath("truncated.gkx");
  ASSERT_TRUE(SaveSnapshot(ChainDocument(5), path).ok());
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 0u);
  // Every proper prefix must be rejected (header-size check or the
  // header-declared file_size check), never mapped.
  for (size_t length = 0; length < bytes.size();
       length += (length < 400 ? 1 : 97)) {
    WriteFile(path, std::string_view(bytes).substr(0, length));
    ExpectMapFails(path, "truncated");
  }
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, VersionBumpIsDiagnosed) {
  const std::string path = TempPath("version.gkx");
  ASSERT_TRUE(SaveSnapshot(ChainDocument(5), path).ok());
  std::string bytes = ReadFile(path);
  // The version field sits right after the 8-byte magic.
  bytes[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  WriteFile(path, bytes);
  ExpectMapFails(path, "format version");
}

TEST(SnapshotCorruptionTest, HeaderBitFlipFailsChecksum) {
  const std::string path = TempPath("bitflip.gkx");
  ASSERT_TRUE(SaveSnapshot(ChainDocument(5), path).ok());
  const std::string pristine = ReadFile(path);
  // Flip one byte at several header positions past magic+version (node
  // count, pool counts, section offsets/sizes): all must fail the checksum
  // (or a later structural check), none may map.
  for (size_t at : {16u, 24u, 40u, 56u, 120u, 200u}) {
    std::string bytes = pristine;
    ASSERT_LT(at, bytes.size());
    bytes[at] = static_cast<char>(bytes[at] ^ 0x5a);
    WriteFile(path, bytes);
    auto mapped = MapSnapshot(path);
    ASSERT_FALSE(mapped.ok()) << "byte " << at;
    EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, BadMagicIsDiagnosed) {
  const std::string path = TempPath("magic.gkx");
  ASSERT_TRUE(SaveSnapshot(ChainDocument(5), path).ok());
  std::string bytes = ReadFile(path);
  bytes[0] = 'Z';
  WriteFile(path, bytes);
  ExpectMapFails(path, "bad magic");
  // An unrelated file of plausible size is also just "not a snapshot".
  WriteFile(path, std::string(4096, 'x'));
  ExpectMapFails(path, "bad magic");
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, MissingFileFailsWithoutCreating) {
  const std::string path = TempPath("never_written.gkx");
  auto mapped = MapSnapshot(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().ToString().find(path), std::string::npos);
}

// --- crash-mid-save teeth (the WAL's checkpoint atomicity rests on these) ---

// A crash can strand a stale ".tmp" sibling from an earlier save. The next
// save must plow through it, and the final file must be the new snapshot.
TEST(SnapshotCrashTest, StaleTempFileNeverPoisonsTheNextSave) {
  const std::string path = TempPath("stale_tmp.gkx");
  WriteFile(path + ".tmp", "garbage left by a crashed saver");
  Document original = PayloadHeavyDoc();
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  auto mapped = MapSnapshot(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::string why;
  EXPECT_TRUE(testkit::ExhaustiveEquals(original, *mapped, &why)) << why;
  // The temp sibling was consumed by the rename, not left behind.
  EXPECT_FALSE(MapSnapshot(path + ".tmp").ok());
  std::remove(path.c_str());
}

// A crash between the temp write and the rename leaves a partial ".tmp" and
// an intact previous snapshot: readers of `path` must still see the OLD
// document — the half-written bytes are invisible until the atomic rename.
TEST(SnapshotCrashTest, PartialTempWriteLeavesPreviousSnapshotReadable) {
  const std::string path = TempPath("partial_tmp.gkx");
  ASSERT_TRUE(SaveSnapshot(ChainDocument(4), path).ok());
  // Fabricate the crash: a prefix of a real snapshot, parked at the temp
  // name (never renamed).
  const std::string next = TempPath("partial_tmp_next.gkx");
  ASSERT_TRUE(SaveSnapshot(PayloadHeavyDoc(), next).ok());
  WriteFile(path + ".tmp", ReadFile(next).substr(0, 100));
  auto mapped = MapSnapshot(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->size(), 4);
  // And if the crash happened before ANY snapshot existed, the target path
  // simply does not exist — a clean, diagnosable miss, not a torn read.
  const std::string never = TempPath("crashed_first_save.gkx");
  WriteFile(never + ".tmp", ReadFile(next).substr(0, 100));
  EXPECT_FALSE(MapSnapshot(never).ok());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove(next.c_str());
  std::remove((never + ".tmp").c_str());
}

// An unwritable temp path (here: the ".tmp" name is a directory) fails the
// save cleanly and leaves the existing snapshot untouched.
TEST(SnapshotCrashTest, UnwritableTempFailsWithoutTouchingTarget) {
  const std::string path = TempPath("blocked_tmp.gkx");
  ASSERT_TRUE(SaveSnapshot(ChainDocument(6), path).ok());
  ASSERT_TRUE(std::filesystem::create_directory(path + ".tmp"));
  EXPECT_FALSE(SaveSnapshot(PayloadHeavyDoc(), path).ok());
  auto mapped = MapSnapshot(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->size(), 6);
  std::filesystem::remove(path + ".tmp");
  std::remove(path.c_str());
}

// --- the in-memory bytes codec (the WAL embeds snapshots in records) ---

TEST(SnapshotBytesTest, BytesRoundTripPreservesEveryField) {
  Document original = PayloadHeavyDoc();
  std::string bytes;
  SaveSnapshotBytes(original, &bytes);
  auto loaded = LoadSnapshotBytes(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->mapped());  // owned copy, independently editable
  std::string why;
  EXPECT_TRUE(testkit::ExhaustiveEquals(original, *loaded, &why)) << why;
}

// The WAL hands the decoder snapshot bodies at arbitrary offsets inside a
// journal payload. The section views are typed, so every misaligned start
// must still decode (read through the raw bytes, UBSan flags a misaligned
// load).
TEST(SnapshotBytesTest, MisalignedBytesRoundTrip) {
  Document original = PayloadHeavyDoc();
  std::string bytes;
  SaveSnapshotBytes(original, &bytes);
  std::vector<uint64_t> storage(bytes.size() / sizeof(uint64_t) + 2);
  char* base = reinterpret_cast<char*>(storage.data());
  for (size_t offset = 1; offset < sizeof(uint64_t); ++offset) {
    std::memcpy(base + offset, bytes.data(), bytes.size());
    auto loaded =
        LoadSnapshotBytes(std::string_view(base + offset, bytes.size()));
    ASSERT_TRUE(loaded.ok()) << "offset " << offset << ": "
                             << loaded.status().ToString();
    std::string why;
    EXPECT_TRUE(testkit::ExhaustiveEquals(original, *loaded, &why))
        << "offset " << offset << ": " << why;
  }
}

TEST(SnapshotBytesTest, BytesMatchTheFileFormat) {
  // One codec, two carriers: the bytes SaveSnapshotBytes produces are the
  // same bytes SaveSnapshot writes (so WAL-embedded and checkpoint-file
  // snapshots can never drift apart).
  const std::string path = TempPath("bytes_vs_file.gkx");
  Document original = PayloadHeavyDoc();
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  std::string bytes;
  SaveSnapshotBytes(original, &bytes);
  EXPECT_EQ(bytes, ReadFile(path));
  std::remove(path.c_str());
}

TEST(SnapshotBytesTest, CorruptBytesAreRejected) {
  std::string bytes;
  SaveSnapshotBytes(ChainDocument(5), &bytes);
  for (size_t length = 0; length < bytes.size();
       length += (length < 400 ? 7 : 111)) {
    EXPECT_FALSE(LoadSnapshotBytes(bytes.substr(0, length)).ok())
        << "prefix " << length;
  }
  std::string flipped = bytes;
  flipped[24] = static_cast<char>(flipped[24] ^ 0x5a);
  EXPECT_FALSE(LoadSnapshotBytes(flipped).ok());
}

// The header checksum does not cover the sections, so the decoder checks
// their contents against Document's invariant: each damaged link, size,
// depth, name or payload span below must fail with InvalidArgument, from
// bytes and from a mapped file alike, before an unchecked column sweep
// could index with it.
TEST(SnapshotBytesTest, CorruptContentsAreRejected) {
  const Document doc = PayloadHeavyDoc();
  std::string bytes;
  SaveSnapshotBytes(doc, &bytes);
  ASSERT_TRUE(LoadSnapshotBytes(bytes).ok());
  // a's labels open the label pool (r has none), and its tag id is below
  // its second label, so writing the tag over the first label breaks only
  // the tag/label disjointness.
  const NameId a_tag = doc.tag(1);
  const std::span<const NameId> a_labels = doc.labels(1);
  ASSERT_TRUE(doc.labels(0).empty());
  ASSERT_EQ(a_labels.size(), 3u);
  ASSERT_LT(a_tag, a_labels[1]);
  // Header layout (xml/snapshot.cpp): u64 section offsets from byte 56, in
  // the order parent, first_child, last_child, prev_sibling, next_sibling,
  // subtree_size, depth, tag, text_span, label_span, attr_span, label_pool,
  // attr_pool. A span is two u32 words, (offset, length).
  enum { kParent, kFirstChild, kLastChild, kPrevSibling, kNextSibling,
         kSubtreeSize, kDepth, kTag, kTextSpan, kLabelSpan, kAttrSpan,
         kLabelPool, kAttrPool };
  auto section = [&bytes](int s) {
    uint64_t offset = 0;
    std::memcpy(&offset, bytes.data() + 56 + 8 * s, sizeof(offset));
    return offset;
  };
  struct Damage {
    int section;
    int word;  // 4-byte word within the section
    int32_t value;
    const char* what;
  };
  // PayloadHeavyDoc in preorder: r(0) a(1) b(2) b2(3) c(4) d(5).
  const Damage damages[] = {
      {kParent, 1, 6, "parent link"},   // past the last node
      {kParent, 2, -1, "parent link"},  // a second root
      {kParent, 3, 3, "parent link"},   // its own parent
      {kParent, 3, 1, "parent link"},   // b2 under a, against the sizes
      {kFirstChild, 2, 7, "first-child link"},
      {kLastChild, 0, 4, "last-child link"},  // c, which d follows
      {kPrevSibling, 5, -7, "previous-sibling link"},
      {kPrevSibling, 2, 2, "previous-sibling link"},
      {kPrevSibling, 1, 0, "previous-sibling link"},  // a opens r's children
      {kPrevSibling, 5, 1, "previous-sibling link"},  // a, which b follows
      {kNextSibling, 1, 3, "next-sibling link"},
      {kSubtreeSize, 0, 7, "subtree size"},
      {kSubtreeSize, 2, 0, "subtree size"},
      {kDepth, 4, 5, "depth"},
      {kTag, 3, 1000, "tag outside"},
      {kTag, 3, -1, "tag outside"},
      {kTextSpan, 2 * 2 + 1, 1 << 20, "text span"},
      {kLabelSpan, 2 * 1, 1000, "label span"},
      {kLabelPool, 2, 1000, "labels not ascending"},  // past the names
      {kLabelPool, 1, a_labels[0], "labels not ascending"},  // repeated
      {kLabelPool, 0, a_tag, "labels not ascending"},        // the tag
      {kAttrSpan, 2 * 3 + 1, 100, "attribute span"},
      {kAttrPool, 0, 1 << 30, "attribute bytes"},
  };
  for (const Damage& d : damages) {
    std::string damaged = bytes;
    std::memcpy(damaged.data() + section(d.section) + 4 * d.word, &d.value,
                sizeof(d.value));
    auto loaded = LoadSnapshotBytes(damaged);
    ASSERT_FALSE(loaded.ok()) << d.what << " at section " << d.section
                              << " word " << d.word;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(d.what), std::string::npos)
        << loaded.status().message();
  }

  const std::string path = TempPath("damaged_parent.gkx");
  std::string damaged = bytes;
  const int32_t far = 1 << 20;
  std::memcpy(damaged.data() + section(kParent) + 4, &far, sizeof(far));
  WriteFile(path, damaged);
  auto mapped = MapSnapshot(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotBytesTest, NameCountBeyondTheNameTableIsRejected) {
  // A name_count no name table could hold, with the header checksum
  // recomputed so every header check passes: the loader must reject the
  // count before sizing anything by it.
  std::string bytes;
  SaveSnapshotBytes(ChainDocument(5), &bytes);
  // Header layout (xml/snapshot.cpp): u32 name_count at byte 12, the first
  // section offset — the header size — at byte 56, and the FNV-1a checksum
  // (taken with itself zeroed) in the header's last 8 bytes.
  uint64_t header_size = 0;
  std::memcpy(&header_size, bytes.data() + 56, sizeof(header_size));
  ASSERT_LE(header_size, bytes.size());
  auto checksum = [&bytes, header_size] {
    uint64_t hash = 1469598103934665603ull;
    for (uint64_t i = 0; i < header_size; ++i) {
      hash ^= i + 8 >= header_size ? 0 : static_cast<unsigned char>(bytes[i]);
      hash *= 1099511628211ull;
    }
    return hash;
  };
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + header_size - 8, sizeof(stored));
  ASSERT_EQ(stored, checksum());  // the layout above is the real one

  const uint32_t name_count = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 12, &name_count, sizeof(name_count));
  const uint64_t recomputed = checksum();
  std::memcpy(bytes.data() + header_size - 8, &recomputed, sizeof(recomputed));
  auto loaded = LoadSnapshotBytes(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("name count"), std::string::npos)
      << loaded.status().message();
}

}  // namespace
}  // namespace gkx::xml
