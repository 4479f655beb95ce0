// Crash-recovery tests for the WAL: the kill/checkpoint/reopen soak
// (testkit::RunSoak with a wal_dir — every acknowledged mutation must
// survive any kill, ExhaustiveEquals-identical, and the reopened service
// must keep serving oracle-checked answers), fault-injection teeth (torn
// tails and bit flips are detected, truncated, and reported — never
// applied; corrupt manifests/snapshots fail recovery loudly and the service
// degrades to in-memory serving), and deterministic replay-idempotence (a
// record covered by both a snapshot and the journal suffix is skipped, not
// re-applied).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/document_store.hpp"
#include "service/query_service.hpp"
#include "testkit/oracle.hpp"
#include "testkit/reference_edit.hpp"
#include "testkit/soak_driver.hpp"
#include "testkit/workload.hpp"
#include "wal/record.hpp"
#include "wal/wal.hpp"
#include "xml/generator.hpp"
#include "xml/parser.hpp"

namespace gkx::wal {
namespace {

std::string TempDirFor(const char* name) {
  std::string dir = ::testing::TempDir() + "/wal_recovery_" + name;
  std::filesystem::remove_all(dir);
  return dir;
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

xml::Document ParseOk(std::string_view xml) {
  auto doc = xml::ParseDocument(xml);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

/// Opens a WAL over `store` at `dir`, expecting success.
std::unique_ptr<Wal> OpenOk(const std::string& dir,
                            service::DocumentStore* store,
                            RecoveryReport* report) {
  WalOptions options;
  options.dir = dir;
  options.group_commit_window_us = 50;
  auto wal = Wal::OpenAndRecover(options, store, report);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  return wal.ok() ? std::move(wal).value() : nullptr;
}

/// A directory with three acked records in the journal (no checkpoint since
/// they were appended): put a@1, put b@2, update b@3 (kSetText "edited").
void SeedJournal(const std::string& dir) {
  service::DocumentStore store;
  RecoveryReport report;
  auto wal = OpenOk(dir, &store, &report);
  ASSERT_NE(wal, nullptr);
  store.AttachWal(wal.get());
  ASSERT_TRUE(store.Put("a", ParseOk("<r><a1>alpha</a1></r>")).ok());
  ASSERT_TRUE(store.Put("b", ParseOk("<r><b1>beta</b1><b2/></r>")).ok());
  xml::SubtreeEdit edit;
  edit.kind = xml::SubtreeEdit::Kind::kSetText;
  edit.target = 1;
  edit.text = "edited";
  ASSERT_TRUE(store.Update("b", edit).ok());
  store.AttachWal(nullptr);
}

// --------------------------------------------------------------- the soak

// Durable mutations across kill/checkpoint/reopen rounds, the corpus
// re-verified node-for-node after every reopen and every segment's reads
// oracle-checked. Rounds alternate clean closes with crash kills; the
// mid-round checkpoint races live writers; a small auto-checkpoint
// threshold makes the byte-trigger fire under traffic too.
TEST(WalRecoverySoakTest, KillCheckpointReopenRoundsLoseNothing) {
  testkit::WorkloadSpec spec;
  spec.seed = 20260807;
  spec.operations = 260;
  spec.documents = 5;
  spec.min_document_nodes = 24;
  spec.max_document_nodes = 64;
  spec.queries = 12;
  spec.churn_probability = 0.55;  // this soak is about mutations
  spec.edit_probability = 0.5;
  auto schedule = testkit::CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();

  testkit::SoakOptions options;
  options.rounds = 5;
  options.threads = 4;
  options.wal_dir = TempDirFor("soak");
  options.service.wal.group_commit_window_us = 100;
  options.service.wal.checkpoint_every_bytes = 96 << 10;
  auto report = testkit::RunSoak(*schedule, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.mutations, 0);
  EXPECT_EQ(report.recoveries, 5);
  EXPECT_EQ(report.crashes, 2);
  EXPECT_EQ(report.clean_closes, 3);
  EXPECT_GT(report.snapshots_loaded, 0);
  std::filesystem::remove_all(options.wal_dir);
}

// The configuration the wire serves — a 2-shard router with the WAL on —
// under the differential oracle: two crash rounds, each hitting one victim
// shard while its sibling checkpoints and closes cleanly, and every reopen
// followed by a segment of oracle-checked reads, subscriptions and churn.
TEST(WalRecoverySoakTest, TwoShardCrashRoundsKeepServingOracleAnswers) {
  testkit::WorkloadSpec spec;
  spec.seed = 20261017;
  spec.operations = 1200;
  spec.documents = 8;
  spec.min_document_nodes = 24;
  spec.max_document_nodes = 64;
  spec.queries = 16;
  spec.churn_probability = 0.05;
  auto schedule = testkit::CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();

  testkit::SoakOptions options;
  options.shards = 2;
  options.rounds = 4;
  options.threads = 4;
  options.standing_queries = 2;
  options.wal_dir = TempDirFor("two_shards");
  options.service.wal.group_commit_window_us = 100;
  auto report = testkit::RunSoak(*schedule, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.crashes, 2);
  EXPECT_EQ(report.recoveries, 4);
  EXPECT_GT(report.victim_records_replayed, 0) << report.Summary();
  // Every segment after the first ran on a recovered router.
  EXPECT_EQ(report.requests, schedule->total_requests);
  EXPECT_GT(report.subscription_events, 0);
  std::filesystem::remove_all(options.wal_dir);
}

// ------------------------------------------------------------ fault teeth

// A bit flip in the journal's last record: recovery truncates the torn
// tail, reports it (reason + wal.torn_tail counter input), and restores
// exactly the records before the flip.
TEST(WalFaultTest, BitFlipInLastRecordIsTruncatedAndReported) {
  const std::string dir = TempDirFor("bitflip");
  SeedJournal(dir);
  const std::string journal = dir + "/journal.log";
  std::string bytes = ReadFile(journal);
  ASSERT_GT(bytes.size(), kJournalHeaderBytes + 8);
  // Flip one byte near the end — inside the final (update) record.
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
  WriteFile(journal, bytes);

  service::DocumentStore store;
  RecoveryReport report;
  auto wal = OpenOk(dir, &store, &report);
  ASSERT_NE(wal, nullptr);
  EXPECT_TRUE(report.torn());
  EXPECT_GT(report.torn_tail_bytes, 0);
  EXPECT_NE(report.torn_tail_reason.find("CRC"), std::string::npos)
      << report.torn_tail_reason;
  EXPECT_EQ(report.records_replayed, 2);
  // The update was torn away: b is back at its pre-edit text.
  ASSERT_NE(store.Get("a"), nullptr);
  ASSERT_NE(store.Get("b"), nullptr);
  std::string why;
  EXPECT_TRUE(testkit::ExhaustiveEquals(
      store.Get("b")->doc(), ParseOk("<r><b1>beta</b1><b2/></r>"), &why))
      << why;
  wal.reset();
  std::filesystem::remove_all(dir);
}

// A crash mid-append tears the frame at an arbitrary byte: every truncation
// length recovers the complete prefix. (The byte-exhaustive matrix is in
// wal_test; this drives the same property through full OpenAndRecover,
// including the post-recovery normalization.)
TEST(WalFaultTest, TruncatedTailRecoversPrefix) {
  const std::string dir = TempDirFor("truncate");
  SeedJournal(dir);
  const std::string journal = dir + "/journal.log";
  const std::string bytes = ReadFile(journal);
  for (const size_t chop : {size_t{1}, size_t{7}, size_t{19}}) {
    // Each iteration restores the seeded journal bytes, then tears them:
    // recovery normalized the directory on the previous pass, so the
    // manifest must be re-seeded too (delete it to replay from scratch).
    std::filesystem::remove_all(dir);
    SeedJournal(dir);
    WriteFile(journal, std::string_view(bytes).substr(0, bytes.size() - chop));
    service::DocumentStore store;
    RecoveryReport report;
    auto wal = OpenOk(dir, &store, &report);
    ASSERT_NE(wal, nullptr);
    EXPECT_TRUE(report.torn()) << "chop=" << chop;
    EXPECT_EQ(report.records_replayed, 2) << "chop=" << chop;
    EXPECT_NE(store.Get("a"), nullptr);
    EXPECT_NE(store.Get("b"), nullptr);
  }
  std::filesystem::remove_all(dir);
}

// A corrupt manifest must fail recovery loudly — and QueryService must then
// degrade to in-memory serving with the reason in wal_status().
TEST(WalFaultTest, CorruptManifestFailsOpenAndServiceDegrades) {
  const std::string dir = TempDirFor("manifest");
  {
    service::QueryService::Options options;
    options.wal_dir = dir;
    service::QueryService service(options);
    ASSERT_TRUE(service.wal_status().ok()) << service.wal_status().ToString();
    ASSERT_TRUE(service.RegisterDocument("d", xml::ChainDocument(4)).ok());
    ASSERT_TRUE(service.CheckpointNow().ok());
  }
  const std::string manifest = dir + "/MANIFEST";
  std::string bytes = ReadFile(manifest);
  ASSERT_GT(bytes.size(), 12u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  WriteFile(manifest, bytes);

  // Direct open: a hard error, not a silent empty corpus.
  {
    service::DocumentStore store;
    WalOptions options;
    options.dir = dir;
    RecoveryReport report;
    auto wal = Wal::OpenAndRecover(options, &store, &report);
    EXPECT_FALSE(wal.ok());
  }
  // Through the service: constructs, serves, reports why it is not durable.
  service::QueryService::Options options;
  options.wal_dir = dir;
  service::QueryService degraded(options);
  EXPECT_FALSE(degraded.wal_enabled());
  EXPECT_FALSE(degraded.wal_status().ok());
  ASSERT_TRUE(degraded.RegisterDocument("d", xml::ChainDocument(4)).ok());
  auto answer = degraded.Submit("d", "/descendant::*");
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  std::filesystem::remove_all(dir);
}

// A manifest whose entry count no payload of its size could hold is
// corrupt: recovery must say so instead of sizing a table by the count.
TEST(WalFaultTest, ManifestEntryCountBeyondPayloadFailsOpen) {
  const std::string dir = TempDirFor("manifest_count");
  std::filesystem::create_directories(dir);
  // [u32 version][u64 journal offset][i64 watermark][u64 checkpoint seq]
  // [u32 entry count = 0xFFFFFFFF], and no entries.
  std::string payload;
  wire::Append(uint32_t{1}, &payload);
  wire::Append(kJournalHeaderBytes, &payload);
  wire::Append(int64_t{0}, &payload);
  wire::Append(uint64_t{0}, &payload);
  wire::Append(uint32_t{0xFFFFFFFFu}, &payload);
  std::string framed;
  AppendFrame(payload, &framed);
  WriteFile(dir + "/MANIFEST", framed);

  service::DocumentStore store;
  WalOptions options;
  options.dir = dir;
  RecoveryReport report;
  auto wal = Wal::OpenAndRecover(options, &store, &report);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wal.status().message().find("entry count"), std::string::npos)
      << wal.status().message();
  std::filesystem::remove_all(dir);
}

// A corrupt checkpoint snapshot is caught by the arena's own header
// checksum at MapSnapshot time and fails recovery.
TEST(WalFaultTest, CorruptSnapshotFailsOpen) {
  const std::string dir = TempDirFor("snapshot");
  {
    service::DocumentStore store;
    RecoveryReport report;
    auto wal = OpenOk(dir, &store, &report);
    ASSERT_NE(wal, nullptr);
    store.AttachWal(wal.get());
    ASSERT_TRUE(store.Put("d", xml::ChainDocument(8)).ok());
    ASSERT_TRUE(wal->Checkpoint(store).ok());
    store.AttachWal(nullptr);
  }
  bool corrupted = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    std::string bytes = ReadFile(entry.path().string());
    ASSERT_GT(bytes.size(), 64u);
    bytes[48] = static_cast<char>(bytes[48] ^ 0x20);
    WriteFile(entry.path().string(), bytes);
    corrupted = true;
  }
  ASSERT_TRUE(corrupted) << "checkpoint produced no snap-* file";
  service::DocumentStore store;
  WalOptions options;
  options.dir = dir;
  RecoveryReport report;
  auto wal = Wal::OpenAndRecover(options, &store, &report);
  EXPECT_FALSE(wal.ok());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------- semantics

TEST(WalRecoveryTest, RemoveIsDurable) {
  const std::string dir = TempDirFor("remove");
  {
    service::DocumentStore store;
    RecoveryReport report;
    auto wal = OpenOk(dir, &store, &report);
    ASSERT_NE(wal, nullptr);
    store.AttachWal(wal.get());
    ASSERT_TRUE(store.Put("keep", xml::ChainDocument(3)).ok());
    ASSERT_TRUE(store.Put("gone", xml::ChainDocument(4)).ok());
    ASSERT_TRUE(store.Remove("gone"));
    store.AttachWal(nullptr);
  }
  service::DocumentStore store;
  RecoveryReport report;
  auto wal = OpenOk(dir, &store, &report);
  ASSERT_NE(wal, nullptr);
  EXPECT_NE(store.Get("keep"), nullptr);
  EXPECT_EQ(store.Get("gone"), nullptr);
  EXPECT_EQ(store.size(), 1u);
  wal.reset();
  std::filesystem::remove_all(dir);
}

// Replay idempotence, deterministically: after recovery normalizes the
// directory (snapshots cover everything, journal reset), re-appending the
// OLD journal's frames fabricates exactly the checkpoint/append race —
// records covered by both a snapshot and the suffix. Replay must skip every
// one of them and reproduce the identical corpus.
TEST(WalRecoveryTest, ReplaySkipsSnapshotCoveredRecords) {
  const std::string dir = TempDirFor("idempotence");
  SeedJournal(dir);
  const std::string journal = dir + "/journal.log";
  const std::string old_frames =
      ReadFile(journal).substr(kJournalHeaderBytes);

  // First recovery: replays the 3 records, then normalizes (checkpoint of
  // a@1 b@3, journal reset).
  service::DocumentStore first;
  {
    RecoveryReport report;
    auto wal = OpenOk(dir, &first, &report);
    ASSERT_NE(wal, nullptr);
    EXPECT_EQ(report.records_replayed, 3);
  }
  // Fabricate double coverage: the old records re-appear as the suffix.
  std::string bytes = ReadFile(journal);
  ASSERT_EQ(bytes.size(), kJournalHeaderBytes);
  WriteFile(journal, bytes + old_frames);

  service::DocumentStore second;
  RecoveryReport report;
  auto wal = OpenOk(dir, &second, &report);
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(report.snapshots_loaded, 2);
  EXPECT_EQ(report.records_replayed, 0);
  EXPECT_EQ(report.records_skipped, 3);
  EXPECT_FALSE(report.torn());
  ASSERT_EQ(second.size(), first.size());
  for (const std::string& key : first.Keys()) {
    ASSERT_NE(second.Get(key), nullptr) << key;
    std::string why;
    EXPECT_TRUE(testkit::ExhaustiveEquals(first.Get(key)->doc(),
                                          second.Get(key)->doc(), &why))
        << key << ": " << why;
    EXPECT_EQ(first.Get(key)->revision(), second.Get(key)->revision()) << key;
  }
  wal.reset();
  std::filesystem::remove_all(dir);
}

// End-to-end through the service: the full mutation mix (register, edit,
// remove, replace) recovers through a fresh QueryService, which then
// serves queries against the recovered corpus.
TEST(WalRecoveryTest, ServiceRoundTripServesRecoveredCorpus) {
  const std::string dir = TempDirFor("service");
  std::string expect_b;
  {
    service::QueryService::Options options;
    options.wal_dir = dir;
    service::QueryService service(options);
    ASSERT_TRUE(service.wal_status().ok()) << service.wal_status().ToString();
    ASSERT_TRUE(service.RegisterDocument("a", xml::ChainDocument(6)).ok());
    ASSERT_TRUE(
        service.RegisterXml("b", "<r><x>one</x><y labels='G'>two</y></r>")
            .ok());
    ASSERT_TRUE(service.RegisterDocument("c", xml::ChainDocument(3)).ok());
    xml::SubtreeEdit edit;
    edit.kind = xml::SubtreeEdit::Kind::kSetText;
    edit.target = 1;
    edit.text = "edited";
    ASSERT_TRUE(service.UpdateDocument("b", edit).ok());
    ASSERT_TRUE(service.RemoveDocument("c"));
    ASSERT_TRUE(service.RegisterDocument("a", xml::ChainDocument(9)).ok());
    auto baseline = service.Submit("b", "/descendant::x");
    ASSERT_TRUE(baseline.ok());
    expect_b = testkit::AnswerDigest(baseline->value);
  }
  service::QueryService::Options options;
  options.wal_dir = dir;
  service::QueryService service(options);
  ASSERT_TRUE(service.wal_status().ok()) << service.wal_status().ToString();
  ASSERT_TRUE(service.wal_enabled());
  EXPECT_EQ(service.documents().size(), 2u);
  EXPECT_EQ(service.documents().Get("c"), nullptr);
  ASSERT_NE(service.documents().Get("a"), nullptr);
  EXPECT_EQ(service.documents().Get("a")->doc().size(), 9);
  auto answer = service.Submit("b", "/descendant::x");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(testkit::AnswerDigest(answer->value), expect_b);
  EXPECT_EQ(service.documents().Get("b")->doc().text(1), "edited");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gkx::wal
