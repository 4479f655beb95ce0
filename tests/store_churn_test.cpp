// Concurrent DocumentStore churn: writers replace (and remove) documents
// while readers Submit against them. Readers must observe a complete
// snapshot — every answer equals the answer for SOME registered revision,
// never a torn or freed state — and removal must never crash an in-flight
// evaluation (Get hands out shared_ptrs).
//
// Race coverage is strongest under ThreadSanitizer:
//   cmake -B build-tsan -S . -DGKX_SANITIZE=thread
//   cmake --build build-tsan --target store_churn_test
//   ./build-tsan/store_churn_test
// (see README "Testing & soak"). The assertions below are also meaningful
// without TSan: a torn snapshot produces an answer matching no revision.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/query_service.hpp"
#include "xml/generator.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace gkx::service {
namespace {

// Revision k is a chain of k+2 nodes, so count(//t*) distinguishes every
// revision with a single scalar answer.
xml::Document Revision(int k) { return xml::ChainDocument(k + 2); }

TEST(StoreChurnTest, ReadersSeeOldOrNewSnapshotNeverTorn) {
  constexpr int kRevisions = 12;
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 400;
  const std::string kQuery = "count(/descendant-or-self::*)";

  // Expected answer digests, one per revision: "number(k+2)".
  std::set<std::string> legal;
  QueryService scratch;
  for (int k = 0; k < kRevisions; ++k) {
    ASSERT_TRUE(scratch.RegisterDocument("probe", Revision(k)).ok());
    auto answer = scratch.Submit("probe", kQuery);
    ASSERT_TRUE(answer.ok());
    legal.insert(answer->value.DebugString());
  }
  ASSERT_EQ(legal.size(), kRevisions);  // every revision is distinguishable

  QueryService service;
  ASSERT_TRUE(service.RegisterDocument("d", Revision(0)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> errors{0};

  std::thread writer([&service, &stop] {
    // Cycle through the revisions until the readers are done.
    for (int k = 1; !stop.load(std::memory_order_relaxed); k = (k + 1) % kRevisions) {
      GKX_CHECK(service.RegisterDocument("d", Revision(k)).ok());
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &legal, &torn, &errors, &kQuery] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        auto answer = service.Submit("d", kQuery);
        if (!answer.ok()) {
          errors.fetch_add(1);
        } else if (legal.count(answer->value.DebugString()) == 0) {
          torn.fetch_add(1);
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(torn.load(), 0);
}

TEST(StoreChurnTest, RemovalNeverInvalidatesInFlightReaders) {
  QueryService service;
  ASSERT_TRUE(service.RegisterDocument("d", Revision(4)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> unexpected{0};

  std::thread churner([&service, &stop] {
    bool present = true;
    while (!stop.load(std::memory_order_relaxed)) {
      if (present) {
        service.RemoveDocument("d");
      } else {
        GKX_CHECK(service.RegisterDocument("d", Revision(4)).ok());
      }
      present = !present;
    }
    GKX_CHECK(service.RegisterDocument("d", Revision(4)).ok());
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&service, &unexpected] {
      for (int i = 0; i < 300; ++i) {
        auto answer = service.Submit("d", "/descendant::*");
        if (answer.ok()) continue;
        // The only legal failure is "unknown document key".
        if (answer.status().code() != StatusCode::kInvalidArgument) {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  churner.join();

  EXPECT_EQ(unexpected.load(), 0);
  // The store converged to the final registration.
  auto stored = service.documents().Get("d");
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(xml::SerializeDocument(stored->doc()),
            xml::SerializeDocument(Revision(4)));
}

// The delta-churn analogue of the snapshot test: a writer applies subtree
// patches (UpdateDocument — splice, index maintenance, delta-scoped
// invalidation) while readers submit and a standing query rides along.
// Each insert grows the document by exactly one node, so a reader's count
// answer is legal iff it lies in [base, base + edits applied so far] — a
// torn splice, a stale cached answer, or a lost patch lands outside.
TEST(StoreChurnTest, ConcurrentSubtreeUpdatesNeverTearSnapshots) {
  constexpr int kEdits = 60;
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 200;
  QueryService service;
  ASSERT_TRUE(service.RegisterXml("d", "<r><a/></r>").ok());
  const std::string kQuery = "count(/descendant-or-self::*)";

  std::atomic<int64_t> deliveries{0};
  auto subscription = service.Subscribe(
      "d", "//leaf",
      [&](const mview::SubscriptionEvent&) { deliveries.fetch_add(1); });
  ASSERT_TRUE(subscription.ok());

  std::atomic<int> unexpected{0};
  std::thread writer([&] {
    for (int i = 0; i < kEdits; ++i) {
      xml::SubtreeEdit edit;
      edit.kind = xml::SubtreeEdit::Kind::kInsertSubtree;
      edit.target = 0;
      edit.position = 0;
      auto leaf = xml::ParseDocument("<leaf/>");
      GKX_CHECK(leaf.ok());
      edit.subtree = std::move(leaf).value();
      GKX_CHECK(service.UpdateDocument("d", edit).ok());
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        auto answer = service.Submit("d", kQuery);
        if (!answer.ok()) {
          unexpected.fetch_add(1);
          continue;
        }
        const double count = answer->value.number();
        if (count < 2.0 || count > 2.0 + kEdits) unexpected.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  service.FlushSubscriptions();

  EXPECT_EQ(unexpected.load(), 0);
  // No patch was lost: the final document carries every insert.
  auto final_count = service.Submit("d", kQuery);
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->value.number(), 2.0 + kEdits);
  // The standing query followed the patches to the final state: deliveries
  // are coalesced, but the last one must have brought it to kEdits leaves.
  EXPECT_GT(deliveries.load(), 0);
  EXPECT_TRUE(service.Unsubscribe(*subscription));
}

// A reader holding a shared_ptr across removal keeps a valid document AND a
// valid lazily-built index (the index is owned by the StoredDocument).
TEST(StoreChurnTest, HeldSnapshotSurvivesRemovalWithIndex) {
  DocumentStore store;
  ASSERT_TRUE(store.Put("d", Revision(6)).ok());
  auto held = store.Get("d");
  ASSERT_NE(held, nullptr);
  ASSERT_TRUE(store.Remove("d"));
  // Build the index only now — after removal — from the held snapshot.
  EXPECT_EQ(held->index().NodesWithName("t1").size(), 2u);
  EXPECT_EQ(held->doc().size(), 8);
}

}  // namespace
}  // namespace gkx::service
