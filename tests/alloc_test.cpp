// Heap allocations on the warm-answer path. This binary replaces the global
// operator new with one that counts, serves batches that the answer cache
// answers entirely, and compares what a batch allocated with what copying
// its answers allocates. Serving a hit may cost that copy of the cached
// Answer and nothing else per request, plus a constant per batch; the
// 2-shard router adds nothing per request. The copy itself costs at most one
// allocation per answer: an Answer holds its value, the plan's fragment
// flags and its route string, and no classifier prose.
//
// The corpus has the shape of wirebench's hot_read workload: 64 documents
// of 200-600 nodes keyed "doc<i>" and 48 generated queries.
//
// AddressSanitizer and ThreadSanitizer replace operator new themselves, so
// CMakeLists.txt leaves this binary out of -DGKX_SANITIZE=address|thread
// builds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "base/thread_pool.hpp"
#include "service/query_service.hpp"
#include "service/sharded_service.hpp"
#include "testkit/workload.hpp"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  // aligned_alloc wants a multiple of the alignment.
  void* p = align == 0 ? std::malloc(size)
                       : std::aligned_alloc(align, (size + align - 1) / align *
                                                       align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The array, nothrow and sized forms of the library forward to these.
void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace gkx::service {
namespace {

using Answer = QueryService::Answer;

/// What one batch may allocate besides the answer copies: the response
/// vector, the batch loop's engine, the router's per-shard state.
constexpr int64_t kPerBatch = 8;

int64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

testkit::Schedule HotReadCorpus() {
  testkit::WorkloadSpec spec;
  spec.seed = 1;
  spec.operations = 1;
  spec.documents = 64;
  spec.min_document_nodes = 200;
  spec.max_document_nodes = 600;
  spec.queries = 48;
  spec.churn_probability = 0.0;
  auto schedule = testkit::CompileWorkload(spec);
  GKX_CHECK(schedule.ok());
  return std::move(schedule).value();
}

template <typename Service>
void Register(Service& service, const testkit::Schedule& schedule) {
  for (size_t d = 0; d < schedule.doc_keys.size(); ++d) {
    GKX_CHECK(service
                  .RegisterDocument(schedule.doc_keys[d],
                                    schedule.revisions[d].front())
                  .ok());
  }
}

/// The first `n` of the corpus's (document, query) pairs that answer
/// without error, in a fixed scattered order.
std::vector<QueryService::Request> ServableBatch(const testkit::Schedule& s,
                                                 size_t n) {
  QueryService probe;
  Register(probe, s);
  std::vector<QueryService::Request> batch;
  const size_t docs = s.doc_keys.size(), queries = s.queries.size();
  for (size_t i = 0; batch.size() < n && i < docs * queries; ++i) {
    QueryService::Request request{s.doc_keys[(i * 37) % docs],
                                  s.queries[(i * 11) % queries]};
    if (probe.Submit(request.doc_key, request.query).ok()) {
      batch.push_back(std::move(request));
    }
  }
  GKX_CHECK(batch.size() == n);
  return batch;
}

/// The options both services run with: their own width-2 pool, so nothing
/// is built lazily on first use, and a slow-query threshold no warm hit
/// crosses on a loaded host (a logged slow query allocates).
QueryService::Options ShardOptions(ThreadPool* pool) {
  QueryService::Options options;
  options.pool = pool;
  options.obs.slow_query_ms = 1e9;
  return options;
}

struct WarmBatch {
  int64_t served = 0;  // allocations while serving the batch
  int64_t copied = 0;  // allocations while copying its answers
  int64_t hits = 0;    // answer-cache hits the batch scored
};

template <typename Service, typename HitsOf>
WarmBatch MeasureWarmBatch(Service& service,
                           const std::vector<QueryService::Request>& batch,
                           HitsOf hits_of) {
  // Two passes warm the answer cache and anything built on a first hit.
  for (int pass = 0; pass < 2; ++pass) service.SubmitBatch(batch);
  const int64_t hits = hits_of(service);
  WarmBatch out;
  std::vector<Result<Answer>> answers;
  const int64_t before_serve = Allocations();
  answers = service.SubmitBatch(batch);
  out.served = Allocations() - before_serve;
  out.hits = hits_of(service) - hits;

  std::vector<Answer> copies;
  copies.reserve(answers.size());
  const int64_t before_copy = Allocations();
  for (const Result<Answer>& answer : answers) copies.push_back(*answer);
  out.copied = Allocations() - before_copy;
  EXPECT_EQ(copies.size(), batch.size());
  return out;
}

void Report(const char* who, const WarmBatch& m, size_t n) {
  const double per = static_cast<double>(n);
  std::printf("%s: %zu warm hits, %.2f allocations per request served, "
              "%.2f per answer copy\n",
              who, n, static_cast<double>(m.served) / per,
              static_cast<double>(m.copied) / per);
}

TEST(WarmPathAllocationTest, QueryServiceAllocatesOnlyTheAnswerCopy) {
  const testkit::Schedule corpus = HotReadCorpus();
  for (size_t n : {size_t{64}, size_t{512}}) {
    const auto batch = ServableBatch(corpus, n);
    ThreadPool pool(2);
    QueryService service(ShardOptions(&pool));
    Register(service, corpus);
    const WarmBatch m = MeasureWarmBatch(service, batch, [](QueryService& s) {
      return s.answer_cache().counters().hits;
    });
    Report("QueryService", m, n);
    EXPECT_EQ(m.hits, static_cast<int64_t>(n));
    EXPECT_GT(m.copied, 0);
    EXPECT_LE(m.copied, static_cast<int64_t>(n)) << n << " answer copies";
    EXPECT_LE(m.served, m.copied + kPerBatch) << n << " requests";
  }
}

TEST(WarmPathAllocationTest, RouterAddsNoAllocationPerRequest) {
  const testkit::Schedule corpus = HotReadCorpus();
  for (size_t n : {size_t{64}, size_t{512}}) {
    const auto batch = ServableBatch(corpus, n);
    ThreadPool pool(2);
    ShardedQueryService::Options options;
    options.shards = 2;
    options.pool = &pool;
    options.shard = ShardOptions(&pool);
    ShardedQueryService router(options);
    Register(router, corpus);
    const WarmBatch m =
        MeasureWarmBatch(router, batch, [](ShardedQueryService& r) {
          return r.shard(0).answer_cache().counters().hits +
                 r.shard(1).answer_cache().counters().hits;
        });
    Report("2-shard router", m, n);
    EXPECT_EQ(m.hits, static_cast<int64_t>(n));
    EXPECT_LE(m.copied, static_cast<int64_t>(n)) << n << " answer copies";
    EXPECT_LE(m.served, m.copied + kPerBatch) << n << " requests";
  }
}

}  // namespace
}  // namespace gkx::service
