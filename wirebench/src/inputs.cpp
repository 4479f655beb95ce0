// Seeded inputs of the two workloads. Corpus and query pool come from
// testkit::CompileWorkload and the request order from base::Rng, so a
// (workload, seed) pair names the same documents, queries and requests on
// every machine. Edits depend on the revision they apply to, so they are
// drawn during the run (EditFor), again from the seed.

#include <algorithm>
#include <set>
#include <utility>

#include "bench.hpp"
#include "eval/engine.hpp"
#include "testkit/workload.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace wirebench {
namespace {

struct Shape {
  int documents;
  int min_nodes;
  int max_nodes;
  int queries;
  int batch;              // requests per wire SubmitBatch
  int trickle_every;      // traced window: batches per trickle step
  int traced_iterations;  // traced window: batches and steps
};

// hot_read: 64 x 48 = 3,072 pairs, inside the 2 x 8,192-entry answer cache.
// cold_eval: 512 x 96 = 49,152 pairs, 3x the answer cache. Its batches are
// 128 pairs: each batch is a fork-join over the pool, so a larger batch wakes
// idle pool threads less often per answer. On a shared 4-vCPU host, batches
// of 32 read 9,000-13,200 answers/s and batches of 128, in the same minutes,
// 14,600-16,800.
Shape ShapeOf(Workload workload) {
  switch (workload) {
    case Workload::kHotRead:
      return {64, 200, 600, 48, 64, 100, 4096};
    case Workload::kColdEval:
      return {512, 1000, 3000, 96, 128, 4, 512};
  }
  return {};
}

constexpr uint64_t kQueryPoolSeed = 1;
constexpr int kHotRingBatches = 256;
constexpr int kTrickleDocs = 32;
constexpr int kTrickleRingSteps = 1024;
constexpr int kStandingQueries = 4;
constexpr size_t kCensusPairs = 1024;

std::vector<std::vector<Pair>> Batches(const std::vector<Pair>& pairs,
                                       size_t begin, size_t end, int size) {
  std::vector<std::vector<Pair>> out;
  for (size_t i = begin; i < end; i += static_cast<size_t>(size)) {
    out.emplace_back(pairs.begin() + static_cast<std::ptrdiff_t>(i),
                     pairs.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(end, i + static_cast<size_t>(size))));
  }
  return out;
}

// The first `limit` distinct pairs of `batches`, in first-seen order.
std::vector<Pair> DistinctPairs(const std::vector<std::vector<Pair>>& batches,
                                size_t limit) {
  std::set<std::pair<int32_t, int32_t>> seen;
  std::vector<Pair> out;
  for (const auto& batch : batches) {
    for (const Pair& pair : batch) {
      if (out.size() == limit) return out;
      if (seen.insert({pair.doc, pair.query}).second) out.push_back(pair);
    }
  }
  return out;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kHotRead: return "hot_read";
    case Workload::kColdEval: return "cold_eval";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kHotRead, Workload::kColdEval}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Result<Inputs> MakeInputs(Workload workload, uint64_t seed) {
  const Shape shape = ShapeOf(workload);
  gkx::testkit::WorkloadSpec spec;
  spec.operations = 1;  // traffic is drawn below; only corpus + pool are used
  spec.documents = shape.documents;
  spec.min_document_nodes = shape.min_nodes;
  spec.max_document_nodes = shape.max_nodes;
  spec.queries = shape.queries;
  spec.churn_probability = 0.0;

  // The query pool is drawn from the default fragment mix at one fixed seed
  // (the 48-query pool is the 96-query pool's prefix); the run seed draws
  // the corpus, the request order and the edits. A pool drawn per run seed
  // makes the mean evaluation cost heavy-tailed across seeds: one cvt query
  // with positional predicates can cost 10^3-10^4x the pool's median on
  // 1,000-3,000-node documents, and whether a pool holds one is a coin
  // flip per seed.
  gkx::testkit::WorkloadSpec pool_spec = spec;
  pool_spec.seed = kQueryPoolSeed;
  pool_spec.documents = 1;
  pool_spec.min_document_nodes = pool_spec.max_document_nodes = 1;
  auto pool = gkx::testkit::CompileWorkload(pool_spec);
  if (!pool.ok()) return pool.status();
  spec.seed = seed;
  spec.queries = 1;
  auto schedule = gkx::testkit::CompileWorkload(spec);
  if (!schedule.ok()) return schedule.status();

  Inputs in;
  in.workload = workload;
  in.seed = seed;
  in.traced_iterations = shape.traced_iterations;
  in.trickle_every = shape.trickle_every;
  in.keys = schedule->doc_keys;
  in.queries = pool->queries;
  gkx::xml::SerializeOptions compact;
  compact.indent = 0;
  for (const auto& revisions : schedule->revisions) {
    std::string text = gkx::xml::SerializeDocument(revisions.front(), compact);
    auto parsed = gkx::xml::ParseDocument(text);
    if (!parsed.ok()) return parsed.status();
    in.xml_bytes += static_cast<int64_t>(text.size());
    in.xml.push_back(std::move(text));
    in.base.push_back(std::move(parsed).value());
  }
  in.edit_options.subtree_options = spec.document_options;

  // Traffic draws from its own stream so the corpus stays a function of the
  // testkit spec alone.
  gkx::Rng rng(seed ^ 0x77697265'62656e63ULL);
  const gkx::ZipfSampler doc_zipf(shape.documents, spec.document_zipf_s);
  const gkx::ZipfSampler query_zipf(shape.queries, spec.query_zipf_s);
  auto zipf_pair = [&] {
    return Pair{static_cast<int32_t>(doc_zipf.Sample(&rng)),
                static_cast<int32_t>(query_zipf.Sample(&rng))};
  };

  // Standing queries: the most popular node-set-typed pool entries (the
  // subscription layer accepts only node-set queries).
  gkx::eval::Engine engine;
  for (int32_t q = 0; q < shape.queries &&
                      static_cast<int>(in.standing.size()) < kStandingQueries;
       ++q) {
    auto answer = engine.Run(in.base.front(), in.queries[static_cast<size_t>(q)]);
    if (answer.ok() && answer->value.is_node_set()) in.standing.push_back(q);
  }
  if (static_cast<int>(in.standing.size()) < kStandingQueries) {
    return gkx::InternalError("query pool has too few node-set queries");
  }

  switch (workload) {
    case Workload::kHotRead: {
      std::vector<Pair> pairs;
      for (int i = 0; i < kHotRingBatches * shape.batch; ++i) {
        pairs.push_back(zipf_pair());
      }
      in.ring = Batches(pairs, 0, pairs.size(), shape.batch);
      in.warmup = in.ring;
      in.census = DistinctPairs(in.ring, kCensusPairs);
      break;
    }
    case Workload::kColdEval: {
      std::vector<Pair> pairs;
      for (int32_t d = 0; d < shape.documents; ++d) {
        for (int32_t q = 0; q < shape.queries; ++q) pairs.push_back({d, q});
      }
      rng.Shuffle(&pairs);
      // Warm-up takes the first half of the order (24,576 pairs, past the
      // 16,384-entry capacity, so eviction has begun); the window continues
      // from there and wraps, so every timed pair was evicted or never seen.
      const size_t half = pairs.size() / 2;
      in.warmup = Batches(pairs, 0, half, shape.batch);
      in.ring = Batches(pairs, half, pairs.size(), shape.batch);
      for (auto& batch : Batches(pairs, 0, half, shape.batch)) {
        in.ring.push_back(std::move(batch));
      }
      in.census = DistinctPairs(in.ring, kCensusPairs);
      break;
    }
  }

  // The update trickle edits kTrickleDocs seeded documents, each with the
  // standing queries subscribed.
  std::vector<int32_t> docs(static_cast<size_t>(shape.documents));
  for (int32_t d = 0; d < shape.documents; ++d) docs[static_cast<size_t>(d)] = d;
  rng.Shuffle(&docs);
  in.churn_docs.assign(docs.begin(), docs.begin() + kTrickleDocs);
  std::sort(in.churn_docs.begin(), in.churn_docs.end());
  for (int i = 0; i < kTrickleRingSteps; ++i) {
    ChurnStep step;
    step.doc = in.churn_docs[static_cast<size_t>(
        rng.UniformInt(0, kTrickleDocs - 1))];
    step.reread_query = static_cast<int32_t>(query_zipf.Sample(&rng));
    in.churn.push_back(step);
  }
  return in;
}

}  // namespace wirebench
