// EXP-F1 — Figure 1: the combined-complexity landscape of XPath fragments.
// Classifies a corpus of queries (hand-written + random per fragment) into
// the paper's taxonomy and demonstrates the landscape empirically: each
// generated query is compiled and runs on the routes its steps classify to
// (the route census), and per-fragment timings on a fixed document are
// reported.

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/engine.hpp"
#include "plan/physical.hpp"
#include "testkit/workload.hpp"
#include "xml/generator.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xpath/generator.hpp"
#include "xpath/parser.hpp"
#include "xpath/printer.hpp"

namespace gkx {
namespace {

using xpath::Classify;
using xpath::Fragment;
using xpath::FragmentComplexity;
using xpath::FragmentName;

// Hybrid routing: queries whose spine is PF-routable but which contain one
// non-Core predicate. Whole-query classification would demote them
// entirely to CVT; the segment plan keeps the spine on bitset sweeps and
// drops into CVT only for the offending subtree. Expect >= 2x.
void RunHybridRouting(bench::JsonReport* json) {
  constexpr uint64_t kSeed = 4242;
  Rng rng(kSeed);
  xml::RandomDocumentOptions doc_options;
  // Deep documents are where the spine matters: a descendant step's
  // per-origin enumeration touches O(depth) ancestors' worth of subtree
  // per origin under CVT, while the frontier sweep stays O(|D|) total.
  doc_options.node_count = 8000;
  doc_options.tag_alphabet = 4;
  doc_options.chain_bias = 0.85;
  xml::Document doc = xml::RandomDocument(&rng, doc_options);

  // The hybrid-win regime: the descendant chain (the PF-routable spine) is
  // where the work is — whole-query CVT pays per-origin axis enumeration
  // and per-step sort/dedup over large intermediate node sets there, while
  // the segment plan runs it as O(|D|) bitset sweeps. The one non-Core
  // predicate sits on a cheap-axis step, so the unavoidable CVT segment is
  // small in both plans.
  const char* queries[] = {
      "/descendant::t0/descendant::t1/descendant::t2/child::t3"
      "[position() = 1]",
      "/descendant::t0/descendant::t1/child::t2[count(child::t3) = 1]",
      "/descendant::t0/descendant::t1/child::t2[position() = last()]"
      "/child::t3",
  };
  constexpr int kReps = 3;

  bench::Table table({"query", "plan route", "hybrid ms", "whole-query cvt ms",
                      "speedup", "answers"});
  eval::Engine engine;
  for (const char* text : queries) {
    auto plan = eval::Engine::Compile(text);
    GKX_CHECK(plan.ok());
    GKX_CHECK(plan->route_label.find('+') != std::string::npos);

    // Best-of-reps on both sides: robust to scheduler noise on shared CI
    // runners (a pause inflates the mean but rarely every rep).
    double hybrid_seconds = 1e99;
    Result<eval::Engine::Answer> hybrid = engine.RunPlan(doc, *plan);
    for (int r = 0; r < kReps; ++r) {
      Stopwatch sw;
      hybrid = engine.RunPlan(doc, *plan);
      hybrid_seconds = std::min(hybrid_seconds, sw.ElapsedSeconds());
    }
    GKX_CHECK(hybrid.ok());

    // Forced whole-query CVT on the same normalized AST — what the old
    // whole-query dispatch did to every mixed query. Both sides are cold in
    // every rep: an Engine binds its evaluators afresh on each run, as the
    // service does (it never runs a plan twice on a warm engine), and this
    // side takes a fresh evaluator per rep.
    double cvt_seconds = 1e99;
    Result<eval::Value> forced =
        eval::CvtEvaluator().Evaluate(doc, plan->query, eval::RootContext(doc));
    for (int r = 0; r < kReps; ++r) {
      eval::CvtEvaluator cvt;
      Stopwatch sw;
      forced = cvt.Evaluate(doc, plan->query, eval::RootContext(doc));
      cvt_seconds = std::min(cvt_seconds, sw.ElapsedSeconds());
    }
    GKX_CHECK(forced.ok());

    const bool identical = forced->Equals(hybrid->value);
    GKX_CHECK(identical);
    const double speedup = cvt_seconds / hybrid_seconds;
    table.AddRow({text, hybrid->evaluator, bench::Millis(hybrid_seconds),
                  bench::Millis(cvt_seconds), bench::Ratio(speedup),
                  bench::PassFail(identical)});
    json->AddRow({{"section", bench::JsonStr("hybrid")},
                  {"seed", bench::JsonNum(static_cast<double>(kSeed))},
                  {"query", bench::JsonStr(text)},
                  {"route", bench::JsonStr(hybrid->evaluator)},
                  {"hybrid_ms", bench::JsonNum(hybrid_seconds * 1e3)},
                  {"whole_cvt_ms", bench::JsonNum(cvt_seconds * 1e3)},
                  {"speedup", bench::JsonNum(speedup)},
                  {"doc_nodes", bench::JsonNum(doc_options.node_count)}});
    // The acceptance bar for hybrid execution: the PF-routable spine must
    // buy at least 2x over whole-query CVT on every scenario.
    GKX_CHECK(speedup >= 2.0);
  }
  table.Print();
}

void RunCorpusClassification() {
  const char* corpus[] = {
      "/descendant::a/child::b",
      "a/b | c/d",
      "child::a[descendant::c]",
      "a[b and c or d]",
      "child::a[not(following-sibling::d)]",
      "a[b][c]",
      "child::a[position() + 1 = last()]",
      "a[2]",
      "a[not(position() = 2)]",
      "a[position() = 1][last() = 2]",
      "a[boolean(child::b)]",
      "a[concat('x', 'y') = 'xy']",
      "a[count(child::b) = 2]",
      "a[not(string(b) = 'x')]",
  };
  bench::Table table({"query", "smallest fragment", "combined complexity"});
  for (const char* text : corpus) {
    xpath::Query query = xpath::MustParse(text);
    Fragment smallest = Classify(query).smallest;
    table.AddRow({text, std::string(FragmentName(smallest)),
                  std::string(FragmentComplexity(smallest))});
  }
  table.Print();
}

void RunRandomCensusAndTiming(bench::JsonReport* json) {
  Rng rng(2003);
  xml::RandomDocumentOptions doc_options;
  doc_options.node_count = 400;
  xml::Document doc = xml::RandomDocument(&rng, doc_options);

  bench::Table table({"generated fragment", "queries", "plan routes",
                      "total eval ms", "classification agrees"});
  constexpr Fragment kFragments[] = {
      Fragment::kPF,  Fragment::kPositiveCore, Fragment::kCore,
      Fragment::kPWF, Fragment::kWF,           Fragment::kPXPath,
      Fragment::kFullXPath,
  };
  eval::Engine engine;
  for (Fragment fragment : kFragments) {
    xpath::RandomQueryOptions query_options;
    query_options.fragment = fragment;
    int agree = 0;
    constexpr int kQueries = 40;
    double total_seconds = 0;
    std::map<std::string, int> route_census;
    for (int i = 0; i < kQueries; ++i) {
      xpath::Query query = xpath::RandomQuery(&rng, query_options);
      if (Classify(query).Contains(fragment)) ++agree;
      const eval::Engine::Plan plan =
          eval::Engine::CompileParsed(std::move(query));
      Stopwatch sw;
      auto answer = engine.RunPlan(doc, plan);
      total_seconds += sw.ElapsedSeconds();
      GKX_CHECK(answer.ok());
      ++route_census[answer->evaluator];
    }
    // Generated queries may land in a smaller fragment than requested (e.g.
    // a WF query without arithmetic is Core) — show the route census.
    std::string routes;
    for (const auto& [name, count] : route_census) {
      if (!routes.empty()) routes += ", ";
      routes += name + " x" + std::to_string(count);
    }
    table.AddRow({std::string(FragmentName(fragment)), bench::Num(kQueries),
                  routes, bench::Millis(total_seconds),
                  bench::Num(agree) + "/" + bench::Num(kQueries)});
    json->AddRow({{"section", bench::JsonStr("census")},
                  {"fragment", bench::JsonStr(FragmentName(fragment))},
                  {"queries", bench::JsonNum(kQueries)},
                  {"total_ms", bench::JsonNum(total_seconds * 1e3)},
                  {"classification_agrees", bench::JsonNum(agree)}});
  }
  table.Print();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// FNV-1a over 64-bit words.
uint64_t Fnv(uint64_t hash, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// The served pool's evaluation layer, route by route: the 96 cold_eval pool
// queries (pool seed 1, drawn as wirebench draws them) over the first 128
// seed-7 cold_eval-shaped documents (1,000-3,000 nodes, serialized and
// re-parsed as wirebench registers them), each pair run through
// Engine::RunPlan on a fresh Engine, best of 5 in thread CPU, with an
// ExecTrace per segment. Reported, not barred: µs per document for each
// segment route (the best of 5 of each segment's traced time), the pool
// total (the best of 5 of each pair's thread CPU) and an answer checksum,
// so an evaluator change can read its effect on this layer from the
// committed file.
void RunServedPoolCensus(bench::JsonReport* json) {
  constexpr int kDocuments = 128;
  constexpr int kReps = 5;
  testkit::WorkloadSpec pool_spec;
  pool_spec.seed = 1;
  pool_spec.operations = 1;
  pool_spec.documents = 1;
  pool_spec.min_document_nodes = pool_spec.max_document_nodes = 1;
  pool_spec.queries = 96;
  pool_spec.churn_probability = 0.0;
  auto pool = testkit::CompileWorkload(pool_spec);
  GKX_CHECK(pool.ok());
  testkit::WorkloadSpec corpus_spec;
  corpus_spec.seed = 7;
  corpus_spec.operations = 1;
  corpus_spec.documents = 512;
  corpus_spec.min_document_nodes = 1000;
  corpus_spec.max_document_nodes = 3000;
  corpus_spec.queries = 1;
  corpus_spec.churn_probability = 0.0;
  auto corpus = testkit::CompileWorkload(corpus_spec);
  GKX_CHECK(corpus.ok());

  std::vector<eval::Engine::Plan> plans;
  for (const std::string& text : pool->queries) {
    auto plan = eval::Engine::Compile(text);
    GKX_CHECK(plan.ok());
    plans.push_back(std::move(plan).value());
  }
  xml::SerializeOptions compact;
  compact.indent = 0;
  std::map<plan::Route, double> route_seconds;
  std::map<plan::Route, int64_t> route_segments;
  std::vector<double> query_seconds(plans.size(), 0.0);
  double total_seconds = 0.0;
  uint64_t checksum = 0xcbf29ce484222325ULL;
  for (int d = 0; d < kDocuments; ++d) {
    auto doc = xml::ParseDocument(xml::SerializeDocument(
        corpus->revisions[static_cast<size_t>(d)].front(), compact));
    GKX_CHECK(doc.ok());
    for (size_t q = 0; q < plans.size(); ++q) {
      double best_cpu = 1e99;
      std::vector<double> best_segment;
      plan::ExecTrace trace;
      Result<eval::Engine::Answer> answer = InternalError("not run");
      for (int r = 0; r < kReps; ++r) {
        trace.clear();
        eval::Engine engine;
        const double t0 = ThreadCpuSeconds();
        answer =
            engine.RunPlan(*doc, plans[q], eval::RootContext(*doc), &trace);
        best_cpu = std::min(best_cpu, ThreadCpuSeconds() - t0);
        GKX_CHECK(answer.ok());
        best_segment.resize(trace.size(), 1e99);
        for (size_t i = 0; i < trace.size(); ++i) {
          best_segment[i] = std::min(best_segment[i], trace[i].seconds);
        }
      }
      total_seconds += best_cpu;
      query_seconds[q] += best_cpu;
      for (size_t i = 0; i < trace.size(); ++i) {
        route_seconds[trace[i].route] += best_segment[i];
        ++route_segments[trace[i].route];
      }
      const eval::Value& value = answer->value;
      checksum = Fnv(checksum, (uint64_t{q} << 32) | static_cast<uint32_t>(d));
      if (value.is_node_set()) {
        for (xml::NodeId v : value.nodes()) {
          checksum = Fnv(checksum, static_cast<uint64_t>(v));
        }
      } else {
        for (const char c : value.ToString(*doc)) {
          checksum = Fnv(checksum, static_cast<unsigned char>(c));
        }
      }
    }
  }

  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(checksum));
  const double per_doc = 1e6 / kDocuments;
  bench::Table table({"segment route", "segments", "us per document"});
  for (const auto& [route, seconds] : route_seconds) {
    table.AddRow({std::string(plan::RouteName(route)),
                  bench::Num(route_segments[route]),
                  bench::Ratio(seconds * per_doc, 1)});
    json->AddRow({{"section", bench::JsonStr("served_pool")},
                  {"route", bench::JsonStr(plan::RouteName(route))},
                  {"segments", bench::JsonNum(static_cast<double>(
                                   route_segments[route]))},
                  {"us_per_doc", bench::JsonNum(seconds * per_doc)}});
  }
  table.AddRow({"pool total (thread CPU)",
                bench::Num(static_cast<int64_t>(plans.size()) * kDocuments),
                bench::Ratio(total_seconds * per_doc, 1)});
  table.Print();
  json->AddRow({{"section", bench::JsonStr("served_pool")},
                {"route", bench::JsonStr("total")},
                {"pairs", bench::JsonNum(static_cast<double>(plans.size()) *
                                         kDocuments)},
                {"us_per_doc", bench::JsonNum(total_seconds * per_doc)},
                {"answer_checksum", bench::JsonStr(hex)}});
  std::printf("answer checksum %s\n", hex);

  // The costliest queries, for reading a change's effect query by query.
  std::vector<size_t> order(plans.size());
  for (size_t q = 0; q < order.size(); ++q) order[q] = q;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return query_seconds[a] > query_seconds[b];
  });
  bench::Table top({"query", "route", "us per document"});
  for (size_t i = 0; i < 5; ++i) {
    const size_t q = order[i];
    top.AddRow({"q" + std::to_string(q), plans[q].route_label,
                bench::Ratio(query_seconds[q] * per_doc, 1)});
  }
  top.Print();
}

}  // namespace
}  // namespace gkx

int main() {
  gkx::bench::PrintHeader(
      "EXP-F1 (Figure 1): fragment landscape",
      "PF ⊂ pos.Core ⊂ {Core, pWF} ⊂ {WF, pXPath} ⊂ XPath; complexities "
      "NL-c / LOGCFL-c / P-c as labeled in Figure 1",
      "classification of a corpus + generated-per-fragment census with "
      "plan routes and timings, plus hybrid routing vs forced "
      "whole-query CVT — expect >= 2x on PF-spine queries — and the "
      "served pool's per-route census (reported, not barred)");
  gkx::bench::JsonReport json("fig1_fragments", 2003);
  gkx::RunCorpusClassification();
  gkx::RunRandomCensusAndTiming(&json);
  gkx::RunHybridRouting(&json);
  gkx::RunServedPoolCensus(&json);
  json.Write(gkx::bench::RepoRootPath("BENCH_fragments.json"));
  return 0;
}
