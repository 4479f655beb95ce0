// EXP-F1 — Figure 1: the combined-complexity landscape of XPath fragments.
// Classifies a corpus of queries (hand-written + random per fragment) into
// the paper's taxonomy and demonstrates the landscape empirically: each
// generated query is compiled and runs on the routes its steps classify to
// (the route census), and per-fragment timings on a fixed document are
// reported.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "bench/bench_util.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/engine.hpp"
#include "plan/physical.hpp"
#include "xml/generator.hpp"
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

}  // namespace
}  // namespace gkx

int main() {
  gkx::bench::PrintHeader(
      "EXP-F1 (Figure 1): fragment landscape",
      "PF ⊂ pos.Core ⊂ {Core, pWF} ⊂ {WF, pXPath} ⊂ XPath; complexities "
      "NL-c / LOGCFL-c / P-c as labeled in Figure 1",
      "classification of a corpus + generated-per-fragment census with "
      "plan routes and timings, plus hybrid routing vs forced "
      "whole-query CVT — expect >= 2x on PF-spine queries");
  gkx::bench::JsonReport json("fig1_fragments", 2003);
  gkx::RunCorpusClassification();
  gkx::RunRandomCensusAndTiming(&json);
  gkx::RunHybridRouting(&json);
  json.Write(gkx::bench::RepoRootPath("BENCH_fragments.json"));
  return 0;
}
