// bench_paper — the census of Gottlob, Koch and Pichler, "The complexity of
// XPath query evaluation" (PODS 2003): one section per result, each a sweep
// over the repository's generators at fixed seeds.
//
// Every answer is checked against its oracle (circuit value, BFS
// reachability, the CVT engine or the naive evaluator); the first mismatch
// ends the run with exit 1 and names the section and its seed. Each row is
// printed as a table and written to BENCH_paper.json from the same cells.
// Each section ends in its bar from the paper: an exponent fitted by
// bench::LogLogSlope over a deterministic work counter wherever one moves
// (evaluation counts, table entries, reduction sizes), over best-of-5 times
// with an upper bound only where none does, or an exact check. A failed
// bar makes the program exit 1 after the file is written.
//
//   ./bench_paper        # no flags; writes BENCH_paper.json

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "circuits/generators.hpp"
#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/parallel_evaluator.hpp"
#include "eval/pda_evaluator.hpp"
#include "eval/pf_evaluator.hpp"
#include "eval/recursive_base.hpp"
#include "graphs/digraph.hpp"
#include "reductions/circuit_to_core_xpath.hpp"
#include "reductions/circuit_to_iterated_pwf.hpp"
#include "reductions/reach_to_pf.hpp"
#include "reductions/sac_to_positive_core.hpp"
#include "xml/generator.hpp"
#include "xpath/analysis.hpp"
#include "xpath/build.hpp"
#include "xpath/fragment.hpp"
#include "xpath/generator.hpp"
#include "xpath/parser.hpp"
#include "xpath/transform.hpp"

namespace gkx {
namespace {

namespace build = xpath::build;
using eval::CoreLinearEvaluator;
using eval::CvtEvaluator;
using eval::PdaEvaluator;
using Sizes = std::vector<double>;

/// One table cell and its BENCH_paper.json value, made together so the
/// printed table and the file cannot disagree.
struct Cell {
  std::string text;
  std::string json;
};

Cell Int(int64_t v) {
  return {bench::Num(v), bench::JsonNum(static_cast<double>(v))};
}
Cell Ms(double s) { return {bench::Millis(s), bench::JsonNum(s * 1e3)}; }
Cell Real(double v, int decimals = 2) {
  return {bench::Ratio(v, decimals), bench::JsonNum(v)};
}
Cell Text(const std::string& v) { return {v, bench::JsonStr(v)}; }
Cell None() { return {"-", "null"}; }

std::string Show(bool v) { return v ? "true" : "false"; }
std::string Show(const eval::Value& v) {
  const std::string text = v.DebugString();
  return text.size() > 120 ? text.substr(0, 117) + "..." : text;
}
bool Same(bool a, bool b) { return a == b; }
bool Same(const eval::Value& a, const eval::Value& b) { return a.Equals(b); }

/// A reduction's yes/no answer: does the query select a node?
bool Selects(const eval::Value& v) {
  return v.is_node_set() && !v.nodes().empty();
}

std::string SlopeText(std::optional<double> slope) {
  return slope ? bench::Ratio(*slope) : std::string("undefined");
}

/// An engine's best-of-N run; `engine` is the last run's, for its counters.
template <typename Engine>
struct Timed {
  std::unique_ptr<Engine> engine;
  eval::Value value;
  double seconds = INFINITY;
};

/// The sweep helper every section shares: it prints the section's tables,
/// writes each row to the report, times engines, checks answers against
/// their oracles and checks the section's bars.
class Section {
 public:
  /// `name` labels the section's rows, bars and failure messages.
  Section(bench::JsonReport* report, std::string name, std::string seed,
          const std::string& paper, const std::string& measured)
      : report_(report), name_(std::move(name)), seed_(std::move(seed)) {
    bench::PrintHeader(name_ + "  (seed " + seed_ + ")", paper, measured);
  }

  /// Starts a table; Row() fills it and Print() shows it.
  void Columns(std::vector<std::string> columns, std::string title = "") {
    title_ = std::move(title);
    columns_ = std::move(columns);
    table_.emplace(columns_);
  }

  void Row(const std::vector<Cell>& cells) {
    GKX_CHECK_EQ(cells.size(), columns_.size());
    std::vector<std::string> text;
    auto json = Key();
    if (!title_.empty()) json.emplace_back("table", bench::JsonStr(title_));
    for (size_t i = 0; i < cells.size(); ++i) {
      text.push_back(cells[i].text);
      json.emplace_back(columns_[i], cells[i].json);
    }
    table_->AddRow(std::move(text));
    report_->AddRow(std::move(json));
  }

  void Print() const {
    if (!title_.empty()) std::printf("  %s:\n", title_.c_str());
    table_->Print();
  }

  /// Best-of-`runs` evaluation of `query` at the root of `doc`. Each run
  /// builds a fresh engine from `args`, so no memo or cache carries over
  /// from the run before. A failed evaluation ends the run.
  template <typename Engine, typename... Args>
  Timed<Engine> Run(int runs, const xml::Document& doc,
                    const xpath::Query& query, const std::string& what,
                    Args... args) const {
    Timed<Engine> timed;
    for (int i = 0; i < runs; ++i) {
      auto engine = std::make_unique<Engine>(args...);
      Stopwatch sw;
      Result<eval::Value> value = engine->EvaluateAtRoot(doc, query);
      timed.seconds = std::min(timed.seconds, sw.ElapsedSeconds());
      if (!value.ok()) Fail(what + " failed: " + value.status().ToString());
      timed.value = std::move(value).value();
      timed.engine = std::move(engine);
    }
    return timed;
  }

  /// Checks an answer against its oracle. The first mismatch ends the run.
  template <typename T>
  void Verify(const T& answer, const T& oracle, const std::string& what) const {
    if (!Same(answer, oracle)) {
      Fail("answer mismatch: " + what + ": got " + Show(answer) +
           ", oracle " + Show(oracle));
    }
  }

  /// Runs `Engine` on a reduced instance, checks its yes/no answer against
  /// `expected` and returns the best-of-`runs` time.
  template <typename Engine>
  double Decide(int runs, const reductions::CircuitReduction& instance,
                bool expected, const std::string& what) const {
    const Timed<Engine> timed =
        Run<Engine>(runs, instance.doc, instance.query, what);
    Verify(Selects(timed.value), expected, what);
    return timed.seconds;
  }

  [[noreturn]] void Fail(const std::string& message) const {
    std::fflush(stdout);
    std::fprintf(stderr, "bench_paper: [%s] seed=%s: %s\n", name_.c_str(),
                 seed_.c_str(), message.c_str());
    std::exit(1);
  }

  /// A growth bar: the fitted exponent must lie in [lo, hi].
  void SlopeBar(const std::string& what, std::optional<double> slope,
                double lo, double hi) {
    const std::string range =
        std::isinf(lo) ? "<= " + bench::Ratio(hi)
                       : "in [" + bench::Ratio(lo) + ", " +
                             bench::Ratio(hi) + "]";
    Bar(what + " " + range, SlopeText(slope),
        slope ? bench::JsonNum(*slope) : "null",
        bench::SlopeWithin(slope, lo, hi));
  }

  /// An exact bar.
  void CheckBar(const std::string& what, const std::string& value, bool ok) {
    Bar(what, value, bench::JsonStr(value), ok);
  }

  /// True when every bar held.
  bool Finish() const {
    std::printf("\n");
    return ok_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> Key() const {
    return {{"section", bench::JsonStr(name_)},
            {"seed", bench::JsonStr(seed_)}};
  }

  /// Prints the bar (a failed one also to stderr, with the section and its
  /// seed) and writes it to the report.
  void Bar(const std::string& what, const std::string& value,
           const std::string& json_value, bool ok) {
    std::printf("  bar: %s: %s  %s\n", what.c_str(), value.c_str(),
                ok ? "ok" : "FAIL");
    if (!ok) {
      std::fflush(stdout);
      std::fprintf(stderr, "bench_paper: [%s] seed=%s: bar failed: %s: %s\n",
                   name_.c_str(), seed_.c_str(), what.c_str(), value.c_str());
    }
    ok_ = ok_ && ok;
    auto json = Key();
    json.emplace_back("bar", bench::JsonStr(what));
    json.emplace_back("value", json_value);
    json.emplace_back("ok", ok ? "true" : "false");
    report_->AddRow(std::move(json));
  }

  bench::JsonReport* report_;
  std::string name_;
  std::string seed_;
  std::string title_;
  std::vector<std::string> columns_;
  std::optional<bench::Table> table_;
  bool ok_ = true;
};

std::vector<bool> RandomAssignment(Rng* rng, int32_t inputs) {
  std::vector<bool> bits;
  for (int32_t i = 0; i < inputs; ++i) bits.push_back(rng->Bernoulli(0.5));
  return bits;
}

std::string Bits(const std::vector<bool>& assignment) {
  std::string out;
  for (bool bit : assignment) out += bit ? '1' : '0';
  return out;
}

/// Bars on a reduction's |D| and |Q| against the circuit's gate count.
void SizeBars(Section* s, const std::string& what, const Sizes& gates,
              const Sizes& doc_nodes, const Sizes& query_sizes) {
  s->SlopeBar(what + " |D|: slope in gates",
              bench::LogLogSlope(gates, doc_nodes), 0.5, 1.1);
  s->SlopeBar(what + " |Q|: slope in gates",
              bench::LogLogSlope(gates, query_sizes), 0.5, 1.1);
}

bool Intro(bench::JsonReport* report) {
  Section s(report, "§1", "none",
            "engines that follow the standard are exponential in |Q|; the "
            "context-value tables of \"Efficient Algorithms for Processing "
            "XPath Queries\" (VLDB 2002) are polynomial",
            "evaluations of nested one-arm conditions on a 60-node one-tag "
            "chain: naive local slopes rise, cvt stays near linear");
  const xml::Document doc = xml::ChainDocument(60, /*tag_alphabet=*/1);
  constexpr int kNaiveMaxDepth = 4;  // depth 5 takes minutes
  Sizes naive_q, naive_evals, cvt_q, cvt_evals;
  s.Columns({"depth", "query_size", "naive_evals", "naive_ms", "cvt_evals",
             "cvt_ms", "linear_ms"});
  for (int depth = 1; depth <= 12; ++depth) {
    const xpath::Query query = xpath::NestedConditionQuery(depth, 1);
    const std::string at = " at depth " + std::to_string(depth);
    const auto cvt = s.Run<CvtEvaluator>(3, doc, query, "cvt" + at);
    const auto linear =
        s.Run<CoreLinearEvaluator>(3, doc, query, "core-linear" + at);
    Cell naive_evals_cell = None();
    Cell naive_ms = None();
    if (depth <= kNaiveMaxDepth) {
      const auto naive =
          s.Run<eval::NaiveEvaluator>(1, doc, query, "naive" + at);
      s.Verify(cvt.value, naive.value, "cvt vs naive" + at);
      const int64_t evals = naive.engine->last_eval_count();
      naive_q.push_back(query.size());
      naive_evals.push_back(static_cast<double>(evals));
      naive_evals_cell = Int(evals);
      naive_ms = Ms(naive.seconds);
    }
    s.Verify(linear.value, cvt.value, "core-linear vs cvt" + at);
    const int64_t evals = cvt.engine->last_eval_count();
    cvt_q.push_back(query.size());
    cvt_evals.push_back(static_cast<double>(evals));
    s.Row({Int(depth), Int(query.size()), naive_evals_cell, naive_ms,
           Int(evals), Ms(cvt.seconds), Ms(linear.seconds)});
  }
  s.Print();
  const auto local = bench::LocalSlopes(naive_q, naive_evals);
  std::string local_text;
  for (const std::optional<double>& slope : local) {
    local_text += (local_text.empty() ? "" : ", ") + SlopeText(slope);
  }
  s.CheckBar("naive evaluations: local slopes in |Q| rise", local_text,
             bench::SlopesRise(local));
  s.SlopeBar("cvt evaluations: slope in |Q|",
             bench::LogLogSlope(cvt_q, cvt_evals), 0.5, 1.25);
  return s.Finish();
}

/// A Core query of `conditions` nested predicates (|Q| linear in it).
xpath::Query SizedCoreQuery(int conditions) {
  xpath::ExprPtr condition =
      build::StepPath(build::AnyStep(xpath::Axis::kChild));
  for (int i = 0; i < conditions; ++i) {
    std::vector<xpath::ExprPtr> preds;
    preds.push_back(std::move(condition));
    condition = build::StepPath(build::MakeStep(
        i % 2 == 0 ? xpath::Axis::kDescendant : xpath::Axis::kChild,
        xpath::NodeTest::Name("t" + std::to_string(i % 4)),
        std::move(preds)));
  }
  std::vector<xpath::ExprPtr> preds;
  preds.push_back(std::move(condition));
  std::vector<xpath::Step> steps;
  steps.push_back(
      build::AnyStep(xpath::Axis::kDescendantOrSelf, std::move(preds)));
  return xpath::Query::Create(build::Path(true, std::move(steps)));
}

bool Prop27(bench::JsonReport* report) {
  Section s(report, "Prop 2.7", "none",
            "Core XPath is evaluable in time O(|D|·|Q|)",
            "best-of-5 core-linear time vs |D| (balanced binary documents) and "
            "vs |Q| (4,095 nodes); cvt is the oracle");
  auto timed = [&](const xml::Document& doc, const xpath::Query& query,
                   const std::string& at) {
    const auto linear =
        s.Run<CoreLinearEvaluator>(5, doc, query, "core-linear" + at);
    s.Verify(linear.value, s.Run<CvtEvaluator>(1, doc, query, "cvt" + at).value,
             "core-linear vs cvt" + at);
    return linear.seconds;
  };
  const xpath::Query fixed = xpath::MustParse(
      "descendant::t1[child::t2 and not(following-sibling::*[child::t3])]"
      "/ancestor-or-self::*[child::t0 or child::t1]");
  Sizes d_sizes, d_seconds, q_sizes, q_seconds;
  s.Columns({"doc_nodes", "query_size", "linear_ms", "ms_per_1k_nodes"},
            "data sweep");
  for (int32_t depth : {8, 10, 12, 14, 16}) {
    const xml::Document doc = xml::BalancedDocument(2, depth);
    const double seconds =
        timed(doc, fixed, " at |D| " + std::to_string(doc.size()));
    d_sizes.push_back(doc.size());
    d_seconds.push_back(seconds);
    s.Row({Int(doc.size()), Int(fixed.size()), Ms(seconds),
           Real(seconds * 1e6 / doc.size(), 4)});
  }
  s.Print();
  const xml::Document doc = xml::BalancedDocument(2, 11);
  s.Columns({"query_size", "linear_ms", "us_per_query_node"}, "query sweep");
  for (int conditions : {8, 16, 32, 64, 128}) {
    const xpath::Query query = SizedCoreQuery(conditions);
    const double seconds =
        timed(doc, query, " at |Q| " + std::to_string(query.size()));
    q_sizes.push_back(query.size());
    q_seconds.push_back(seconds);
    s.Row({Int(query.size()), Ms(seconds),
           Real(seconds * 1e6 / query.size(), 3)});
  }
  s.Print();
  s.SlopeBar("core-linear time: slope in |D|",
             bench::LogLogSlope(d_sizes, d_seconds), -INFINITY, 1.3);
  s.SlopeBar("core-linear time: slope in |Q|",
             bench::LogLogSlope(q_sizes, q_seconds), -INFINITY, 1.3);
  return s.Finish();
}

bool Thm72(bench::JsonReport* report) {
  Section s(report, "Thm 7.2", "72",
            "with the query fixed, XPath is in LOGSPACE (one table per query "
            "node)",
            "cvt time and entries vs |D|; PF and positional store 1 entry "
            "at any size, position arithmetic (recomputed, not tabled) a "
            "fixed number; Core's entries have a slope bar");
  Rng rng(72);
  std::vector<xml::Document> docs;
  for (int32_t nodes : {2000, 4000, 8000, 16000, 32000, 64000}) {
    xml::RandomDocumentOptions options;
    options.node_count = nodes;
    docs.push_back(xml::RandomDocument(&rng, options));
  }
  const std::pair<std::string, const char*> queries[] = {
      {"PF", "descendant::t1/descendant::t2"},
      {"Core", "descendant::t1[child::t2 and not(child::t3)]"},
      {"positional", "descendant::t1/child::*[position() = last()]"},
      {"positional arithmetic",
       "descendant::t1/child::*[position() * 2 > last()]"},
  };
  Sizes core_sizes, core_entries;
  std::vector<int64_t> arithmetic_entries;
  s.Columns({"query", "doc_nodes", "cvt_ms", "linear_ms", "cvt_entries",
             "entries_per_node"});
  for (const auto& [label, text] : queries) {
    const xpath::Query query = xpath::MustParse(text);
    for (const xml::Document& doc : docs) {
      const std::string at =
          " on " + label + " at |D| " + std::to_string(doc.size());
      const auto cvt = s.Run<CvtEvaluator>(3, doc, query, "cvt" + at);
      s.Verify(
          cvt.value,
          s.Run<eval::NaiveEvaluator>(1, doc, query, "naive" + at).value,
          "cvt vs naive" + at);
      Cell linear_ms = None();
      if (xpath::Classify(query).in_core) {
        const auto linear =
            s.Run<CoreLinearEvaluator>(3, doc, query, "core-linear" + at);
        s.Verify(linear.value, cvt.value, "core-linear vs cvt" + at);
        linear_ms = Ms(linear.seconds);
      }
      const int64_t entries = cvt.engine->last_table_entries();
      if (label == "Core") {
        core_sizes.push_back(doc.size());
        core_entries.push_back(static_cast<double>(entries));
      } else if (label == "positional arithmetic") {
        arithmetic_entries.push_back(entries);
      }
      s.Row({Text(label), Int(doc.size()), Ms(cvt.seconds), linear_ms,
             Int(entries), Real(static_cast<double>(entries) / doc.size())});
    }
  }
  s.Print();
  s.SlopeBar("Core query cvt table entries: slope in |D|",
             bench::LogLogSlope(core_sizes, core_entries), 0.9, 1.1);
  std::string arithmetic_text;
  for (const int64_t entries : arithmetic_entries) {
    arithmetic_text += (arithmetic_text.empty() ? "" : ", ") + bench::Num(entries);
  }
  s.CheckBar("positional arithmetic query cvt table entries equal at every |D|",
             arithmetic_text,
             std::all_of(arithmetic_entries.begin(), arithmetic_entries.end(),
                         [&](int64_t entries) {
                           return entries == arithmetic_entries.front();
                         }));
  return s.Finish();
}

/// A PF chain of `steps` alternating descendant-or-self::* / parent::*.
xpath::Query AxisChain(int steps) {
  std::vector<xpath::Step> chain;
  for (int i = 0; i < steps; ++i) {
    chain.push_back(build::MakeStep(
        i % 2 == 0 ? xpath::Axis::kDescendantOrSelf : xpath::Axis::kParent,
        xpath::NodeTest::Any()));
  }
  return xpath::Query::Create(build::Path(/*absolute=*/true, std::move(chain)));
}

bool Thm73(bench::JsonReport* report) {
  Section s(report, "Thm 7.3", "73",
            "with the document fixed, XPath without * and concat() is in "
            "LOGSPACE",
            "cvt evaluations vs |Q| of a tower on a 60-node one-tag chain "
            "(every level evaluated); the axis chain is a time row");
  const xml::Document chain_doc = xml::ChainDocument(60, /*tag_alphabet=*/1);
  Rng rng(73);
  xml::RandomDocumentOptions options;
  options.node_count = 60;
  const xml::Document random_doc = xml::RandomDocument(&rng, options);
  Sizes tower_q, tower_evals;
  s.Columns({"family", "query_size", "cvt_evals", "cvt_ms",
             "us_per_query_node"});
  auto run = [&](const std::string& family, const xml::Document& doc,
                 const xpath::Query& query) {
    const std::string at =
        " on " + family + " |Q| " + std::to_string(query.size());
    const auto cvt = s.Run<CvtEvaluator>(3, doc, query, "cvt" + at);
    s.Verify(
        cvt.value,
        s.Run<CoreLinearEvaluator>(1, doc, query, "core-linear" + at).value,
        "cvt vs core-linear" + at);
    const int64_t evals = cvt.engine->last_eval_count();
    s.Row({Text(family), Int(query.size()), Int(evals), Ms(cvt.seconds),
           Real(cvt.seconds * 1e6 / query.size(), 3)});
    return evals;
  };
  for (int depth : {4, 8, 12, 16, 24, 32, 48}) {
    const xpath::Query query = xpath::NestedConditionQuery(depth, 1);
    const int64_t evals = run("condition tower", chain_doc, query);
    tower_q.push_back(query.size());
    tower_evals.push_back(static_cast<double>(evals));
  }
  for (int steps : {64, 128, 256, 512, 1024}) {
    run("axis chain", random_doc, AxisChain(steps));
  }
  s.Print();
  s.SlopeBar("condition tower cvt evaluations: slope in |Q|",
             bench::LogLogSlope(tower_q, tower_evals), 0.5, 1.25);
  return s.Finish();
}

bool Thm32(bench::JsonReport* report) {
  Section s(report, "Thm 3.2", "32",
            "Core XPath is P-hard via monotone circuit value, also with child, "
            "parent, descendant-or-self only (Cor 3.3)",
            "answers equal the circuit value on 4 random assignments; |D|, |Q| "
            "at most linear in the gates");
  for (bool corollary33 : {false, true}) {
    const std::string mode = corollary33 ? "Cor 3.3" : "Thm 3.2";
    Rng rng(32);
    circuits::RandomMonotoneOptions options;
    options.num_inputs = 6;
    reductions::CircuitReductionOptions reduction_options;
    reduction_options.corollary33_axes = corollary33;
    Sizes gates_x, doc_nodes, query_sizes;
    s.Columns({"gates", "doc_nodes", "query_size", "linear_ms", "cvt_ms"},
              mode + " axes");
    for (int32_t gates : {8, 16, 32, 64, 128, 256}) {
      options.num_gates = gates;
      const circuits::Circuit circuit = circuits::RandomMonotone(&rng, options);
      double linear_s = 0;
      double cvt_s = 0;
      int64_t doc_size = 0;
      int query_size = 0;
      for (int a = 0; a < 4; ++a) {
        const auto assignment = RandomAssignment(&rng, options.num_inputs);
        const auto instance = reductions::CircuitToCoreXPath(
            circuit, assignment, reduction_options);
        doc_size = instance.doc.Stats().node_count;
        query_size = instance.query.size();
        const std::string at = " on " + mode + " gates " +
                               std::to_string(gates) + " assignment " +
                               Bits(assignment);
        const bool expected = circuit.Evaluate(assignment);
        linear_s += s.Decide<CoreLinearEvaluator>(3, instance, expected,
                                                  "core-linear" + at);
        cvt_s += s.Decide<CvtEvaluator>(1, instance, expected, "cvt" + at);
      }
      gates_x.push_back(gates);
      doc_nodes.push_back(static_cast<double>(doc_size));
      query_sizes.push_back(query_size);
      s.Row({Int(gates), Int(doc_size), Int(query_size), Ms(linear_s),
             Ms(cvt_s)});
    }
    s.Print();
    SizeBars(&s, mode, gates_x, doc_nodes, query_sizes);
  }
  return s.Finish();
}

bool Thm42(bench::JsonReport* report) {
  Section s(report, "Thm 4.2", "42",
            "positive Core XPath is LOGCFL-hard via SAC1 circuits; the ∧-step "
            "copies each input's condition",
            "all 16 assignments verified, every query in positive Core; |Q| "
            "grows about 8x per ∧-layer of these width-3 circuits");
  Rng rng(42);
  bool all_positive = true;
  int instances = 0;
  int previous_query_size = 0;
  s.Columns({"and_layers", "layers", "doc_nodes", "query_size",
             "query_growth", "linear_ms", "pda_ms"});
  for (int32_t and_layers : {1, 2, 3, 4}) {
    circuits::RandomSacOptions options;
    options.num_inputs = 4;
    options.layers = 2 * and_layers;  // alternating AND/OR
    options.width = 3;
    const circuits::Circuit circuit = circuits::RandomSac(&rng, options);
    const bool run_pda = and_layers <= 3;  // the faithful engine is slow
    double linear_s = 0;
    double pda_s = 0;
    int64_t doc_size = 0;
    int query_size = 0;
    for (const auto& assignment : circuits::AllAssignments(4)) {
      const auto instance =
          reductions::SacToPositiveCoreXPath(circuit, assignment);
      doc_size = instance.doc.Stats().node_count;
      query_size = instance.query.size();
      all_positive =
          all_positive && xpath::Classify(instance.query).in_positive_core;
      ++instances;
      const std::string at = " on ∧-layers " + std::to_string(and_layers) +
                             " assignment " + Bits(assignment);
      const bool expected = circuit.Evaluate(assignment);
      linear_s += s.Decide<CoreLinearEvaluator>(1, instance, expected,
                                                "core-linear" + at);
      if (run_pda) {
        pda_s += s.Decide<PdaEvaluator>(1, instance, expected, "pda" + at);
      }
    }
    s.Row({Int(and_layers), Int(options.layers), Int(doc_size),
           Int(query_size),
           previous_query_size > 0
               ? Real(static_cast<double>(query_size) / previous_query_size, 1)
               : None(),
           Ms(linear_s), run_pda ? Ms(pda_s) : None()});
    previous_query_size = query_size;
  }
  s.Print();
  s.CheckBar("every reduced query in positive Core",
             std::to_string(instances) + " queries", all_positive);
  return s.Finish();
}

bool Thm43(bench::JsonReport* report) {
  Section s(report, "Thm 4.3", "53",
            "PF is NL-hard via directed reachability (target depth "
            "unary-encoded as in Fig 5)",
            "the PF answer equals BFS on all pairs up to 12 vertices and 40 "
            "random pairs above; BFS wins on time");
  Rng rng(53);
  int pairs_checked = 0;
  s.Columns({"vertices", "edges", "doc_nodes", "query_steps", "pairs",
             "pf_ms", "bfs_ms"});
  for (int32_t n : {4, 8, 12, 16, 24, 32}) {
    const graphs::Digraph graph = graphs::RandomDigraph(&rng, n, 2.0 / n);
    graphs::Digraph with_loops = graph;
    with_loops.AddSelfLoops();
    const xml::Document doc = reductions::ReachabilityDocument(with_loops);
    const bool all_pairs = n <= 12;
    const int pairs = all_pairs ? n * n : 40;
    double pf_s = 0;
    double bfs_s = 0;
    int query_steps = 0;
    for (int i = 0; i < pairs; ++i) {
      const int32_t src = all_pairs ? i / n : rng.UniformInt(0, n - 1);
      const int32_t dst = all_pairs ? i % n : rng.UniformInt(0, n - 1);
      const std::string at = " on n " + std::to_string(n) + " pair " +
                             std::to_string(src) + "->" + std::to_string(dst);
      const xpath::Query query = reductions::ReachabilityQuery(n, src, dst);
      query_steps = query.num_steps();
      const auto pf = s.Run<eval::PfEvaluator>(1, doc, query, "pf" + at);
      pf_s += pf.seconds;
      Stopwatch sw;
      const bool reachable = graphs::IsReachable(graph, src, dst);
      bfs_s += sw.ElapsedSeconds();
      s.Verify(Selects(pf.value), reachable, "pf vs BFS" + at);
      if (all_pairs) {
        s.Verify(
            s.Run<CoreLinearEvaluator>(1, doc, query, "core-linear" + at).value,
            pf.value, "core-linear vs pf" + at);
      }
      ++pairs_checked;
    }
    s.Row({Int(n), Int(graph.num_edges()), Int(doc.Stats().node_count),
           Int(query_steps), Int(pairs), Ms(pf_s), Ms(bfs_s)});
  }
  s.Print();
  s.CheckBar("PF non-emptiness == BFS reachability",
             std::to_string(pairs_checked) + " pairs", pairs_checked > 0);
  return s.Finish();
}

bool Thm57(bench::JsonReport* report) {
  Section s(report, "Thm 5.7", "57",
            "iterated predicates are P-hard without negation; chains stay at "
            "length 2 (Cor 5.8)",
            "cvt answers equal the circuit value on 4 random assignments; |D|, "
            "|Q| at most linear in the gates");
  Rng rng(57);
  circuits::RandomMonotoneOptions options;
  options.num_inputs = 5;
  bool negation_free = true;
  int max_chain = 0;
  Sizes gates_x, doc_nodes, query_sizes;
  s.Columns({"gates", "doc_nodes", "query_size", "thm32_query_size",
             "max_predicate_chain", "cvt_ms"});
  for (int32_t gates : {4, 8, 16, 32, 64}) {
    options.num_gates = gates;
    const circuits::Circuit circuit = circuits::RandomMonotone(&rng, options);
    double cvt_s = 0;
    int chain = 0;
    int baseline_size = 0;
    int64_t doc_size = 0;
    int query_size = 0;
    for (int a = 0; a < 4; ++a) {
      const auto assignment = RandomAssignment(&rng, options.num_inputs);
      const auto instance =
          reductions::CircuitToIteratedPwf(circuit, assignment);
      doc_size = instance.doc.Stats().node_count;
      query_size = instance.query.size();
      baseline_size =
          reductions::CircuitToCoreXPath(circuit, assignment).query.size();
      const xpath::QueryAnalysis& analysis = instance.query.analysis();
      chain = std::max(chain, analysis.max_predicates_per_step);
      negation_free = negation_free && !analysis.has_negation;
      cvt_s += s.Decide<CvtEvaluator>(3, instance, circuit.Evaluate(assignment),
                                      "cvt on gates " + std::to_string(gates) +
                                          " assignment " + Bits(assignment));
    }
    max_chain = std::max(max_chain, chain);
    gates_x.push_back(gates);
    doc_nodes.push_back(static_cast<double>(doc_size));
    query_sizes.push_back(query_size);
    s.Row({Int(gates), Int(doc_size), Int(query_size), Int(baseline_size),
           Int(chain), Ms(cvt_s)});
  }
  s.Print();
  s.CheckBar("negation-free, predicate chains <= 2",
             "longest chain " + std::to_string(max_chain),
             negation_free && max_chain <= 2);
  SizeBars(&s, "Thm 5.7", gates_x, doc_nodes, query_sizes);
  return s.Finish();
}

bool Fig2(bench::JsonReport* report) {
  Section s(report, "Fig 2", "none",
            "the carry-bit circuit (M = 4, N = 5, one gate per layer as in Fig "
            "3) is the running example of Thm 3.2",
            "answers equal the circuit value on every assignment of the b-bit "
            "circuits; |D|, |Q| at most linear in the gates");
  Sizes gates_x, doc_nodes, query_sizes;
  s.Columns({"bits", "inputs", "gates", "doc_nodes", "query_size",
             "assignments", "linear_ms"});
  for (int32_t bits = 1; bits <= 4; ++bits) {
    const circuits::Circuit circuit = circuits::CarryCircuit(bits);
    const auto assignments = circuits::AllAssignments(2 * bits);
    double linear_s = 0;
    int64_t doc_size = 0;
    int query_size = 0;
    for (const std::vector<bool>& assignment : assignments) {
      const auto instance = reductions::CircuitToCoreXPath(circuit, assignment);
      doc_size = instance.doc.Stats().node_count;
      query_size = instance.query.size();
      linear_s += s.Decide<CoreLinearEvaluator>(
          3, instance, circuit.Evaluate(assignment),
          "core-linear on bits " + std::to_string(bits) + " assignment " +
              Bits(assignment));
    }
    gates_x.push_back(circuit.num_logic_gates());
    doc_nodes.push_back(static_cast<double>(doc_size));
    query_sizes.push_back(query_size);
    s.Row({Int(bits), Int(circuit.num_inputs()),
           Int(circuit.num_logic_gates()), Int(doc_size), Int(query_size),
           Int(static_cast<int64_t>(assignments.size())), Ms(linear_s)});
  }
  s.Print();
  std::printf("  Fig 3 layers for bits = 2 (one gate per layer):\n");
  const circuits::Circuit example = circuits::CarryCircuit(2);
  for (int32_t k = 1; k <= example.num_logic_gates(); ++k) {
    const circuits::Gate& gate = example.gate(example.num_inputs() + k - 1);
    std::printf("    L%d: G%d (%s), inputs {", k, example.num_inputs() + k,
                std::string(GateKindName(gate.kind)).c_str());
    for (size_t i = 0; i < gate.inputs.size(); ++i) {
      std::printf("%sG%d", i ? ", " : "", gate.inputs[i] + 1);
    }
    std::printf("}\n");
  }
  std::printf("\n");
  SizeBars(&s, "carry circuit", gates_x, doc_nodes, query_sizes);
  return s.Finish();
}

/// /descendant-or-self::*[c_k] for a random positive condition c_0 and
/// c_i = not(child::*[c_(i-1)]). Each not() sits inside a step predicate,
/// where de Morgan cannot fold it into the one above, so the not-depth
/// after PushNegationsDown is exactly k.
xpath::Query NestedNegation(Rng* rng, int depth) {
  xpath::RandomQueryOptions options;
  options.fragment = xpath::Fragment::kPositiveCore;
  options.absolute_probability = 0;
  xpath::ExprPtr condition =
      build::CloneExpr(xpath::RandomQuery(rng, options).root());
  for (int i = 0; i < depth; ++i) {
    std::vector<xpath::ExprPtr> preds;
    preds.push_back(std::move(condition));
    condition = build::Not(build::StepPath(
        build::AnyStep(xpath::Axis::kChild, std::move(preds))));
  }
  std::vector<xpath::ExprPtr> preds;
  preds.push_back(std::move(condition));
  std::vector<xpath::Step> steps;
  steps.push_back(
      build::AnyStep(xpath::Axis::kDescendantOrSelf, std::move(preds)));
  return xpath::Query::Create(build::Path(/*absolute=*/true, std::move(steps)));
}

bool Thm59(bench::JsonReport* report) {
  Section s(report, "Thm 5.9", "59",
            "bounded negation stays in LOGCFL (and Thm 6.3): after de Morgan, "
            "not() faces paths, nested at most k deep",
            "k nested not(child::*[..]) levels keep not-depth k after "
            "PushNegationsDown; pda with budget k equals cvt");
  Rng rng(59);
  xml::RandomDocumentOptions doc_options;
  doc_options.node_count = 80;
  const xml::Document doc = xml::RandomDocument(&rng, doc_options);
  constexpr int kQueries = 20;
  bool depth_exact = true;
  s.Columns({"not_depth", "queries", "pushed_depth_min", "pushed_depth_max",
             "pda_ms", "cvt_ms"});
  for (int depth : {0, 1, 2, 3}) {
    int min_seen = depth;
    int max_seen = depth;
    double pda_s = 0;
    double cvt_s = 0;
    for (int i = 0; i < kQueries; ++i) {
      const xpath::Query query = NestedNegation(&rng, depth);
      const xpath::Query pushed = xpath::PushNegationsDown(query);
      const int seen = pushed.analysis().max_not_depth;
      min_seen = std::min(min_seen, seen);
      max_seen = std::max(max_seen, seen);
      const std::string at =
          " on k " + std::to_string(depth) + " query " + std::to_string(i);
      const auto pda =
          s.Run<PdaEvaluator>(1, doc, pushed, "pda" + at,
                              PdaEvaluator::Options{.max_not_depth = depth});
      const auto cvt = s.Run<CvtEvaluator>(1, doc, query, "cvt" + at);
      s.Verify(pda.value, cvt.value, "pda (pushed) vs cvt" + at);
      pda_s += pda.seconds;
      cvt_s += cvt.seconds;
    }
    depth_exact = depth_exact && min_seen == depth && max_seen == depth;
    s.Row({Int(depth), Int(kQueries), Int(min_seen), Int(max_seen),
           Ms(pda_s), Ms(cvt_s)});
  }
  s.Print();
  s.CheckBar("not-depth after PushNegationsDown == k at every k",
             depth_exact ? "all queries" : "mismatch", depth_exact);
  return s.Finish();
}

bool Table1(bench::JsonReport* report) {
  Section s(report, "Table 1", "55",
            "Thm 5.5: an NAuxPDA decides pWF by the local checks of Table 1",
            "firings of each check over 31 pWF queries on 120 nodes; the pda "
            "answer equals cvt");
  Rng rng(55);
  xml::RandomDocumentOptions doc_options;
  doc_options.node_count = 120;
  const xml::Document doc = xml::RandomDocument(&rng, doc_options);
  std::vector<xpath::Query> corpus;
  for (const char* text : {
           "/descendant::t1/child::t2",
           "/descendant::t1[child::t2 and position() + 1 = last()]",
           "child::*[position() = last()]/descendant::t0",
           "/descendant::t2[following-sibling::t1 or child::t3]",
           "descendant::t0[2]/child::*",
           "/descendant::t3[position() * 2 <= last()]",
           "/descendant::t1[boolean(child::t2 | child::t3)]",
       }) {
    corpus.push_back(xpath::MustParse(text));
  }
  xpath::RandomQueryOptions query_options;
  query_options.fragment = xpath::Fragment::kPWF;
  for (int i = 0; i < 24; ++i) {
    corpus.push_back(xpath::RandomQuery(&rng, query_options));
  }
  using eval::Table1Stats;
  const std::pair<const char*, int64_t Table1Stats::*> checks[] = {
      {"chi::t (leaf location step)", &Table1Stats::locstep},
      {"chi::t[e] (step with predicate)", &Table1Stats::step_predicate},
      {"pi1/pi2 (composition, guessed middle)", &Table1Stats::composition},
      {"pi1|pi2 (union branch)", &Table1Stats::union_branch},
      {"/pi (context reset to root)", &Table1Stats::root_path},
      {"position() = p", &Table1Stats::position_fn},
      {"last() = s", &Table1Stats::last_fn},
      {"constant c", &Table1Stats::constant},
      {"boolean(pi)", &Table1Stats::boolean_fn},
      {"e1 and e2", &Table1Stats::and_op},
      {"e1 or e2", &Table1Stats::or_op},
      {"e1 RelOp e2", &Table1Stats::relop},
      {"e1 ArithOp e2", &Table1Stats::arithop},
  };
  Table1Stats fired;
  double pda_s = 0;
  double cvt_s = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const std::string at = " on query " + std::to_string(i);
    const auto pda = s.Run<PdaEvaluator>(1, doc, corpus[i], "pda" + at);
    const auto cvt = s.Run<CvtEvaluator>(1, doc, corpus[i], "cvt" + at);
    s.Verify(pda.value, cvt.value, "pda vs cvt" + at);
    pda_s += pda.seconds;
    cvt_s += cvt.seconds;
    for (const auto& check : checks) {
      fired.*check.second += pda.engine->last_stats().*check.second;
    }
  }
  s.Columns({"check", "fired"});
  for (const auto& [check, field] : checks) {
    s.Row({Text(check), Int(fired.*field)});
  }
  s.Print();
  std::printf("  pda %s ms, cvt %s ms\n", bench::Millis(pda_s).c_str(),
              bench::Millis(cvt_s).c_str());
  s.CheckBar("pda == cvt on every query",
             std::to_string(corpus.size()) + " queries", true);
  return s.Finish();
}

bool Ablation(bench::JsonReport* report) {
  Section s(report, "Ablation", "88",
            "the VLDB 2002 tables are filled eagerly; filling on demand has "
            "the same worst case",
            "time and entries of both modes on 4,000 nodes; lazy equals eager "
            "and never stores more entries");
  Rng rng(88);
  xml::RandomDocumentOptions options;
  options.node_count = 4000;
  const xml::Document doc = xml::RandomDocument(&rng, options);
  const std::pair<const char*, xpath::Query> workloads[] = {
      // An absolute path touches one context at the root.
      {"selective: /t1/t2 chain",
       xpath::MustParse("/child::t1/child::t2/child::t3")},
      // Root-anchored condition: predicate contexts are few.
      {"selective: anchored filter",
       xpath::MustParse("/child::*[child::t1]/child::t2")},
      // Relative conditions evaluated from many nodes.
      {"exhaustive: descendant filter",
       xpath::MustParse("descendant::t1[child::t2 and child::t3]")},
      {"exhaustive: nested tower", xpath::NestedConditionQuery(6, 1)},
      // Position-dependent tables are demand-filled in both modes; the
      // difference is the node-keyed feeder tables.
      {"positional: last()-filter",
       xpath::MustParse("descendant::t2/child::*[position() = last()]")},
  };
  bool lazy_smaller = true;
  std::string entries_text;
  s.Columns({"workload", "query_size", "lazy_ms", "eager_ms", "lazy_entries",
             "eager_entries"});
  for (const auto& [label, query] : workloads) {
    const std::string at = std::string(" on ") + label;
    const auto lazy = s.Run<CvtEvaluator>(3, doc, query, "lazy" + at);
    const auto eager = s.Run<CvtEvaluator>(
        3, doc, query, "eager" + at, CvtEvaluator::Options{.eager = true});
    s.Verify(lazy.value, eager.value, "lazy vs eager" + at);
    const int64_t lazy_entries = lazy.engine->last_table_entries();
    const int64_t eager_entries = eager.engine->last_table_entries();
    lazy_smaller = lazy_smaller && lazy_entries <= eager_entries;
    entries_text += (entries_text.empty() ? "" : ", ") +
                    std::to_string(lazy_entries) + " <= " +
                    std::to_string(eager_entries);
    s.Row({Text(label), Int(query.size()), Ms(lazy.seconds),
           Ms(eager.seconds), Int(lazy_entries), Int(eager_entries)});
  }
  s.Print();
  s.CheckBar("lazy entries <= eager entries on every workload", entries_text,
             lazy_smaller);
  return s.Finish();
}

bool Remark56(bench::JsonReport* report) {
  Section s(report, "Remark 5.6", "56",
            "LOGCFL ⊆ NC2: the per-candidate Singleton-Success checks are "
            "independent",
            "best-of-3 parallel dom-loop time vs threads, speedup over its own "
            "1-thread run (reported only: vCPUs see steal)");
  Rng rng(56);
  xml::RandomDocumentOptions options;
  options.node_count = 700;
  const xml::Document doc = xml::RandomDocument(&rng, options);
  const xpath::Query query = xpath::MustParse(
      "/descendant::t1[child::t2 and position() * 2 >= last()]"
      "/descendant-or-self::*[following-sibling::t3 or child::t0]");
  const eval::Value oracle = s.Run<CvtEvaluator>(1, doc, query, "cvt").value;
  double one_thread_s = 0;
  s.Columns({"threads", "eval_ms", "speedup"});
  for (int threads : {1, 2, 4, 8}) {
    const std::string at = " at " + std::to_string(threads) + " threads";
    const auto parallel = s.Run<eval::ParallelPdaEvaluator>(
        3, doc, query, "parallel pda" + at,
        eval::ParallelPdaEvaluator::Options{.threads = threads, .pda = {}});
    s.Verify(parallel.value, oracle, "parallel pda vs cvt" + at);
    if (threads == 1) one_thread_s = parallel.seconds;
    s.Row({Int(threads), Ms(parallel.seconds),
           Real(one_thread_s / parallel.seconds)});
  }
  s.Print();
  s.CheckBar("answers equal cvt at every width",
             std::to_string(oracle.nodes().size()) + " nodes", true);
  return s.Finish();
}

}  // namespace
}  // namespace gkx

int main() {
  // Rows carry their section's seed; the file-level seed is unused.
  gkx::bench::JsonReport report("bench_paper", /*seed=*/0);
  bool ok = true;
  for (auto* section :
       {&gkx::Intro, &gkx::Prop27, &gkx::Thm72, &gkx::Thm73, &gkx::Thm32,
        &gkx::Thm42, &gkx::Thm43, &gkx::Thm57, &gkx::Fig2, &gkx::Thm59,
        &gkx::Table1, &gkx::Ablation, &gkx::Remark56}) {
    ok = section(&report) && ok;
  }
  report.Write(gkx::bench::RepoRootPath("BENCH_paper.json"));
  if (!ok) std::fprintf(stderr, "bench_paper: a bar failed\n");
  return ok ? 0 : 1;
}
