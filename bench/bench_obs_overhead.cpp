// EXP-OBS-OVERHEAD: what request tracing costs on the hottest serving
// path. Re-runs the EXP-MVIEW-WARM regime (repeated identical queries,
// warm plan + answer caches — requests that do almost no work, so any
// per-request bookkeeping is maximally visible) two ways:
//   * tracing off  — Options::obs.tracing = false; only the always-on
//     total-latency histogram records,
//   * tracing on   — sampled per-stage stamps and slow-query eligibility
//     checks on every request.
// One service per mode, both alive at once, each serving its batches on
// one worker: the pool's fork/join and cache-line traffic between workers
// would swamp the per-request bookkeeping this prices. The timed rounds
// run in pairs, one round per mode, and which mode goes first flips every
// pair, so process warm-up and machine drift land on both modes alike. A
// warm hit executes no route, so in both modes the timed rounds must leave
// every route count unchanged (self-checked). The acceptance bar,
// self-checked below: the median over pairs of traced / untraced
// throughput is >= 0.95 (tracing costs < 5%); a median of paired ratios
// holds still on a loaded machine, where best-of-N per mode does not.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "service/query_service.hpp"
#include "xml/generator.hpp"

namespace gkx {
namespace {

const char* kTemplates[] = {
    "/descendant::t0/child::t1",
    "//t2",
    "/descendant::t1[child::t2]",
    "/descendant::t0[not(child::t3)]",
    "/descendant::t2[position() = 2]",
    "count(/descendant::t1)",
    "/descendant::t3 | //t0/child::t2",
    "/descendant::t1/parent::t0",
    "/descendant::t0/child::t1[position() = 2]/descendant::t2",
};

void RegisterCorpus(service::QueryService& svc) {
  Rng rng(271);  // identical documents in every mode
  xml::RandomDocumentOptions options;
  options.text_probability = 0.3;
  for (int d = 0; d < 3; ++d) {
    options.node_count = 1500 << d;  // 1500 / 3000 / 6000 nodes
    GKX_CHECK(svc.RegisterDocument("big" + std::to_string(d),
                                   xml::RandomDocument(&rng, options))
                  .ok());
  }
}

std::vector<service::QueryService::Request> MakeRequests() {
  std::vector<service::QueryService::Request> requests;
  for (int d = 0; d < 3; ++d) {
    for (const char* query : kTemplates) {
      requests.push_back({"big" + std::to_string(d), query});
    }
  }
  return requests;
}

struct Mode {
  std::unique_ptr<service::QueryService> svc;
  std::map<std::string, int64_t> routes_warm;  // route counts after warm-up
  double qps = 0.0;                            // best round
};

std::unique_ptr<service::QueryService> MakeService(bool tracing) {
  service::QueryService::Options options;
  options.plan_cache.capacity = 4096;
  options.batch_workers = 1;
  options.obs.tracing = tracing;
  options.obs.slow_query_ms = 1e9;  // threshold checks run; nothing logs
  auto svc = std::make_unique<service::QueryService>(options);
  RegisterCorpus(*svc);
  return svc;
}

/// A few text-format lines as a README-able sample of the export.
void PrintExcerpt(const service::QueryService& svc) {
  const std::string text = svc.ExportStats(service::StatsFormat::kText);
  std::printf("  traced service (ExportStats text excerpt):\n");
  size_t printed = 0;
  for (const char* want :
       {"gkx_service_requests ", "gkx_latency_ms_p99 ",
        "gkx_routes_pf_indexed_count ", "gkx_answer_cache_hits "}) {
    const size_t pos = text.find(want);
    if (pos == std::string::npos) continue;
    const size_t end = text.find('\n', pos);
    std::printf("    %s\n", text.substr(pos, end - pos).c_str());
    ++printed;
  }
  GKX_CHECK(printed > 0);  // the export really contains these series
}

void Run(bench::JsonReport* json) {
  const auto requests = MakeRequests();
  Mode modes[2];  // [0] tracing off, [1] tracing on
  for (int m = 0; m < 2; ++m) {
    modes[m].svc = MakeService(/*tracing=*/m == 1);
    modes[m].svc->SubmitBatch(requests);  // untimed: warm plan + answer caches
    modes[m].routes_warm = modes[m].svc->Stats().segment_route_counts;
  }

  // kPairs pairs of rounds; each round serves the whole request set kReps
  // times from the warm answer cache.
  const int kPairs = 40;
  const int kReps = 24;
  const int64_t per_round = static_cast<int64_t>(requests.size()) * kReps;
  std::vector<double> pair_ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double qps[2] = {0.0, 0.0};
    for (int k = 0; k < 2; ++k) {
      const int m = (pair + k) % 2;
      Stopwatch sw;
      for (int rep = 0; rep < kReps; ++rep) {
        for (const auto& response : modes[m].svc->SubmitBatch(requests)) {
          GKX_CHECK(response.ok());
        }
      }
      qps[m] = static_cast<double>(per_round) / sw.ElapsedSeconds();
      modes[m].qps = std::max(modes[m].qps, qps[m]);
    }
    pair_ratios.push_back(qps[1] / qps[0]);
  }
  for (const Mode& mode : modes) {
    GKX_CHECK(mode.svc->Stats().segment_route_counts == mode.routes_warm);
  }
  PrintExcerpt(*modes[1].svc);

  const Mode& off = modes[0];
  const Mode& on = modes[1];
  std::sort(pair_ratios.begin(), pair_ratios.end());
  const double ratio = pair_ratios[pair_ratios.size() / 2];
  bench::Table table(
      {"tracing", "requests/round", "best qps", "median traced/untraced"});
  table.AddRow({"off", bench::Num(per_round),
                bench::Num(static_cast<int64_t>(off.qps)), "-"});
  table.AddRow({"on", bench::Num(per_round),
                bench::Num(static_cast<int64_t>(on.qps)),
                bench::Ratio(ratio, 3)});
  table.Print();

  for (const bool tracing : {false, true}) {
    json->AddRow(
        {{"scenario", bench::JsonStr("obs_overhead_warm")},
         {"tracing", bench::JsonStr(tracing ? "on" : "off")},
         {"requests_per_round", bench::JsonNum(static_cast<double>(per_round))},
         {"best_qps", bench::JsonNum(modes[tracing ? 1 : 0].qps)},
         {"traced_over_untraced", bench::JsonNum(tracing ? ratio : 1.0)}});
  }

  // The acceptance bar: tracing must cost < 5% on the warm-cache path.
  GKX_CHECK(ratio >= 0.95);
}

}  // namespace
}  // namespace gkx

int main() {
  gkx::bench::PrintHeader(
      "EXP-OBS-OVERHEAD: request tracing cost on the warm-answer-cache path",
      "observability context: sampled per-stage timers and slow-query "
      "checks run inside every Submit; the paper's evaluators are "
      "untouched — this prices the serving layer's bookkeeping",
      "40 alternating pairs of rounds over repeated identical queries with "
      "warm plan + answer caches, Options::obs.tracing off vs on (expect "
      "median traced/untraced >= 0.95; warm hits record no route in either "
      "mode)");
  gkx::bench::JsonReport json("obs_overhead", 271);
  gkx::Run(&json);
  json.Write(gkx::bench::RepoRootPath("BENCH_obs_overhead.json"));
  return 0;
}
