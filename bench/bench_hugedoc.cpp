// EXP-HD — the huge-document tier: the SoA arena at multi-hundred-MB scale.
// Synthesizes a deterministic corpus document (default ~256 MB of XML),
// then measures the full ingestion-to-serving path:
//
//   ingest    ParseDocument, and ParseDocument followed by the
//             DocumentIndex a first query builds — throughput in MB/s —
//             plus the pre-scan node estimate that sizes the arena columns
//             up front.
//   snapshot  SaveSnapshot wall time and bytes: the relocatable on-disk
//             arena vs the in-memory arena (they differ only by header and
//             name table).
//   coldstart the restart race: parse-then-first-query vs mmap-then-first-
//             query on the same plan. The mmap side reads the columns once
//             to check them, then only the pages the query needs; the parse
//             side must chew through the whole text first. Self-check:
//             mmap-first-query >= 5x faster.
//   answers   every measured plan, evaluated on the parsed document and on
//             the mapped snapshot — both must be value-identical.
//
// Cold start here means cold *process*, warm page cache (the snapshot was
// just written) — the serving-restart case the snapshot format exists for.
//
// Usage: bench_hugedoc [--smoke | <megabytes>]
//   --smoke: ~8 MB, correctness checks only (CI tier); the >= 5x cold-start
//   bar applies at the default scale, where parse cost dominates noise.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "base/stopwatch.hpp"
#include "bench/bench_util.hpp"
#include "eval/engine.hpp"
#include "xml/index.hpp"
#include "xml/parser.hpp"
#include "xml/parser_core.hpp"
#include "xml/snapshot.hpp"

namespace gkx {
namespace {

// Deterministic corpus text: repeated <record> subtrees with names, labels,
// attributes, cross-references, and text payloads — every payload kind the
// arena stores, in realistic proportions (~7 nodes / ~320 bytes per record).
std::string SynthesizeCorpusXml(uint64_t target_bytes, int64_t* record_count) {
  std::string xml;
  xml.reserve(target_bytes + (1 << 16));
  xml += "<?xml version=\"1.0\"?>\n<corpus generator=\"bench_hugedoc\">";
  int64_t i = 0;
  static const char* kKinds[] = {"paper", "tool", "dataset", "survey"};
  while (xml.size() < target_bytes) {
    const std::string serial = std::to_string(i);
    xml += "<record id=\"r";
    xml += serial;
    xml += "\" kind=\"";
    xml += kKinds[i % 4];
    xml += "\"><name>entry ";
    xml += serial;
    xml += "</name><tags labels=\"";
    xml += (i % 3 == 0 ? "G R" : (i % 3 == 1 ? "G" : "R I1"));
    xml += "\"/><body>body text for record ";
    xml += serial;
    xml += " with some filler to give the heap realistic weight";
    xml += "</body><refs><ref to=\"r";
    xml += std::to_string(i / 2);
    xml += "\"/><ref to=\"r";
    xml += std::to_string(i / 3);
    xml += "\"/></refs></record>";
    ++i;
  }
  xml += "</corpus>";
  *record_count = i;
  return xml;
}

struct PlanCase {
  const char* label;
  const char* text;
};

// The measured plans: an index-friendly name lookup, a structural join, and
// a labels-convention filter — the shapes a serving tier actually sees.
constexpr PlanCase kPlans[] = {
    {"names", "/descendant::record/child::name"},
    {"refs_join", "/descendant::refs[count(child::ref) = 2]"},
    {"labels", "/descendant::tags[self::G]/parent::record"},
};

void Run(uint64_t target_bytes, bool smoke) {
  bench::PrintHeader(
      "EXP-HD: structure-of-arrays arena at huge-document scale",
      "LOGCFL/PTIME combined complexity presumes documents too large to "
      "re-walk casually; the data layout must make one pass count",
      "ingestion throughput (parse, parse + index), snapshot save size, "
      "and the restart race: parse-then-query vs mmap-then-query");

  bench::JsonReport json("hugedoc", /*seed=*/0);
  // A unique file in the system temp directory, so the bench runs from any
  // working directory (and two runs never share a snapshot); removed below.
  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() /
       ("gkx_bench_hugedoc." + std::to_string(::getpid()) + "." +
        std::to_string(std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count()) +
        ".snapshot"))
          .string();

  // ---- synthesize ----
  int64_t records = 0;
  Stopwatch synth_sw;
  const std::string xml = SynthesizeCorpusXml(target_bytes, &records);
  const double synth_seconds = synth_sw.ElapsedSeconds();
  const double xml_mb = static_cast<double>(xml.size()) / (1024.0 * 1024.0);
  std::printf("  corpus: %.1f MB, %lld records (%.2fs to synthesize)\n\n",
              xml_mb, static_cast<long long>(records), synth_seconds);

  // ---- ingest: pre-scan estimate ----
  Stopwatch estimate_sw;
  const int32_t estimated = xml::parser_internal::EstimateNodeCount(xml);
  const double estimate_seconds = estimate_sw.ElapsedSeconds();

  // ---- ingest: parse, then the index the first query would build ----
  Stopwatch ingest_sw;
  auto parsed = xml::ParseDocument(xml);
  const double parse_seconds = ingest_sw.ElapsedSeconds();
  GKX_CHECK(parsed.ok());
  const int64_t nodes = parsed->size();
  double parse_index_seconds = 0.0;
  {
    const xml::DocumentIndex index(*parsed);
    parse_index_seconds = ingest_sw.ElapsedSeconds();
    GKX_CHECK(index.posting_count() >= nodes);
  }

  const double estimate_ratio =
      static_cast<double>(estimated) / static_cast<double>(nodes);
  bench::Table ingest({"path", "seconds", "MB/s", "nodes", "arena MB"});
  const double arena_mb =
      static_cast<double>(parsed->ArenaBytes()) / (1024.0 * 1024.0);
  ingest.AddRow({"parse", bench::Ratio(parse_seconds),
                 bench::Ratio(xml_mb / parse_seconds, 1), bench::Num(nodes),
                 bench::Ratio(arena_mb, 1)});
  ingest.AddRow({"parse + index", bench::Ratio(parse_index_seconds),
                 bench::Ratio(xml_mb / parse_index_seconds, 1),
                 bench::Num(nodes), bench::Ratio(arena_mb, 1)});
  ingest.Print();
  std::printf(
      "  pre-scan estimate: %d nodes vs %lld actual (ratio %.3f, %.3fs)\n\n",
      estimated, static_cast<long long>(nodes), estimate_ratio,
      estimate_seconds);
  // The estimate counts '<' + name-start; over-count comes only from
  // comments/PI/CDATA lookalikes, so it lands within a few percent here.
  GKX_CHECK(estimate_ratio >= 0.95 && estimate_ratio <= 1.10);
  json.AddRow({{"section", bench::JsonStr("ingest")},
               {"xml_mb", bench::JsonNum(xml_mb)},
               {"nodes", bench::JsonNum(static_cast<double>(nodes))},
               {"parse_s", bench::JsonNum(parse_seconds)},
               {"parse_index_s", bench::JsonNum(parse_index_seconds)},
               {"parse_mb_per_s", bench::JsonNum(xml_mb / parse_seconds)},
               {"parse_index_mb_per_s",
                bench::JsonNum(xml_mb / parse_index_seconds)},
               {"estimate_ratio", bench::JsonNum(estimate_ratio)},
               {"prescan_s", bench::JsonNum(estimate_seconds)},
               {"arena_mb", bench::JsonNum(arena_mb)}});

  // ---- snapshot ----
  Stopwatch save_sw;
  GKX_CHECK(xml::SaveSnapshot(*parsed, snapshot_path).ok());
  const double save_seconds = save_sw.ElapsedSeconds();
  std::printf("  snapshot: wrote %.1f MB arena in %.2fs\n\n", arena_mb,
              save_seconds);
  json.AddRow({{"section", bench::JsonStr("snapshot")},
               {"save_s", bench::JsonNum(save_seconds)},
               {"arena_mb", bench::JsonNum(arena_mb)}});

  // ---- cold start + answers ----
  eval::Engine engine;
  bench::Table cold({"plan", "parse+query s", "mmap+query s", "speedup",
                     "answers"});
  double min_speedup = std::numeric_limits<double>::infinity();
  for (const PlanCase& plan_case : kPlans) {
    auto plan = eval::Engine::Compile(plan_case.text);
    GKX_CHECK(plan.ok());

    // Parse-then-first-query: what a restart without snapshots pays.
    Stopwatch parse_side_sw;
    auto parse_doc = xml::ParseDocument(xml);
    GKX_CHECK(parse_doc.ok());
    auto parse_answer = engine.RunPlan(*parse_doc, *plan);
    const double parse_side_seconds = parse_side_sw.ElapsedSeconds();
    GKX_CHECK(parse_answer.ok());

    // Map-then-first-query: the same first answer straight off the file.
    Stopwatch map_side_sw;
    auto mapped = xml::MapSnapshot(snapshot_path);
    GKX_CHECK(mapped.ok());
    auto mapped_answer = engine.RunPlan(*mapped, *plan);
    const double map_side_seconds = map_side_sw.ElapsedSeconds();
    GKX_CHECK(mapped_answer.ok());

    // Two ingestion paths, one answer.
    const bool identical = mapped_answer->value.Equals(parse_answer->value);
    GKX_CHECK(identical);

    const double speedup = parse_side_seconds / map_side_seconds;
    cold.AddRow({plan_case.label, bench::Ratio(parse_side_seconds),
                 bench::Ratio(map_side_seconds), bench::Ratio(speedup, 1),
                 bench::PassFail(identical)});
    json.AddRow({{"section", bench::JsonStr("coldstart")},
                 {"plan", bench::JsonStr(plan_case.text)},
                 {"parse_query_s", bench::JsonNum(parse_side_seconds)},
                 {"mmap_query_s", bench::JsonNum(map_side_seconds)},
                 {"speedup", bench::JsonNum(speedup)}});
    min_speedup = std::min(min_speedup, speedup);
  }
  cold.Print();
  std::fflush(stdout);

  std::remove(snapshot_path.c_str());
  // The acceptance bar: serving off a snapshot must beat re-parsing by
  // at least 5x to first answer on every plan. Checked once the table is
  // out and the snapshot removed, so a failed run still shows all three
  // ratios and leaves no file behind. Smoke scale is too small for a
  // stable ratio; correctness still holds there.
  if (!smoke) GKX_CHECK(min_speedup >= 5.0);
  json.Write(bench::RepoRootPath("BENCH_hugedoc.json"));
}

}  // namespace
}  // namespace gkx

int main(int argc, char** argv) {
  uint64_t megabytes = 256;
  bool smoke = false;
  if (argc > 1) {
    if (std::strcmp(argv[1], "--smoke") == 0) {
      smoke = true;
      megabytes = 8;
    } else {
      megabytes = static_cast<uint64_t>(std::atoll(argv[1]));
      GKX_CHECK(megabytes > 0);
    }
  }
  gkx::Run(megabytes * 1024 * 1024, smoke);
  return 0;
}
