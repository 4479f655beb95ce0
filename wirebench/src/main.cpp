// wirebench --workload <hot_read|cold_eval> --seed <n>
//           --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints one line per metric (name, value, unit) and, last, one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exits 1 when any check failed (the JSON line is still printed), 2 when
// the run could not start.

#include <sched.h>
#include <sys/vfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "wirebench: %s\nusage: wirebench --workload <hot_read|cold_eval> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

// The filesystem the WAL roots live on (they sit under the work dir). The
// served configuration wants a disk-backed one: fsync on tmpfs is free.
std::string FilesystemOf(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x01021994: return "tmpfs (fsync is free: not the served configuration)";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(info.f_type));
  return buf;
}

// JSON number with every digit a double carries.
std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  wirebench::RunOptions options;
  std::string workload;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!wirebench::ParseWorkload(workload, &options.workload)) {
    return Usage("unknown workload");
  }
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  if (options.seconds <= 0) return Usage("--seconds must be positive");
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  const int cpus = AvailableCpus();
  if (cpus < wirebench::kBusyThreads) {
    std::fprintf(stderr,
                 "wirebench: the served configuration keeps %d threads busy "
                 "(client, connection, pool of %d) but only %d CPUs are "
                 "available\n",
                 wirebench::kBusyThreads, wirebench::kPoolWidth, cpus);
    return 2;
  }
  if (!wirebench::ResetDir(options.work_dir).ok()) {
    return Usage("cannot create the work dir");
  }

  auto inputs = wirebench::MakeInputs(options.workload, options.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "wirebench: inputs: %s\n",
                 inputs.status().ToString().c_str());
    return 2;
  }
  std::printf("wirebench %s seed=%llu seconds=%g trace=%d cpus=%d: %zu docs "
              "(%.1f MiB XML), %zu queries, %d shards, pool %d, WAL fsync on "
              "%s\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, trace, cpus, inputs->keys.size(),
              static_cast<double>(inputs->xml_bytes) / (1 << 20),
              inputs->queries.size(), wirebench::kShards, wirebench::kPoolWidth,
              FilesystemOf(options.work_dir).c_str());
  std::fflush(stdout);

  const wirebench::RunResult result =
      trace == 1 ? wirebench::RunTraced(options, *inputs)
                 : wirebench::RunUntraced(options, *inputs);
  for (const std::string& problem : result.problems) {
    std::printf("  FAILED: %s\n", problem.c_str());
  }
  if (result.metrics.entries.empty()) {
    std::fflush(stdout);
    return 2;
  }
  for (const auto& entry : result.metrics.entries) {
    std::printf("  %-38s %16.6f %s\n", entry.name.c_str(), entry.value,
                entry.unit.c_str());
  }
  const bool correct = result.problems.empty() && result.tally.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.tally.attempted);
  json += ", \"failed\": " + std::to_string(result.tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.entries.size(); ++i) {
    const auto& entry = result.metrics.entries[i];
    if (i > 0) json += ", ";
    json += "\"" + entry.name + "\": {\"value\": " + Number(entry.value) +
            ", \"unit\": \"" + entry.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
