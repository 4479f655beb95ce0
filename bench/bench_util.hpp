// Shared experiment-harness helpers: the "paper says / we measure" header,
// a column-aligned table printer, the BENCH_*.json emitter and the log-log
// slope fit behind bench_paper's growth bars. Header-only (every
// bench_*.cpp is its own binary).

#ifndef GKX_BENCH_BENCH_UTIL_HPP_
#define GKX_BENCH_BENCH_UTIL_HPP_

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/check.hpp"
#include "base/stopwatch.hpp"
#include "base/string_util.hpp"

// Build provenance. The benches' build generates gkx_git_rev.hpp at build
// time (CMakeLists.txt, cmake/git_rev.cmake) and CMake defines
// GKX_BUILD_TYPE; the fallbacks cover every other compile (tests, probes,
// out-of-tree packages).
#if __has_include("gkx_git_rev.hpp")
#include "gkx_git_rev.hpp"
#endif
#ifndef GKX_GIT_REV
#define GKX_GIT_REV "unknown"
#endif
#ifndef GKX_BUILD_TYPE
#define GKX_BUILD_TYPE "unknown"
#endif

namespace gkx::bench {

/// Current UTC time as "YYYY-MM-DDTHH:MM:SSZ".
inline std::string UtcTimestamp() {
  std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return std::string(buf);
}

/// Peak resident set size of this process, in bytes (VmHWM from
/// /proc/self/status, with a getrusage fallback). A high-water mark: once
/// a phase has touched N bytes the value never drops, so benches that care
/// about per-phase footprint must run phases in separate processes or
/// record the delta against the mark at phase start.
inline int64_t PeakRssBytes() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb > 0) return static_cast<int64_t>(kb) * 1024;
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // kB on Linux
  }
  return 0;
}

/// Prints the experiment banner: what the paper claims, what this binary
/// measures, and how to read the shape.
inline void PrintHeader(const std::string& experiment_id,
                        const std::string& paper_claim,
                        const std::string& measurement) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment_id.c_str());
  std::printf("  paper:    %s\n", paper_claim.c_str());
  std::printf("  measured: %s\n", measurement.c_str());
  std::printf("================================================================\n");
}

/// Column-aligned ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) {
    GKX_CHECK_EQ(row.size(), headers_.size());
    rows_.push_back(std::move(row));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("  ");
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::string rule;
    for (size_t c = 0; c < headers_.size(); ++c) {
      rule += std::string(widths[c], '-') + "  ";
    }
    std::printf("  %s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row);
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Num(int64_t v) { return std::to_string(v); }

/// Resolves `name` against the repository root — the nearest ancestor of
/// the current directory containing ROADMAP.md — so the BENCH_*.json
/// trajectory files land in-tree (and get committed) no matter where the
/// binary runs from (./build locally, the checkout root in CI). Falls back
/// to the bare name when no repo root is found.
inline std::string RepoRootPath(const std::string& name) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::path dir = fs::current_path(ec); !ec && !dir.empty();
       dir = dir.parent_path()) {
    if (fs::exists(dir / "ROADMAP.md", ec)) return (dir / name).string();
    if (dir == dir.root_path()) break;
  }
  return name;
}

/// JSON-encodes a string (quotes + escapes).
inline std::string JsonStr(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// JSON-encodes a number (integers without a fraction, else shortest float).
inline std::string JsonNum(double v) {
  if (v == static_cast<int64_t>(v)) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::string(buf);
}

/// Machine-readable benchmark emitter so the perf trajectory is trackable
/// across PRs: one JSON object {"bench", "seed", "rows": [...]} per file.
/// Row values must be pre-encoded with JsonStr/JsonNum.
class JsonReport {
 public:
  JsonReport(std::string bench, uint64_t seed)
      : bench_(std::move(bench)), seed_(seed) {}

  /// Every row is stamped with the process's peak RSS at emission time, so
  /// the committed trajectory tracks memory footprint alongside latency.
  void AddRow(std::vector<std::pair<std::string, std::string>> fields) {
    fields.emplace_back("peak_rss_bytes",
                        JsonNum(static_cast<double>(PeakRssBytes())));
    rows_.push_back(std::move(fields));
  }

  /// Writes the report and prints the path (checked). Every file carries
  /// provenance — git rev, UTC timestamp, hardware threads, build type — so
  /// the committed trajectory stays interpretable across machines and PRs.
  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    GKX_CHECK(f != nullptr);
    std::fprintf(f,
                 "{\"bench\": %s, \"seed\": %llu, \"git_rev\": %s, "
                 "\"utc\": %s, \"threads\": %u, \"build_type\": %s, "
                 "\"rows\": [",
                 JsonStr(bench_).c_str(),
                 static_cast<unsigned long long>(seed_),
                 JsonStr(GKX_GIT_REV).c_str(),
                 JsonStr(UtcTimestamp()).c_str(),
                 std::thread::hardware_concurrency(),
                 JsonStr(GKX_BUILD_TYPE).c_str());
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n  {", r == 0 ? "" : ",");
      for (size_t i = 0; i < rows_[r].size(); ++i) {
        std::fprintf(f, "%s%s: %s", i == 0 ? "" : ", ",
                     JsonStr(rows_[r][i].first).c_str(),
                     rows_[r][i].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    GKX_CHECK(std::fclose(f) == 0);
    std::printf("  wrote %s (%zu rows)\n\n", path.c_str(), rows_.size());
  }

 private:
  std::string bench_;
  uint64_t seed_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

inline std::string Millis(double seconds, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, seconds * 1e3);
  return std::string(buf);
}

inline std::string Ratio(double value, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return std::string(buf);
}

inline std::string PassFail(bool ok) { return ok ? "ok" : "MISMATCH"; }

/// Least-squares exponent k of y ≈ c·x^k, i.e. the slope of log y against
/// log x. nullopt when the fit is undefined: fewer than two points, lengths
/// that differ, fewer than two distinct x, or any x or y that is not a
/// finite positive number. So a counter that reads zero fails every bar
/// instead of fitting a slope.
inline std::optional<double> LogLogSlope(const std::vector<double>& x,
                                         const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return std::nullopt;
  double mean_x = 0;
  double mean_y = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!(x[i] > 0) || !(y[i] > 0) || !std::isfinite(x[i]) ||
        !std::isfinite(y[i])) {
      return std::nullopt;
    }
    mean_x += std::log(x[i]);
    mean_y += std::log(y[i]);
  }
  mean_x /= static_cast<double>(x.size());
  mean_y /= static_cast<double>(x.size());
  double sxx = 0;
  double sxy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dx = std::log(x[i]) - mean_x;
    sxx += dx * dx;
    sxy += dx * (std::log(y[i]) - mean_y);
  }
  if (!(sxx > 0)) return std::nullopt;
  return sxy / sxx;
}

/// LogLogSlope of each consecutive pair of points. A polynomial's local
/// slopes settle at its degree; a superpolynomial's keep rising.
inline std::vector<std::optional<double>> LocalSlopes(
    const std::vector<double>& x, const std::vector<double>& y) {
  std::vector<std::optional<double>> slopes;
  for (size_t i = 0; i + 1 < x.size() && i + 1 < y.size(); ++i) {
    slopes.push_back(LogLogSlope({x[i], x[i + 1]}, {y[i], y[i + 1]}));
  }
  return slopes;
}

/// A growth bar on a fitted exponent: holds only when the fit exists and
/// lies in [lo, hi]. A bar with lo > 0 expects growth, so a zero, constant
/// or shrinking series fails it; pass -INFINITY for an upper bound alone.
inline bool SlopeWithin(std::optional<double> slope, double lo, double hi) {
  return slope.has_value() && *slope >= lo && *slope <= hi;
}

/// True when every local slope exists and each exceeds the one before
/// (at least two of them): the signature of superpolynomial growth over
/// the measured range.
inline bool SlopesRise(const std::vector<std::optional<double>>& slopes) {
  if (slopes.size() < 2) return false;
  for (size_t i = 0; i < slopes.size(); ++i) {
    if (!slopes[i].has_value()) return false;
    if (i > 0 && !(*slopes[i] > *slopes[i - 1])) return false;
  }
  return true;
}

}  // namespace gkx::bench

#endif  // GKX_BENCH_BENCH_UTIL_HPP_
