#include "obs/metrics.hpp"

#include "base/check.hpp"

namespace gkx::obs {

Counter* MetricRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[std::string(name)];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(std::string_view name,
                                        Histogram::Unit unit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[std::string(name)];
  if (!slot) {
    slot = std::make_unique<Histogram>(unit);
  } else {
    GKX_CHECK(slot->unit() == unit);
  }
  return slot.get();
}

void MetricRegistry::SetGauge(std::string_view name,
                              std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[std::string(name)] = std::move(fn);
}

std::vector<std::pair<std::string, int64_t>> MetricRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> MetricRegistry::GaugeValues()
    const {
  std::vector<std::pair<std::string, std::function<double()>>> fns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fns.reserve(gauges_.size());
    for (const auto& [name, fn] : gauges_) fns.emplace_back(name, fn);
  }
  // Gauges run outside the registry lock: they may touch other subsystems.
  std::vector<std::pair<std::string, double>> out;
  out.reserve(fns.size());
  for (const auto& [name, fn] : fns) out.emplace_back(name, fn());
  return out;
}

std::vector<std::pair<std::string, HistogramSummary>>
MetricRegistry::HistogramSummaries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, HistogramSummary>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    out.emplace_back(name, hist->Summary());
  }
  return out;
}

void MetricRegistry::MergeInto(MetricRegistry* out) const {
  // Snapshot under our lock, apply under the target's (via the public
  // accessors) — never both at once, so two registries can merge into a
  // third concurrently and a registry can even merge into itself-shaped
  // graphs without lock-order cycles.
  std::vector<std::pair<std::string, int64_t>> counters = CounterValues();
  std::vector<std::pair<std::string, double>> gauges = GaugeValues();
  std::vector<std::pair<std::string, const Histogram*>> hists;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hists.reserve(histograms_.size());
    for (const auto& [name, hist] : histograms_) {
      hists.emplace_back(name, hist.get());
    }
  }
  for (const auto& [name, value] : counters) {
    out->GetCounter(name)->Add(value);
  }
  for (const auto& [name, value] : gauges) {
    // Accumulate the sampled value into a constant sum gauge: merging N
    // registries yields the sum of their gauge readings at merge time.
    double sum;
    {
      std::lock_guard<std::mutex> lock(out->mu_);
      sum = (out->merged_gauge_sums_[name] += value);
    }
    out->SetGauge(name, [sum]() { return sum; });
  }
  // Histogram pointers are stable for this registry's lifetime; Merge reads
  // the source buckets atomically, so concurrent recording is safe.
  for (const auto& [name, hist] : hists) {
    out->GetHistogram(name, hist->unit())->Merge(*hist);
  }
}

}  // namespace gkx::obs
