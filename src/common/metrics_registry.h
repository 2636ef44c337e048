// Named-metrics registry: the cluster's single source of observability
// state.
//
// Subsystems register counters and latency histograms by name and keep the
// returned reference; increments stay a single inlined add on a plain
// integer. The registry owns the instruments (node-stable storage), can
// snapshot every instrument at once, diff two snapshots, and export
// deterministically to JSON — two same-seed runs produce byte-identical
// exports, which is what makes metrics diffs trustworthy evidence in perf
// work.

#ifndef MVSTORE_COMMON_METRICS_REGISTRY_H_
#define MVSTORE_COMMON_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "common/histogram.h"

namespace mvstore {

/// A monotonically increasing counter. Behaves like the uint64_t field it
/// replaced: ++, +=, and implicit reads all still compile at the old call
/// sites.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  Counter& operator++() {
    ++value_;
    return *this;
  }
  void operator++(int) { ++value_; }
  Counter& operator+=(std::uint64_t delta) {
    value_ += delta;
    return *this;
  }
  operator std::uint64_t() const { return value_; }  // NOLINT: drop-in read
  std::uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, const Counter& c) {
  return os << c.value();
}

/// Point-in-time copy of every registered instrument. Histograms are reduced
/// to summary statistics (diffable and cheap to export).
struct MetricsSnapshot {
  struct HistogramStats {
    std::uint64_t count = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    double sum = 0;
    double mean = 0;
    double p50 = 0;
    double p99 = 0;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramStats> histograms;

  /// Deterministic export: keys sorted (std::map order), doubles printed via
  /// JsonFormatDouble.
  std::string ToJson() const;
};

/// after - before, per instrument. Histogram deltas carry the count/sum
/// difference (mean over the interval); min/max/percentiles are cumulative
/// in the inputs and not meaningful as differences, so they are zeroed.
MetricsSnapshot Delta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter/histogram registered under `name`, creating it on
  /// first use. References stay valid for the registry's lifetime.
  Counter& RegisterCounter(const std::string& name);
  Histogram& RegisterHistogram(const std::string& name);

  /// Instrument lookup without creation (nullptr when absent).
  const Counter* FindCounter(const std::string& name) const;

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }

  /// Zeroes every instrument (references stay valid).
  void Reset();

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mvstore

#endif  // MVSTORE_COMMON_METRICS_REGISTRY_H_
