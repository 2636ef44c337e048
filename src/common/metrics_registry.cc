#include "common/metrics_registry.h"

#include "common/json_writer.h"

namespace mvstore {

Counter& MetricsRegistry::RegisterCounter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::RegisterHistogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, hist] : histograms_) {
    MetricsSnapshot::HistogramStats stats;
    stats.count = hist->count();
    if (stats.count > 0) {
      stats.min = hist->min();
      stats.max = hist->max();
      stats.sum = hist->sum();
      stats.mean = hist->Mean();
      stats.p50 = hist->Percentile(50);
      stats.p99 = hist->Percentile(99);
    }
    snap.histograms.emplace(name, stats);
  }
  return snap;
}

void MetricsRegistry::Reset() {
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

namespace {

void WriteHistogramStats(JsonWriter& json,
                         const MetricsSnapshot::HistogramStats& stats) {
  json.BeginObject();
  json.Key("count").Value(stats.count);
  json.Key("min").Value(stats.min);
  json.Key("max").Value(stats.max);
  json.Key("sum").Value(stats.sum);
  json.Key("mean").Value(stats.mean);
  json.Key("p50").Value(stats.p50);
  json.Key("p99").Value(stats.p99);
  json.EndObject();
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("counters").BeginObject();
  for (const auto& [name, value] : counters) {
    json.Key(name).Value(value);
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, stats] : histograms) {
    json.Key(name);
    WriteHistogramStats(json, stats);
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

MetricsSnapshot Delta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    const std::uint64_t prior = it == before.counters.end() ? 0 : it->second;
    delta.counters.emplace(name, value - prior);
  }
  for (const auto& [name, stats] : after.histograms) {
    MetricsSnapshot::HistogramStats d;
    auto it = before.histograms.find(name);
    const std::uint64_t prior_count =
        it == before.histograms.end() ? 0 : it->second.count;
    const double prior_sum = it == before.histograms.end() ? 0 : it->second.sum;
    d.count = stats.count - prior_count;
    d.sum = stats.sum - prior_sum;
    d.mean = d.count > 0 ? d.sum / static_cast<double>(d.count) : 0;
    delta.histograms.emplace(name, d);
  }
  return delta;
}

}  // namespace mvstore
