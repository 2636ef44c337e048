#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace mvbench {
namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// The work class a span opens, or kCount when it opens none.
SpanFamily WorkClassOf(std::string_view name) {
  if (StartsWith(name, "view.propagate")) return SpanFamily::kViewPropagate;
  if (StartsWith(name, "hint.")) return SpanFamily::kHint;
  if (StartsWith(name, "anti_entropy.")) return SpanFamily::kAntiEntropy;
  if (StartsWith(name, "member.")) return SpanFamily::kMember;
  return SpanFamily::kCount;
}

SpanFamily OwnFamilyOf(std::string_view name) {
  if (StartsWith(name, "net ")) return SpanFamily::kNet;
  if (name == "svc") return SpanFamily::kSvc;
  if (StartsWith(name, "quorum.")) return SpanFamily::kQuorum;
  if (StartsWith(name, "cache.")) return SpanFamily::kCache;
  if (StartsWith(name, "client.")) return SpanFamily::kClient;
  if (StartsWith(name, "view.")) return SpanFamily::kViewRead;
  return SpanFamily::kOther;
}

}  // namespace

const char* SpanFamilyName(SpanFamily family) {
  switch (family) {
    case SpanFamily::kClient: return "client";
    case SpanFamily::kNet: return "net";
    case SpanFamily::kSvc: return "svc";
    case SpanFamily::kQuorum: return "quorum";
    case SpanFamily::kCache: return "cache";
    case SpanFamily::kViewRead: return "view_read";
    case SpanFamily::kViewPropagate: return "view_propagate";
    case SpanFamily::kHint: return "hint";
    case SpanFamily::kAntiEntropy: return "anti_entropy";
    case SpanFamily::kMember: return "member";
    case SpanFamily::kOther: return "other";
    case SpanFamily::kCount: break;
  }
  return "?";
}

bool TraceLedger::AddTrace(const mvstore::Tracer& tracer,
                           mvstore::TraceId trace, double weight) {
  const std::vector<mvstore::TraceEvent> events = tracer.Collect(trace);
  std::unordered_map<mvstore::SpanId, std::size_t> index;
  index.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) index[events[i].span] = i;

  // Complete = one root, every parent present, every non-network span
  // ended (an unended network hop is a dropped message, not missing data).
  bool complete = true;
  int roots = 0;
  std::vector<std::vector<std::size_t>> children(events.size());
  for (std::size_t i = 0; i < events.size() && complete; ++i) {
    const mvstore::TraceEvent& e = events[i];
    if (e.end == 0 && OwnFamilyOf(e.name) != SpanFamily::kNet) complete = false;
    if (e.parent == 0) {
      ++roots;
      continue;
    }
    auto it = index.find(e.parent);
    if (it == index.end()) {
      complete = false;
    } else {
      children[it->second].push_back(i);
    }
  }
  if (!complete || roots != 1) {
    ++rejected_;
    return false;
  }

  // Collect() orders by (start, span id), so a parent precedes its children
  // and its work class is known when a child asks for it.
  std::vector<SpanFamily> work(events.size(), SpanFamily::kCount);
  std::vector<std::pair<mvstore::SimTime, mvstore::SimTime>> cover;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const mvstore::TraceEvent& e = events[i];
    work[i] = WorkClassOf(e.name);
    if (work[i] == SpanFamily::kCount && e.parent != 0) {
      work[i] = work[index.at(e.parent)];
    }
    const SpanFamily family =
        work[i] != SpanFamily::kCount ? work[i] : OwnFamilyOf(e.name);
    spans_[static_cast<std::size_t>(family)] += weight;
    if (e.end == 0) continue;

    cover.clear();
    for (std::size_t c : children[i]) {
      const mvstore::TraceEvent& child = events[c];
      if (child.end == 0) continue;
      const mvstore::SimTime lo = std::max(child.start, e.start);
      const mvstore::SimTime hi = std::min(child.end, e.end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    mvstore::SimTime covered = 0;
    mvstore::SimTime reach = e.start;
    for (const auto& [lo, hi] : cover) {
      const mvstore::SimTime from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    const mvstore::SimTime self = (e.end - e.start) - covered;
    self_us_[static_cast<std::size_t>(family)] +=
        weight * static_cast<double>(std::max<mvstore::SimTime>(self, 0));
  }
  ++accepted_;
  return true;
}

void TraceLedger::Merge(const TraceLedger& other, double scale) {
  for (std::size_t f = 0; f < kNumFamilies; ++f) {
    self_us_[f] += scale * other.self_us_[f];
    spans_[f] += scale * other.spans_[f];
  }
  ops_ += other.ops_;
  accepted_ += other.accepted_;
  rejected_ += other.rejected_;
}

double TraceLedger::SelfUsPerOp(SpanFamily family) const {
  return ops_ == 0 ? 0.0
                   : self_us_[static_cast<std::size_t>(family)] /
                         static_cast<double>(ops_);
}

double TraceLedger::SpansPerOp(SpanFamily family) const {
  return ops_ == 0 ? 0.0
                   : spans_[static_cast<std::size_t>(family)] /
                         static_cast<double>(ops_);
}

double SamplePercentile(std::vector<std::int64_t>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(samples[lo]) * (1 - frac) +
         static_cast<double>(samples[hi]) * frac;
}

double SmoothPercentile(const mvstore::Histogram& h, double p) {
  if (h.count() == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double v = h.Percentile(p);
  // Histogram::Percentile is a step function of p; find the p-interval
  // [lo_p, hi_p] over which it reports this bucket, i.e. the cumulative
  // shares before and after the bucket.
  double a = 0, b = p;
  if (h.Percentile(0) != v) {
    for (int i = 0; i < 60; ++i) {
      const double m = (a + b) / 2;
      (h.Percentile(m) < v ? a : b) = m;
    }
  } else {
    b = 0;
  }
  const double lo_p = b;
  a = p;
  b = 100;
  if (h.Percentile(100) != v) {
    for (int i = 0; i < 60; ++i) {
      const double m = (a + b) / 2;
      (h.Percentile(m) > v ? b : a) = m;
    }
  } else {
    a = 100;
  }
  const double hi_p = a;
  // Buckets below 16 hold one integer each; above, each spans ~8%.
  if (v < 16 || hi_p <= lo_p) return v;
  double lower = std::max(v / 1.08, static_cast<double>(h.min()));
  if (lo_p > 0) {
    const double prev = h.Percentile(std::max(0.0, lo_p - 1e-9));
    if (prev < v) lower = std::max(lower, prev);
  }
  return lower + (v - lower) * (p - lo_p) / (hi_p - lo_p);
}

}  // namespace mvbench
