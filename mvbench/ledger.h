// Per-layer accounting helpers: simulated self time per span family from
// sampled traces, and percentile estimators that do not snap to histogram
// bucket bounds.

#ifndef MVBENCH_LEDGER_H_
#define MVBENCH_LEDGER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/trace.h"

namespace mvbench {

/// Span families. A span belongs to the work class of its nearest
/// ancestor-or-self that opens one (anti-entropy round, hint, view
/// propagation, membership stream); otherwise to the family of its own name.
/// So `net`/`svc`/`quorum` are foreground client work, and everything a
/// propagation causes is `view_propagate`.
enum class SpanFamily {
  kClient,         ///< client.* operation roots
  kNet,            ///< net a->b hops
  kSvc,            ///< CPU service on a server queue
  kQuorum,         ///< quorum.* coordinator state machines
  kCache,          ///< cache.hit / cache.miss probes (instants)
  kViewRead,       ///< view.read_spin / view.session_defer and the like
  kViewPropagate,  ///< view.propagate and everything under it
  kHint,           ///< hint.* and everything under it
  kAntiEntropy,    ///< anti_entropy.round and everything under it
  kMember,         ///< member.* and everything under it
  kOther,
  kCount,
};

inline constexpr std::size_t kNumFamilies =
    static_cast<std::size_t>(SpanFamily::kCount);

const char* SpanFamilyName(SpanFamily family);

/// Accumulates sampled traces. Each accepted trace adds its spans' self
/// time (duration minus the part covered by child spans) and span counts,
/// weighted by the sampling stride, so totals estimate the whole run.
class TraceLedger {
 public:
  /// Collects `trace` and adds it with `weight`. Returns false, adding
  /// nothing, when the trace is incomplete in the ring buffer (a span was
  /// evicted, or a non-network span has not ended).
  bool AddTrace(const mvstore::Tracer& tracer, mvstore::TraceId trace,
                double weight);
  /// Client operations the sampled id ranges covered (the per-op base).
  void AddOps(std::uint64_t ops) { ops_ += ops; }
  /// Adds `other`'s self time and span counts scaled by `scale` (the share
  /// of traces `other` sampled, inverted), and its op and trace counts.
  void Merge(const TraceLedger& other, double scale = 1.0);

  std::uint64_t ops() const { return ops_; }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t rejected() const { return rejected_; }
  double SelfUsPerOp(SpanFamily family) const;
  double SpansPerOp(SpanFamily family) const;

 private:
  std::array<double, kNumFamilies> self_us_{};
  std::array<double, kNumFamilies> spans_{};
  std::uint64_t ops_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
};

/// Linear-interpolated percentile (p in [0, 100]) of raw samples; sorts
/// `samples` in place. 0 when empty.
double SamplePercentile(std::vector<std::int64_t>& samples, double p);

/// Percentile of a bucketed Histogram, interpolated inside the bucket that
/// holds rank p instead of reporting the bucket's upper bound.
double SmoothPercentile(const mvstore::Histogram& h, double p);

}  // namespace mvbench

#endif  // MVBENCH_LEDGER_H_
