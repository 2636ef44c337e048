// The freshness contract: cluster-wide tracking of how stale every view
// partition can be, and the vocabulary the read surface uses to talk about
// it (ISSUE 7).
//
// The paper measures view staleness after the fact (figs 7/8); here it
// becomes a promise. Every base Put that affects a view registers an
// *intent* — "a write at timestamp T is on its way into view V" — before
// the Put is even acknowledged, and the intent settles when the propagation
// applies or the Put turns out not to touch the view (MarkApplied), or is
// cleared by a family audit after it died with a crash or retry-budget
// exhaustion (MarkWounded, then FamilyAudited). A view read then has an
// exact question to ask: is there an unsettled intent that can reach my
// partition and that my read must reflect? A bounded-staleness read at
// bound B must reflect every writer's intents older than now - B; a
// read-your-writes read (Section V, Definition 4) must reflect every intent
// of its own session, whatever its age. If no such blocker exists, the
// view is provably fresh enough; if one does, the coordinator waits,
// repairs, or (bounded reads only) routes around the view — one policy
// ladder for both levels (view/maintenance_engine.cc).
//
// The tracker is engine-central, modeling the per-partition tracker shards
// a real cluster would colocate with the view partition replicas: intent
// registration rides the Put's coordinator work, settlement rides the
// propagation's own quorum traffic (plus one network hop in dedicated-
// propagator mode), and every completion feeds the per-view lag estimate
// the bounded-read router reads. Session ids are cluster-unique
// (Cluster::NewSession), so a session's "my own writes" set is simply the
// intents registered under its id.

#ifndef MVSTORE_STORE_FRESHNESS_H_
#define MVSTORE_STORE_FRESHNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.h"

namespace mvstore::store {

struct Metrics;

/// Identifies a client session (Section V). 0 = no session.
using SessionId = std::uint64_t;

/// The consistency contract of a read (ReadOptions::consistency).
enum class ReadConsistency {
  /// Serve whatever the read quorum holds (the paper's behaviour).
  kEventual,
  /// Never serve view state older than ReadOptions::max_staleness: the
  /// coordinator proves the bound from the freshness tracker, briefly waits
  /// for in-flight propagations, repairs wounded families, or routes to the
  /// SI/base-table path when the view cannot satisfy the bound in time.
  kBoundedStaleness,
  /// Definition 4: block until every pending propagation of the session's
  /// own earlier writes that can reach the read partition has applied.
  /// BeginSession() is sugar for this.
  kReadYourWrites,
};

/// Which access path actually served a read (ReadResult::served_by).
enum class ServedBy {
  kView,      ///< materialized-view partition scan (Algorithm 4)
  kSiPath,    ///< secondary-index broadcast probe
  kBaseScan,  ///< base-table read (point Get, or match-scan fallback)
};

/// Cluster-wide freshness bookkeeping. One instance per Cluster; see the
/// file comment for what each piece models.
class FreshnessTracker {
 public:
  /// `metrics` may be null (standalone construction in unit tests);
  /// instrument updates are then skipped.
  explicit FreshnessTracker(Metrics* metrics = nullptr);

  FreshnessTracker(const FreshnessTracker&) = delete;
  FreshnessTracker& operator=(const FreshnessTracker&) = delete;

  // -------------------------------------------------------------------
  // Intent lifecycle (driven by the maintenance engine).
  // -------------------------------------------------------------------

  /// Registers a pending propagation of a write at `ts` to `view`,
  /// synchronously at Put issue — BEFORE the Put is acknowledged, so a
  /// read issued right after the ack can never miss it. Until
  /// ResolvePartitions names the view-key partitions the write can land
  /// in, the intent conservatively blocks EVERY partition of the view.
  /// `session` (0 = none) is the writer's session: the read-your-writes
  /// blocker filter matches on it.
  std::uint64_t RegisterIntent(const std::string& view, const Key& base_key,
                               Timestamp ts, SessionId session);

  /// Narrows `intent` to the named view-key partitions (the written view
  /// key plus every collected pre-image guess). An empty set leaves the
  /// intent blocking all partitions (nothing was collected — the paper's
  /// unreachable-replica window).
  void ResolvePartitions(std::uint64_t intent, std::set<Key> partitions);

  /// The propagation applied at its write quorum, or the Put turned out not
  /// to touch the view: the intent stops blocking and parked reads are
  /// woken. 0 is a no-op.
  void MarkApplied(std::uint64_t intent);

  /// The propagation died (coordinator crash, orphaning, retry budget):
  /// the write may or may not be in the view, so the intent KEEPS blocking
  /// reads — only a family audit (owned-range scrub or a targeted repair)
  /// can prove the family converged and clear the wound. Wakes parked reads
  /// (their ladder can now repair instead of wait). Idempotent.
  void MarkWounded(std::uint64_t intent);

  /// A scrub/repair audited the (view, base_key) family against
  /// Definition 1: every intent for that family — wounded blockers and
  /// dead bookkeeping whose completion notice was lost — is cleared.
  /// Returns the number of intents cleared.
  std::size_t FamilyAudited(const std::string& view, const Key& base_key);

  // -------------------------------------------------------------------
  // Queries (driven by the bounded-read path).
  // -------------------------------------------------------------------

  /// The freshness a read of (view, partition) at wall-clock `now_ts` may
  /// claim: just below the oldest unsettled intent that can reach the
  /// partition, or `now_ts` when none is pending. For a sharded view
  /// (`shard_count` > 1) only intents whose base key hashes into `shard`
  /// count: an intent routed to another sub-shard cannot affect this one,
  /// and a scatter-gather read claims the min over the shards it merged.
  Timestamp FreshAsOf(const std::string& view, const Key& partition,
                      Timestamp now_ts, int shard = 0,
                      int shard_count = 1) const;

  struct BlockerSummary {
    int live = 0;     ///< propagations still in flight
    int wounded = 0;  ///< families needing an audit
    std::vector<Key> wounded_keys;  ///< base keys of the wounded families
  };
  /// The unsettled intents with ts <= `need` that can reach (view,
  /// partition) — exactly the writes a read requiring freshness `need`
  /// cannot yet prove are reflected. With `session` set, only intents
  /// registered under that session count (read-your-writes); session 0
  /// owns no intents.
  BlockerSummary BlockersBefore(
      const std::string& view, const Key& partition, Timestamp need,
      std::optional<SessionId> session = std::nullopt) const;

  /// One-shot callback fired the next time `view`'s blockers change for the
  /// better: an intent applied, audited away, or wounded (which turns
  /// waiting into repairing). Parked reads use this instead of polling.
  void NotifyOnImprovement(const std::string& view,
                           std::function<void()> callback);

  /// EWMA (weight 0.2 on the newest sample) of the lag of every completed
  /// propagation per view, the router's cost-model input. LagEstimate
  /// returns -1 until the first sample.
  void RecordLag(const std::string& view, SimTime lag);
  SimTime LagEstimate(const std::string& view) const;

  /// Unsettled intents (introspection for tests).
  std::size_t pending_intents() const { return intents_.size(); }

 private:
  struct Intent {
    std::string view;
    Key base_key;
    Timestamp ts = kNullTimestamp;
    SessionId session = 0;
    /// Partitions (view keys) the write can land in; empty = unresolved,
    /// blocking every partition of the view.
    std::set<Key> partitions;
    bool wounded = false;
  };

  /// Whether `intent` can affect `partition`.
  static bool Covers(const Intent& intent, const Key& partition) {
    return intent.partitions.empty() ||
           intent.partitions.count(partition) != 0;
  }

  void EraseIntent(std::map<std::uint64_t, Intent>::iterator it);
  void FireImprovement(const std::string& view);

  Metrics* metrics_;
  std::uint64_t next_intent_ = 0;
  std::map<std::uint64_t, Intent> intents_;
  /// Intent ids per view (the read path's index).
  std::map<std::string, std::set<std::uint64_t>> by_view_;
  std::map<std::string, std::vector<std::function<void()>>> improvement_;
  /// Per-view EWMA of the propagation lag, in simulated microseconds.
  std::map<std::string, double> lag_ewma_;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_FRESHNESS_H_
