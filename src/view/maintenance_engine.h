// The view-maintenance engine: Algorithm 1's asynchronous propagation driver,
// Algorithm 4's view reads under every consistency level (Definition 4's
// session guarantee included), and both Section IV-F concurrency-control
// designs.
//
// One engine serves the whole cluster. It installs itself as every server's
// ViewMaintenanceHook. Per-propagator state (the dedicated mode's row
// queues) is kept per server id.

#ifndef MVSTORE_VIEW_MAINTENANCE_ENGINE_H_
#define MVSTORE_VIEW_MAINTENANCE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "store/cluster.h"
#include "store/hooks.h"
#include "view/lock_service.h"
#include "view/propagation.h"

namespace mvstore::view {

class MaintenanceEngine : public store::ViewMaintenanceHook {
 public:
  /// Creates the engine and installs it on every server of `cluster`.
  explicit MaintenanceEngine(store::Cluster* cluster);

  MaintenanceEngine(const MaintenanceEngine&) = delete;
  MaintenanceEngine& operator=(const MaintenanceEngine&) = delete;

  // --- store::ViewMaintenanceHook ---
  std::uint64_t OnBasePutIssued(store::Server* coordinator, const Key& key,
                                const std::vector<const store::ViewDef*>& views,
                                Timestamp ts,
                                store::SessionId session) override;
  void OnBasePutCommitted(store::Server* coordinator, const Key& base_key,
                          const storage::Row& written,
                          std::vector<store::CollectedViewKeys> views,
                          std::uint64_t put_group) override;
  void HandleViewGet(
      store::Server* coordinator, const store::ViewDef& view,
      const Key& view_key, store::ViewReadSpec spec,
      std::function<void(StatusOr<store::ViewReadOutcome>)> callback) override;
  /// The down rule: orphans exactly the tasks whose `home` is `server`,
  /// wounds its unattached put groups and drops its row queues.
  void OnServerDown(store::Server* server) override;
  /// Scrubs the ranges `server` now primarily owns.
  void OnServerUp(store::Server* server) override;

  /// Number of propagations started but not yet ended (completed,
  /// abandoned or orphaned).
  std::uint64_t active_propagations() const { return live_tasks_.size(); }

  /// Drives the simulation until every started propagation has ended
  /// (tests and examples; CHECK-fails if the simulation runs dry first).
  void Quiesce();

  LockService& lock_service() { return locks_; }

  /// Retry budget per propagation before it is abandoned (counted in
  /// attempts; generous — Section IV-D argues success is eventually
  /// guaranteed when propagations are retried).
  static constexpr int kMaxAttempts = 500;

 private:
  struct RowQueue {
    std::deque<std::shared_ptr<PropagationTask>> tasks;
    bool running = false;
  };

  /// What the engine knows about one (view, base key) family while any of
  /// its tasks is active; the entry is erased when the last one ends, so
  /// its presence is what FamilyBusy reports.
  struct Family {
    int active = 0;  ///< tasks of the family not yet ended
    /// The most recently created task still pending — the merge target for
    /// propagation coalescing. Reset when that task ends.
    std::shared_ptr<PropagationTask> anchor;
    /// The retry parking lot (Section IV-F modes), in parking order.
    std::vector<std::shared_ptr<PropagationTask>> parked;
  };

  /// How a propagation task ends. Every started task ends exactly once.
  enum class TaskOutcome {
    kCompleted,  ///< its update is in the view (Definition 3)
    kAbandoned,  ///< retry budget spent; the scrub inherits the family
    kOrphaned,   ///< its home crashed or left; the scrub inherits it
  };

  /// Serialization resource name of (view, base key): one lock / one row
  /// queue per family (Section IV-F), and the key of `families_`.
  static std::string ResourceOf(const std::string& view, const Key& base_key);

  /// Whether a propagation of (view, base key) is still in flight: the scrub
  /// and the ladder's targeted repair leave such a family to it.
  bool FamilyBusy(const std::string& view, const Key& base_key) const;

  const storage::Cell& CurrentGuess(const PropagationTask& task) const;

  /// Linear backoff (capped) for retrying a failed attempt.
  SimTime RetryDelay(const PropagationTask& task) const;

  /// Cap on the sampled propagation dispatch delay. Figure 7 levels off at
  /// ~640 ms: "almost all update propagations completed in less time than
  /// that".
  static constexpr SimTime kDispatchDelayMax = Millis(700);

  SimTime SampleDispatchDelay();

  /// Whether attempts run on dedicated propagators (Section IV-F mode 2)
  /// rather than on the origin coordinator.
  bool Dedicated() const;

  // Lock-service mode: acquire, one attempt, release.
  void RunWithLocks(std::shared_ptr<PropagationTask> task);

  // Paper-prototype mode: no concurrency control, timer retries.
  void RunUnsynchronized(std::shared_ptr<PropagationTask> task);

  // Dedicated-propagator mode: per-family FIFO row queues.
  void EnqueueOnPropagator(std::shared_ptr<PropagationTask> task);
  void PumpRowQueue(ServerId propagator, const std::string& resource);

  /// Runs one attempt of `task` on its home under the task's span. When
  /// the attempt returns and the task is still live, `release` (may be
  /// empty) runs, then OnAttemptDone hands its verdict to `then`.
  void RunAttempt(std::shared_ptr<PropagationTask> task,
                  std::function<void()> release,
                  std::function<void(bool /*ended*/)> then);

  /// Handles one attempt's outcome: completion, retry with the next guess
  /// (optionally refreshing guesses from the base row), or abandonment.
  void OnAttemptDone(std::shared_ptr<PropagationTask> task, Status status,
                     std::function<void(bool /*ended*/)> then);

  void RefreshGuesses(std::shared_ptr<PropagationTask> task,
                      std::function<void()> then);

  /// Re-enters a task through its mode's execution path.
  void DispatchTask(std::shared_ptr<PropagationTask> task);

  /// Parks a failed task until a same-row propagation completes (or a
  /// fallback timer fires); Section IV-F modes only.
  void ParkForRetry(std::shared_ptr<PropagationTask> task);
  /// Takes a parked task out of its family's parking lot; false when it was
  /// not parked (already woken, or orphaned).
  bool Unpark(const std::shared_ptr<PropagationTask>& task);
  void WakeParked(const std::string& resource);

  /// The one end of every task: counts `outcome`, closes the span, leaves
  /// the active set and settles the freshness intent (NotifyOrigin when
  /// completed or abandoned, MarkWounded when orphaned), then ends every
  /// absorbed task the same way. Only the winner logs an abandonment, and
  /// on completion records its lag and wakes its family's parked tasks.
  /// No-op on a task already orphaned.
  void EndTask(const std::shared_ptr<PropagationTask>& task,
               TaskOutcome outcome);
  /// Settles the task's freshness intent: MarkApplied when `completed`,
  /// MarkWounded otherwise. In dedicated-propagator mode the settlement
  /// notice crosses the network to the tracker shard colocated with the
  /// origin.
  void NotifyOrigin(const std::shared_ptr<PropagationTask>& task,
                    bool completed);

  // --- propagation coalescing ---

  /// Whether `task` may be merged into `winner` (same resource assumed):
  /// the winner must not be writing or in write-limbo, must share the
  /// origin, and must not need a lock upgrade from the merge.
  bool CanAbsorb(const PropagationTask& winner,
                 const PropagationTask& task) const;
  /// LWW-merges `task`'s payload into `winner` and records it for
  /// settlement when the winner ends.
  void AbsorbTask(const std::shared_ptr<PropagationTask>& winner,
                  const std::shared_ptr<PropagationTask>& task);

  // --- crash-stop fault model ---

  /// Adds a new task to the active set; returns its family's record.
  Family& RegisterTask(const std::shared_ptr<PropagationTask>& task);
  void UnregisterTask(const std::shared_ptr<PropagationTask>& task);

  /// Scrubs the view families whose base key is primarily owned by `server`
  /// (skipping families with a propagation still in flight); returns the
  /// number of broken families repaired.
  std::size_t RunOwnedRangeScrub(ServerId server);
  void OwnedRangeScrubTick(ServerId server);

  /// What DoViewGet's partition scan produced: the live records plus how
  /// many sub-shards the scatter could not reach (ISSUE 10; nonzero only on
  /// the allow-partial path, where ServeFromView must clamp its freshness
  /// claim because the missing shards' rows are simply absent).
  struct ViewScanResult {
    std::vector<store::ViewRecord> records;
    int failed_shards = 0;
  };

  // Algorithm 4 with the Section IV-F wait-on-initializing-row rule.
  void DoViewGet(
      store::Server* coordinator, const store::ViewDef& view,
      const Key& view_key, std::vector<ColumnName> columns, int read_quorum,
      bool allow_partial, int attempt,
      std::function<void(StatusOr<ViewScanResult>)> callback);

  // --- freshness contract (ISSUE 7) ---

  /// What a bounded-staleness or read-your-writes view read must prove
  /// before it may be served from the view: the input of the ladder.
  struct ReadRequirement {
    /// Blocker filter: only intents registered under this session block
    /// (read-your-writes); unset = every writer's intents (bounded).
    std::optional<store::SessionId> session;
    /// Router bound: intents older than now - bound block (the `need`
    /// timestamp, re-derived at every rung), and the router may serve the
    /// read off the SI/base path when the lag estimate exceeds the bound.
    /// Unset = every matching intent blocks, whatever its age, and the read
    /// never routes around the view (Definition 4 blocks).
    std::optional<SimTime> bound;
    /// Parked time ends here with a fallback read; kSimTimeMax = no
    /// deadline (the client's own request timeout still answers).
    SimTime deadline = kSimTimeMax;
    /// When this read first parked; -1 = not yet. A read counts its wait
    /// once (freshness_bound_waits, or view_get_deferrals for
    /// read-your-writes), and a bounded read records in freshness_wait the
    /// time from here to its serve or fallback.
    SimTime parked_at = -1;
  };

  /// The freshness policy ladder for every consistency level but eventual:
  /// prove the requirement from the tracker, else repair wounded families,
  /// else park until the blockers settle, else (bound set) route to the
  /// SI/base path (FallbackRead).
  void ProvenViewGet(
      store::Server* coordinator, const store::ViewDef& view,
      const Key& view_key, store::ViewReadSpec spec, ReadRequirement req,
      int attempt,
      std::function<void(StatusOr<store::ViewReadOutcome>)> callback);

  /// DoViewGet wrapped into the outcome vocabulary: freshness claimed from
  /// the tracker, served_by = kView.
  void ServeFromView(
      store::Server* coordinator, const store::ViewDef& view,
      const Key& view_key, const store::ViewReadSpec& spec, int read_quorum,
      std::function<void(StatusOr<store::ViewReadOutcome>)> callback);

  /// Serves the read from the secondary index on the view-key column when
  /// one exists, else from a broadcast base-table match scan. Both paths
  /// read the base table's current state, so the outcome claims freshness
  /// "now" (staleness 0) — the router's escape hatch when the view cannot
  /// satisfy a bound in time.
  void FallbackRead(
      store::Server* coordinator, const store::ViewDef& view,
      const Key& view_key, const store::ViewReadSpec& spec,
      std::function<void(StatusOr<store::ViewReadOutcome>)> callback);

  static constexpr int kMaxReadSpins = 64;
  static constexpr SimTime kReadSpinDelay = Millis(1);

  store::Cluster* cluster_;
  Rng rng_;
  LockService locks_;
  std::vector<std::map<std::string, RowQueue>> row_queues_;  // by propagator
  std::uint64_t next_task_id_ = 0;

  /// Every not-yet-ended task, so OnServerDown can orphan a downed
  /// server's share eagerly (closures dropped by the network would otherwise
  /// leak them out of the active count).
  std::map<std::uint64_t, std::shared_ptr<PropagationTask>> live_tasks_;
  std::map<std::string, Family> families_;  // by ResourceOf

  /// Freshness intents registered at Put issue but not yet attached to
  /// their propagation tasks (OnBasePutIssued -> OnBasePutCommitted window).
  /// A crash of the origin in that window wounds the whole group.
  struct PutGroup {
    ServerId origin;
    std::map<std::string, std::uint64_t> intents;  // by view name
  };
  std::map<std::uint64_t, PutGroup> put_groups_;
  std::uint64_t next_put_group_ = 0;
};

}  // namespace mvstore::view

#endif  // MVSTORE_VIEW_MAINTENANCE_ENGINE_H_
