// PropagateUpdate and GetLiveKey (Algorithms 2 and 3).
//
// One Propagation object executes a single attempt to propagate one base-
// table update to one view, starting from one view-key guess. It is an
// asynchronous state machine over the coordinator primitives of the server
// it runs on: every Get/Put inside it is a majority-quorum operation on the
// view's backing table ("write quorum for all Puts is a majority of the view
// replicas").
//
// Outcomes:
//   OK        — the versioned view reflects the update (Definition 3).
//   kAborted  — the guess was written by an update that has not itself
//               propagated yet (GetLiveKey found no row). The caller retries
//               with another guess (Algorithm 1, lines 5-7).
//   other     — infrastructure failure (quorum unreachable); caller retries.

#ifndef MVSTORE_VIEW_PROPAGATION_H_
#define MVSTORE_VIEW_PROPAGATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "storage/cell.h"
#include "storage/row.h"
#include "store/schema.h"
#include "store/server.h"

namespace mvstore::view {

/// One base-table update bound for one view (built by the maintenance
/// engine from Algorithm 1's collection step).
struct PropagationTask {
  std::uint64_t id = 0;
  const store::ViewDef* view = nullptr;
  Key base_key;
  /// The (view, base key) family this task belongs to: the Section IV-F
  /// serialization resource (one lock / one row queue) and the engine's
  /// per-family record key.
  std::string resource;

  /// The written view-key cell, when the update touched the view key:
  /// a live cell = the key was set; a tombstone = the key was deleted
  /// (the row must be marked deleted in the view, Section IV-C).
  std::optional<storage::Cell> view_key_update;

  /// Written cells of view-materialized columns (possibly empty).
  storage::Row materialized_updates;

  /// Distinct pre-update view-key versions collected from the base row's
  /// replicas; null cells mean a replica had never seen a view key.
  std::vector<storage::Cell> guesses;

  ServerId origin = 0;  ///< coordinator that issued the base Put
  SimTime created_at = 0;
  /// Span covering this task's whole propagation lifetime, a child of the
  /// originating Put's trace. Every attempt, lock wait, chain hop, and
  /// propagator handoff nests beneath it.
  TraceContext trace;
  /// Guess-rotation counter: bumped only on kAborted (guess not propagated
  /// yet), so the next attempt tries a different guess.
  int attempts = 0;
  /// Infrastructure-failure counter (quorum timeouts etc.). These retry
  /// with the SAME guess: a timed-out step's writes may have landed without
  /// their acks, and redoing the identical idempotent sequence is what
  /// cleans that limbo up; switching guesses could instead take the
  /// case-2c shortcut and strand a rival live row.
  int infra_failures = 0;
  /// True while the task sits in the engine's retry parking lot waiting for
  /// a same-row propagation to complete (or for its fallback timer).
  bool parked = false;

  /// The server that holds this task's volatile state, and on which its
  /// attempts run: the origin, until a dedicated-propagator handoff lands;
  /// then the propagator that queued it. A task absorbed by coalescing
  /// follows its winner. When this server crashes or leaves, the task dies
  /// with it (MaintenanceEngine::OnServerDown).
  ServerId home = 0;

  /// Set by the engine when the task's home goes down: the task's volatile
  /// state died with the process, every pending closure that still holds the
  /// task bails out, and recovery is left to the view scrub (which counts it
  /// as an orphaned propagation).
  bool orphaned = false;

  /// Dedicated-propagator mode only: true once the handoff has landed in a
  /// propagator's row queue. Until then the home re-sends it every
  /// `rpc_timeout`; afterwards re-dispatches run locally at the propagator,
  /// unless a join or leave moved the key's primary, which hands the task
  /// over again.
  bool handed_off = false;

  /// True while a Propagation attempt is executing this task — its quorum
  /// writes may be in flight, so coalescing must not mutate the payload.
  bool in_attempt = false;

  /// Tasks coalesced into this one (same view + base key + origin): their
  /// updates were LWW-merged into this task's payload, and their lifecycle
  /// bookkeeping (completion metrics, intent settlement, trace close)
  /// settles when this task settles.
  std::vector<std::shared_ptr<PropagationTask>> absorbed;

  /// Freshness intent (ISSUE 7) this task settles: registered by
  /// OnBasePutIssued, attached by OnBasePutCommitted, MarkApplied /
  /// MarkWounded when the task completes / dies. 0 = none.
  std::uint64_t freshness_intent = 0;
};

class Propagation : public std::enable_shared_from_this<Propagation> {
 public:
  /// Runs one attempt on `executor` using `guess`. `done` fires exactly once.
  static void Run(store::Server* executor,
                  std::shared_ptr<PropagationTask> task,
                  const storage::Cell& guess,
                  std::function<void(Status)> done);

 private:
  static constexpr int kMaxChainHops = 1024;

  Propagation(store::Server* executor, std::shared_ptr<PropagationTask> task,
              storage::Cell guess, std::function<void(Status)> done);

  void Start();
  void GetLiveKeyStep(Key kv, int hops);
  void OnGuessMissing(const Key& kv, int hops);
  void Dispatch();
  Key EffectiveNewKey() const;

  // Row-family creation (first insert): see CreateAnchor in the .cc.
  void CreateAnchor();
  void RefreshLiveRow();   ///< Case 2c: knew is already the live key
  void Promote();          ///< new key supersedes the live row
  void StaleInsert();      ///< new key loses: insert a stale row

  // Shared tails.
  void ApplyMaterialized(const Key& target_view_key);
  void Finish(Status status);

  // Helpers.
  storage::Row SelectionMarkFromViewKey() const;
  storage::Row SelectionMarkFromMaterialized() const;
  void ViewPut(const Key& view_key, storage::Row cells,
               std::function<void()> next);
  void ViewReadRow(const Key& view_key, std::vector<ColumnName> columns,
                   std::function<void(StatusOr<storage::Row>)> next);
  /// Compose(view_key, base_key) built in `composed_scratch_`: each chain
  /// hop re-encodes into the same buffer instead of allocating a fresh key.
  const Key& ComposedRowKey(const Key& view_key);

  store::Server* executor_;
  std::shared_ptr<PropagationTask> task_;
  storage::Cell guess_;
  std::function<void(Status)> done_;
  Key composed_scratch_;

  // Resolved by GetLiveKey.
  Key live_key_;
  Timestamp live_ts_ = kNullTimestamp;
  bool have_live_ = false;
  /// True when the chase started from a null guess via the sentinel key
  /// (first-insert candidate).
  bool chasing_from_null_ = false;
};

}  // namespace mvstore::view

#endif  // MVSTORE_VIEW_PROPAGATION_H_
