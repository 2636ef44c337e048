// Interface between the record store and the view-maintenance engine.
//
// The store's coordinator (src/store/server.*) knows WHEN maintenance is
// needed — a base-table Put touched a view key or a view-materialized column
// — and collects the pre-update view-key versions from the base row's
// replicas (Algorithm 1, line 2). The maintenance engine (src/view/*) knows
// HOW to propagate (Algorithms 2 and 3). This interface is the seam.

#ifndef MVSTORE_STORE_HOOKS_H_
#define MVSTORE_STORE_HOOKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "common/types.h"
#include "storage/cell.h"
#include "storage/row.h"
#include "store/freshness.h"
#include "store/schema.h"

namespace mvstore::store {

class Server;

// SessionId, ReadConsistency, and ServedBy live in store/freshness.h.

/// One record returned by a view Get: the base key that produced the view
/// row plus the requested materialized cells.
struct ViewRecord {
  Key base_key;
  storage::Row cells;
};

/// Pre-update view-key versions collected for one affected view.
struct CollectedViewKeys {
  const ViewDef* view;
  /// Distinct versions of the view-key column observed across the base
  /// row's replicas before the update applied. Null cells (replica had no
  /// value) appear as default-constructed Cells with kNullTimestamp.
  std::vector<storage::Cell> old_keys;
};

/// Everything a view Get carries besides the view and its key: the
/// consistency contract (ISSUE 7) plus the classic quorum/column knobs.
struct ViewReadSpec {
  /// Columns to return; empty = all materialized columns.
  std::vector<ColumnName> columns;
  int read_quorum = 1;
  SessionId session = 0;
  ReadConsistency consistency = ReadConsistency::kEventual;
  /// kBoundedStaleness only: the staleness bound; 0 uses 500 ms.
  SimTime max_staleness = 0;
};

/// A view Get's result: the records, plus the freshness contract's answer —
/// how fresh the serving state provably was and which path produced it.
struct ViewReadOutcome {
  std::vector<ViewRecord> records;
  /// The serving state provably reflects every write at ts <= freshness.
  Timestamp freshness = kNullTimestamp;
  ServedBy served_by = ServedBy::kView;
};

class ViewMaintenanceHook {
 public:
  virtual ~ViewMaintenanceHook() = default;

  /// Called synchronously on the coordinator while a base-table Put that
  /// affects `views` is being ISSUED — before any replica traffic, so the
  /// freshness intents it registers are visible to bounded reads from the
  /// instant the Put can be acknowledged. Returns an opaque group handle
  /// that the matching OnBasePutCommitted call passes back (0 = none).
  virtual std::uint64_t OnBasePutIssued(Server* coordinator, const Key& key,
                                        const std::vector<const ViewDef*>& views,
                                        Timestamp ts, SessionId session) {
    return 0;
  }

  /// Called on the coordinating server after a base-table Put has been
  /// acknowledged to the client AND the pre-update view keys have been
  /// collected from all reachable replicas. `written` holds exactly the
  /// cells the Put applied (with their timestamps); `put_group` is what the
  /// matching OnBasePutIssued returned. The hook schedules the asynchronous
  /// propagation (Algorithm 1, lines 5-7).
  virtual void OnBasePutCommitted(Server* coordinator, const Key& base_key,
                                  const storage::Row& written,
                                  std::vector<CollectedViewKeys> views,
                                  std::uint64_t put_group) = 0;

  /// Serves a client Get on a view (Algorithm 4) under `spec`'s consistency
  /// contract: kReadYourWrites proves that the session's own pending
  /// propagations to the partition have applied (Definition 4; waiting or
  /// repairing as needed), kBoundedStaleness proves the staleness bound the
  /// same way and may also route to the SI/base path, and kEventual serves
  /// the quorum's state as is.
  virtual void HandleViewGet(
      Server* coordinator, const ViewDef& view, const Key& view_key,
      ViewReadSpec spec,
      std::function<void(StatusOr<ViewReadOutcome>)> callback) = 0;

  /// Called synchronously when `server`'s process ends — a crash, or the
  /// end of a decommission — BEFORE its in-flight coordinator ops are
  /// aborted: the engine must treat the server's share of its volatile
  /// state (the propagation tasks it holds, unattached freshness intents,
  /// propagator queues) as lost. A left server never comes back for it.
  virtual void OnServerDown(Server* server) {}

  /// Called when `server` comes up — after a restart's commit-log replay,
  /// or when its join bootstrap completes — right after the catch-up
  /// anti-entropy round a serving server runs: the engine may kick recovery
  /// work for the ranges the server now owns (e.g. a view re-scrub that
  /// adopts propagations orphaned by a crash or an ownership move).
  virtual void OnServerUp(Server* server) {}
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_HOOKS_H_
