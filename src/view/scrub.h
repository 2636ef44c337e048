// View scrubber: offline verification and repair of materialized views.
//
// One oracle behind every check and every correction. The merged base and
// view tables (all replicas merged cell-wise: the state they converge to)
// are grouped into families, one per base key. Each family has:
//
//  - its expected record: Definition 1 (plus selection and the deletion
//    semantics) evaluated on the merged base row;
//  - its exposed records: the live, initialized, unhidden view rows;
//  - an audit: Definition 3 (at most one live row, every stale chain
//    reaches it, live rows initialized) and Definition 1 (the exposed
//    records are exactly the expected one, value and timestamp);
//  - a rewrite: force the expected live row, re-root the sentinel anchor
//    at it, retire every other row.
//
// Every entry point is a loop over families. ComputeExpectedView and
// ReadConvergedView list the expected and exposed records, which property
// tests compare after quiescing. CheckView reports the audit over the whole
// view, and RepairView rewrites every family: the recovery tool for the
// failure-window cases DESIGN.md documents (e.g. orphan live rows created
// when replicas were unreachable during pre-image collection).
// ScrubOwnedRanges and RepairViewFamilies rewrite only the families their
// audit finds broken, and TrimStaleViewRows retires old stale rows.
//
// The scrubber runs outside simulated time (direct engine access), as an
// offline maintenance utility would.

#ifndef MVSTORE_VIEW_SCRUB_H_
#define MVSTORE_VIEW_SCRUB_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "storage/row.h"
#include "store/cluster.h"
#include "store/schema.h"

namespace mvstore::view {

/// One expected view record: (view key, base key) -> materialized cells.
struct ExpectedRecord {
  Key view_key;
  Key base_key;
  storage::Row cells;  ///< materialized columns only

  friend bool operator==(const ExpectedRecord& a, const ExpectedRecord& b) {
    return a.view_key == b.view_key && a.base_key == b.base_key &&
           a.cells == b.cells;
  }
};

/// Definition-1 evaluation against the merged base table (all replicas
/// merged cell-wise, i.e. the state every replica converges to).
/// Records are sorted by (view_key, base_key).
std::vector<ExpectedRecord> ComputeExpectedView(store::Cluster& cluster,
                                                const store::ViewDef& view);

/// The records the versioned view currently exposes (live, initialized, not
/// hidden), evaluated on the merged view table. Sorted like
/// ComputeExpectedView. Values are restricted to materialized columns.
std::vector<ExpectedRecord> ReadConvergedView(store::Cluster& cluster,
                                              const store::ViewDef& view);

/// Structural-invariant and content findings of one audit.
struct ScrubReport {
  std::uint64_t rows_examined = 0;
  std::uint64_t live_rows = 0;
  std::uint64_t stale_rows = 0;
  std::uint64_t hidden_rows = 0;

  // Definition-3 violations.
  std::vector<std::string> multiple_live_rows;   ///< base keys with >1 live
  std::vector<std::string> broken_chains;        ///< stale rows not reaching live
  std::vector<std::string> uninitialized_live;   ///< live rows missing __init

  // Content divergence vs ComputeExpectedView.
  std::vector<std::string> missing_records;      ///< expected but not exposed
  std::vector<std::string> spurious_records;     ///< exposed but not expected
  std::vector<std::string> wrong_cells;          ///< exposed with wrong values

  bool clean() const {
    return multiple_live_rows.empty() && broken_chains.empty() &&
           uninitialized_live.empty() && missing_records.empty() &&
           spurious_records.empty() && wrong_cells.empty();
  }
  std::string Summary() const;
};

/// Audits `view` (structure + content) against the merged base table.
ScrubReport CheckView(store::Cluster& cluster, const store::ViewDef& view);

/// Rewrites every family of the view to exactly the expected state: the
/// live row per Definition 1 and its sentinel anchor, no other stale rows.
/// Each family is written one tick above its newest cell; materialized cells
/// keep their base timestamps. Crashed replicas are skipped, as by the
/// scrub. Returns the number of families with an expected record.
std::size_t RepairView(store::Cluster& cluster, const store::ViewDef& view);

/// Incremental, ownership-scoped variant of RepairView for the crash fault
/// model: audits only the view families whose base key is PRIMARILY owned by
/// `owner` on the ring, and rewrites just the broken ones as RepairView
/// does. A family is broken when the
/// records it exposes differ from Definition 1 — the signature a propagation
/// orphaned by a coordinator crash leaves behind — or when a live row is
/// uninitialized (which would wedge Algorithm-4 readers). Families for which
/// `skip` returns true (a propagation still in flight) are left to the
/// propagation engine. Repairs are applied to the non-crashed replicas only;
/// anti-entropy carries them to recovering servers. Returns the number of
/// families repaired.
///
/// `on_family_audited` (optional) fires for EVERY family the scrub actually
/// audited — owned, not skipped — whether or not it needed repair: after the
/// call the family provably matches Definition 1, which is what lets the
/// freshness tracker clear the family's wounded intents (ISSUE 7).
std::size_t ScrubOwnedRanges(
    store::Cluster& cluster, const store::ViewDef& view, ServerId owner,
    const std::function<bool(const Key&)>& skip,
    const std::function<void(const Key&)>& on_family_audited = nullptr);

/// Targeted variant for the bounded-read path (ISSUE 7): audits and repairs
/// exactly the named families, with no ownership filter — the reading
/// coordinator repairs whatever wounded family blocks its staleness bound,
/// wherever it lives. Same audit and repair logic as ScrubOwnedRanges;
/// families for which `skip` returns true are left alone (and NOT proven
/// converged). Returns the number of families repaired.
std::size_t RepairViewFamilies(store::Cluster& cluster,
                               const store::ViewDef& view,
                               const std::vector<Key>& base_keys,
                               const std::function<bool(const Key&)>& skip);

/// Retires stale rows whose every cell is older than `older_than` by
/// tombstoning them on the non-crashed replicas (the engines' tombstone GC
/// then purges them at compaction). Returns the number of rows retired.
///
/// Safety: a stale row is only ever needed by an in-flight propagation
/// whose view-key guess predates the row's retirement; propagations are
/// bounded in lifetime (retry budget x max backoff), so calling this with
/// `older_than` = now - grace, grace far above that bound, never breaks a
/// chase. A trimmed key can still come back: a later view-key update to the
/// same value rewrites the row's cells with fresh timestamps, superseding
/// the tombstones (Theorem 1 case 2b). Rows of families without a live row
/// and rows still carrying recent cells are left alone. This closes the
/// lifecycle the paper leaves open ("stale rows accumulate").
std::size_t TrimStaleViewRows(store::Cluster& cluster,
                              const store::ViewDef& view,
                              Timestamp older_than);

}  // namespace mvstore::view

#endif  // MVSTORE_VIEW_SCRUB_H_
