#include "view/scrub.h"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "store/codec.h"
#include "view/view_row.h"

namespace mvstore::view {

namespace {

using storage::Cell;
using storage::Row;

/// Cell-wise merge of a table across every server's replica: the state all
/// replicas converge to under anti-entropy.
std::map<Key, Row> MergedTable(store::Cluster& cluster,
                               const std::string& table) {
  std::map<Key, Row> merged;
  for (int s = 0; s < cluster.num_servers(); ++s) {
    store::Server& server = cluster.server(static_cast<ServerId>(s));
    // Slots outside the ring hold nothing (never joined) or a frozen
    // pre-decommission snapshot whose cells could resurrect rows that GC
    // has since purged from the live replicas. Only members count.
    if (!server.is_member()) continue;
    server.EngineFor(table).ForEach(
        [&merged](const Key& key, const Row& row) {
          merged[key].MergeFrom(row);
        });
  }
  return merged;
}

bool RecordLess(const ExpectedRecord& a, const ExpectedRecord& b) {
  if (a.view_key != b.view_key) return a.view_key < b.view_key;
  return a.base_key < b.base_key;
}

/// One classified row of a per-base-key view family.
struct FamilyRow {
  Key view_key;
  Key row_key;
  const Row* row;
  RowStatus status;

  /// What a reader sees: live, initialized, selection true.
  bool exposed() const {
    return status.live && status.initialized && !status.hidden;
  }
};

/// Everything the view holds, and Definition 1 asks it to hold, for one
/// base key.
struct Family {
  const Row* base = nullptr;    ///< merged base row; null when none
  std::vector<FamilyRow> rows;  ///< the view rows that exist, by row key
  Timestamp newest = 0;  ///< newest cell of its view rows, retired included
};

/// The merged base and view tables grouped into families: one per base key
/// with a base row or leftover view rows, in base-key order. The row
/// pointers point into `base` and `view_rows` (map nodes are stable under
/// move).
struct FamilyIndex {
  std::map<Key, Row> base;
  std::map<Key, Row> view_rows;
  std::map<Key, Family> families;
};

FamilyIndex LoadFamilies(store::Cluster& cluster, const store::ViewDef& view) {
  FamilyIndex index;
  index.base = MergedTable(cluster, view.base_table);
  index.view_rows = MergedTable(cluster, view.name);
  for (const auto& [key, row] : index.base) index.families[key].base = &row;
  for (const auto& [key, row] : index.view_rows) {
    auto split = store::SplitShardedViewRowKey(key, view.shard_count);
    if (!split) continue;
    Family& family = index.families[split->second];
    family.newest = std::max(family.newest, row.MaxTimestamp());
    RowStatus status = ClassifyViewRow(row, split->first);
    if (!status.exists) continue;
    family.rows.push_back({split->first, key, &row, status});
  }
  return index;
}

/// Definition 1 for one family: the record its merged base row puts in the
/// view, if any.
std::optional<ExpectedRecord> ExpectedOf(const store::ViewDef& view,
                                         const Key& base_key,
                                         const Family& family) {
  if (family.base == nullptr) return std::nullopt;
  auto view_key = family.base->Get(view.view_key_column);
  if (!view_key || view_key->tombstone || !view.Selects(*family.base)) {
    return std::nullopt;
  }
  return ExpectedRecord{view_key->value, base_key, view.Project(*family.base)};
}

/// Definition 3's chain rule: following __next from stale row `from` reaches
/// the family's live row, with no dangling pointer and no cycle (a walk
/// longer than the family has rows must have cycled).
bool ReachesLive(const Family& family, const FamilyRow& from) {
  Key at = from.view_key;
  for (std::size_t hop = 0; hop <= family.rows.size(); ++hop) {
    auto it = std::find_if(
        family.rows.begin(), family.rows.end(),
        [&at](const FamilyRow& fr) { return fr.view_key == at; });
    if (it == family.rows.end()) return false;
    if (it->status.live) return true;
    at = it->status.next;
  }
  return false;
}

/// Audits one family into `report`: Definition 3 (one live row, every stale
/// chain reaches it, live rows initialized) and Definition 1 (the exposed
/// records are exactly `expected`, value AND timestamp — repairs preserve
/// base timestamps, so this is stable). Returns true when the family needs
/// a rewrite: its exposed records differ from Definition 1, or a live row
/// is uninitialized and a reader would spin on it. Chain and live-count
/// findings alone do not ask for one, and hidden live rows (selection
/// currently false) are a valid resting state.
bool AuditFamily(const store::ViewDef& view, const Key& base_key,
                 const Family& family,
                 const std::optional<ExpectedRecord>& expected,
                 ScrubReport& report) {
  auto label = [&base_key](const Key& view_key) {
    return base_key + "@" + view_key;
  };
  bool broken = false;
  int live = 0;
  bool expected_exposed = false;
  for (const FamilyRow& fr : family.rows) {
    report.rows_examined++;
    if (!fr.status.live) {
      report.stale_rows++;
      if (!ReachesLive(family, fr)) {
        report.broken_chains.push_back(label(fr.view_key));
      }
      continue;
    }
    ++live;
    report.live_rows++;
    if (fr.status.hidden) report.hidden_rows++;
    if (!fr.status.initialized) {
      report.uninitialized_live.push_back(label(fr.view_key));
      broken = true;
      continue;
    }
    if (fr.status.hidden) continue;
    if (!expected || fr.view_key != expected->view_key || expected_exposed) {
      report.spurious_records.push_back(label(fr.view_key));
      broken = true;
      continue;
    }
    expected_exposed = true;
    if (!(view.Project(*fr.row) == expected->cells)) {
      report.wrong_cells.push_back(label(fr.view_key));
      broken = true;
    }
  }
  if (live > 1) report.multiple_live_rows.push_back(base_key);
  if (expected && !expected_exposed) {
    report.missing_records.push_back(label(expected->view_key));
    broken = true;
  }
  return broken;
}

/// Writes `cells` to every replica of the view row `key` but the crashed
/// ones: WAL replay plus anti-entropy re-synchronize those at restart.
void ApplyToReplicas(store::Cluster& cluster, const store::ViewDef& view,
                     const Key& key, const Row& cells) {
  for (ServerId replica : cluster.server(0).ReplicasOf(view.name, key)) {
    if (cluster.server(replica).crashed()) continue;
    cluster.server(replica).EngineFor(view.name).ApplyRow(key, cells);
  }
}

/// Rewrites one family to exactly Definition 1: force-writes the expected
/// live row and re-roots its sentinel anchor at it, then retires every
/// other row, all one tick above the family's newest cell (a retired row's
/// tombstones included) so LWW makes the rewrite stick.
void RewriteFamily(store::Cluster& cluster, const store::ViewDef& view,
                   const Key& base_key, const Family& family,
                   const std::optional<ExpectedRecord>& expected) {
  Timestamp repair_ts = family.newest;
  if (expected) {
    repair_ts = std::max(repair_ts, expected->cells.MaxTimestamp());
  }
  repair_ts += 1;

  std::set<Key> keep;
  if (expected) {
    const int shard = store::ShardOfBaseKey(base_key, view.shard_count);
    const Key key = store::ShardedViewRowKey(expected->view_key, base_key,
                                             shard, view.shard_count);
    keep.insert(key);
    Row cells;
    cells.Apply(store::kViewBaseKeyColumn, Cell::Live(base_key, repair_ts));
    cells.Apply(store::kViewNextColumn,
                Cell::Live(expected->view_key, repair_ts));
    cells.Apply(store::kViewInitColumn, Cell::Live("1", repair_ts));
    cells.Apply(store::kViewSelectionColumn, Cell::Tombstone(repair_ts));
    cells.MergeFrom(expected->cells);
    ApplyToReplicas(cluster, view, key, cells);

    // The sentinel anchor survives as a stale row pointing at the live key:
    // the invariant the propagation engine's creation logic relies on.
    const Key anchor_row = store::ShardedViewRowKey(
        store::DeletedSentinelViewKey(base_key), base_key, shard,
        view.shard_count);
    keep.insert(anchor_row);
    Row anchor;
    anchor.Apply(store::kViewBaseKeyColumn, Cell::Live(base_key, repair_ts));
    anchor.Apply(store::kViewNextColumn,
                 Cell::Live(expected->view_key, repair_ts));
    anchor.Apply(store::kViewInitColumn, Cell::Tombstone(repair_ts));
    ApplyToReplicas(cluster, view, anchor_row, anchor);
  }
  // Retire the rest: without a live __next a row is invisible to reads and
  // nonexistent to GetLiveKey.
  for (const FamilyRow& fr : family.rows) {
    if (keep.count(fr.row_key) != 0) continue;
    Row cells;
    cells.Apply(store::kViewNextColumn, Cell::Tombstone(repair_ts));
    cells.Apply(store::kViewInitColumn, Cell::Tombstone(repair_ts));
    ApplyToReplicas(cluster, view, fr.row_key, cells);
  }
}

/// The scrub's step for one family: audit, and rewrite when broken.
/// Returns true when a rewrite was applied.
bool AuditAndRepairFamily(store::Cluster& cluster, const store::ViewDef& view,
                          const Key& base_key, const Family& family) {
  const std::optional<ExpectedRecord> expected =
      ExpectedOf(view, base_key, family);
  ScrubReport findings;
  if (!AuditFamily(view, base_key, family, expected, findings)) return false;
  RewriteFamily(cluster, view, base_key, family, expected);
  return true;
}

}  // namespace

std::vector<ExpectedRecord> ComputeExpectedView(store::Cluster& cluster,
                                                const store::ViewDef& view) {
  const FamilyIndex index = LoadFamilies(cluster, view);
  std::vector<ExpectedRecord> expected;
  for (const auto& [base_key, family] : index.families) {
    if (auto record = ExpectedOf(view, base_key, family)) {
      expected.push_back(std::move(*record));
    }
  }
  std::sort(expected.begin(), expected.end(), RecordLess);
  return expected;
}

std::vector<ExpectedRecord> ReadConvergedView(store::Cluster& cluster,
                                              const store::ViewDef& view) {
  const FamilyIndex index = LoadFamilies(cluster, view);
  std::vector<ExpectedRecord> exposed;
  for (const auto& [base_key, family] : index.families) {
    for (const FamilyRow& fr : family.rows) {
      if (!fr.exposed()) continue;
      exposed.push_back({fr.view_key, base_key, view.Project(*fr.row)});
    }
  }
  std::sort(exposed.begin(), exposed.end(), RecordLess);
  return exposed;
}

std::string ScrubReport::Summary() const {
  std::ostringstream os;
  os << "rows=" << rows_examined << " live=" << live_rows
     << " stale=" << stale_rows << " hidden=" << hidden_rows;
  if (clean()) {
    os << " CLEAN";
  } else {
    os << " VIOLATIONS:"
       << " multi_live=" << multiple_live_rows.size()
       << " broken_chains=" << broken_chains.size()
       << " uninit_live=" << uninitialized_live.size()
       << " missing=" << missing_records.size()
       << " spurious=" << spurious_records.size()
       << " wrong=" << wrong_cells.size();
  }
  return os.str();
}

ScrubReport CheckView(store::Cluster& cluster, const store::ViewDef& view) {
  const FamilyIndex index = LoadFamilies(cluster, view);
  ScrubReport report;
  for (const auto& [base_key, family] : index.families) {
    AuditFamily(view, base_key, family, ExpectedOf(view, base_key, family),
                report);
  }
  return report;
}

std::size_t RepairView(store::Cluster& cluster, const store::ViewDef& view) {
  const FamilyIndex index = LoadFamilies(cluster, view);
  std::size_t records = 0;
  for (const auto& [base_key, family] : index.families) {
    const std::optional<ExpectedRecord> expected =
        ExpectedOf(view, base_key, family);
    RewriteFamily(cluster, view, base_key, family, expected);
    if (expected) ++records;
  }
  return records;
}

std::size_t ScrubOwnedRanges(
    store::Cluster& cluster, const store::ViewDef& view, ServerId owner,
    const std::function<bool(const Key&)>& skip,
    const std::function<void(const Key&)>& on_family_audited) {
  const FamilyIndex index = LoadFamilies(cluster, view);
  std::size_t repaired = 0;
  for (const auto& [base_key, family] : index.families) {
    if (cluster.ring().PrimaryFor(base_key) != owner) continue;
    if (skip && skip(base_key)) continue;
    if (AuditAndRepairFamily(cluster, view, base_key, family)) ++repaired;
    // After the audit (repairing or not) the family provably matches
    // Definition 1 — the proof the freshness tracker needs to clear the
    // family's wounded intents.
    if (on_family_audited) on_family_audited(base_key);
  }
  return repaired;
}

std::size_t RepairViewFamilies(store::Cluster& cluster,
                               const store::ViewDef& view,
                               const std::vector<Key>& base_keys,
                               const std::function<bool(const Key&)>& skip) {
  static const Family kNoFamily;
  const FamilyIndex index = LoadFamilies(cluster, view);
  std::set<Key> seen;
  std::size_t repaired = 0;
  for (const Key& base_key : base_keys) {
    if (!seen.insert(base_key).second) continue;
    if (skip && skip(base_key)) continue;
    auto it = index.families.find(base_key);
    const Family& family =
        it == index.families.end() ? kNoFamily : it->second;
    if (AuditAndRepairFamily(cluster, view, base_key, family)) ++repaired;
  }
  return repaired;
}

std::size_t TrimStaleViewRows(store::Cluster& cluster,
                              const store::ViewDef& view,
                              Timestamp older_than) {
  const FamilyIndex index = LoadFamilies(cluster, view);
  std::size_t trimmed = 0;
  for (const auto& [base_key, family] : index.families) {
    // Only families with a live row are trimmed (one mid-promotion must not
    // lose chain links); the anchor is re-pointed at that row below.
    const FamilyRow* live = nullptr;
    for (const FamilyRow& fr : family.rows) {
      if (fr.status.live) live = &fr;
    }
    if (live == nullptr) continue;
    bool family_trimmed = false;
    for (const FamilyRow& fr : family.rows) {
      // The sentinel anchor is the family's permanent chain root: never
      // trimmed. Freshness is judged by the Next pointer's timestamp: chain
      // targets are always at least as fresh as their pointers, so trimming
      // by next_ts can never leave a surviving non-anchor row dangling.
      if (fr.status.live || store::IsSentinelViewKey(fr.view_key) ||
          fr.status.next_ts >= older_than) {
        continue;
      }
      // Sever only the BOOKKEEPING cells: without a live __next the row is
      // invisible to reads and nonexistent to GetLiveKey, and compaction
      // purges the tombstones after the GC grace period. Materialized cells
      // are left in place: CopyData writes carry their ORIGINAL (old)
      // timestamps, so a tombstone at `older_than` would shadow the data a
      // future re-promotion of this key copies back in. The leftovers are
      // inert (they come from the same base-cell history, so LWW merges them
      // harmlessly if the key is reused).
      Row tombstones;
      tombstones.Apply(store::kViewNextColumn, Cell::Tombstone(older_than));
      tombstones.Apply(store::kViewInitColumn, Cell::Tombstone(older_than));
      ApplyToReplicas(cluster, view, fr.row_key, tombstones);
      family_trimmed = true;
      ++trimmed;
    }
    if (!family_trimmed) continue;
    // Re-point the anchor straight at the live row, so the chain root stays
    // valid after its old target was retired. (LWW: a newer deletion or
    // reassignment pointer on the anchor wins over this.)
    Row repoint;
    repoint.Apply(store::kViewNextColumn,
                  Cell::Live(live->view_key, older_than));
    ApplyToReplicas(
        cluster, view,
        store::ShardedViewRowKey(
            store::DeletedSentinelViewKey(base_key), base_key,
            store::ShardOfBaseKey(base_key, view.shard_count),
            view.shard_count),
        repoint);
  }
  return trimmed;
}

}  // namespace mvstore::view
