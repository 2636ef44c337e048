#include "view/propagation.h"

#include <utility>

#include "common/logging.h"
#include "store/codec.h"
#include "store/metrics.h"

namespace mvstore::view {

namespace {

using storage::Cell;
using storage::Row;
using store::kViewBaseKeyColumn;
using store::kViewInitColumn;
using store::kViewNextColumn;
using store::kViewSelectionColumn;

/// LWW comparison between a propagating view-key update and the current live
/// row, mirroring the base table's cell tie-breaking: larger timestamp wins;
/// on a timestamp tie a deletion (sentinel) beats a set, then the larger key
/// wins. Keeping this aligned with storage::Supersedes is what makes the
/// view converge to the same winner as the base table.
bool NewKeyWins(const Key& knew, Timestamp tnew, const Key& klive,
                Timestamp tlive) {
  if (tnew != tlive) return tnew > tlive;
  const bool new_sentinel = store::IsSentinelViewKey(knew);
  const bool live_sentinel = store::IsSentinelViewKey(klive);
  if (new_sentinel != live_sentinel) return new_sentinel;
  return knew > klive;
}

}  // namespace

void Propagation::Run(store::Server* executor,
                      std::shared_ptr<PropagationTask> task,
                      const storage::Cell& guess,
                      std::function<void(Status)> done) {
  auto op = std::shared_ptr<Propagation>(
      new Propagation(executor, std::move(task), guess, std::move(done)));
  op->Start();
}

Propagation::Propagation(store::Server* executor,
                         std::shared_ptr<PropagationTask> task,
                         storage::Cell guess, std::function<void(Status)> done)
    : executor_(executor),
      task_(std::move(task)),
      guess_(std::move(guess)),
      done_(std::move(done)) {}

const Key& Propagation::ComposedRowKey(const Key& view_key) {
  composed_scratch_.clear();
  // Shard by BASE key, not view key: every row of one base key's family
  // (live row, stale chain, sentinel anchor) must stay within one sub-shard
  // or GetLiveKey's chain walk would cross partitions (DESIGN.md §12).
  const store::ViewDef& view = *task_->view;
  store::ShardedViewRowKeyTo(
      view_key, task_->base_key,
      store::ShardOfBaseKey(task_->base_key, view.shard_count),
      view.shard_count, composed_scratch_);
  return composed_scratch_;
}

void Propagation::ViewPut(const Key& view_key, storage::Row cells,
                          std::function<void()> next) {
  auto self = shared_from_this();
  executor_->CoordinateWrite(
      task_->view->name, ComposedRowKey(view_key), cells,
      executor_->MajorityQuorum(),
      [self, next = std::move(next)](Status status) {
        if (!status.ok()) {
          self->Finish(status);
          return;
        }
        next();
      });
}

void Propagation::ViewReadRow(
    const Key& view_key, std::vector<ColumnName> columns,
    std::function<void(StatusOr<storage::Row>)> next) {
  executor_->CoordinateRead(
      task_->view->name, ComposedRowKey(view_key), std::move(columns),
      executor_->MajorityQuorum(), std::move(next));
}

// The effective new view key of a view-key update: deletions map to the
// base row's sentinel key (the row is kept but hidden; Section IV-C).
Key Propagation::EffectiveNewKey() const {
  MVSTORE_CHECK(task_->view_key_update.has_value());
  const Cell& update = *task_->view_key_update;
  return update.tombstone ? store::DeletedSentinelViewKey(task_->base_key)
                          : update.value;
}

void Propagation::Start() {
  if (guess_.IsNull()) {
    // A never-written pre-image: this update was applied at some replica
    // before ANY view-key write. The row family, if it exists at all, hangs
    // off the sentinel anchor (every chain originates there); if even the
    // anchor is missing, this propagation may create it.
    chasing_from_null_ = true;
    GetLiveKeyStep(store::DeletedSentinelViewKey(task_->base_key), /*hops=*/0);
    return;
  }
  if (guess_.tombstone) {
    // Pre-image says "deleted": the deletion's propagation left (or will
    // leave) a sentinel row; chase from there.
    GetLiveKeyStep(store::DeletedSentinelViewKey(task_->base_key), /*hops=*/0);
    return;
  }
  GetLiveKeyStep(guess_.value, /*hops=*/0);
}

// Algorithm 3: follow Next pointers from the guess to the live row.
void Propagation::GetLiveKeyStep(Key kv, int hops) {
  if (hops > kMaxChainHops) {
    Finish(Status::Internal("stale chain exceeded " +
                            std::to_string(kMaxChainHops) + " hops"));
    return;
  }
  auto self = shared_from_this();
  ViewReadRow(kv, {kViewNextColumn},
              [self, kv, hops](StatusOr<storage::Row> result) {
                if (!result.ok()) {
                  self->Finish(result.status());
                  return;
                }
                auto next = result->Get(kViewNextColumn);
                if (!next || next->tombstone) {
                  self->OnGuessMissing(kv, hops);
                  return;
                }
                if (next->value == kv) {  // found the live row
                  self->live_key_ = kv;
                  self->live_ts_ = next->ts;
                  self->have_live_ = true;
                  self->Dispatch();
                  return;
                }
                self->executor_->metrics()->chain_hops++;
                if (Tracer* tracer = self->executor_->tracer();
                    tracer != nullptr && self->task_->trace) {
                  // Instant marker: one per Next-pointer followed, so a
                  // trace shows how long the stale chain was (Algorithm 3).
                  tracer->Mark(self->task_->trace, "view.chain_hop",
                               static_cast<int>(self->executor_->id()),
                               self->executor_->simulation()->Now(),
                               "hop=" + std::to_string(hops + 1));
                }
                self->GetLiveKeyStep(next->value, hops + 1);
              });
}

// Key kv does not exist in the view (Algorithm 3 line 10). Normally that
// means the update that wrote this guess has not propagated yet and the
// caller must retry with another guess. The exception: a null pre-image led
// us to the sentinel anchor and even the anchor is missing — then this
// propagation creates the anchor itself (an idempotent write: every creator
// writes identical bookkeeping cells, so concurrent creators converge) and
// proceeds from it. Routing ALL row creation through the anchor is what
// keeps concurrent first inserts from deadlocking on each other's
// unpropagated keys or from creating rival live rows.
void Propagation::OnGuessMissing(const Key& kv, int hops) {
  // A null guess chased the sentinel anchor and found nothing. Since EVERY
  // existing row family has its anchor from birth (bootstrap and creation
  // both write it), a missing anchor means the family does not exist yet —
  // so this propagation creates it. Creation is idempotent and conflict-free
  // (one fixed key per family, identical bookkeeping cells from every
  // creator), so racing creators and even stale knowledge are harmless:
  // worst case we re-write the same anchor.
  if (hops == 0 && chasing_from_null_) {
    CreateAnchor();
    return;
  }
  Finish(Status::Aborted("view key guess '" + kv + "' not in view yet"));
}

void Propagation::Dispatch() {
  MVSTORE_CHECK(have_live_);
  if (!task_->view_key_update.has_value()) {
    // Materialized-column (and/or selection) update only: line 12.
    ApplyMaterialized(live_key_);
    return;
  }
  const Key knew = EffectiveNewKey();
  const Timestamp tnew = task_->view_key_update->ts;
  if (knew == live_key_) {
    RefreshLiveRow();
  } else if (NewKeyWins(knew, tnew, live_key_, live_ts_)) {
    Promote();
  } else {
    StaleInsert();
  }
}

storage::Row Propagation::SelectionMarkFromViewKey() const {
  Row marks;
  const auto& view = *task_->view;
  if (!view.selection.has_value() ||
      view.selection->column != view.view_key_column ||
      !task_->view_key_update || task_->view_key_update->tombstone) {
    return marks;
  }
  const Cell& update = *task_->view_key_update;
  const bool selected = update.value == view.selection->equals;
  marks.Apply(kViewSelectionColumn,
              selected ? Cell::Tombstone(update.ts)
                       : Cell::Live("1", update.ts));
  return marks;
}

storage::Row Propagation::SelectionMarkFromMaterialized() const {
  Row marks;
  const auto& view = *task_->view;
  if (!view.selection.has_value()) return marks;
  auto cell = task_->materialized_updates.Get(view.selection->column);
  if (!cell) return marks;
  const bool selected =
      !cell->tombstone && cell->value == view.selection->equals;
  marks.Apply(kViewSelectionColumn, selected ? Cell::Tombstone(cell->ts)
                                             : Cell::Live("1", cell->ts));
  return marks;
}

// Creates the row family's sentinel anchor: a hidden live row under the
// base row's sentinel key with the minimum possible Next timestamp, so any
// real view-key update supersedes it via the normal Promote path (which
// also copies out any materialized cells parked here). The bookkeeping
// cells are identical for every creator, so concurrent creations LWW-merge
// into one anchor. Materialized cells of THIS update ride along.
void Propagation::CreateAnchor() {
  const Key anchor = store::DeletedSentinelViewKey(task_->base_key);
  const Timestamp t_anchor = kNullTimestamp + 1;

  Row cells;
  cells.Apply(kViewBaseKeyColumn, Cell::Live(task_->base_key, t_anchor));
  cells.Apply(kViewNextColumn, Cell::Live(anchor, t_anchor));
  cells.Apply(kViewInitColumn, Cell::Live("1", t_anchor));
  cells.MergeFrom(task_->materialized_updates);
  cells.MergeFrom(SelectionMarkFromMaterialized());

  auto self = shared_from_this();
  ViewPut(anchor, std::move(cells), [self, anchor, t_anchor] {
    if (!self->task_->view_key_update.has_value()) {
      // Materialized-only update: its cells are parked in the anchor (the
      // row family's current live row); done.
      self->Finish(Status::OK());
      return;
    }
    // Proceed as if GetLiveKey had found the anchor as the live row; the
    // real view-key update then promotes over it (any real timestamp beats
    // t_anchor) or refreshes it (deletion of a never-set key).
    self->live_key_ = anchor;
    self->live_ts_ = t_anchor;
    self->have_live_ = true;
    self->Dispatch();
  });
}

// Case 2c: knew is already the live view key — refresh its timestamp
// (Algorithm 2 line 4 has no structural effect) and fold in any
// materialized updates. The refresh also (re)asserts the __init marker:
// after a promotion that crashed between staling the old row and writing
// __init, the retry lands here and must complete the initialization, or
// the row would stay invisible forever.
void Propagation::RefreshLiveRow() {
  const Timestamp tnew = task_->view_key_update->ts;
  const Key knew = EffectiveNewKey();
  Row cells;
  cells.Apply(kViewBaseKeyColumn, Cell::Live(task_->base_key, tnew));
  cells.Apply(kViewNextColumn, Cell::Live(knew, tnew));
  cells.Apply(kViewInitColumn, Cell::Live("1", tnew));
  cells.MergeFrom(SelectionMarkFromViewKey());

  auto self = shared_from_this();
  ViewPut(knew, std::move(cells),
          [self, knew] { self->ApplyMaterialized(knew); });
}

// The new view key supersedes the current live row. We deviate from
// Algorithm 2's literal step order (create row; CopyData; stale old) in one
// way: the copied cells ride in the SAME Put that creates the new row. A
// row with a self Next pointer therefore always carries its inherited
// materialized cells — a half-finished promotion can be retried (or
// completed by a later update's case-2c refresh) without ever losing data,
// which the literal order cannot guarantee when messages are lost between
// the steps.
//
// Steps: (1) read the old live row's materialized cells (+ the selection
// mark, a row-level fact that travels with the row); (2) write the new row
// — bookkeeping cells, copied cells at their ORIGINAL timestamps (LWW keeps
// whichever value is globally newest), and this update's own materialized
// cells — still inaccessible (no __init yet); (3) mark the old live row
// stale (line 8), revoking its __init; (4) set __init on the new row
// (Section IV-F's accessibility rule: at no point are two initialized live
// rows exposed).
void Propagation::Promote() {
  const Key knew = EffectiveNewKey();
  const Timestamp tnew = task_->view_key_update->ts;
  executor_->metrics()->live_row_switches++;

  auto self = shared_from_this();
  std::vector<ColumnName> copy_columns = task_->view->materialized_columns;
  copy_columns.push_back(kViewSelectionColumn);
  ViewReadRow(
      live_key_, std::move(copy_columns),
      [self, knew, tnew](StatusOr<storage::Row> old_row) {
        if (!old_row.ok()) {
          self->Finish(old_row.status());
          return;
        }
        Row cells = *std::move(old_row);  // CopyData (line 7)
        cells.Apply(kViewBaseKeyColumn,
                    Cell::Live(self->task_->base_key, tnew));
        cells.Apply(kViewNextColumn, Cell::Live(knew, tnew));
        cells.MergeFrom(self->SelectionMarkFromViewKey());
        cells.MergeFrom(self->task_->materialized_updates);
        cells.MergeFrom(self->SelectionMarkFromMaterialized());
        self->ViewPut(knew, std::move(cells), [self, knew, tnew] {
          // Line 8: the old live row becomes stale and loses its
          // accessibility marker. The revocation is stamped with the OLD
          // row's live timestamp, not tnew: a live row's __init always
          // carries its Next pointer's timestamp, so the tombstone still
          // wins that tie — while a later re-promotion of the old key at
          // tnew (reachable when distinct clients write at the same
          // timestamp and the value tie-break re-elects it) can re-assert
          // __init instead of losing the tie to this tombstone forever.
          Row stale;
          stale.Apply(kViewNextColumn, Cell::Live(knew, tnew));
          stale.Apply(kViewInitColumn, Cell::Tombstone(self->live_ts_));
          self->executor_->metrics()->stale_rows_created++;
          self->ViewPut(self->live_key_, std::move(stale),
                        [self, knew, tnew] {
                          Row init;
                          init.Apply(kViewInitColumn, Cell::Live("1", tnew));
                          self->ViewPut(knew, std::move(init), [self] {
                            self->Finish(Status::OK());
                          });
                        });
        });
      });
}

// The new view key loses to the current live row: record it as a stale row
// whose Next pointer leads (directly) to the live row (Algorithm 2 line 10).
void Propagation::StaleInsert() {
  const Key knew = EffectiveNewKey();
  const Timestamp tnew = task_->view_key_update->ts;
  executor_->metrics()->stale_rows_created++;

  Row cells;
  cells.Apply(kViewBaseKeyColumn, Cell::Live(task_->base_key, tnew));
  cells.Apply(kViewNextColumn, Cell::Live(live_key_, tnew));

  auto self = shared_from_this();
  Key target = live_key_;
  ViewPut(knew, std::move(cells),
          [self, target] { self->ApplyMaterialized(target); });
}

// Algorithm 2 line 12: write the materialized cells into the live row.
void Propagation::ApplyMaterialized(const Key& target_view_key) {
  Row cells = task_->materialized_updates;
  cells.MergeFrom(SelectionMarkFromMaterialized());
  if (cells.empty()) {
    Finish(Status::OK());
    return;
  }
  auto self = shared_from_this();
  ViewPut(target_view_key, std::move(cells),
          [self] { self->Finish(Status::OK()); });
}

void Propagation::Finish(Status status) {
  MVSTORE_CHECK(done_ != nullptr) << "Propagation finished twice";
  auto done = std::move(done_);
  done_ = nullptr;
  done(std::move(status));
}

}  // namespace mvstore::view
