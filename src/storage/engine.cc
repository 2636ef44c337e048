#include "storage/engine.h"

#include <algorithm>
#include <map>

namespace mvstore::storage {

namespace {

bool HasPrefix(const Key& key, const Key& prefix) {
  return key.compare(0, prefix.size(), prefix) == 0;
}

/// One sorted input to a merged scan: a run's entry span or the memtable's
/// row map (distinguished by `from_map`).
struct SourceCursor {
  const KeyedRow* vit = nullptr;
  const KeyedRow* vend = nullptr;
  std::map<Key, Row>::const_iterator mit;
  std::map<Key, Row>::const_iterator mend;
  bool from_map = false;

  bool Done(const Key* prefix) const {
    if (from_map ? mit == mend : vit == vend) return true;
    return prefix != nullptr && !HasPrefix(key(), *prefix);
  }
  const Key& key() const { return from_map ? mit->first : vit->key; }
  const Row& row() const { return from_map ? mit->second : vit->row; }
  void Advance() {
    if (from_map) {
      ++mit;
    } else {
      ++vit;
    }
  }
};

/// Streaming k-way merge in key order. The old implementation accumulated a
/// full std::map<Key, Row> copy of the table per scan — the dominant cost of
/// anti-entropy at large table sizes. Here a key served by one source is
/// handed to `fn` by reference (zero copies); only keys present in several
/// sources merge, through `scratch`, whose buffer is reused across keys.
void MergedScan(std::vector<SourceCursor>& cursors, const Key* prefix,
                Row& scratch,
                const std::function<void(const Key&, const Row&)>& fn) {
  while (true) {
    const Key* min_key = nullptr;
    for (const SourceCursor& c : cursors) {
      if (!c.Done(prefix) && (min_key == nullptr || c.key() < *min_key)) {
        min_key = &c.key();
      }
    }
    if (min_key == nullptr) break;
    const Row* single = nullptr;
    int matches = 0;
    for (const SourceCursor& c : cursors) {
      if (!c.Done(prefix) && c.key() == *min_key) {
        single = &c.row();
        ++matches;
      }
    }
    if (matches == 1) {
      fn(*min_key, *single);
    } else {
      // Sources merge in cursor order (runs oldest-first, then memtable),
      // matching the map-based code this replaced; LWW is commutative so
      // the merged row is the same either way.
      scratch.Clear();
      for (const SourceCursor& c : cursors) {
        if (!c.Done(prefix) && c.key() == *min_key) scratch.MergeFrom(c.row());
      }
      fn(*min_key, scratch);
    }
    // min_key stays valid while advancing: it points into a run's immutable
    // entry array or a live map node.
    for (SourceCursor& c : cursors) {
      if (!c.Done(prefix) && c.key() == *min_key) c.Advance();
    }
  }
}

}  // namespace

Engine::Engine(EngineOptions options, LocalClock clock)
    : options_(options),
      clock_(clock ? std::move(clock) : [] { return SimTime{0}; }) {}

void Engine::Apply(const Key& key, const ColumnName& col, Cell cell) {
  if (row_cache_ != nullptr) row_cache_->Invalidate(cache_tag_, key);
  if (cell.tombstone) cell.StampLocalDeletion(clock_());
  log_.push_back(LogRecord{key, col, cell});
  memtable_.Apply(key, col, cell);
  MaybeFlushAndCompact();
}

void Engine::ApplyRow(const Key& key, Row row) {
  if (row_cache_ != nullptr) row_cache_->Invalidate(cache_tag_, key);
  // Whatever stamp the row arrived with belongs to another replica (or to
  // none): the local deletion time is when THIS engine applied the delete.
  // The log keeps the stamped cells, so a replay restores them unchanged.
  row.StampLocalDeletions(clock_());
  for (const auto& [col, cell] : row.cells()) {
    log_.push_back(LogRecord{key, col, cell});
  }
  memtable_.ApplyRow(key, std::move(row));
  MaybeFlushAndCompact();
}

void Engine::LoseVolatileState() {
  memtable_.Clear();
  // The cache is volatile too — and entries may now be newer than the
  // surviving durable state, so keeping them would serve phantom rows.
  if (row_cache_ != nullptr) row_cache_->Clear();
}

std::size_t Engine::RecoverFromLog() {
  // Replay straight into the memtable: re-appending the replayed cells to
  // the log would double them, and LWW makes the replay idempotent even
  // when some cells also reached a durable run before the crash.
  for (const LogRecord& record : log_) {
    memtable_.Apply(record.key, record.col, record.cell);
  }
  const std::size_t replayed = log_.size();
  MaybeFlushAndCompact();
  return replayed;
}

std::optional<Row> Engine::GetRow(const Key& key) const {
  if (row_cache_ != nullptr) {
    if (const Row* cached = row_cache_->Get(cache_tag_, key)) return *cached;
  }
  std::optional<Row> merged = GetRowBypassingCache(key);
  if (merged && row_cache_ != nullptr) {
    row_cache_->Put(cache_tag_, key, *merged);
  }
  return merged;
}

std::optional<Row> Engine::GetRowBypassingCache(const Key& key) const {
  Row merged;
  bool found = false;
  for (const auto& run : runs_) {
    if (const Row* row = run->Get(key)) {
      merged.MergeFrom(*row);
      found = true;
    }
  }
  if (const Row* row = memtable_.Get(key)) {
    merged.MergeFrom(*row);
    found = true;
  }
  if (!found) return std::nullopt;
  return merged;
}

std::optional<Cell> Engine::GetCell(const Key& key,
                                    const ColumnName& col) const {
  if (row_cache_ != nullptr) {
    // Route through the row cache: one merged-row hit answers every column
    // of the hot row, and the merged row yields the same LWW winner as the
    // structure-by-structure scan below.
    auto row = GetRow(key);
    if (!row) return std::nullopt;
    return row->Get(col);
  }
  std::optional<Cell> best;
  auto consider = [&](const Row* row) {
    if (row == nullptr) return;
    if (auto cell = row->Get(col)) {
      if (!best || Supersedes(*cell, *best)) best = *cell;
    }
  };
  for (const auto& run : runs_) consider(run->Get(key));
  consider(memtable_.Get(key));
  return best;
}

void Engine::ScanPrefix(
    const Key& prefix,
    const std::function<void(const Key&, const Row&)>& fn) const {
  std::vector<SourceCursor> cursors;
  cursors.reserve(runs_.size() + 1);
  for (const auto& run : runs_) {
    SourceCursor c;
    c.vit = run->PrefixLowerBound(prefix);
    c.vend = run->entries_end();
    if (c.vit != c.vend) cursors.push_back(c);
  }
  const auto& rows = memtable_.rows();
  auto mit = rows.lower_bound(prefix);
  if (mit != rows.end()) {
    SourceCursor c;
    c.from_map = true;
    c.mit = mit;
    c.mend = rows.end();
    cursors.push_back(c);
  }
  MergedScan(cursors, &prefix, scan_scratch_, fn);
}

void Engine::ForEach(
    const std::function<void(const Key&, const Row&)>& fn) const {
  std::vector<SourceCursor> cursors;
  cursors.reserve(runs_.size() + 1);
  for (const auto& run : runs_) {
    const auto& entries = run->sorted_entries();
    if (entries.empty()) continue;
    SourceCursor c;
    c.vit = entries.data();
    c.vend = entries.data() + entries.size();
    cursors.push_back(c);
  }
  const auto& rows = memtable_.rows();
  if (!rows.empty()) {
    SourceCursor c;
    c.from_map = true;
    c.mit = rows.begin();
    c.mend = rows.end();
    cursors.push_back(c);
  }
  MergedScan(cursors, nullptr, scan_scratch_, fn);
}

void Engine::Flush() {
  if (memtable_.empty()) return;
  // Seal by MOVING the memtable's rows into the run — keys and cell buffers
  // transfer; nothing is copied per cell.
  runs_.push_back(Run::FromSorted(memtable_.DrainSorted()));
  // Checkpoint: everything logged so far now lives in a durable run.
  log_.clear();
}

GcStats Engine::Compact(SimTime now, Timestamp purge_floor) {
  GcStats stats;
  // Flush first so no structure outside the merge can hold cells older than
  // a purged tombstone (which would resurrect deleted data). It also lets
  // the merge fold every copy of a re-learned tombstone into one, which
  // keeps the earliest local deletion time.
  Flush();
  if (runs_.empty()) return stats;
  const SimTime deleted_before =
      now == kNullTimestamp ? kNullTimestamp : now - kTombstoneGcGrace;
  // The purge floor vetoes a past-grace purge: a tombstone whose delete is
  // still owed to some replica (a stored hint) must survive, otherwise the
  // lagging replica's stale live cell resurrects the row.
  auto merged = Run::Merge(runs_, deleted_before, purge_floor, &stats);
  runs_.clear();
  if (merged->entries() > 0) runs_.push_back(std::move(merged));
  ++compactions_;
  // Cached rows may still carry cells the merge just purged.
  if (row_cache_ != nullptr && stats.tombstones_purged > 0) {
    row_cache_->Clear();
  }
  return stats;
}

void Engine::MaybeFlushAndCompact() {
  if (memtable_.entries() >= options_.memtable_flush_entries) {
    Flush();
  }
  while (runs_.size() > options_.max_runs && runs_.size() >= 2) {
    // Size-tiered: merge only the tier of smallest runs (every run within 2x
    // of the smallest, minimum two) instead of rewriting the whole store on
    // each trigger. Tombstones are kept — purging needs a clock and happens
    // only on explicit Compact(now) calls from the server's GC task.
    std::vector<std::size_t> order(runs_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (runs_[a]->entries() != runs_[b]->entries()) {
        return runs_[a]->entries() < runs_[b]->entries();
      }
      return a < b;  // deterministic tie-break: older run first
    });
    const std::size_t smallest = runs_[order[0]]->entries();
    std::vector<bool> in_tier(runs_.size(), false);
    std::size_t tier_size = 0;
    for (std::size_t idx : order) {
      if (tier_size >= 2 && runs_[idx]->entries() > 2 * smallest) break;
      in_tier[idx] = true;
      ++tier_size;
    }
    std::vector<std::shared_ptr<const Run>> tier;
    std::vector<std::shared_ptr<const Run>> rest;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      (in_tier[i] ? tier : rest).push_back(runs_[i]);
    }
    auto merged = Run::Merge(tier);
    runs_ = std::move(rest);
    // The merged tier is older than any run flushed after it; since `rest`
    // preserves relative order and the tier spans the smallest (oldest-ish)
    // runs, prepend to keep oldest-first ordering conservative.
    if (merged->entries() > 0) {
      runs_.insert(runs_.begin(), std::move(merged));
    }
    ++compactions_;
  }
}

std::vector<std::size_t> Engine::run_entry_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(runs_.size());
  for (const auto& run : runs_) counts.push_back(run->entries());
  return counts;
}

std::uint64_t Engine::run_fence_skips() const {
  std::uint64_t total = 0;
  for (const auto& run : runs_) total += run->fence_skips();
  return total;
}

std::uint64_t Engine::run_bloom_negatives() const {
  std::uint64_t total = 0;
  for (const auto& run : runs_) total += run->bloom_negatives();
  return total;
}

}  // namespace mvstore::storage
