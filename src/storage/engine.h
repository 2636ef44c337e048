// The per-replica storage engine: one Engine instance per (server, table).
//
// LSM-lite layout: an active memtable absorbing writes, plus a stack of
// immutable sorted runs. Reads merge cell-wise across memtable and runs
// (LWW), so a read is correct regardless of where the newest cell lives.
// Size-tiered compaction bounds the run count; compaction purges tombstones
// whose LOCAL deletion time is older than the GC grace period (expired
// deletions). The engine stamps each tombstone with its replica-local clock
// as the tombstone is applied (storage/cell.h), whatever path delivered it.
//
// Durability model (crash-stop faults): sorted runs are durable, the
// memtable is volatile. Every Apply/ApplyRow also appends to a per-engine
// commit log; sealing the memtable into a run checkpoints (truncates) the
// log, so the log always holds exactly the cells that would be lost with
// the memtable. LoseVolatileState() models the crash, RecoverFromLog()
// the restart replay. The log can be capped or disabled to model real
// data loss (a replica that forgets acknowledged writes).

#ifndef MVSTORE_STORAGE_ENGINE_H_
#define MVSTORE_STORAGE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "storage/memtable.h"
#include "storage/row_cache.h"
#include "storage/run.h"

namespace mvstore::storage {

struct EngineOptions {
  /// Seal the memtable into a run once it holds this many rows.
  std::size_t memtable_flush_entries = 8192;
  /// Trigger compaction when more than this many runs exist.
  std::size_t max_runs = 6;
  /// Tombstones this replica first applied more than this long before the
  /// compaction call's `now` (local time, not the write timestamp) are
  /// purged during compaction. Mirrors Cassandra's gc_grace_seconds, which
  /// Cassandra likewise measures from localDeletionTime.
  SimTime tombstone_gc_grace = Seconds(600);
  /// Append every applied cell to the commit log (replayed after a crash).
  /// Off = a crash loses the whole memtable, as in a store running with
  /// fsync disabled.
  bool commit_log_enabled = true;
  /// Cap on logged cells; once full the OLDEST records are discarded, so a
  /// recovery replays only a suffix of the unflushed writes (models a
  /// bounded WAL device losing data). 0 = unbounded.
  std::size_t commit_log_max_cells = 0;
};

/// The replica-local clock (simulated microseconds since start).
using LocalClock = std::function<SimTime()>;

class Engine {
 public:
  /// `clock` stamps the local deletion time of every applied tombstone.
  /// Without one the engine's local time stands still at 0.
  explicit Engine(EngineOptions options = EngineOptions(),
                  LocalClock clock = nullptr);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Attaches a (server-owned) row cache. `tag` namespaces this engine's
  /// entries — the cache is shared by every table of one server. GetRow
  /// consults and populates the cache; every apply invalidates the touched
  /// key; tombstone-purging compactions and LoseVolatileState clear it.
  /// Every server attaches its cache; a standalone engine runs without one.
  void set_row_cache(RowCache* cache, std::string tag) {
    row_cache_ = cache;
    cache_tag_ = std::move(tag);
  }

  /// Applies one cell write (LWW). May trigger a flush and compaction.
  void Apply(const Key& key, const ColumnName& col, Cell cell);

  /// Merges a whole row (replication / anti-entropy path). An rvalue row's
  /// cell buffer lands in the memtable without a copy.
  void ApplyRow(const Key& key, Row row);

  /// Merged view of a row across memtable and all runs. Returns nullopt when
  /// the key appears nowhere (tombstoned rows ARE returned).
  std::optional<Row> GetRow(const Key& key) const;

  /// Merged cell for (key, col); nullopt when never written.
  std::optional<Cell> GetCell(const Key& key, const ColumnName& col) const;

  /// Merged prefix scan in key order.
  void ScanPrefix(const Key& prefix,
                  const std::function<void(const Key&, const Row&)>& fn) const;

  /// Merged full scan in key order (anti-entropy, index rebuild).
  void ForEach(
      const std::function<void(const Key&, const Row&)>& fn) const;

  /// The smallest `limit` keys strictly greater than `after` that satisfy
  /// `match`, in key order; `*more` is set when further matching keys
  /// remain beyond the returned window. A bounded selection over one cheap
  /// pass of every stored entry: rows are never merged, only keys compared,
  /// so a sparse token-range scan (membership range streaming) costs
  /// O(entries) key work per slice instead of a full-table merge — callers
  /// fetch the few returned rows with GetRow.
  std::vector<Key> CollectKeysAfter(
      const Key& after, int limit,
      const std::function<bool(const Key&)>& match, bool* more) const;

  /// Seals the memtable into a run (no-op when empty).
  void Flush();

  /// Full compaction of all runs; `now` (local time, the clock's domain)
  /// drives tombstone GC, and kNullTimestamp purges nothing. Tombstones past
  /// the grace period are still kept when their WRITE timestamp is >=
  /// `purge_floor` — the caller passes the oldest pending-hint timestamp so
  /// an unacknowledged delete can never be purged before every replica has
  /// seen it (the tombstone-resurrection guard). Returns what was purged and
  /// deferred.
  GcStats Compact(SimTime now,
                  Timestamp purge_floor = std::numeric_limits<Timestamp>::max());

  std::size_t num_runs() const { return runs_.size(); }
  std::size_t memtable_entries() const { return memtable_.entries(); }
  std::uint64_t compactions() const { return compactions_; }

  /// Entry count per run, oldest first (size-tier assertions in tests).
  std::vector<std::size_t> run_entry_counts() const;

  /// Sum of fence rejections across live runs (pruning observability).
  std::uint64_t run_fence_skips() const;
  /// Sum of bloom rejections across live runs.
  std::uint64_t run_bloom_negatives() const;

  /// Total distinct keys across structures (upper bound; pre-merge).
  std::size_t ApproxEntries() const;

  // --- crash-stop fault model ---

  /// Models a crash: discards the memtable (volatile state). Durable runs
  /// and the commit log survive. Does NOT flush first — that is the point.
  void LoseVolatileState();

  /// Replays the commit log into the memtable (idempotent under LWW).
  /// Returns the number of cells replayed.
  std::size_t RecoverFromLog();

  std::size_t commit_log_cells() const { return log_.size(); }
  std::uint64_t commit_log_cells_dropped() const { return log_dropped_; }

 private:
  struct LogRecord {
    Key key;
    ColumnName col;
    Cell cell;
  };

  void MaybeFlushAndCompact();
  void AppendToLog(const Key& key, const ColumnName& col, const Cell& cell);

  EngineOptions options_;
  LocalClock clock_;
  MemTable memtable_;
  std::vector<std::shared_ptr<const Run>> runs_;  // oldest first
  std::uint64_t compactions_ = 0;
  std::deque<LogRecord> log_;  // cells applied since the last flush
  std::uint64_t log_dropped_ = 0;
  RowCache* row_cache_ = nullptr;  // not owned; nullptr = standalone engine
  std::string cache_tag_;
  /// Pooled scratch for multi-source keys in merged scans: cleared per key,
  /// reallocated never (mutable: scans are logically const).
  mutable Row scan_scratch_;
};

}  // namespace mvstore::storage

#endif  // MVSTORE_STORAGE_ENGINE_H_
