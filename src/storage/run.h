// Immutable sorted runs (in-memory SSTables).
//
// A Run is a sealed, key-sorted array of rows produced by flushing a memtable
// or by compacting older runs. Point lookups binary-search; prefix scans walk
// a contiguous range. Runs never change after construction, which is what
// makes size-tiered compaction and consistent iteration simple.

#ifndef MVSTORE_STORAGE_RUN_H_
#define MVSTORE_STORAGE_RUN_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/types.h"
#include "storage/bloom.h"
#include "storage/row.h"

namespace mvstore::storage {

/// Tombstone-GC accounting for one Merge call (compaction observability and
/// the hint-floor purge guard, ISSUE 5).
struct GcStats {
  std::uint64_t tombstones_purged = 0;
  /// Tombstones past the grace period but retained because a stored hint
  /// proves some replica may not have seen the deletion yet.
  std::uint64_t tombstones_deferred = 0;
};

class Run {
 public:
  /// Builds a run from pre-sorted unique-keyed entries.
  static std::shared_ptr<const Run> FromSorted(std::vector<KeyedRow> entries);

  /// Merges several runs (newest data wins cell-wise; input order is
  /// irrelevant because the cell merge is commutative). A merged tombstone
  /// whose local deletion time is < `deleted_before` is past grace: it is
  /// dropped when its write timestamp is < `purge_floor`, and otherwise KEPT
  /// but counted as deferred in `stats` — the floor protects a delete still
  /// owed to some replica. Rows left empty are elided. The default
  /// `deleted_before` (kNullTimestamp) purges nothing.
  static std::shared_ptr<const Run> Merge(
      const std::vector<std::shared_ptr<const Run>>& runs,
      SimTime deleted_before = kNullTimestamp,
      Timestamp purge_floor = std::numeric_limits<Timestamp>::max(),
      GcStats* stats = nullptr);

  /// Point lookup; checks the run's min/max key fence, then the bloom
  /// filter, so misses are usually resolved without touching the entries.
  const Row* Get(const Key& key) const;

  /// True when `prefix` could match a key in [min_key, max_key]. Exact on
  /// the low side (max_key < prefix) and on the high side (min_key already
  /// sorts above every key carrying the prefix).
  bool MayContainPrefix(const Key& prefix) const;

  /// Read-pruning statistics (tests and microbenches).
  std::uint64_t bloom_negatives() const { return bloom_negatives_; }
  /// Lookups and scans rejected by the min/max key fence alone.
  std::uint64_t fence_skips() const { return fence_skips_; }

  /// Key-range fences (empty strings for an empty run).
  const Key& min_key() const { return min_key_; }
  const Key& max_key() const { return max_key_; }

  void ScanPrefix(const Key& prefix,
                  const std::function<void(const Key&, const Row&)>& fn) const;

  void ForEach(
      const std::function<void(const Key&, const Row&)>& fn) const;

  std::size_t entries() const { return entries_.size(); }

  /// The run's entries in key order — raw input for the engine's streaming
  /// k-way merge (no callback per entry, no copies).
  const std::vector<KeyedRow>& sorted_entries() const { return entries_; }

  /// Pointer to the first entry whose key starts with `prefix` (scan forward
  /// until the prefix stops matching); entries_end() when the run's fences
  /// exclude the prefix (counted as a fence skip, like ScanPrefix).
  const KeyedRow* PrefixLowerBound(const Key& prefix) const;
  const KeyedRow* entries_end() const { return entries_.data() + entries_.size(); }

 private:
  explicit Run(std::vector<KeyedRow> entries);

  std::vector<KeyedRow> entries_;
  BloomFilter filter_;
  Key min_key_;
  Key max_key_;
  mutable std::uint64_t bloom_negatives_ = 0;
  mutable std::uint64_t fence_skips_ = 0;
};

}  // namespace mvstore::storage

#endif  // MVSTORE_STORAGE_RUN_H_
