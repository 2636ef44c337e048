// Replica-local row cache (ISSUE 5).
//
// An LRU cache over (table, key) -> merged Row, shared by every Engine of
// one server. A point read that hits the cache skips the memtable/run merge
// entirely — in the service model that is the difference between
// `perf.read_local` and `perf.read_cached_local`. The cache is invalidated
// on every local apply (client write, replica write, hint replay,
// read-repair push, anti-entropy row install), cleared by
// tombstone-purging compactions (a cached row could otherwise resurface
// purged cells), and cleared on crash — it is volatile state.
//
// Determinism: the index is an ordered map and the LRU a plain list, so two
// same-seed runs touch the cache identically. A zero-capacity cache stores
// nothing and counts no probes, so a server configured without caching
// reports no hits, misses or cache spans.

#ifndef MVSTORE_STORAGE_ROW_CACHE_H_
#define MVSTORE_STORAGE_ROW_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <utility>

#include "common/types.h"
#include "storage/row.h"

namespace mvstore::storage {

class RowCache {
 public:
  explicit RowCache(std::size_t capacity);

  RowCache(const RowCache&) = delete;
  RowCache& operator=(const RowCache&) = delete;

  /// The cached merged row, or nullptr on a miss. Bumps the entry to
  /// most-recently-used and counts a hit or a miss (neither at capacity 0).
  const Row* Get(const std::string& table, const Key& key);

  /// Pure probe: true when (table, key) is cached. No LRU bump, no counter —
  /// used by the service model to price a read before it executes.
  bool Contains(const std::string& table, const Key& key) const;

  /// Inserts (or replaces) the merged row, evicting the least-recently-used
  /// entry when full. A zero-capacity cache stores nothing.
  void Put(const std::string& table, const Key& key, Row row);

  /// Drops one entry (a local apply changed the row).
  void Invalidate(const std::string& table, const Key& key);

  /// Drops everything (crash, tombstone-purging compaction).
  void Clear();

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t invalidations() const { return invalidations_; }

 private:
  using CacheKey = std::pair<std::string, Key>;
  struct Entry {
    CacheKey key;
    Row row;
  };

  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<CacheKey, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace mvstore::storage

#endif  // MVSTORE_STORAGE_ROW_CACHE_H_
