// In-memory write buffer of the storage engine.
//
// All Puts land here first; when the memtable reaches the configured size the
// engine seals it into an immutable sorted Run. Ordered by key to support the
// prefix scans that versioned-view reads need.

#ifndef MVSTORE_STORAGE_MEMTABLE_H_
#define MVSTORE_STORAGE_MEMTABLE_H_

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/types.h"
#include "storage/row.h"

namespace mvstore::storage {

class MemTable {
 public:
  MemTable() = default;

  /// Applies one cell write with LWW resolution.
  void Apply(const Key& key, const ColumnName& col, const Cell& cell);

  /// Merges a whole row (used by replication/anti-entropy); `row`'s cell
  /// buffer is consumed instead of copied.
  void ApplyRow(const Key& key, Row&& row);

  const Row* Get(const Key& key) const;

  /// Calls fn for each (key, row) with the given prefix, in key order.
  void ScanPrefix(const Key& prefix,
                  const std::function<void(const Key&, const Row&)>& fn) const;

  /// Calls fn for every (key, row), in key order.
  void ForEach(
      const std::function<void(const Key&, const Row&)>& fn) const;

  std::size_t entries() const { return rows_.size(); }
  std::size_t cell_count() const { return cell_count_; }
  bool empty() const { return rows_.empty(); }
  void Clear();

  /// Moves every (key, row) out in key order and leaves the memtable empty.
  /// The flush path: rows (and their cell buffers) transfer into the sealed
  /// run without a per-cell copy.
  std::vector<KeyedRow> DrainSorted();

  const std::map<Key, Row>& rows() const { return rows_; }

 private:
  std::map<Key, Row> rows_;
  std::size_t cell_count_ = 0;
};

}  // namespace mvstore::storage

#endif  // MVSTORE_STORAGE_MEMTABLE_H_
