// Rows: maps from column name to cell.
//
// Different records in the same table may have different column sets
// (schema-free, as in the paper's system model), so a Row is a sorted
// association of column name to cell. Merging two versions of a row merges
// cell-wise with LWW.
//
// Representation: a sorted vector of (column, cell) pairs, not a node-based
// map. Rows hold a handful of columns, so binary search plus contiguous
// storage beats per-node allocation everywhere rows are built, merged, and
// scanned — and a whole row moves as one buffer through flushes and run
// merges (the pooled-cells path: scratch rows recycle their vectors via
// Clear(), and ReleaseCells()/the Cells constructor transfer a built row
// without touching the individual cells).

#ifndef MVSTORE_STORAGE_ROW_H_
#define MVSTORE_STORAGE_ROW_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "common/types.h"
#include "storage/cell.h"

namespace mvstore::storage {

class Row {
 public:
  /// Sorted by column name, unique.
  using Cells = std::vector<std::pair<ColumnName, Cell>>;

  Row() = default;

  /// Adopts `cells`, which must already be sorted by column and unique
  /// (checked in debug) — the zero-copy path out of a merge scratch row.
  explicit Row(Cells cells);

  /// Applies `cell` to `col` with LWW resolution. Returns true if the stored
  /// cell changed.
  bool Apply(const ColumnName& col, const Cell& cell);
  bool Apply(const ColumnName& col, Cell&& cell);

  /// Merges every cell of `other` into this row.
  void MergeFrom(const Row& other);
  /// Move form: `other`'s cells are consumed (it is left empty).
  void MergeFrom(Row&& other);

  /// The cell stored under `col`, or nullopt if the column was never written
  /// (tombstoned columns ARE returned — callers distinguish deletions from
  /// absence, which replication needs).
  std::optional<Cell> Get(const ColumnName& col) const;

  /// The live value under `col`: nullopt if absent or tombstoned.
  std::optional<Value> GetValue(const ColumnName& col) const;

  bool empty() const { return cells_.empty(); }
  std::size_t size() const { return cells_.size(); }

  /// Empties the row but keeps its buffer — scratch rows reused across merge
  /// iterations allocate once.
  void Clear() { cells_.clear(); }

  /// Moves the cell buffer out, leaving the row empty.
  Cells ReleaseCells() { return std::move(cells_); }

  /// Largest cell timestamp in the row (kNullTimestamp if empty).
  Timestamp MaxTimestamp() const;

  /// Stamps `now` as the local deletion time of every tombstone in the row
  /// (the storage engine does this as it applies the row).
  void StampLocalDeletions(SimTime now);

  /// True if every cell in the row is a tombstone (the row is logically
  /// deleted and eligible for GC once past the grace period).
  bool AllTombstones() const;

  const Cells& cells() const { return cells_; }

  friend bool operator==(const Row& a, const Row& b) {
    return a.cells_ == b.cells_;
  }

 private:
  Cells::iterator LowerBound(const ColumnName& col);

  Cells cells_;
};

std::ostream& operator<<(std::ostream& os, const Row& row);

/// Order-insensitive 64-bit digest of a row's full cell content (columns,
/// values, timestamps, tombstones; never the replica-local deletion times).
/// Two replicas hold identical copies of a row iff the digests match (modulo
/// hash collisions); anti-entropy compares these instead of shipping rows.
std::uint64_t RowDigest(const Row& row);

/// A (key, row) pair returned from scans.
struct KeyedRow {
  Key key;
  Row row;
};

}  // namespace mvstore::storage

#endif  // MVSTORE_STORAGE_ROW_H_
