// Cells: the unit of storage and of conflict resolution.
//
// A cell is (value, timestamp) or a tombstone (deletion marker, also carrying
// the timestamp of the deleting Put). Replicas resolve divergent cells by
// last-writer-wins on the application timestamp; ties break toward the
// tombstone, then toward the lexicographically larger value, which makes the
// merge a commutative, associative, idempotent join — the property that lets
// every replica converge regardless of delivery order (Section II of the
// paper: "all servers will agree on the ordering of updates to each cell").
//
// A tombstone also records when THIS replica first applied it (its local
// deletion time, Cassandra's localDeletionTime). Tombstone GC measures the
// grace period from that local time, not from the write timestamp: a delete
// stamped far in the past (the view engine's __init revocation carries the
// old row's timestamp) still gets the full grace period on every replica.
// The local time is replica-private: it takes no part in equality, LWW or
// row digests, so replicas that learned one delete at different times agree.

#ifndef MVSTORE_STORAGE_CELL_H_
#define MVSTORE_STORAGE_CELL_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "common/types.h"

namespace mvstore::storage {

struct Cell {
  Value value;
  Timestamp ts = kNullTimestamp;
  bool tombstone = false;
  /// Tombstones only: the replica-local time this replica first applied the
  /// delete, in whole milliseconds rounded up (so it never reads earlier
  /// than the true apply time). Stamped by the storage engine on apply; an
  /// int32 fills the padding after `tombstone`, so it costs no space.
  std::int32_t local_deletion_ms = 0;

  /// A live cell.
  static Cell Live(Value v, Timestamp t) { return Cell{std::move(v), t, false}; }
  /// A deletion marker with the deleting Put's timestamp.
  static Cell Tombstone(Timestamp t) { return Cell{Value(), t, true}; }

  /// Records `now` (replica-local simulated time) as the local deletion
  /// time. Times past the int32 millisecond range saturate, which only ever
  /// delays a purge.
  void StampLocalDeletion(SimTime now);
  /// The local deletion time in simulated microseconds.
  SimTime local_deletion_time() const { return Millis(local_deletion_ms); }

  /// True for a cell that has never been written (NULL timestamp).
  bool IsNull() const { return ts == kNullTimestamp; }

  /// Replicated content only: the local deletion time is excluded.
  friend bool operator==(const Cell& a, const Cell& b) {
    return a.ts == b.ts && a.tombstone == b.tombstone && a.value == b.value;
  }
};

// Every stored cell pays for any growth here (view rows carry several).
static_assert(sizeof(Cell) == sizeof(Value) + sizeof(Timestamp) + 8,
              "Cell grew: local_deletion_ms must stay in tombstone's padding");

/// True when `a` supersedes `b` under last-writer-wins.
bool Supersedes(const Cell& a, const Cell& b);

/// The LWW join of two cells (whichever supersedes; b if neither, so that
/// Merge(x, x) == x).
const Cell& MergeCells(const Cell& a, const Cell& b);

/// `kept` won LWW against `other` (or tied with it). When the two are the
/// same tombstone, `kept` takes the earlier local deletion time: re-learning
/// a delete (anti-entropy, hint replay, a second run) never restarts its
/// grace period.
inline void KeepEarlierDeletion(Cell& kept, const Cell& other) {
  if (kept.tombstone && other.local_deletion_ms < kept.local_deletion_ms &&
      kept == other) {
    kept.local_deletion_ms = other.local_deletion_ms;
  }
}

std::ostream& operator<<(std::ostream& os, const Cell& c);

}  // namespace mvstore::storage

#endif  // MVSTORE_STORAGE_CELL_H_
