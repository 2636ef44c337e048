#include "storage/cell.h"

#include <algorithm>
#include <limits>

namespace mvstore::storage {

void Cell::StampLocalDeletion(SimTime now) {
  // Round up: a stamp that reads later than the true apply time can only
  // postpone a purge, never bring one forward.
  constexpr SimTime kMax = std::numeric_limits<std::int32_t>::max();
  local_deletion_ms =
      static_cast<std::int32_t>(std::clamp<SimTime>((now + 999) / 1000, 0, kMax));
}

bool Supersedes(const Cell& a, const Cell& b) {
  if (a.ts != b.ts) return a.ts > b.ts;
  if (a.tombstone != b.tombstone) return a.tombstone;
  return a.value > b.value;
}

const Cell& MergeCells(const Cell& a, const Cell& b) {
  return Supersedes(a, b) ? a : b;
}

std::ostream& operator<<(std::ostream& os, const Cell& c) {
  if (c.IsNull()) return os << "(null)";
  if (c.tombstone) return os << "(tombstone@" << c.ts << ")";
  return os << "('" << c.value << "'@" << c.ts << ")";
}

}  // namespace mvstore::storage
