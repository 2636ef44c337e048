#include "storage/row.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace mvstore::storage {

Row::Row(Cells cells) : cells_(std::move(cells)) {
#ifndef NDEBUG
  for (std::size_t i = 1; i < cells_.size(); ++i) {
    MVSTORE_CHECK_LT(cells_[i - 1].first, cells_[i].first)
        << "Row cells must be sorted and unique";
  }
#endif
}

Row::Cells::iterator Row::LowerBound(const ColumnName& col) {
  return std::lower_bound(
      cells_.begin(), cells_.end(), col,
      [](const auto& entry, const ColumnName& c) { return entry.first < c; });
}

bool Row::Apply(const ColumnName& col, const Cell& cell) {
  auto it = LowerBound(col);
  if (it == cells_.end() || it->first != col) {
    cells_.insert(it, {col, cell});
    return true;
  }
  if (Supersedes(cell, it->second)) {
    it->second = cell;
    return true;
  }
  KeepEarlierDeletion(it->second, cell);
  return false;
}

bool Row::Apply(const ColumnName& col, Cell&& cell) {
  auto it = LowerBound(col);
  if (it == cells_.end() || it->first != col) {
    cells_.insert(it, {col, std::move(cell)});
    return true;
  }
  if (Supersedes(cell, it->second)) {
    it->second = std::move(cell);
    return true;
  }
  KeepEarlierDeletion(it->second, cell);
  return false;
}

void Row::MergeFrom(const Row& other) {
  if (other.cells_.empty()) return;
  if (cells_.empty()) {
    cells_ = other.cells_;
    return;
  }
  // Both sides are sorted: a two-pointer merge instead of per-cell binary
  // searches. LWW picks the winner when a column appears on both sides.
  Cells merged;
  merged.reserve(cells_.size() + other.cells_.size());
  auto a = cells_.begin();
  auto b = other.cells_.begin();
  while (a != cells_.end() && b != other.cells_.end()) {
    if (a->first < b->first) {
      merged.push_back(std::move(*a++));
    } else if (b->first < a->first) {
      merged.push_back(*b++);
    } else {
      if (Supersedes(b->second, a->second)) {
        merged.emplace_back(std::move(a->first), b->second);
      } else {
        KeepEarlierDeletion(a->second, b->second);
        merged.push_back(std::move(*a));
      }
      ++a;
      ++b;
    }
  }
  merged.insert(merged.end(), std::make_move_iterator(a),
                std::make_move_iterator(cells_.end()));
  merged.insert(merged.end(), b, other.cells_.end());
  cells_ = std::move(merged);
}

void Row::MergeFrom(Row&& other) {
  if (other.cells_.empty()) return;
  if (cells_.empty()) {
    cells_ = std::move(other.cells_);
    return;
  }
  Cells merged;
  merged.reserve(cells_.size() + other.cells_.size());
  auto a = cells_.begin();
  auto b = other.cells_.begin();
  while (a != cells_.end() && b != other.cells_.end()) {
    if (a->first < b->first) {
      merged.push_back(std::move(*a++));
    } else if (b->first < a->first) {
      merged.push_back(std::move(*b++));
    } else {
      if (Supersedes(b->second, a->second)) {
        merged.emplace_back(std::move(a->first), std::move(b->second));
      } else {
        KeepEarlierDeletion(a->second, b->second);
        merged.push_back(std::move(*a));
      }
      ++a;
      ++b;
    }
  }
  merged.insert(merged.end(), std::make_move_iterator(a),
                std::make_move_iterator(cells_.end()));
  merged.insert(merged.end(), std::make_move_iterator(b),
                std::make_move_iterator(other.cells_.end()));
  cells_ = std::move(merged);
  other.cells_.clear();
}

std::optional<Cell> Row::Get(const ColumnName& col) const {
  auto it = std::lower_bound(
      cells_.begin(), cells_.end(), col,
      [](const auto& entry, const ColumnName& c) { return entry.first < c; });
  if (it == cells_.end() || it->first != col) return std::nullopt;
  return it->second;
}

std::optional<Value> Row::GetValue(const ColumnName& col) const {
  auto it = std::lower_bound(
      cells_.begin(), cells_.end(), col,
      [](const auto& entry, const ColumnName& c) { return entry.first < c; });
  if (it == cells_.end() || it->first != col || it->second.tombstone) {
    return std::nullopt;
  }
  return it->second.value;
}

Timestamp Row::MaxTimestamp() const {
  Timestamp max_ts = kNullTimestamp;
  for (const auto& [col, cell] : cells_) {
    max_ts = std::max(max_ts, cell.ts);
  }
  return max_ts;
}

void Row::StampLocalDeletions(SimTime now) {
  for (auto& [col, cell] : cells_) {
    if (cell.tombstone) cell.StampLocalDeletion(now);
  }
}

bool Row::AllTombstones() const {
  return std::all_of(cells_.begin(), cells_.end(),
                     [](const auto& kv) { return kv.second.tombstone; });
}

std::uint64_t RowDigest(const Row& row) {
  std::uint64_t digest = 0x9E3779B97F4A7C15ull;
  for (const auto& [col, cell] : row.cells()) {
    std::uint64_t h = Hash64(col);
    h = HashCombine(h, Hash64(cell.value));
    h = HashCombine(h, static_cast<std::uint64_t>(cell.ts));
    h = HashCombine(h, cell.tombstone ? 1 : 0);
    digest = HashCombine(digest, h);
  }
  return digest;
}

std::ostream& operator<<(std::ostream& os, const Row& row) {
  os << "{";
  bool first = true;
  for (const auto& [col, cell] : row.cells()) {
    if (!first) os << ", ";
    first = false;
    os << col << "=" << cell;
  }
  return os << "}";
}

}  // namespace mvstore::storage
