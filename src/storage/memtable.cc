#include "storage/memtable.h"

namespace mvstore::storage {

void MemTable::Apply(const Key& key, const ColumnName& col, const Cell& cell) {
  Row& row = rows_[key];
  const std::size_t before = row.size();
  row.Apply(col, cell);
  cell_count_ += row.size() - before;
}

void MemTable::ApplyRow(const Key& key, Row&& row) {
  Row& dst = rows_[key];
  const std::size_t before = dst.size();
  dst.MergeFrom(std::move(row));
  cell_count_ += dst.size() - before;
}

const Row* MemTable::Get(const Key& key) const {
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

void MemTable::ScanPrefix(
    const Key& prefix,
    const std::function<void(const Key&, const Row&)>& fn) const {
  for (auto it = rows_.lower_bound(prefix); it != rows_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    fn(it->first, it->second);
  }
}

void MemTable::ForEach(
    const std::function<void(const Key&, const Row&)>& fn) const {
  for (const auto& [key, row] : rows_) fn(key, row);
}

void MemTable::Clear() {
  rows_.clear();
  cell_count_ = 0;
}

std::vector<KeyedRow> MemTable::DrainSorted() {
  std::vector<KeyedRow> out;
  out.reserve(rows_.size());
  // extract() hands back the node with a mutable key, so both the key and
  // the row's cell buffer move instead of copying.
  while (!rows_.empty()) {
    auto node = rows_.extract(rows_.begin());
    out.push_back(KeyedRow{std::move(node.key()), std::move(node.mapped())});
  }
  cell_count_ = 0;
  return out;
}

}  // namespace mvstore::storage
