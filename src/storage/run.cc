#include "storage/run.h"

#include <algorithm>

#include "common/logging.h"

namespace mvstore::storage {

Run::Run(std::vector<KeyedRow> entries)
    : entries_(std::move(entries)), filter_(entries_.size()) {
  for (const KeyedRow& entry : entries_) {
    filter_.Add(entry.key);
  }
  if (!entries_.empty()) {
    min_key_ = entries_.front().key;
    max_key_ = entries_.back().key;
  }
}

std::shared_ptr<const Run> Run::FromSorted(std::vector<KeyedRow> entries) {
  for (std::size_t i = 1; i < entries.size(); ++i) {
    MVSTORE_CHECK_LT(entries[i - 1].key, entries[i].key)
        << "Run entries must be sorted and unique";
  }
  return std::shared_ptr<const Run>(new Run(std::move(entries)));
}

std::shared_ptr<const Run> Run::Merge(
    const std::vector<std::shared_ptr<const Run>>& runs,
    SimTime deleted_before, Timestamp purge_floor, GcStats* stats) {
  // Streaming k-way merge over the sorted inputs: each output row is built
  // once, in key order, with no intermediate map and no per-cell heap churn
  // — a key held by a single input is copied wholesale, and multi-input
  // keys merge through one reused scratch row whose buffer transfers into
  // the output entry.
  struct Cursor {
    const KeyedRow* it;
    const KeyedRow* end;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(runs.size());
  std::size_t total = 0;
  for (const auto& run : runs) {
    const auto& entries = run->sorted_entries();
    if (!entries.empty()) {
      cursors.push_back(Cursor{entries.data(), entries.data() + entries.size()});
      total += entries.size();
    }
  }
  const bool may_purge = deleted_before != kNullTimestamp;
  std::vector<KeyedRow> entries;
  entries.reserve(total);
  Row scratch;
  while (true) {
    const Key* min_key = nullptr;
    for (const Cursor& c : cursors) {
      if (c.it != c.end && (min_key == nullptr || c.it->key < *min_key)) {
        min_key = &c.it->key;
      }
    }
    if (min_key == nullptr) break;
    // Collect every input holding the key (in input order, matching the LWW
    // merge order of the map-based code this replaced — the result is the
    // same either way because the cell merge is commutative).
    const Row* single = nullptr;
    int matches = 0;
    for (const Cursor& c : cursors) {
      if (c.it != c.end && c.it->key == *min_key) {
        single = &c.it->row;
        ++matches;
      }
    }
    if (matches == 1 && !may_purge) {
      entries.push_back(KeyedRow{*min_key, *single});
    } else {
      scratch.Clear();
      for (const Cursor& c : cursors) {
        if (c.it != c.end && c.it->key == *min_key) {
          scratch.MergeFrom(c.it->row);
        }
      }
      Row::Cells cells = scratch.ReleaseCells();
      auto kept = cells.begin();
      for (auto it = cells.begin(); it != cells.end(); ++it) {
        const Cell& cell = it->second;
        if (cell.tombstone && cell.local_deletion_time() < deleted_before) {
          if (cell.ts < purge_floor) {
            if (stats != nullptr) ++stats->tombstones_purged;
            continue;
          }
          if (stats != nullptr) ++stats->tombstones_deferred;
        }
        if (kept != it) *kept = std::move(*it);
        ++kept;
      }
      cells.erase(kept, cells.end());
      if (!cells.empty()) {
        // Copy the key BEFORE advancing the cursors below (min_key points
        // into one of them).
        entries.push_back(KeyedRow{*min_key, Row(std::move(cells))});
      }
    }
    for (Cursor& c : cursors) {
      if (c.it != c.end && c.it->key == *min_key) ++c.it;
    }
  }
  return std::shared_ptr<const Run>(new Run(std::move(entries)));
}

const Row* Run::Get(const Key& key) const {
  if (entries_.empty() || key < min_key_ || max_key_ < key) {
    ++fence_skips_;
    return nullptr;
  }
  if (!filter_.MayContain(key)) {
    ++bloom_negatives_;
    return nullptr;
  }
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const KeyedRow& e, const Key& k) { return e.key < k; });
  if (it == entries_.end() || it->key != key) return nullptr;
  return &it->row;
}

bool Run::MayContainPrefix(const Key& prefix) const {
  if (entries_.empty()) return false;
  // Everything below the prefix range: the largest key sorts before it.
  if (max_key_ < prefix) return false;
  // Everything above it: the smallest key already sorts after every key that
  // could start with the prefix.
  if (min_key_.compare(0, prefix.size(), prefix) > 0) return false;
  return true;
}

const KeyedRow* Run::PrefixLowerBound(const Key& prefix) const {
  if (!MayContainPrefix(prefix)) {
    ++fence_skips_;
    return entries_end();
  }
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), prefix,
      [](const KeyedRow& e, const Key& k) { return e.key < k; });
  return entries_.data() + (it - entries_.begin());
}

void Run::ScanPrefix(
    const Key& prefix,
    const std::function<void(const Key&, const Row&)>& fn) const {
  if (!MayContainPrefix(prefix)) {
    ++fence_skips_;
    return;
  }
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), prefix,
      [](const KeyedRow& e, const Key& k) { return e.key < k; });
  for (; it != entries_.end(); ++it) {
    if (it->key.compare(0, prefix.size(), prefix) != 0) break;
    fn(it->key, it->row);
  }
}

void Run::ForEach(
    const std::function<void(const Key&, const Row&)>& fn) const {
  for (const auto& entry : entries_) fn(entry.key, entry.row);
}

}  // namespace mvstore::storage
