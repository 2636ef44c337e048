#include "storage/row_cache.h"

namespace mvstore::storage {

RowCache::RowCache(std::size_t capacity) : capacity_(capacity) {}

const Row* RowCache::Get(const std::string& table, const Key& key) {
  if (capacity_ == 0) return nullptr;
  auto it = index_.find(CacheKey{table, key});
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->row;
}

bool RowCache::Contains(const std::string& table, const Key& key) const {
  return index_.find(CacheKey{table, key}) != index_.end();
}

void RowCache::Put(const std::string& table, const Key& key, Row row) {
  if (capacity_ == 0) return;
  CacheKey ck{table, key};
  auto it = index_.find(ck);
  if (it != index_.end()) {
    it->second->row = std::move(row);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (index_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(Entry{ck, std::move(row)});
  index_.emplace(std::move(ck), lru_.begin());
}

void RowCache::Invalidate(const std::string& table, const Key& key) {
  auto it = index_.find(CacheKey{table, key});
  if (it == index_.end()) return;
  lru_.erase(it->second);
  index_.erase(it);
  ++invalidations_;
}

void RowCache::Clear() {
  invalidations_ += index_.size();
  index_.clear();
  lru_.clear();
}

}  // namespace mvstore::storage
