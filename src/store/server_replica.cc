// Server: replica apply — the Local* handlers and their service demands.

#include "store/server.h"

#include <utility>

namespace mvstore::store {

SimTime Server::ReadServiceFor(const std::string& table,
                               const Key& key) const {
  return row_cache_.Contains(table, key) ? kReadCachedLocal
                                         : config_->perf.read_local;
}

void Server::WarmRowCache(const std::string& table, const Key& key) {
  // GetRow populates the cache as a side effect when the key exists.
  EngineFor(table).GetRow(key);
}

// Per-replica service demand of applying `cells` to `table`: the base write
// plus synchronous maintenance of each local index fragment whose column is
// being written (Cassandra-style).
SimTime Server::WriteServiceFor(const std::string& table,
                                const storage::Row& cells) const {
  SimTime service = config_->perf.write_local;
  for (const IndexDef& index : schema_->IndexesOn(table)) {
    if (cells.Get(index.column)) {
      service += config_->perf.index_update_local;
    }
  }
  return service;
}

storage::Row Server::LocalRead(const std::string& table, const Key& key,
                               const std::vector<ColumnName>& columns) {
  metrics_->replica_reads++;
  storage::Engine& engine = EngineFor(table);
  const std::uint64_t hits_before = row_cache_.hits();
  const std::uint64_t misses_before = row_cache_.misses();
  storage::Row result;
  if (columns.empty()) {
    if (auto row = engine.GetRow(key)) result = *std::move(row);
  } else {
    for (const ColumnName& col : columns) {
      if (auto cell = engine.GetCell(key, col)) {
        result.Apply(col, *cell);
      }
    }
  }
  // Delta-sample the cache so per-column reads of one hot row still count
  // as one logical probe each.
  const std::uint64_t hit_delta = row_cache_.hits() - hits_before;
  const std::uint64_t miss_delta = row_cache_.misses() - misses_before;
  metrics_->row_cache_hits += hit_delta;
  metrics_->row_cache_misses += miss_delta;
  if (tracer_ != nullptr && tracer_->current() &&
      (hit_delta > 0 || miss_delta > 0)) {
    tracer_->Mark(tracer_->current(),
                  hit_delta > 0 ? "cache.hit" : "cache.miss",
                  static_cast<int>(id_), sim_->Now(), table + "/" + key);
  }
  return result;
}

void Server::LocalApply(const std::string& table, const Key& key,
                        const storage::Row& cells) {
  metrics_->replica_writes++;
  storage::Engine& engine = EngineFor(table);

  // Snapshot indexed-column values before the merge so the local index
  // fragments can be maintained synchronously (Cassandra-style).
  std::vector<std::pair<index::LocalIndex*, std::optional<Value>>> touched;
  for (const auto& index : indexes_) {
    if (index->table() != table) continue;
    if (!cells.Get(index->column())) continue;  // column not written
    std::optional<Value> before;
    if (auto cell = engine.GetCell(key, index->column());
        cell && !cell->tombstone) {
      before = cell->value;
    }
    touched.emplace_back(index.get(), std::move(before));
  }

  engine.ApplyRow(key, cells);

  for (auto& [index, before] : touched) {
    std::optional<Value> after;
    if (auto cell = engine.GetCell(key, index->column());
        cell && !cell->tombstone) {
      after = cell->value;
    }
    if (before != after) {
      index->Update(key, before, after);
      metrics_->index_updates++;
    }
  }
}

storage::Row Server::LocalReadThenApply(
    const std::string& table, const Key& key,
    const std::vector<ColumnName>& read_columns, const storage::Row& cells) {
  storage::Row pre_image = LocalRead(table, key, read_columns);
  LocalApply(table, key, cells);
  return pre_image;
}

std::vector<storage::KeyedRow> Server::LocalScanPrefix(
    const std::string& table, const Key& prefix) {
  metrics_->replica_reads++;
  std::vector<storage::KeyedRow> result;
  EngineFor(table).ScanPrefix(prefix, [&](const Key& key,
                                          const storage::Row& row) {
    result.push_back(storage::KeyedRow{key, row});
  });
  return result;
}

std::vector<storage::KeyedRow> Server::LocalIndexProbe(
    const std::string& table, const ColumnName& column, const Value& value) {
  metrics_->index_fragment_probes++;
  std::vector<storage::KeyedRow> result;
  for (const auto& index : indexes_) {
    if (index->table() != table || index->column() != column) continue;
    storage::Engine& engine = EngineFor(table);
    for (const Key& key : index->Lookup(value)) {
      if (auto row = engine.GetRow(key)) {
        result.push_back(storage::KeyedRow{key, *std::move(row)});
      }
    }
    break;
  }
  return result;
}

std::vector<storage::KeyedRow> Server::LocalMatchScan(
    const std::string& table, const ColumnName& column, const Value& value) {
  metrics_->replica_reads++;
  std::vector<storage::KeyedRow> result;
  EngineFor(table).ForEach([&](const Key& key, const storage::Row& row) {
    auto current = row.GetValue(column);
    if (current && *current == value) {
      result.push_back(storage::KeyedRow{key, row});
    }
  });
  return result;
}

}  // namespace mvstore::store
