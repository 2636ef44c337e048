#include "store/server.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "store/codec.h"
#include "store/quorum_op.h"

namespace mvstore::store {

namespace {

/// Salt mixed into each anti-entropy digest entry before summation, so the
/// combiner is not the plain entry hash (defense against crafted inputs
/// that target the entry-hash function directly).
constexpr std::uint64_t kSyncDigestSalt = 0x9e3779b97f4a7c15ULL;

/// Key-hash buckets per (table, peer) range sync. More buckets make the key
/// list in a digest answer shorter, not the rows shipped fewer: those are
/// exactly the rows that differ.
constexpr int kSyncBuckets = 64;

/// Hints kept per target server; beyond this the oldest is dropped
/// (anti-entropy is the backstop).
constexpr std::size_t kMaxHintsPerTarget = 4096;

/// Base backoff before retrying a membership sync that fell silent; grows
/// linearly with the attempt count, capped at 8x.
constexpr SimTime kStreamRetryBackoff = Millis(50);

/// LWW merge of every answered slot's row.
storage::Row MergeRowResponses(
    const std::vector<std::optional<storage::Row>>& responses) {
  storage::Row merged;
  for (const auto& row : responses) {
    if (row) merged.MergeFrom(*row);
  }
  return merged;
}

/// LWW merge of every answered slot's scan result, keyed by row.
std::map<Key, storage::Row> MergeScanResponses(
    const std::vector<std::optional<std::vector<storage::KeyedRow>>>&
        responses) {
  std::map<Key, storage::Row> merged;
  for (const auto& response : responses) {
    if (!response) continue;
    for (const auto& kr : *response) {
      merged[kr.key].MergeFrom(kr.row);
    }
  }
  return merged;
}

/// The read routing rule, for point reads and partition scans alike. A read
/// that one answer settles (`single`) goes to `chosen` alone, by default the
/// coordinator's own replica when it holds one; the other replicas, in ring
/// order, are its spares. Every other read asks every replica, as does a
/// single read on a coordinator holding none: first-of-three bounds a remote
/// read's tail under network jitter.
template <typename Spec>
void RouteRead(ServerId coordinator, Metrics* metrics,
               const std::vector<ServerId>& replicas, bool single,
               std::optional<ServerId> chosen, Spec& spec) {
  if (single && !chosen &&
      std::find(replicas.begin(), replicas.end(), coordinator) !=
          replicas.end()) {
    chosen = coordinator;
  }
  if (single && chosen) {
    spec.targets = {*chosen};
    for (ServerId r : replicas) {
      if (r != *chosen) spec.spares.push_back(r);
    }
  } else {
    spec.targets = replicas;
  }
  (spec.targets.size() == 1 ? metrics->reads_one_replica
                            : metrics->reads_fanned_out)++;
}

}  // namespace

Server::Server(ServerId id, sim::Simulation* sim, sim::Network* network,
               const Schema* schema, const Ring* ring,
               const ClusterConfig* config, Metrics* metrics, Tracer* tracer)
    : id_(id),
      sim_(sim),
      network_(network),
      schema_(schema),
      ring_(ring),
      config_(config),
      metrics_(metrics),
      tracer_(tracer),
      queue_(sim, config->cores_per_server),
      row_cache_(config->row_cache_entries) {
  queue_.set_tracer(tracer_, static_cast<int>(id_));
  queue_.set_stage_histograms(&metrics_->stage_queue_wait,
                              &metrics_->stage_service);
  // One local index fragment per index definition in the schema.
  for (const std::string& table : schema_->TableNames()) {
    for (const IndexDef& def : schema_->IndexesOn(table)) {
      indexes_.push_back(
          std::make_unique<index::LocalIndex>(def.table, def.column));
    }
  }
}

storage::Engine& Server::EngineFor(const std::string& table) {
  auto it = engines_.find(table);
  if (it == engines_.end()) {
    it = engines_
             .emplace(table,
                      std::make_unique<storage::Engine>(
                          config_->engine, [sim = sim_] { return sim->Now(); }))
             .first;
    // All of this server's engines share the one cache, namespaced by
    // table name.
    it->second->set_row_cache(&row_cache_, table);
  }
  return *it->second;
}

std::string_view Server::PartitionViewFor(const std::string& table,
                                          const Key& key) const {
  const TableDef* def = schema_->GetTable(table);
  if (def != nullptr && def->composite_keys) {
    return PartitionPrefixViewOf(key);
  }
  return key;
}

const std::vector<ServerId>& Server::ReplicasOf(const std::string& table,
                                                const Key& key) const {
  return ring_->PlacementFor(PartitionViewFor(table, key),
                             config_->replication_factor);
}

SimTime Server::ReadServiceFor(const std::string& table,
                               const Key& key) const {
  if (row_cache_.Contains(table, key)) {
    return config_->perf.read_cached_local;
  }
  return config_->perf.read_local;
}

void Server::WarmRowCache(const std::string& table, const Key& key) {
  // GetRow populates the cache as a side effect when the key exists.
  EngineFor(table).GetRow(key);
}

Timestamp Server::OldestHintTimestamp() const {
  Timestamp oldest = std::numeric_limits<Timestamp>::max();
  for (const auto& [target, queue] : hints_) {
    for (const Hint& hint : queue) {
      for (const auto& [col, cell] : hint.cells.cells()) {
        oldest = std::min(oldest, cell.ts);
      }
    }
  }
  return oldest;
}

// ---------------------------------------------------------------------------
// Local replica handlers.
// ---------------------------------------------------------------------------

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
    TraceContext span = tracer_->StartSpan(
        tracer_->current(), hit_delta > 0 ? "cache.hit" : "cache.miss",
        static_cast<int>(id_), sim_->Now());
    tracer_->Annotate(span, table + "/" + key);
    tracer_->EndSpan(span, sim_->Now());
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

// ---------------------------------------------------------------------------
// Quorum read: a QuorumOp policy. The merge rule is LWW across the answered
// slots; settlement pushes read repair to stale responders (never on abort —
// a dead process cannot push repairs) and hands every reachable replica's
// raw response to `collect_all` (Algorithm 1's version collection).
//
// An R=1 read that collects nothing asks only this server's own replica when
// it holds one (the others are spares). A coordinator holding none still
// asks every replica: first-of-three bounds the tail under network jitter.
// ---------------------------------------------------------------------------

void Server::CoordinateRead(
    const std::string& table, const Key& key, std::vector<ColumnName> columns,
    int read_quorum, std::function<void(StatusOr<storage::Row>)> callback,
    std::function<void(std::vector<storage::Row>)> collect_all) {
  using Op = QuorumOp<storage::Row>;
  Op::Spec spec;
  spec.name = "read";
  RouteRead(id_, metrics_, ReplicasOf(table, key),
            /*single=*/read_quorum == 1 && !collect_all, std::nullopt, spec);
  spec.quorum = read_quorum;
  // Resolve the demand on each replica at delivery: a cached row costs
  // read_cached_local there instead of the full merge.
  spec.service_at = [table, key](Server& s) {
    return s.ReadServiceFor(table, key);
  };
  spec.request = [table, key, columns = std::move(columns)](Server& s) {
    return s.LocalRead(table, key, columns);
  };
  spec.quorum_error = "read quorum not reached";
  spec.on_quorum = [callback](Op& op) {
    callback(MergeRowResponses(op.responses()));
  };
  spec.on_error = [callback = std::move(callback)](Op&,
                                                   const Status& status) {
    callback(status);
  };
  spec.on_settled = [table, key, collect_all = std::move(collect_all)](
                        Op& op, bool aborted) {
    Server& coord = op.coordinator();
    if (!aborted && op.num_responses() > 1) {
      // Read repair: push the merged image to every replica that answered
      // with something older.
      storage::Row merged = MergeRowResponses(op.responses());
      if (!merged.empty()) {
        for (std::size_t i = 0; i < op.targets().size(); ++i) {
          if (op.responses()[i] && !(*op.responses()[i] == merged)) {
            coord.metrics()->read_repairs++;
            coord.SendReplicaWrite(op.targets()[i], table, key, merged,
                                   coord.config().perf.write_local,
                                   [](bool) {});
          }
        }
      }
    }
    if (collect_all) {
      std::vector<storage::Row> collected;
      for (const auto& row : op.responses()) {
        if (row) collected.push_back(*row);
      }
      collect_all(std::move(collected));
    }
  };
  Op::Start(this, std::move(spec));
}

// ---------------------------------------------------------------------------
// Quorum write: a QuorumOp policy shipping one replica-write message per
// target.
// Hinted handoff for unacknowledged targets is the framework's doing (the
// spec carries the hint payload).
// ---------------------------------------------------------------------------

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

void Server::CoordinateWrite(const std::string& table, const Key& key,
                             const storage::Row& cells, int write_quorum,
                             std::function<void(Status)> callback) {
  using Op = QuorumOp<bool>;
  Op::Spec spec;
  spec.name = "write";
  spec.targets = ReplicasOf(table, key);
  spec.quorum = write_quorum;
  spec.service = WriteServiceFor(table, cells);
  spec.request = [table, key, cells](Server& s) {
    s.LocalApply(table, key, cells);
    return true;
  };
  spec.quorum_error = "write quorum not reached";
  spec.hint_table = table;
  spec.hint_key = key;
  spec.hint_cells = cells;
  spec.on_quorum = [callback](Op&) { callback(Status::OK()); };
  spec.on_error = [callback = std::move(callback)](Op&,
                                                   const Status& status) {
    callback(status);
  };
  Op::Start(this, std::move(spec));
}

void Server::SendReplicaWrite(ServerId to, const std::string& table,
                              const Key& key, const storage::Row& cells,
                              SimTime service,
                              UniqueFn<void(bool)> on_ack) {
  CallPeer<bool>(
      to, service,
      [table, key, cells](Server& s) {
        s.LocalApply(table, key, cells);
        return true;
      },
      std::move(on_ack));
}

// ---------------------------------------------------------------------------
// Combined Get-then-Put (Section IV-C): a QuorumOp policy. Each replica
// returns its pre-update view-key versions and applies the write in one
// round; settlement hands the collected pre-images to Algorithm 1 (on abort
// too — the propagation machinery needs the partials to stay live).
// ---------------------------------------------------------------------------

void Server::CoordinateReadThenWrite(
    const std::string& table, const Key& key,
    std::vector<ColumnName> read_columns, const storage::Row& cells,
    int write_quorum, std::function<void(Status)> callback,
    std::function<void(std::vector<storage::Row>)> collect_pre_images) {
  using Op = QuorumOp<storage::Row>;
  Op::Spec spec;
  spec.name = "get_then_put";
  spec.targets = ReplicasOf(table, key);
  spec.quorum = write_quorum;
  // The write half is schema-determined (identical on every server); only
  // the read half depends on the target's cache.
  spec.service_at = [table, key,
                     write_service = WriteServiceFor(table, cells)](Server& s) {
    return s.ReadServiceFor(table, key) + write_service;
  };
  spec.request = [table, key, read_columns = std::move(read_columns),
                  cells](Server& s) {
    return s.LocalReadThenApply(table, key, read_columns, cells);
  };
  spec.quorum_error = "get-then-put quorum not reached";
  spec.hint_table = table;
  spec.hint_key = key;
  spec.hint_cells = cells;
  spec.on_quorum = [callback](Op&) { callback(Status::OK()); };
  spec.on_error = [callback = std::move(callback)](Op&,
                                                   const Status& status) {
    callback(status);
  };
  spec.on_settled = [collect = std::move(collect_pre_images)](Op& op, bool) {
    std::vector<storage::Row> collected;
    for (const auto& row : op.responses()) {
      if (row) collected.push_back(*row);
    }
    collect(std::move(collected));
  };
  Op::Start(this, std::move(spec));
}

// ---------------------------------------------------------------------------
// Partition scan: a QuorumOp policy. The merge rule is per-key LWW across
// the answered slots; settlement performs scan-path read repair — pushing
// every row a responding replica is missing or holds stale, batched per
// replica. This is what heals view partitions on access (a view row's
// replicas may have missed the propagation's third write). An R=1 scan
// routes like an R=1 point read (RouteRead), to `chosen` when the caller
// picked the replica.
// ---------------------------------------------------------------------------

void Server::CoordinateScan(
    const std::string& table, const Key& partition_prefix, int read_quorum,
    std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback,
    std::optional<ServerId> chosen) {
  using Op = QuorumOp<std::vector<storage::KeyedRow>>;
  Op::Spec spec;
  spec.name = "scan";
  RouteRead(id_, metrics_, ReplicasOf(table, partition_prefix),
            /*single=*/read_quorum == 1, chosen, spec);
  spec.quorum = read_quorum;
  spec.service = config_->perf.view_scan_local;
  if (config_->perf.view_scan_per_row > 0) {
    // Row-proportional scan demand, evaluated against the target's local
    // partition size: the cost that view sub-sharding divides.
    spec.service_at = [table, partition_prefix,
                       base = config_->perf.view_scan_local,
                       per_row =
                           config_->perf.view_scan_per_row](Server& s) {
      SimTime rows = 0;
      s.EngineFor(table).ScanPrefix(
          partition_prefix, [&rows](const Key&, const storage::Row&) {
            ++rows;
          });
      return base + per_row * rows;
    };
  }
  spec.request = [table, partition_prefix](Server& s) {
    return s.LocalScanPrefix(table, partition_prefix);
  };
  spec.quorum_error = "scan quorum not reached";
  spec.on_quorum = [callback](Op& op) {
    if (op.num_responses() == 1) {
      // A lone replica scan is already sorted by key: nothing to merge.
      for (const auto& response : op.responses()) {
        if (response) callback(*response);
      }
      return;
    }
    std::map<Key, storage::Row> merged = MergeScanResponses(op.responses());
    std::vector<storage::KeyedRow> rows;
    rows.reserve(merged.size());
    for (auto& [key, row] : merged) {
      rows.push_back(storage::KeyedRow{key, std::move(row)});
    }
    callback(std::move(rows));
  };
  spec.on_error = [callback = std::move(callback)](Op&,
                                                   const Status& status) {
    callback(status);
  };
  spec.on_settled = [table, read_quorum](Op& op, bool aborted) {
    // A lone answer has nothing to be repaired against.
    if (aborted || op.num_responses() < std::max(read_quorum, 2)) return;
    Server& coord = op.coordinator();
    const std::map<Key, storage::Row> merged =
        MergeScanResponses(op.responses());
    for (std::size_t i = 0; i < op.targets().size(); ++i) {
      if (!op.responses()[i]) continue;
      std::map<Key, const storage::Row*> have;
      for (const auto& kr : *op.responses()[i]) have[kr.key] = &kr.row;
      std::vector<storage::KeyedRow> fixes;
      for (const auto& [key, row] : merged) {
        auto it = have.find(key);
        if (it == have.end() || !(*it->second == row)) {
          fixes.push_back(storage::KeyedRow{key, row});
        }
      }
      if (fixes.empty()) continue;
      coord.metrics()->read_repairs += fixes.size();
      const std::uint64_t payloads = fixes.size();
      const SimTime service = coord.config().perf.write_local *
                              static_cast<SimTime>(fixes.size());
      std::string t = table;
      coord.CallPeer<bool>(
          op.targets()[i], service,
          [t, fixes = std::move(fixes)](Server& s) {
            for (const auto& kr : fixes) s.LocalApply(t, kr.key, kr.row);
            return true;
          },
          [](bool) {}, payloads);
    }
  };
  Op::Start(this, std::move(spec));
}

// ---------------------------------------------------------------------------
// Scatter-gather over a sharded view partition: one CoordinateScan
// per sub-shard (each its own QuorumOp with the scan path's read-repair
// behaviour), gathered at this coordinator with a streaming k-way merge of
// the per-shard sorted results. At R=1 each sub-scan goes to one replica:
// the one carrying the fewest of this request's sub-scans so far, this
// server's own replica winning ties, then ring order. A scatter waits for
// its slowest sub-scan anyway, so k sub-scans spread over the cluster's
// cores instead of 3k queueing on them.
// ---------------------------------------------------------------------------

std::vector<storage::KeyedRow> MergeSortedShardScans(
    std::vector<std::vector<storage::KeyedRow>> shards) {
  struct Cursor {
    std::size_t shard;
    std::size_t pos;
  };
  auto after = [&shards](const Cursor& a, const Cursor& b) {
    return shards[a.shard][a.pos].key > shards[b.shard][b.pos].key;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(after)> heap(
      after);
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    total += shards[i].size();
    if (!shards[i].empty()) heap.push(Cursor{i, 0});
  }
  std::vector<storage::KeyedRow> out;
  out.reserve(total);
  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    storage::KeyedRow& kr = shards[c.shard][c.pos];
    if (!out.empty() && out.back().key == kr.key) {
      out.back().row.MergeFrom(kr.row);
    } else {
      out.push_back(std::move(kr));
    }
    if (++c.pos < shards[c.shard].size()) heap.push(c);
  }
  return out;
}

void Server::CoordinateViewScatterScan(
    const std::string& table, std::vector<Key> shard_prefixes, int read_quorum,
    bool allow_partial,
    std::function<void(StatusOr<ScatterScanResult>)> callback) {
  MVSTORE_CHECK(!shard_prefixes.empty()) << "scatter scan needs a prefix";
  const int total = static_cast<int>(shard_prefixes.size());
  if (shard_prefixes.size() == 1) {
    // One shard: partial coverage is impossible — either the scan answers
    // the whole partition or the query fails, allow_partial or not.
    CoordinateScan(table, shard_prefixes[0], read_quorum,
                   [callback = std::move(callback)](
                       StatusOr<std::vector<storage::KeyedRow>> scan) {
                     if (!scan.ok()) {
                       callback(scan.status());
                       return;
                     }
                     ScatterScanResult result;
                     result.rows = *std::move(scan);
                     result.total_shards = 1;
                     callback(std::move(result));
                   });
    return;
  }
  metrics_->view_scatter_scans++;
  struct Gather {
    std::vector<std::vector<storage::KeyedRow>> results;
    std::vector<bool> ok;
    std::size_t pending = 0;
    Status first_error = Status::OK();
    std::function<void(StatusOr<ScatterScanResult>)> callback;
  };
  auto gather = std::make_shared<Gather>();
  gather->results.resize(shard_prefixes.size());
  gather->ok.assign(shard_prefixes.size(), false);
  gather->pending = shard_prefixes.size();
  gather->callback = std::move(callback);
  std::vector<int> load(peers_->size(), 0);  // sub-scans sent, by server
  for (std::size_t i = 0; i < shard_prefixes.size(); ++i) {
    std::optional<ServerId> chosen;
    if (read_quorum == 1) {
      for (ServerId r : ReplicasOf(table, shard_prefixes[i])) {
        if (!chosen || load[r] < load[*chosen] ||
            (load[r] == load[*chosen] && r == id_)) {
          chosen = r;
        }
      }
      ++load[*chosen];
    }
    CoordinateScan(
        table, shard_prefixes[i], read_quorum,
        [gather, i, total, allow_partial,
         metrics = metrics_](StatusOr<std::vector<storage::KeyedRow>> scan) {
          if (scan.ok()) {
            gather->results[i] = *std::move(scan);
            gather->ok[i] = true;
          } else if (gather->first_error.ok()) {
            gather->first_error = scan.status();
          }
          if (--gather->pending > 0) return;
          const int failed = total - static_cast<int>(std::count(
                                         gather->ok.begin(), gather->ok.end(),
                                         true));
          // A failed shard fails the whole query unless the caller opted
          // into partial coverage AND at least one shard answered (an
          // all-shards-dead "partial" would be an empty lie).
          if (failed > 0 && (!allow_partial || failed == total)) {
            gather->callback(std::move(gather->first_error));
            return;
          }
          ScatterScanResult result;
          result.rows = MergeSortedShardScans(std::move(gather->results));
          result.failed_shards = failed;
          result.total_shards = total;
          if (failed > 0) metrics->view_scatter_partial++;
          gather->callback(std::move(result));
        },
        chosen);
  }
}

// ---------------------------------------------------------------------------
// Broadcast match-scan: a QuorumOp policy whose quorum is ALL fragments
// (every server holds part of the table and its index). The framework's
// slot dedupe also closes the old hole where a replayed fragment response
// could count twice toward completion.
// ---------------------------------------------------------------------------

void Server::HandleClientIndexGet(
    const std::string& table, const ColumnName& column, const Value& value,
    std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback) {
  metrics_->client_index_gets++;
  if (!AcceptsCoordination()) {
    callback(Status::Unavailable("server leaving the ring"));
    return;
  }
  if (schema_->FindIndex(table, column) == nullptr) {
    callback(Status::NotFound("no index on " + table + "." + column));
    return;
  }
  auto reply = WrapReply(std::move(callback));
  Enqueue(config_->perf.coordinator_op, [this, table, column, value,
                                         reply = std::move(reply)]() mutable {
    CoordinateMatchScan(table, column, value, std::move(reply));
  });
}

void Server::CoordinateMatchScan(
    const std::string& table, const ColumnName& column, const Value& value,
    std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback) {
  using Op = QuorumOp<std::vector<storage::KeyedRow>>;
  const bool indexed = schema_->FindIndex(table, column) != nullptr;
  Op::Spec spec;
  spec.name = indexed ? "index_scan" : "base_match_scan";
  // Every CURRENT ring member holds a fragment; servers that left (or
  // never joined) hold nothing and would only stall the full-broadcast
  // quorum.
  spec.targets.assign(ring_->members().begin(), ring_->members().end());
  spec.quorum = static_cast<int>(spec.targets.size());
  // Without an index every server walks its whole local fragment of the
  // table — the router's priced-in worst case.
  spec.service = indexed ? config_->perf.index_scan_local
                         : config_->perf.base_scan_local;
  spec.request = [table, column, value, indexed](Server& server) {
    return indexed ? server.LocalIndexProbe(table, column, value)
                   : server.LocalMatchScan(table, column, value);
  };
  spec.quorum_error = indexed ? "index fragments unreachable"
                              : "base-scan replicas unreachable";
  spec.on_quorum = [column, value, callback](Op& op) {
    // A fragment may return keys whose globally-latest value no longer
    // matches (its replica was stale); filter on the merged image, as
    // Cassandra's coordinator re-checks index hits.
    std::map<Key, storage::Row> merged = MergeScanResponses(op.responses());
    std::vector<storage::KeyedRow> rows;
    for (auto& [key, row] : merged) {
      auto current = row.GetValue(column);
      if (!current || *current != value) continue;
      rows.push_back(storage::KeyedRow{key, std::move(row)});
    }
    callback(std::move(rows));
  };
  spec.on_error = [callback = std::move(callback)](Op&,
                                                   const Status& status) {
    callback(status);
  };
  Op::Start(this, std::move(spec));
}

// ---------------------------------------------------------------------------
// Client-facing entry points.
// ---------------------------------------------------------------------------

template <typename ResultT>
std::function<void(ResultT)> Server::WrapReply(
    std::function<void(ResultT)> callback) {
  // Charges coordinator service time for assembling the reply, so reply
  // processing contributes to saturation under load.
  return [this, callback = std::move(callback)](ResultT result) mutable {
    Enqueue(config_->perf.coordinator_op,
            [callback = std::move(callback),
             result = std::move(result)]() mutable {
              callback(std::move(result));
            });
  };
}

void Server::HandleClientGet(
    const std::string& table, const Key& key, std::vector<ColumnName> columns,
    int read_quorum, std::function<void(StatusOr<storage::Row>)> callback) {
  metrics_->client_gets++;
  if (!AcceptsCoordination()) {
    callback(Status::Unavailable("server leaving the ring"));
    return;
  }
  const TableDef* def = schema_->GetTable(table);
  if (def == nullptr) {
    callback(Status::NotFound("no table '" + table + "'"));
    return;
  }
  if (def->is_view_backing) {
    callback(Status::InvalidArgument(
        "use view Get for '" + table + "' (views return record sets)"));
    return;
  }
  auto reply = WrapReply(std::move(callback));
  Enqueue(config_->perf.coordinator_op,
          [this, table, key, columns = std::move(columns), read_quorum,
           reply = std::move(reply)]() mutable {
            CoordinateRead(table, key, std::move(columns), read_quorum,
                           std::move(reply));
          });
}

void Server::HandleClientPut(const std::string& table, const Key& key,
                             const Mutation& mutation, Timestamp ts,
                             int write_quorum, SessionId session,
                             std::function<void(Status)> callback) {
  metrics_->client_puts++;
  if (!AcceptsCoordination()) {
    callback(Status::Unavailable("server leaving the ring"));
    return;
  }
  const TableDef* def = schema_->GetTable(table);
  if (def == nullptr) {
    callback(Status::NotFound("no table '" + table + "'"));
    return;
  }
  if (def->is_view_backing) {
    callback(Status::InvalidArgument("views are not updateable"));
    return;
  }
  if (mutation.empty()) {
    callback(Status::InvalidArgument("empty mutation"));
    return;
  }

  storage::Row cells;
  for (const auto& [col, value] : mutation) {
    cells.Apply(col, value ? storage::Cell::Live(*value, ts)
                           : storage::Cell::Tombstone(ts));
  }

  // Which views does this Put affect (Algorithm 1, line 1)?
  std::vector<const ViewDef*> affected;
  if (view_hook_ != nullptr) {
    for (const ViewDef* view : schema_->ViewsOn(table)) {
      // The first byte of sentinel view keys is reserved (deleted-row
      // anchors, see store/codec.h).
      if (auto it = mutation.find(view->view_key_column);
          it != mutation.end() && it->second.has_value() &&
          !it->second->empty() && (*it->second)[0] == kSentinelPrefix) {
        callback(Status::InvalidArgument(
            "view key values must not start with byte 0x03 (reserved)"));
        return;
      }
      for (const auto& [col, unused] : mutation) {
        if (view->Affects(col)) {
          affected.push_back(view);
          break;
        }
      }
    }
  }

  auto reply = WrapReply(std::move(callback));

  if (affected.empty()) {
    Enqueue(config_->perf.coordinator_op,
            [this, table, key, cells, write_quorum,
             reply = std::move(reply)]() mutable {
              CoordinateWrite(table, key, cells, write_quorum,
                              std::move(reply));
            });
    return;
  }

  // Freshness contract (ISSUE 7): register the pending propagations NOW,
  // synchronously, before any replica traffic — a bounded-staleness read
  // issued the instant this Put is acknowledged must already see them.
  const std::uint64_t put_group =
      view_hook_->OnBasePutIssued(this, key, affected, ts, session);

  // Columns whose pre-update versions Algorithm 1 must collect: the view
  // key column of every affected view.
  std::vector<ColumnName> read_columns;
  for (const ViewDef* view : affected) {
    if (std::find(read_columns.begin(), read_columns.end(),
                  view->view_key_column) == read_columns.end()) {
      read_columns.push_back(view->view_key_column);
    }
  }

  auto on_collected = [this, affected, key, cells,
                       put_group](std::vector<storage::Row> pre_images) {
    // Dedupe the pre-image versions ONCE per distinct view-key column and
    // share the guess list across every view keyed by it — part of the
    // shared change-set (ISSUE 10): a Put touching N same-column views does
    // the collection work once, not N times.
    std::map<ColumnName, std::vector<storage::Cell>> guesses_by_column;
    for (const ViewDef* view : affected) {
      auto [it, inserted] = guesses_by_column.try_emplace(
          view->view_key_column);
      if (!inserted) continue;
      std::set<std::pair<Timestamp, Value>> seen;
      for (const storage::Row& pre : pre_images) {
        storage::Cell cell;  // null cell when the replica had no value
        if (auto c = pre.Get(view->view_key_column)) cell = *c;
        if (cell.tombstone) cell.value.clear();
        const auto fingerprint =
            std::make_pair(cell.ts, cell.tombstone ? Value() : cell.value);
        if (seen.insert(fingerprint).second) {
          it->second.push_back(std::move(cell));
        }
      }
      if (it->second.empty()) {
        it->second.push_back(storage::Cell{});  // nothing collected
      }
    }
    std::vector<CollectedViewKeys> collected;
    collected.reserve(affected.size());
    for (const ViewDef* view : affected) {
      CollectedViewKeys entry;
      entry.view = view;
      entry.old_keys = guesses_by_column[view->view_key_column];
      collected.push_back(std::move(entry));
    }
    view_hook_->OnBasePutCommitted(this, key, cells, std::move(collected),
                                   put_group);
  };

  if (config_->combined_get_then_put) {
    Enqueue(config_->perf.coordinator_op,
            [this, table, key, cells, write_quorum,
             read_columns = std::move(read_columns),
             reply = std::move(reply),
             on_collected = std::move(on_collected)]() mutable {
              CoordinateReadThenWrite(table, key, std::move(read_columns),
                                      cells, write_quorum, std::move(reply),
                                      std::move(on_collected));
            });
    return;
  }

  // Paper-prototype mode: a separate Get (line 2) collects the distinct
  // view-key versions from ALL replicas before the Put (line 3) is issued —
  // the simplest way to have every version in hand when propagation starts,
  // and the reason Figure 5's MV write latency is ~2.5x BT's. (The combined
  // mode above fuses both into one round; see bench/ablation_combined_getput.)
  const int preread_quorum = config_->replication_factor;
  Enqueue(config_->perf.coordinator_op, [this, table, key, cells, write_quorum,
                                         preread_quorum,
                                         read_columns = std::move(read_columns),
                                         reply = std::move(reply),
                                         on_collected =
                                             std::move(on_collected)]() mutable {
    CoordinateRead(
        table, key, read_columns, preread_quorum,
        [this, table, key, cells, write_quorum,
         reply = std::move(reply)](StatusOr<storage::Row> pre) mutable {
          // The pre-read's value only feeds propagation guesses; an
          // unreachable replica (Unavailable after the timeout) must not
          // fail the client's Put — Algorithm 1 issues the Put regardless,
          // and collection proceeds with the versions that did arrive.
          CoordinateWrite(table, key, cells, write_quorum, std::move(reply));
        },
        std::move(on_collected));
  });
}

void Server::HandleClientViewGet(
    const std::string& view_name, const Key& view_key,
    std::vector<ColumnName> columns, int read_quorum, SessionId session,
    ReadConsistency consistency, SimTime max_staleness,
    std::function<void(StatusOr<ViewReadOutcome>)> callback) {
  metrics_->client_view_gets++;
  if (!AcceptsCoordination()) {
    callback(Status::Unavailable("server leaving the ring"));
    return;
  }
  const ViewDef* view = schema_->GetView(view_name);
  if (view == nullptr) {
    callback(Status::NotFound("no view '" + view_name + "'"));
    return;
  }
  if (view_hook_ == nullptr) {
    callback(Status::FailedPrecondition("view engine not installed"));
    return;
  }
  ViewReadSpec spec;
  spec.columns = std::move(columns);
  spec.read_quorum = read_quorum;
  spec.session = session;
  spec.consistency = consistency;
  spec.max_staleness = max_staleness;
  auto reply = WrapReply(std::move(callback));
  Enqueue(config_->perf.coordinator_op,
          [this, view, view_key, spec = std::move(spec),
           reply = std::move(reply)]() mutable {
            view_hook_->HandleViewGet(this, *view, view_key, std::move(spec),
                                      std::move(reply));
          });
}

// ---------------------------------------------------------------------------
// Background anti-entropy.
// ---------------------------------------------------------------------------

void Server::Start() {
  // Capacity slots that never joined (and servers that left) stay silent
  // until ActivateForJoin arms them.
  if (membership_ == MembershipState::kLeft) return;
  ScheduleBackgroundTicks();
}

void Server::ScheduleBackgroundTicks() {
  // Every chain dies with the incarnation that armed it (ArmTick); the
  // anti-entropy chain also ends at drain.
  const std::pair<SimTime, bool (*)(Server&)> ticks[] = {
      {config_->anti_entropy_interval,
       [](Server& s) { return s.AntiEntropyTick(); }},
      {config_->hint_replay_interval,
       [](Server& s) {
         s.ReplayHints();
         return true;
       }},
      {config_->compaction_interval,
       [](Server& s) {
         s.RunCompactionRound();
         return true;
       }},
  };
  for (const auto& [interval, tick] : ticks) {
    if (interval <= 0) continue;
    // Stagger the servers so rounds do not align.
    ArmTick(interval * static_cast<SimTime>(id_ + 1) /
                static_cast<SimTime>(config_->num_servers),
            interval, tick);
  }
}

void Server::ArmTick(SimTime delay, SimTime interval, bool (*tick)(Server&)) {
  // Tick chains belong to one process incarnation: when the server crashes
  // or leaves, the pending chain link notices the incarnation changed and
  // dies; Restart() and ActivateForJoin() arm fresh chains.
  sim_->After(delay, [this, interval, tick, armed_in = incarnation()] {
    if (armed_in == incarnation() && tick(*this)) {
      ArmTick(interval, interval, tick);
    }
  });
}

bool Server::AntiEntropyTick() {
  // A draining server shares no ranges with anyone (it already left the
  // ring); its handoff runs through the decommission syncs instead.
  if (membership_ == MembershipState::kDraining) return false;
  // A joiner's membership syncs bootstrap its ranges; its first round runs
  // when they have all settled (FinishJoin).
  if (membership_ == MembershipState::kServing) RunAntiEntropyRound();
  return true;
}

// ---------------------------------------------------------------------------
// Clock-driven compaction (tombstone GC in the service model).
// ---------------------------------------------------------------------------

void Server::RunCompactionRound() {
  for (const auto& [table, engine] : engines_) {
    storage::Engine* eng = engine.get();
    // Demand scales with the merge width; it contends with foreground work
    // on the same cores (the point of modelling compaction at all).
    const SimTime demand =
        config_->perf.compaction_service *
        static_cast<SimTime>(std::max<std::size_t>(1, eng->num_runs()));
    Enqueue(demand, [this, eng, demand] {
      // Both clocks are evaluated at execution time, not scheduling time:
      // the grace cutoff on the engine's local clock (the one that stamped
      // each tombstone's local deletion time), and the purge floor — in the
      // write-timestamp domain — from whatever hints are STILL pending when
      // the merge actually runs.
      const storage::GcStats stats =
          eng->Compact(sim_->Now(), OldestHintTimestamp());
      metrics_->compactions_run++;
      metrics_->tombstones_purged += stats.tombstones_purged;
      metrics_->tombstone_purge_deferred += stats.tombstones_deferred;
      metrics_->stage_compaction.Record(demand);
    });
  }
}

bool Server::InSyncScope(const std::string& table, const Key& key,
                         ServerId peer, const SyncScope& scope) const {
  if (scope.range) {
    return scope.range->Covers(Ring::TokenOf(PartitionViewFor(table, key)));
  }
  const auto& replicas = ReplicasOf(table, key);
  return std::find(replicas.begin(), replicas.end(), id_) != replicas.end() &&
         std::find(replicas.begin(), replicas.end(), peer) != replicas.end();
}

std::vector<std::uint64_t> Server::ComputeSyncDigests(
    const std::string& table, ServerId peer, const SyncScope& scope) const {
  std::vector<std::uint64_t> digests(kSyncBuckets, 0);
  auto it = engines_.find(table);
  if (it == engines_.end()) return digests;
  // Sum (mod 2^64) of salted entry hashes, folded with the bucket's row
  // count. Addition is commutative, so the digest is still set-like — but
  // unlike the XOR combiner this used to be, it is not a GF(2) linear map:
  // with XOR, any bucket whose entry hashes form a linearly dependent set
  // (guaranteed once a bucket holds > 64 rows, and constructible with far
  // fewer) could cancel to the same digest on two replicas holding
  // DIFFERENT rows, silently skipping the bucket forever.
  std::vector<std::uint64_t> counts(kSyncBuckets, 0);
  it->second->ForEach([&](const Key& key, const storage::Row& row) {
    if (!InSyncScope(table, key, peer, scope)) return;
    const std::uint64_t key_hash = Hash64(key);
    const std::size_t bucket = key_hash % kSyncBuckets;
    digests[bucket] +=
        HashCombine(HashCombine(key_hash, storage::RowDigest(row)),
                    kSyncDigestSalt);
    ++counts[bucket];
  });
  for (std::size_t b = 0; b < digests.size(); ++b) {
    // Empty buckets stay 0 so a server with no engine for the table (all-zero
    // fast path above) agrees with a peer that has the engine but no rows in
    // scope.
    if (counts[b] > 0) digests[b] = HashCombine(digests[b], counts[b]);
  }
  return digests;
}

void Server::ForEachRowInBuckets(
    const std::string& table, ServerId peer, const SyncScope& scope,
    const std::vector<int>& buckets,
    const std::function<void(const Key&, const storage::Row&)>& fn) const {
  auto it = engines_.find(table);
  if (it == engines_.end()) return;
  std::vector<bool> wanted(kSyncBuckets, false);
  for (int bucket : buckets) wanted[static_cast<std::size_t>(bucket)] = true;
  it->second->ForEach([&](const Key& key, const storage::Row& row) {
    const std::size_t bucket = Hash64(key) % kSyncBuckets;
    if (wanted[bucket] && InSyncScope(table, key, peer, scope)) fn(key, row);
  });
}

// A (table, peer) range sync — one anti-entropy exchange, or one membership
// task — runs in three steps:
//   1. the peer compares bucket digests over the keys in scope and answers
//      with its mismatched buckets and the row digest of each of its keys
//      in them;
//   2. this server diffs that key list against its own rows of those
//      buckets and pushes, in chunks, the rows that differ or that the peer
//      lacks, plus the keys only the peer holds;
//   3. the peer applies each chunk and answers with its rows of the keys it
//      holds differently or alone, which this server applies. The peer
//      reads those rows around its row cache, so repair traffic neither
//      evicts client-hot rows nor counts as cache probes.
// Steps 1 and 2 each walk the whole table for their digests and are priced
// one flat `read_local` each; the walks are not yet charged per row. Every
// row applied in step 3, on either side, costs `write_local`, and every
// pulled key a `read_local` on the peer. A sync only ships what differs, so
// re-running one after a lost message ships only what is still missing.
void Server::SyncTableWithPeer(const std::string& table, ServerId peer,
                               const SyncScope& scope,
                               SyncSettled on_settled) {
  std::vector<std::uint64_t> mine = ComputeSyncDigests(table, peer, scope);
  if (!scope.range) metrics_->anti_entropy_digest_exchanges++;
  const ServerId self_id = id_;
  CallPeer<BucketKeyDigests>(
      peer, config_->perf.read_local,
      [table, self_id, scope, mine = std::move(mine)](Server& s) {
        const std::vector<std::uint64_t> theirs =
            s.ComputeSyncDigests(table, self_id, scope);
        BucketKeyDigests reply;
        for (int b = 0; b < kSyncBuckets; ++b) {
          if (mine[static_cast<std::size_t>(b)] !=
              theirs[static_cast<std::size_t>(b)]) {
            reply.buckets.push_back(b);
          }
        }
        if (reply.buckets.empty()) return reply;
        s.ForEachRowInBuckets(
            table, self_id, scope, reply.buckets,
            [&reply](const Key& key, const storage::Row& row) {
              reply.keys.emplace_back(key, storage::RowDigest(row));
            });
        return reply;
      },
      [this, table, peer, scope,
       on_settled = std::move(on_settled)](BucketKeyDigests theirs) mutable {
        if (theirs.buckets.empty()) {
          if (on_settled) on_settled(0);
          return;
        }
        if (!scope.range) {
          metrics_->anti_entropy_buckets_synced += theirs.buckets.size();
        }
        Enqueue(config_->perf.read_local,
                [this, table, peer, scope, theirs = std::move(theirs),
                 on_settled = std::move(on_settled)]() mutable {
                  PushDifferingRows(table, peer, scope, theirs,
                                    std::move(on_settled));
                });
      });
}

void Server::PushDifferingRows(const std::string& table, ServerId peer,
                               const SyncScope& scope,
                               const BucketKeyDigests& theirs,
                               SyncSettled on_settled) {
  const std::size_t cap =
      static_cast<std::size_t>(std::max(1, config_->join_stream_batch));
  std::vector<SyncChunk> chunks(1);
  auto next_entry = [&]() -> SyncChunk& {
    if (chunks.back().rows.size() + chunks.back().pulls.size() == cap) {
      chunks.emplace_back();
    }
    return chunks.back();
  };
  // Both sides list their keys in engine order, so one merge pass sorts
  // every key into ours only, the peer's only, or on both sides.
  auto peer_it = theirs.keys.begin();
  ForEachRowInBuckets(
      table, peer, scope, theirs.buckets,
      [&](const Key& key, const storage::Row& row) {
        for (; peer_it != theirs.keys.end() && peer_it->first < key;
             ++peer_it) {
          next_entry().pulls.push_back(peer_it->first);
        }
        if (peer_it != theirs.keys.end() && peer_it->first == key) {
          const bool same = peer_it->second == storage::RowDigest(row);
          ++peer_it;
          if (same) return;
        }
        next_entry().rows.push_back(storage::KeyedRow{key, row});
      });
  for (; peer_it != theirs.keys.end(); ++peer_it) {
    next_entry().pulls.push_back(peer_it->first);
  }
  if (chunks.back().rows.empty() && chunks.back().pulls.empty()) {
    chunks.pop_back();  // nothing differed after all
  }
  auto tally = std::make_shared<SyncTally>(
      SyncTally{chunks.size(), 0, std::move(on_settled)});
  if (chunks.empty() && tally->on_settled) tally->on_settled(0);
  for (SyncChunk& chunk : chunks) {
    SendSyncChunk(table, peer, scope, std::move(chunk), tally);
  }
}

void Server::SendSyncChunk(const std::string& table, ServerId peer,
                           const SyncScope& scope, SyncChunk chunk,
                           std::shared_ptr<SyncTally> tally) {
  // Membership tasks count their rows apart from anti-entropy repair.
  Counter& shipped = scope.range ? metrics_->member_rows_streamed
                                 : metrics_->anti_entropy_rows_pushed;
  shipped += chunk.rows.size();
  tally->rows += chunk.rows.size();
  const SimTime service =
      config_->perf.write_local * static_cast<SimTime>(chunk.rows.size()) +
      config_->perf.read_local * static_cast<SimTime>(chunk.pulls.size());
  CallPeer<std::vector<storage::KeyedRow>>(
      peer, service,
      [table, chunk = std::move(chunk)](Server& s) {
        return s.ApplySyncChunk(table, chunk);
      },
      [this, table, &shipped,
       tally = std::move(tally)](std::vector<storage::KeyedRow> returned) {
        if (returned.empty()) {
          tally->Close();
          return;
        }
        shipped += returned.size();
        tally->rows += returned.size();
        Enqueue(config_->perf.write_local *
                    static_cast<SimTime>(returned.size()),
                [this, table, tally, returned = std::move(returned)] {
                  for (const auto& kr : returned) {
                    LocalApply(table, kr.key, kr.row);
                  }
                  tally->Close();
                });
      });
}

std::vector<storage::KeyedRow> Server::ApplySyncChunk(const std::string& table,
                                                      const SyncChunk& chunk) {
  storage::Engine& engine = EngineFor(table);
  std::vector<storage::KeyedRow> back;
  for (const auto& kr : chunk.rows) {
    LocalApply(table, kr.key, kr.row);
    // When the pushed row dominated ours, the merge is the pushed row and
    // the initiator already holds it.
    std::optional<storage::Row> merged = engine.GetRowBypassingCache(kr.key);
    if (merged && storage::RowDigest(*merged) != storage::RowDigest(kr.row)) {
      back.push_back(storage::KeyedRow{kr.key, std::move(*merged)});
    }
  }
  for (const Key& key : chunk.pulls) {
    if (std::optional<storage::Row> row = engine.GetRowBypassingCache(key)) {
      back.push_back(storage::KeyedRow{key, std::move(*row)});
    }
  }
  return back;
}

void Server::RunAntiEntropyRound() {
  // Each round is its own root trace: background repair has no client
  // operation to hang off, but its fan-out is still worth reconstructing.
  TraceContext round;
  if (tracer_ != nullptr) {
    round = tracer_->StartTrace("anti_entropy.round", static_cast<int>(id_),
                                sim_->Now());
  }
  Tracer::Scope scope(tracer_, round);
  for (ServerId peer : ring_->members()) {
    // Anti-entropy pairs serving members only: a joiner is still being
    // bootstrapped by its own membership syncs.
    if (peer == id_ || (peers_ != nullptr &&
                        (*peers_)[peer]->membership() !=
                            MembershipState::kServing)) {
      continue;
    }
    for (const auto& [table, engine] : engines_) {
      SyncTableWithPeer(table, peer);
    }
  }
  if (round) tracer_->EndSpan(round, sim_->Now());
}

// ---------------------------------------------------------------------------
// Crash-stop fault model.
// ---------------------------------------------------------------------------

std::uint64_t Server::RegisterInflightOp(
    std::function<void()> abort, std::function<void(ServerId)> retarget) {
  const std::uint64_t op_id = ++next_op_id_;
  inflight_.emplace(op_id, InflightOp{std::move(abort), std::move(retarget)});
  return op_id;
}

void Server::DeregisterInflightOp(std::uint64_t op_id) {
  inflight_.erase(op_id);
}

void Server::Crash() {
  MVSTORE_CHECK(!crashed_) << "server " << id_ << " crashed while down";
  crashed_ = true;
  metrics_->server_crashes++;
  ShutDown();
  // Beyond what every stop loses, a crash loses the memtables (the commit
  // logs and flushed runs are durable).
  for (auto& [table, engine] : engines_) engine->LoseVolatileState();
}

std::size_t Server::ShutDown() {
  // 1. The view engine loses this server's share of its volatile state
  //    (propagation tasks, unattached intents, propagator queues) FIRST, so
  //    the abort callbacks below cannot resurrect work on a dead process.
  if (view_hook_ != nullptr) view_hook_->OnServerDown(this);

  // 2. Abort every in-flight coordinator operation. Internal callers (the
  //    propagation machines, hint replays) get their error callbacks
  //    synchronously; client replies travel through WrapReply -> Enqueue,
  //    which is guarded by the incarnation bump below, so clients learn of
  //    the stop only through their own request timeouts — exactly like a
  //    real silent crash.
  auto aborts = std::move(inflight_);
  inflight_.clear();
  for (auto& [op_id, op] : aborts) op.abort();
  metrics_->inflight_ops_aborted += aborts.size();

  // 3. Volatile work dies with the process: stored hints, the run-queue
  //    backlog and the membership task progress (a restart re-syncs the
  //    durable join/decommission plan, shipping only what is still missing).
  const std::size_t hints_dropped = hints_outstanding();
  hints_.clear();
  queue_.Reset();
  stream_tasks_.clear();

  // 4. Disappear from the network. Bumping the incarnation (a) drops every
  //    in-flight message to/from the dead process at delivery time and
  //    (b) invalidates every closure the old incarnation enqueued.
  network_->BumpIncarnation(id_);
  network_->SetEndpointDown(id_, true);
  return hints_dropped;
}

void Server::Restart() {
  MVSTORE_CHECK(crashed_) << "restart of live server " << id_;
  crashed_ = false;
  metrics_->server_restarts++;

  // Rejoin the ring: the endpoint comes back up under the incarnation
  // Crash() already bumped.
  network_->SetEndpointDown(id_, false);

  // Recovery: replay each table's commit log into the fresh memtable
  // (idempotent under LWW; the log was truncated at the last flush).
  for (auto& [table, engine] : engines_) {
    metrics_->wal_cells_replayed += engine->RecoverFromLog();
  }

  // Catch up with the writes this replica missed while down: re-arm the
  // periodic ticks, then come up (a joiner catches up through its resumed
  // membership syncs below instead of an anti-entropy round).
  ScheduleBackgroundTicks();
  ComeUp();

  // A membership transition interrupted by the crash resumes from its
  // durable plan: every range re-diffs, so the ranges that already landed
  // settle after one digest exchange.
  if (membership_ == MembershipState::kJoining) {
    StreamPlan(join_plan_);
  } else if (membership_ == MembershipState::kDraining) {
    decommission_phase_ = 1;
    StreamPlan(decommission_plan_);
  }
}

void Server::ComeUp() {
  if (membership_ == MembershipState::kServing) RunAntiEntropyRound();
  // The view engine re-scrubs the ranges this server now owns, adopting
  // propagations orphaned by a crash or by an ownership move.
  if (view_hook_ != nullptr) view_hook_->OnServerUp(this);
}

// ---------------------------------------------------------------------------
// Hinted handoff.
// ---------------------------------------------------------------------------

void Server::StoreHint(ServerId target, const std::string& table,
                       const Key& key, const storage::Row& cells) {
  // A write owed to a server on its way out of the ring (or already gone)
  // must not park behind it — the target will never come back for it.
  // Re-coordinate straight to the key's current replicas instead.
  if (peers_ != nullptr) {
    const MembershipState target_state = (*peers_)[target]->membership();
    if (target_state == MembershipState::kDraining ||
        target_state == MembershipState::kLeft) {
      metrics_->member_hints_rerouted++;
      RerouteWriteToCurrentReplicas(table, key, cells);
      return;
    }
  }
  std::deque<Hint>& queue = hints_[target];
  if (queue.size() >= kMaxHintsPerTarget) {
    queue.pop_front();  // oldest first; anti-entropy is the backstop
    metrics_->hints_dropped++;
  }
  Hint hint{table, key, cells, {}};
  if (tracer_ != nullptr) {
    hint.trace = tracer_->current();
    if (hint.trace) {
      TraceContext span = tracer_->StartSpan(
          hint.trace, "hint.stored", static_cast<int>(id_), sim_->Now());
      tracer_->Annotate(span, "target=" + std::to_string(target));
      tracer_->EndSpan(span, sim_->Now());
    }
  }
  queue.push_back(std::move(hint));
  metrics_->hints_stored++;
}

std::size_t Server::pending_hints(ServerId target) const {
  auto it = hints_.find(target);
  return it == hints_.end() ? 0 : it->second.size();
}

void Server::ReplayHints() {
  for (auto& [target, queue] : hints_) {
    if (queue.empty()) continue;
    // The target left the ring since these queued: replaying at it is
    // pointless, move the writes to the keys' current replicas.
    if (peers_ != nullptr && !(*peers_)[target]->is_member()) {
      RerouteHintsFor(target);
      continue;
    }
    // Ship the whole queue; drop it only when the target acknowledges.
    // (Re-delivery after a lost ack is harmless: LWW applies are
    // idempotent.)
    auto batch =
        std::make_shared<std::vector<Hint>>(queue.begin(), queue.end());
    const std::size_t count = batch->size();
    if (tracer_ != nullptr) {
      // Instant markers tie each originating write's trace to the replay
      // attempt that finally delivers it.
      for (const Hint& hint : *batch) {
        if (!hint.trace) continue;
        TraceContext span = tracer_->StartSpan(
            hint.trace, "hint.replay", static_cast<int>(id_), sim_->Now());
        tracer_->Annotate(span, "target=" + std::to_string(target));
        tracer_->EndSpan(span, sim_->Now());
      }
    }
    // The replay is a single-target QuorumOp: it inherits the framework's
    // silence retry, crash abort, and uniform tracing for free.
    const ServerId target_id = target;
    using Op = QuorumOp<bool>;
    Op::Spec spec;
    spec.name = "hint_replay";
    spec.targets = {target_id};
    spec.quorum = 1;
    spec.service = config_->perf.write_local * static_cast<SimTime>(count);
    spec.request = [batch](Server& s) {
      for (const Hint& hint : *batch) {
        s.LocalApply(hint.table, hint.key, hint.cells);
      }
      return true;
    };
    spec.quorum_error = "hint replay unacknowledged";
    spec.on_quorum = [this, target_id, count](Op&) {
      // Acked: retire the replayed prefix (new hints may have queued
      // behind it meanwhile).
      std::deque<Hint>& q = hints_[target_id];
      const std::size_t drop = std::min(count, q.size());
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(drop));
      metrics_->hints_replayed += drop;
    };
    spec.on_error = [](Op&, const Status&) {
      // Target still unreachable: the queue stays put for the next tick.
    };
    Op::Start(this, std::move(spec));
  }
}

// ---------------------------------------------------------------------------
// Elastic membership: join bootstrap, decommission handoff, hint/op fixups.
// ---------------------------------------------------------------------------

void Server::MarkNeverJoined() {
  membership_ = MembershipState::kLeft;
  network_->SetEndpointDown(id_, true);
}

void Server::ActivateForJoin() {
  MVSTORE_CHECK(membership_ == MembershipState::kLeft)
      << "server " << id_ << " cannot join twice";
  MVSTORE_CHECK(!crashed_) << "crashed server " << id_ << " cannot join";
  // Fresh process generation: stale messages addressed to a previous life of
  // this slot (a decommissioned-then-rejoined server) must not deliver.
  network_->BumpIncarnation(id_);
  network_->SetEndpointDown(id_, false);
  membership_ = MembershipState::kJoining;
  metrics_->member_joins_started++;
  if (tracer_ != nullptr) {
    member_trace_ =
        tracer_->StartTrace("member.join", static_cast<int>(id_), sim_->Now());
  }
  ScheduleBackgroundTicks();
}

void Server::BeginJoinStream(std::vector<Ring::RangeTransfer> plan) {
  MVSTORE_CHECK(membership_ == MembershipState::kJoining);
  join_plan_ = std::move(plan);
  StreamPlan(join_plan_);
}

void Server::BeginDecommission(std::vector<Ring::RangeTransfer> plan) {
  MVSTORE_CHECK(membership_ == MembershipState::kServing)
      << "server " << id_ << " is not serving";
  MVSTORE_CHECK(!crashed_);
  membership_ = MembershipState::kDraining;
  decommission_plan_ = std::move(plan);
  metrics_->member_leaves_started++;
  if (tracer_ != nullptr) {
    member_trace_ = tracer_->StartTrace("member.drain", static_cast<int>(id_),
                                        sim_->Now());
  }
  drain_deadline_ = sim_->Now() + config_->decommission_drain_timeout;
  drain_forced_ = false;
  decommission_phase_ = 1;
  StreamPlan(decommission_plan_);
}

void Server::StreamPlan(const std::vector<Ring::RangeTransfer>& plan) {
  stream_tasks_.clear();
  for (const Ring::RangeTransfer& transfer : plan) {
    // No peers: the remaining members already replicate the range (leave at
    // low replication pressure) — nothing to move.
    if (transfer.peers.empty()) continue;
    for (const std::string& table : schema_->TableNames()) {
      if (membership_ == MembershipState::kDraining) {
        // One task per NEW owner — each must receive its own copy.
        for (ServerId owner : transfer.peers) {
          stream_tasks_.emplace(++last_stream_task_,
                                StreamTask{table, transfer.range, {owner}});
        }
      } else {
        // One task per range, rotating through the sources on retry.
        stream_tasks_.emplace(++last_stream_task_,
                              StreamTask{table, transfer.range,
                                         transfer.peers});
      }
    }
  }
  if (stream_tasks_.empty()) {
    EndStreamPlan();
    return;
  }
  // Every task starts now. A sync settles only on a later message, so
  // none of them ends while this loop walks the map.
  for (const auto& [id, task] : stream_tasks_) StartStreamSync(id);
}

void Server::StartStreamSync(std::uint64_t id) {
  StreamTask& task = stream_tasks_.at(id);
  const std::uint64_t seq = ++task.seq;
  const ServerId peer =
      task.peers[static_cast<std::size_t>(task.attempt) % task.peers.size()];
  if (tracer_ != nullptr && member_trace_) {
    task.span = tracer_->StartSpan(member_trace_, "member.stream_range",
                                   static_cast<int>(id_), sim_->Now());
    tracer_->Annotate(task.span,
                      task.table + " peer=" + std::to_string(peer));
  }
  {
    Tracer::Scope scope(tracer_, task.span);
    SyncTableWithPeer(task.table, peer, SyncScope{task.range},
                      [this, id, seq](std::uint64_t rows) {
                        StreamSyncSettled(id, seq, rows);
                      });
  }
  const std::uint64_t incarnation = this->incarnation();
  sim_->After(config_->rpc_timeout, [this, incarnation, id, seq] {
    if (incarnation == this->incarnation()) StreamSyncSilent(id, seq);
  });
}

void Server::StreamSyncSettled(std::uint64_t id, std::uint64_t seq,
                               std::uint64_t rows) {
  auto it = stream_tasks_.find(id);
  // Gone (abandoned, or its plan was replaced) or superseded by a retry.
  if (it == stream_tasks_.end() || it->second.seq != seq) return;
  if (tracer_ != nullptr) {
    tracer_->Annotate(it->second.span, "rows=" + std::to_string(rows));
    tracer_->EndSpan(it->second.span, sim_->Now());
  }
  EndStreamTask(it);
}

void Server::StreamSyncSilent(std::uint64_t id, std::uint64_t seq) {
  auto it = stream_tasks_.find(id);
  // The sync settled (the task is gone) or a retry superseded it.
  if (it == stream_tasks_.end() || it->second.seq != seq) return;
  StreamTask& task = it->second;
  if (tracer_ != nullptr) {
    tracer_->Annotate(task.span, "silent");
    tracer_->EndSpan(task.span, sim_->Now());
  }
  metrics_->member_stream_retries++;
  // A draining server cannot wait forever on an unreachable new owner:
  // past the drain deadline the task is abandoned (the decommission counts
  // as forced) and the surviving replicas' anti-entropy covers the gap once
  // the owner returns. A joiner has no such deadline — it keeps rotating
  // sources until one answers.
  if (membership_ == MembershipState::kDraining &&
      sim_->Now() >= drain_deadline_) {
    CountForcedDrain();
    EndStreamTask(it);
    return;
  }
  // Retry after a linearly growing backoff, against the next candidate
  // source. The retry re-diffs, so it ships only what the peer still lacks;
  // a late settlement of this attempt still ends the task meanwhile.
  const int attempt = ++task.attempt;
  const SimTime backoff =
      kStreamRetryBackoff * static_cast<SimTime>(std::min(attempt, 8));
  const std::uint64_t incarnation = this->incarnation();
  sim_->After(backoff, [this, incarnation, id] {
    if (incarnation == this->incarnation() && stream_tasks_.count(id) != 0) {
      StartStreamSync(id);
    }
  });
}

void Server::EndStreamTask(StreamTasks::iterator task) {
  metrics_->member_ranges_streamed++;
  stream_tasks_.erase(task);
  if (stream_tasks_.empty()) EndStreamPlan();
}

void Server::EndStreamPlan() {
  if (membership_ == MembershipState::kJoining) {
    FinishJoin();
  } else {
    ContinueDecommission();
  }
}

void Server::CountForcedDrain() {
  if (drain_forced_) return;
  drain_forced_ = true;
  metrics_->member_drains_forced++;
}

void Server::FinishJoin() {
  membership_ = MembershipState::kServing;
  join_plan_.clear();
  metrics_->member_joins_completed++;
  if (tracer_ != nullptr && member_trace_) {
    tracer_->EndSpan(member_trace_, sim_->Now());
    member_trace_ = {};
  }
  // Each range sync settled on a snapshot; the first anti-entropy round
  // closes any gap with writes replicated while the bootstrap was in flight.
  ComeUp();
}

void Server::ContinueDecommission() {
  if (decommission_phase_ == 1) {
    // First pass done. Replica writes in flight at the ring change may have
    // landed here after their range synced; a second pass over the same
    // plan ships them, whatever their timestamps.
    decommission_phase_ = 2;
    StreamPlan(decommission_plan_);
  } else if (decommission_phase_ == 2) {
    decommission_phase_ = 3;
    DrainHintsThenLeave();
  }
}

void Server::DrainHintsThenLeave() {
  if (crashed_ || membership_ != MembershipState::kDraining) return;
  if (hints_outstanding() == 0) {
    FinishLeave(/*forced=*/false);
    return;
  }
  if (sim_->Now() >= drain_deadline_) {
    // The deadline expired with hints still owed: the data must not leave
    // with this server, so re-send every queued write to the keys' current
    // replicas and go.
    CountForcedDrain();
    for (const auto& [target, queue] : hints_) RerouteHintsFor(target);
    FinishLeave(/*forced=*/true);
    return;
  }
  ReplayHints();
  const std::uint64_t incarnation = this->incarnation();
  sim_->After(Millis(100), [this, incarnation] {
    if (incarnation == this->incarnation()) DrainHintsThenLeave();
  });
}

void Server::FinishLeave(bool forced) {
  MVSTORE_CHECK(membership_ == MembershipState::kDraining);
  EmitMemberSpan("member.leave",
                 forced ? std::string("forced") : std::string("drained"));
  // Drain already rejected new client coordination; the internal ops still
  // open (hint replays, view maintenance) abort like at a crash.
  const std::size_t hints_dropped = ShutDown();
  MVSTORE_CHECK(forced || hints_dropped == 0)
      << "server " << id_ << " left with hints still owed";
  decommission_plan_.clear();
  decommission_phase_ = 0;
  membership_ = MembershipState::kLeft;
  metrics_->member_leaves_completed++;
  if (tracer_ != nullptr && member_trace_) {
    tracer_->EndSpan(member_trace_, sim_->Now());
    member_trace_ = {};
  }
}

void Server::RerouteWriteToCurrentReplicas(const std::string& table,
                                           const Key& key,
                                           const storage::Row& cells) {
  for (ServerId replica : ReplicasOf(table, key)) {
    if (replica == id_) {
      Enqueue(WriteServiceFor(table, cells),
              [this, table, key, cells] { LocalApply(table, key, cells); });
      continue;
    }
    SendReplicaWrite(replica, table, key, cells, WriteServiceFor(table, cells),
                     [this, replica, table, key, cells](bool acked) {
                       if (!acked) StoreHint(replica, table, key, cells);
                     });
  }
}

void Server::RerouteHintsFor(ServerId departed) {
  auto it = hints_.find(departed);
  if (it == hints_.end() || it->second.empty()) return;
  std::deque<Hint> moved;
  moved.swap(it->second);
  for (const Hint& hint : moved) {
    metrics_->member_hints_rerouted++;
    if (tracer_ != nullptr && hint.trace) {
      TraceContext span = tracer_->StartSpan(
          hint.trace, "hint.rerouted", static_cast<int>(id_), sim_->Now());
      tracer_->Annotate(span, "departed=" + std::to_string(departed));
      tracer_->EndSpan(span, sim_->Now());
    }
    RerouteWriteToCurrentReplicas(hint.table, hint.key, hint.cells);
  }
}

void Server::RetargetInflightOps(ServerId departed) {
  // Snapshot first: a retargeted op may complete synchronously and
  // deregister itself, mutating the map under iteration.
  std::vector<std::function<void(ServerId)>> retargets;
  retargets.reserve(inflight_.size());
  for (const auto& [op_id, op] : inflight_) {
    if (op.retarget) retargets.push_back(op.retarget);
  }
  for (auto& fn : retargets) fn(departed);
}

std::size_t Server::hints_outstanding() const {
  std::size_t total = 0;
  for (const auto& [target, queue] : hints_) total += queue.size();
  return total;
}

void Server::EmitMemberSpan(const char* name, const std::string& note) {
  if (tracer_ == nullptr || !member_trace_) return;
  TraceContext span = tracer_->StartSpan(member_trace_, name,
                                         static_cast<int>(id_), sim_->Now());
  if (!note.empty()) tracer_->Annotate(span, note);
  tracer_->EndSpan(span, sim_->Now());
}

}  // namespace mvstore::store
