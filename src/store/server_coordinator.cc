// Server: client coordination — the entry points and the quorum policies.

#include "store/server.h"

#include <algorithm>
#include <queue>
#include <set>
#include <utility>

#include "common/logging.h"
#include "store/codec.h"
#include "store/quorum_op.h"

namespace mvstore::store {

namespace {

/// Service demand of a full local match-scan over a base table (the
/// bounded-read router's last-resort fallback when no secondary index
/// covers the view key).
constexpr SimTime kBaseScanLocal = Micros(2400);

/// LWW merge of every answered slot's row.
storage::Row MergeRowResponses(
    const std::vector<std::optional<storage::Row>>& responses) {
  storage::Row merged;
  for (const auto& row : responses) {
    if (row) merged.MergeFrom(*row);
  }
  return merged;
}

/// Every answered slot's row, in slot order.
std::vector<storage::Row> AnsweredRows(
    const std::vector<std::optional<storage::Row>>& responses) {
  std::vector<storage::Row> rows;
  for (const auto& row : responses) {
    if (row) rows.push_back(*row);
  }
  return rows;
}

/// Read repair of one replica, for a point read and a scan alike: one
/// message applying `fixes` there at `write_local` per row, each row
/// counted in `read_repairs`.
void PushReadRepair(Server& coord, ServerId replica, const std::string& table,
                    std::vector<storage::KeyedRow> fixes) {
  coord.metrics()->read_repairs += fixes.size();
  const std::uint64_t payloads = fixes.size();
  coord.CallPeer<bool>(
      replica,
      coord.config().perf.write_local * static_cast<SimTime>(payloads),
      [table, fixes = std::move(fixes)](Server& s) {
        for (const auto& kr : fixes) s.LocalApply(table, kr.key, kr.row);
        return true;
      },
      [](bool) {}, payloads);
}

/// The on_error policy of an op whose caller takes the failure as is.
template <typename Op, typename Callback>
std::function<void(Op&, const Status&)> AnswerError(Callback callback) {
  return [callback = std::move(callback)](Op&, const Status& status) {
    callback(status);
  };
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
  // kReadCachedLocal there instead of the full merge.
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
  spec.on_error = AnswerError<Op>(std::move(callback));
  spec.on_settled = [table, key, collect_all = std::move(collect_all)](
                        Op& op, bool aborted) {
    if (!aborted && op.num_responses() > 1) {
      // Read repair: push the merged image to every replica that answered
      // with something older.
      const storage::Row merged = MergeRowResponses(op.responses());
      if (!merged.empty()) {
        for (std::size_t i = 0; i < op.targets().size(); ++i) {
          if (op.responses()[i] && !(*op.responses()[i] == merged)) {
            PushReadRepair(op.coordinator(), op.targets()[i], table,
                           {storage::KeyedRow{key, merged}});
          }
        }
      }
    }
    if (collect_all) collect_all(AnsweredRows(op.responses()));
  };
  Op::Start(this, std::move(spec));
}

// ---------------------------------------------------------------------------
// Quorum write: a QuorumOp policy shipping one replica-write message per
// target. Hinted handoff for unacknowledged targets is the framework's doing
// (the spec carries the hint payload).
// ---------------------------------------------------------------------------

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
  spec.on_error = AnswerError<Op>(std::move(callback));
  Op::Start(this, std::move(spec));
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
  spec.on_error = AnswerError<Op>(std::move(callback));
  spec.on_settled = [collect = std::move(collect_pre_images)](Op& op, bool) {
    collect(AnsweredRows(op.responses()));
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
  spec.on_error = AnswerError<Op>(std::move(callback));
  spec.on_settled = [table, read_quorum](Op& op, bool aborted) {
    // A lone answer has nothing to be repaired against.
    if (aborted || op.num_responses() < std::max(read_quorum, 2)) return;
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
      if (!fixes.empty()) {
        PushReadRepair(op.coordinator(), op.targets()[i], table,
                       std::move(fixes));
      }
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
    std::size_t pending = 0;
    int failed = 0;
    Status first_error = Status::OK();
    std::function<void(StatusOr<ScatterScanResult>)> callback;
  };
  auto gather = std::make_shared<Gather>();
  gather->results.resize(shard_prefixes.size());
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
          } else if (gather->failed++ == 0) {
            gather->first_error = scan.status();
          }
          if (--gather->pending > 0) return;
          const int failed = gather->failed;
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
  // table, visiting and filtering every row — the router's priced-in worst
  // case, far dearer than an index probe.
  spec.service = indexed ? config_->perf.index_scan_local : kBaseScanLocal;
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
  spec.on_error = AnswerError<Op>(std::move(callback));
  Op::Start(this, std::move(spec));
}

// ---------------------------------------------------------------------------
// Client-facing entry points: each runs its own checks and setup inside the
// one admission path.
// ---------------------------------------------------------------------------

template <typename ResultT, typename Admission>
void Server::Admit(Counter& ops, std::function<void(ResultT)> callback,
                   Admission admit) {
  ops++;
  if (!AcceptsCoordination()) {
    callback(Status::Unavailable("server leaving the ring"));
    return;
  }
  StatusOr<Coordination<ResultT>> coordination = admit();
  if (!coordination.ok()) {
    callback(coordination.status());
    return;
  }
  // Assembling the reply charges coordinator service time too, so reply
  // processing contributes to saturation under load.
  std::function<void(ResultT)> reply =
      [this, callback = std::move(callback)](ResultT result) mutable {
        Enqueue(config_->perf.coordinator_op,
                [callback = std::move(callback),
                 result = std::move(result)]() mutable {
                  callback(std::move(result));
                });
      };
  Enqueue(config_->perf.coordinator_op,
          [coordination = std::move(coordination).value(),
           reply = std::move(reply)]() mutable {
            coordination(std::move(reply));
          });
}

void Server::HandleClientGet(
    const std::string& table, const Key& key, std::vector<ColumnName> columns,
    int read_quorum, std::function<void(StatusOr<storage::Row>)> callback) {
  using Result = StatusOr<storage::Row>;
  auto admit = [&]() -> StatusOr<Coordination<Result>> {
    const TableDef* def = schema_->GetTable(table);
    if (def == nullptr) return Status::NotFound("no table '" + table + "'");
    if (def->is_view_backing) {
      return Status::InvalidArgument(
          "use view Get for '" + table + "' (views return record sets)");
    }
    return Coordination<Result>(
        [this, table, key, columns = std::move(columns),
         read_quorum](std::function<void(Result)> reply) mutable {
          CoordinateRead(table, key, std::move(columns), read_quorum,
                         std::move(reply));
        });
  };
  Admit(metrics_->client_gets, std::move(callback), admit);
}

void Server::HandleClientPut(const std::string& table, const Key& key,
                             const Mutation& mutation, Timestamp ts,
                             int write_quorum, SessionId session,
                             std::function<void(Status)> callback) {
  auto admit = [&]() -> StatusOr<Coordination<Status>> {
    const TableDef* def = schema_->GetTable(table);
    if (def == nullptr) return Status::NotFound("no table '" + table + "'");
    if (def->is_view_backing) {
      return Status::InvalidArgument("views are not updateable");
    }
    if (mutation.empty()) return Status::InvalidArgument("empty mutation");

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
          return Status::InvalidArgument(
              "view key values must not start with byte 0x03 (reserved)");
        }
        for (const auto& [col, unused] : mutation) {
          if (view->Affects(col)) {
            affected.push_back(view);
            break;
          }
        }
      }
    }

    if (affected.empty()) {
      return Coordination<Status>(
          [this, table, key, cells,
           write_quorum](std::function<void(Status)> reply) mutable {
            CoordinateWrite(table, key, cells, write_quorum, std::move(reply));
          });
    }

    // Freshness contract: register the pending propagations NOW,
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
      // shared change-set: a Put touching N same-column views does the
      // collection work once, not N times.
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
      return Coordination<Status>(
          [this, table, key, cells, write_quorum,
           read_columns = std::move(read_columns),
           on_collected = std::move(on_collected)](
              std::function<void(Status)> reply) mutable {
            CoordinateReadThenWrite(table, key, std::move(read_columns), cells,
                                    write_quorum, std::move(reply),
                                    std::move(on_collected));
          });
    }

    // Paper-prototype mode: a separate Get (line 2) collects the distinct
    // view-key versions from ALL replicas before the Put (line 3) is issued
    // — the simplest way to have every version in hand when propagation
    // starts, and the reason Figure 5's MV write latency is ~2.5x BT's. (The
    // combined mode above fuses both into one round; see
    // bench/ablation_combined_getput.)
    return Coordination<Status>(
        [this, table, key, cells, write_quorum,
         read_columns = std::move(read_columns),
         on_collected = std::move(on_collected)](
            std::function<void(Status)> reply) mutable {
          CoordinateRead(
              table, key, read_columns, config_->replication_factor,
              [this, table, key, cells, write_quorum,
               reply = std::move(reply)](StatusOr<storage::Row>) mutable {
                // The pre-read's value only feeds propagation guesses; an
                // unreachable replica (Unavailable after the timeout) must
                // not fail the client's Put — Algorithm 1 issues the Put
                // regardless, and collection proceeds with the versions
                // that did arrive.
                CoordinateWrite(table, key, cells, write_quorum,
                                std::move(reply));
              },
              std::move(on_collected));
        });
  };
  Admit(metrics_->client_puts, std::move(callback), admit);
}

void Server::HandleClientViewGet(
    const std::string& view_name, const Key& view_key,
    std::vector<ColumnName> columns, int read_quorum, SessionId session,
    ReadConsistency consistency, SimTime max_staleness,
    std::function<void(StatusOr<ViewReadOutcome>)> callback) {
  using Result = StatusOr<ViewReadOutcome>;
  auto admit = [&]() -> StatusOr<Coordination<Result>> {
    const ViewDef* view = schema_->GetView(view_name);
    if (view == nullptr) {
      return Status::NotFound("no view '" + view_name + "'");
    }
    if (view_hook_ == nullptr) {
      return Status::FailedPrecondition("view engine not installed");
    }
    return Coordination<Result>(
        [this, view, view_key,
         spec = ViewReadSpec{std::move(columns), read_quorum, session,
                             consistency, max_staleness}](
            std::function<void(Result)> reply) mutable {
          view_hook_->HandleViewGet(this, *view, view_key, std::move(spec),
                                    std::move(reply));
        });
  };
  Admit(metrics_->client_view_gets, std::move(callback), admit);
}

void Server::HandleClientIndexGet(
    const std::string& table, const ColumnName& column, const Value& value,
    std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback) {
  using Result = StatusOr<std::vector<storage::KeyedRow>>;
  auto admit = [&]() -> StatusOr<Coordination<Result>> {
    if (schema_->FindIndex(table, column) == nullptr) {
      return Status::NotFound("no index on " + table + "." + column);
    }
    return Coordination<Result>(
        [this, table, column, value](std::function<void(Result)> reply) {
          CoordinateMatchScan(table, column, value, std::move(reply));
        });
  };
  Admit(metrics_->client_index_gets, std::move(callback), admit);
}

}  // namespace mvstore::store
