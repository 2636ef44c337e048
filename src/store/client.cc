#include "store/client.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "store/cluster.h"

namespace mvstore::store {

Client::Client(Cluster* cluster, ServerId coordinator)
    : cluster_(cluster), coordinator_(coordinator) {}

Timestamp Client::NextTimestamp() {
  const Timestamp now = kClientTimestampEpoch + cluster_->simulation().Now();
  last_ts_ = std::max(now, last_ts_ + 1);
  return last_ts_;
}

void Client::BeginSession() { session_ = cluster_->NewSession(); }

int Client::ReadQuorum(int requested) const {
  return requested > 0 ? requested : cluster_->config().default_read_quorum;
}

int Client::WriteQuorum(int requested) const {
  return requested > 0 ? requested : cluster_->config().default_write_quorum;
}

Timestamp Client::ResolveTimestamp(Timestamp ts) {
  return ts == kNullTimestamp ? NextTimestamp() : ts;
}

TraceContext Client::StartOpTrace(const std::string& name,
                                  const TraceContext& parent) {
  Tracer& tracer = cluster_->tracer();
  const int where = static_cast<int>(cluster_->client_endpoint());
  const SimTime now = cluster_->simulation().Now();
  if (parent) return tracer.StartSpan(parent, name, where, now);
  if (!cluster_->config().trace_client_ops) return {};
  return tracer.StartTrace(name, where, now);
}

void Client::SendToCoordinator(std::function<void(Server&)> fn) {
  Server* server = &cluster_->server(coordinator_);
  cluster_->network().Send(cluster_->client_endpoint(), coordinator_,
                           [server, fn = std::move(fn)] { fn(*server); });
}

template <typename ResultT>
std::function<void(ResultT)> Client::ReturnToClient(
    std::function<void(ResultT)> callback, Histogram* latency, TraceContext op,
    SimTime timeout_override) {
  const SimTime start = cluster_->simulation().Now();
  Cluster* cluster = cluster_;
  const ServerId coordinator = coordinator_;
  Tracer* tracer = &cluster_->tracer();

  // At most one of {reply, deadline} reaches the caller: whichever comes
  // first moves the callback out, and the other finds it empty. Moving it
  // out also releases its captures at delivery — the deadline timer still
  // holds the shared slot, but only until its fire time, and empty.
  auto pending =
      std::make_shared<std::function<void(ResultT)>>(std::move(callback));
  const SimTime timeout =
      timeout_override > 0 ? timeout_override : request_timeout_;
  if (timeout > 0) {
    cluster->simulation().After(timeout, [cluster, tracer, op, pending] {
      if (!*pending) return;
      auto deliver = std::exchange(*pending, nullptr);
      if (op) {
        tracer->Annotate(op, "client deadline expired");
        tracer->EndSpan(op, cluster->simulation().Now());
      }
      ResultT result;
      result.status = Status::TimedOut("client request deadline expired");
      result.trace = op.trace;
      deliver(std::move(result));
    });
  }
  return [cluster, tracer, coordinator, start, latency, op,
          pending](ResultT result) mutable {
    cluster->network().Send(
        coordinator, cluster->client_endpoint(),
        [cluster, tracer, start, latency, op, pending,
         result = std::move(result)]() mutable {
          if (!*pending) return;  // deadline already fired
          auto deliver = std::exchange(*pending, nullptr);
          if (latency != nullptr) {
            latency->Record(cluster->simulation().Now() - start);
          }
          if (op) tracer->EndSpan(op, cluster->simulation().Now());
          result.trace = op.trace;
          deliver(std::move(result));
        });
  };
}

// ---------------------------------------------------------------------------
// Canonical options-based operations.
// ---------------------------------------------------------------------------

void Client::Get(const std::string& table, const Key& key,
                 const ReadOptions& options, ReadCallback callback) {
  TraceContext op = StartOpTrace("client.get", options.trace);
  auto reply = ReturnToClient<ReadResult>(std::move(callback),
                                          &cluster_->metrics().get_latency, op,
                                          options.timeout);
  // Base-table reads are bounded by construction when the quorum spans
  // every replica: the scan then cannot miss an acked write, so the result
  // is fresh "as of now". kBoundedStaleness widens the quorum to get there.
  const int replication = cluster_->config().replication_factor;
  int quorum = ReadQuorum(options.quorum);
  if (options.consistency == ReadConsistency::kBoundedStaleness) {
    quorum = replication;
  }
  const bool full_quorum = quorum >= replication;
  Cluster* cluster = cluster_;
  // Adapt the coordinator's reply shape at the coordinator, so one result
  // object travels the return hop.
  auto adapted = [reply = std::move(reply), cluster,
                  full_quorum](StatusOr<storage::Row> row) {
    ReadResult result;
    if (row.ok()) {
      result.row = *std::move(row);
      result.payload = ReadPayload::kRow;
      result.served_by = ServedBy::kBaseScan;
      if (full_quorum) {
        result.freshness =
            kClientTimestampEpoch + cluster->simulation().Now();
      }
    } else {
      result.status = row.status();
    }
    reply(std::move(result));
  };
  Tracer::Scope scope(&cluster_->tracer(), op);
  SendToCoordinator([table, key, columns = options.columns, quorum,
                     adapted = std::move(adapted)](Server& server) mutable {
    server.HandleClientGet(table, key, std::move(columns), quorum,
                           std::move(adapted));
  });
}

void Client::Put(const std::string& table, const Key& key,
                 const Mutation& mutation, const WriteOptions& options,
                 WriteCallback callback) {
  TraceContext op = StartOpTrace("client.put", options.trace);
  auto reply = ReturnToClient<WriteResult>(std::move(callback),
                                           &cluster_->metrics().put_latency,
                                           op, options.timeout);
  const Timestamp resolved = ResolveTimestamp(options.ts);
  auto adapted = [reply = std::move(reply), resolved](Status status) {
    WriteResult result;
    result.status = std::move(status);
    result.ts = resolved;
    reply(std::move(result));
  };
  const int quorum = WriteQuorum(options.quorum);
  const SessionId session = session_;
  Tracer::Scope scope(&cluster_->tracer(), op);
  SendToCoordinator([table, key, mutation, resolved, quorum, session,
                     adapted = std::move(adapted)](Server& server) mutable {
    server.HandleClientPut(table, key, mutation, resolved, quorum, session,
                           std::move(adapted));
  });
}

void Client::Delete(const std::string& table, const Key& key,
                    std::vector<ColumnName> columns,
                    const WriteOptions& options, WriteCallback callback) {
  Mutation mutation;
  for (ColumnName& col : columns) {
    mutation.emplace(std::move(col), std::nullopt);
  }
  Put(table, key, mutation, options, std::move(callback));
}

void Client::Query(const QuerySpec& spec, const ReadOptions& options,
                   ReadCallback callback) {
  switch (spec.kind) {
    case QuerySpec::Kind::kView:
      QueryView(spec, options, std::move(callback));
      return;
    case QuerySpec::Kind::kIndex:
      QueryIndex(spec, options, std::move(callback));
      return;
    case QuerySpec::Kind::kJoin:
      QueryJoin(spec, options, std::move(callback));
      return;
  }
  ReadResult result;
  result.status = Status::InvalidArgument("unknown QuerySpec kind");
  callback(std::move(result));
}

void Client::QueryView(const QuerySpec& spec, const ReadOptions& options,
                       ReadCallback callback) {
  TraceContext op = StartOpTrace("client.view_get", options.trace);
  auto reply = ReturnToClient<ReadResult>(
      std::move(callback), &cluster_->metrics().view_get_latency, op,
      options.timeout);
  auto adapted =
      [reply = std::move(reply)](StatusOr<ViewReadOutcome> outcome) {
        ReadResult result;
        if (outcome.ok()) {
          ViewReadOutcome value = *std::move(outcome);
          result.records = std::move(value.records);
          result.payload = ReadPayload::kRecords;
          result.freshness = value.freshness;
          result.served_by = value.served_by;
        } else {
          result.status = outcome.status();
        }
        reply(std::move(result));
      };
  const int quorum = ReadQuorum(options.quorum);
  const SessionId session = session_;
  // BeginSession() is sugar for read-your-writes: a session-carrying view
  // Get at the default level upgrades to kReadYourWrites.
  ReadConsistency consistency = options.consistency;
  if (consistency == ReadConsistency::kEventual && session != 0) {
    consistency = ReadConsistency::kReadYourWrites;
  }
  const SimTime max_staleness = options.max_staleness;
  Tracer::Scope scope(&cluster_->tracer(), op);
  SendToCoordinator([view = spec.view, view_key = spec.view_key,
                     columns = options.columns, quorum, session, consistency,
                     max_staleness,
                     adapted = std::move(adapted)](Server& server) mutable {
    server.HandleClientViewGet(view, view_key, std::move(columns), quorum,
                               session, consistency, max_staleness,
                               std::move(adapted));
  });
}

void Client::QueryIndex(const QuerySpec& spec, const ReadOptions& options,
                        ReadCallback callback) {
  TraceContext op = StartOpTrace("client.index_get", options.trace);
  auto reply = ReturnToClient<ReadResult>(
      std::move(callback), &cluster_->metrics().index_get_latency, op,
      options.timeout);
  Cluster* cluster = cluster_;
  // The projection is applied HERE — at the coordinator, on the merged
  // broadcast image — never per replica, so the returned columns cannot
  // depend on which index fragments answered (QuerySpec's uniformity rule).
  auto adapted = [reply = std::move(reply), cluster,
                  columns = options.columns](
                     StatusOr<std::vector<storage::KeyedRow>> rows) {
    ReadResult result;
    if (rows.ok()) {
      result.rows = *std::move(rows);
      if (!columns.empty()) {
        for (storage::KeyedRow& kr : result.rows) {
          storage::Row projected;
          for (const ColumnName& col : columns) {
            if (auto cell = kr.row.Get(col); cell && !cell->tombstone) {
              projected.Apply(col, *cell);
            }
          }
          kr.row = std::move(projected);
        }
      }
      result.payload = ReadPayload::kRows;
      result.served_by = ServedBy::kSiPath;
      // The SI is written synchronously with each replica write and the
      // scan contacts every server, so the merged answer is current.
      result.freshness = kClientTimestampEpoch + cluster->simulation().Now();
    } else {
      result.status = rows.status();
    }
    reply(std::move(result));
  };
  Tracer::Scope scope(&cluster_->tracer(), op);
  SendToCoordinator([table = spec.table, column = spec.column,
                     value = spec.value,
                     adapted = std::move(adapted)](Server& server) mutable {
    server.HandleClientIndexGet(table, column, value, std::move(adapted));
  });
}

namespace {

/// Gathers the two sides of a join query and zips them (cross product of
/// the sides' live records, as the paper's join views expose it).
struct JoinQueryState {
  std::optional<ReadResult> left;
  std::optional<ReadResult> right;
  ReadCallback callback;

  void MaybeFinish() {
    if (!left.has_value() || !right.has_value()) return;
    ReadResult result;
    if (!left->ok()) {
      result.status = left->status;
      result.trace = left->trace;
    } else if (!right->ok()) {
      result.status = right->status;
      result.trace = right->trace;
    } else {
      result.joined.reserve(left->records.size() * right->records.size());
      for (const ViewRecord& l : left->records) {
        for (const ViewRecord& r : right->records) {
          result.joined.push_back(JoinedPair{l, r});
        }
      }
      result.payload = ReadPayload::kJoined;
      // A join is only as fresh as its staler side; both sides must have
      // come off the same path for the claim to name one.
      result.freshness = std::min(left->freshness, right->freshness);
      result.served_by = left->served_by;
      result.trace = left->trace;
    }
    callback(std::move(result));
  }
};

}  // namespace

void Client::QueryJoin(const QuerySpec& spec, const ReadOptions& options,
                       ReadCallback callback) {
  auto state = std::make_shared<JoinQueryState>();
  state->callback = std::move(callback);
  // Each side projects its own column set; ReadOptions::columns is ignored
  // for joins (the sides materialize different columns).
  ReadOptions left_options = options;
  left_options.columns = spec.left_columns;
  QueryView(QuerySpec::View(spec.view, spec.view_key), left_options,
            [state](ReadResult result) {
              state->left = std::move(result);
              state->MaybeFinish();
            });
  ReadOptions right_options = options;
  right_options.columns = spec.right_columns;
  QueryView(QuerySpec::View(spec.right_view, spec.view_key), right_options,
            [state](ReadResult result) {
              state->right = std::move(result);
              state->MaybeFinish();
            });
}

// ---------------------------------------------------------------------------
// Canonical synchronous wrappers.
// ---------------------------------------------------------------------------

namespace {

// Drives the simulation until the optional holds a value.
template <typename T>
T Await(sim::Simulation& sim, std::optional<T>& slot) {
  while (!slot.has_value() && sim.Step()) {
  }
  MVSTORE_CHECK(slot.has_value())
      << "simulation ran dry before the operation completed";
  return *std::move(slot);
}

}  // namespace

ReadResult Client::GetSync(const std::string& table, const Key& key,
                           const ReadOptions& options) {
  std::optional<ReadResult> slot;
  Get(table, key, options,
      [&slot](ReadResult result) { slot = std::move(result); });
  return Await(cluster_->simulation(), slot);
}

WriteResult Client::PutSync(const std::string& table, const Key& key,
                            const Mutation& mutation,
                            const WriteOptions& options) {
  std::optional<WriteResult> slot;
  Put(table, key, mutation, options,
      [&slot](WriteResult result) { slot = std::move(result); });
  return Await(cluster_->simulation(), slot);
}

WriteResult Client::DeleteSync(const std::string& table, const Key& key,
                               std::vector<ColumnName> columns,
                               const WriteOptions& options) {
  std::optional<WriteResult> slot;
  Delete(table, key, std::move(columns), options,
         [&slot](WriteResult result) { slot = std::move(result); });
  return Await(cluster_->simulation(), slot);
}

ReadResult Client::QuerySync(const QuerySpec& spec,
                             const ReadOptions& options) {
  std::optional<ReadResult> slot;
  Query(spec, options,
        [&slot](ReadResult result) { slot = std::move(result); });
  return Await(cluster_->simulation(), slot);
}

}  // namespace mvstore::store
