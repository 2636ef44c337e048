#include "store/cluster.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "store/client.h"
#include "store/codec.h"

namespace mvstore::store {

namespace {

/// Virtual nodes each server places on the hash ring.
constexpr int kVnodesPerServer = 32;

}  // namespace

Cluster::Cluster(ClusterConfig config, Schema schema)
    : config_(config),
      schema_(std::move(schema)),
      tracer_(config.trace_capacity),
      rng_(HashCombine(config.seed, 0x434C5553 /*"CLUS"*/)),
      ring_(config.num_servers, kVnodesPerServer, config.seed) {
  network_ =
      std::make_unique<sim::Network>(&sim_, rng_.Fork(), config_.network);
  network_->set_tracer(&tracer_);
  network_->set_latency_histogram(&metrics_.stage_network);
  // Provision every capacity slot up front (endpoint numbering is fixed at
  // construction); slots above num_servers start OUTSIDE the ring and wait
  // for JoinServer. With max_servers defaulted to 0 the capacity equals
  // num_servers and the layout is identical to the fixed-membership one.
  const int capacity = std::max(config_.max_servers, config_.num_servers);
  servers_.reserve(static_cast<std::size_t>(capacity));
  for (ServerId id = 0; id < static_cast<ServerId>(capacity); ++id) {
    servers_.push_back(std::make_unique<Server>(id, &sim_, network_.get(),
                                                &schema_, &ring_, &config_,
                                                &metrics_, &tracer_));
  }
  server_ptrs_.reserve(servers_.size());
  for (const auto& server : servers_) server_ptrs_.push_back(server.get());
  for (const auto& server : servers_) server->set_peers(&server_ptrs_);
  for (ServerId id = static_cast<ServerId>(config_.num_servers);
       id < static_cast<ServerId>(capacity); ++id) {
    servers_[id]->MarkNeverJoined();
  }
}

Cluster::~Cluster() = default;

void Cluster::set_view_hook(ViewMaintenanceHook* hook) {
  for (const auto& server : servers_) server->set_view_hook(hook);
}

void Cluster::Start() {
  for (const auto& server : servers_) server->Start();
}

std::unique_ptr<Client> Cluster::NewClient() {
  // Round-robin over the slots, skipping servers that are not (or no
  // longer) serving coordinators.
  return NewClient(PickServingServer(
      static_cast<ServerId>(next_client_ % servers_.size())));
}

ServerId Cluster::PickServingServer(ServerId hint) const {
  const std::size_t n = servers_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const ServerId s =
        static_cast<ServerId>((static_cast<std::size_t>(hint) + i) % n);
    if (servers_[s]->membership() == MembershipState::kServing) return s;
  }
  return hint;
}

bool Cluster::CrashServer(ServerId id) {
  Server& server = *servers_[id];
  if (!server.is_member() || server.crashed()) return false;
  server.Crash();
  return true;
}

bool Cluster::RestartServer(ServerId id) {
  Server& server = *servers_[id];
  if (!server.is_member() || !server.crashed()) return false;
  server.Restart();
  return true;
}

std::optional<ServerId> Cluster::JoinServer() {
  // First kLeft, non-crashed slot (deterministic: lowest id wins).
  ServerId joiner = 0;
  bool found = false;
  for (ServerId id = 0; id < static_cast<ServerId>(servers_.size()); ++id) {
    if (servers_[id]->membership() == MembershipState::kLeft &&
        !servers_[id]->crashed()) {
      joiner = id;
      found = true;
      break;
    }
  }
  if (!found) return std::nullopt;

  // The server comes up first (endpoint live, ticks armed), THEN enters the
  // ring — from that instant it receives replica writes for its ranges — and
  // finally starts streaming the pre-join data behind them.
  servers_[joiner]->ActivateForJoin();
  std::vector<Ring::RangeTransfer> plan =
      ring_.AddServer(joiner, config_.replication_factor);
  servers_[joiner]->BeginJoinStream(std::move(plan));
  return joiner;
}

bool Cluster::DecommissionServer(ServerId id) {
  Server& leaver = *servers_[id];
  if (leaver.membership() != MembershipState::kServing || leaver.crashed()) {
    return false;
  }
  if (ring_.num_servers() - 1 < config_.replication_factor) return false;

  // Tokens go first so every reroute below already sees the shrunk ring.
  std::vector<Ring::RangeTransfer> plan =
      ring_.RemoveServer(id, config_.replication_factor);

  // No member may keep waiting on the leaver: queued hints re-coordinate to
  // the keys' current replicas, and in-flight quorum ops move their
  // unanswered slots off it.
  for (const auto& server : servers_) {
    if (server->id() == id || server->crashed() || !server->is_member()) {
      continue;
    }
    server->RerouteHintsFor(id);
    server->RetargetInflightOps(id);
  }

  leaver.BeginDecommission(std::move(plan));
  return true;
}

std::unique_ptr<Client> Cluster::NewClient(ServerId coordinator) {
  MVSTORE_CHECK_LT(coordinator, servers_.size());
  ++next_client_;
  return std::unique_ptr<Client>(new Client(this, coordinator));
}

void Cluster::BootstrapLoadRow(const std::string& table, const Key& key,
                               const Mutation& mutation, Timestamp ts) {
  const TableDef* def = schema_.GetTable(table);
  MVSTORE_CHECK(def != nullptr) << "bootstrap into unknown table " << table;
  MVSTORE_CHECK(!def->is_view_backing) << "bootstrap base tables only";
  MVSTORE_CHECK_LT(ts, kClientTimestampEpoch)
      << "bootstrap timestamps must stay below the client epoch";

  storage::Row cells;
  for (const auto& [col, value] : mutation) {
    cells.Apply(col, value ? storage::Cell::Live(*value, ts)
                           : storage::Cell::Tombstone(ts));
  }
  for (ServerId replica : servers_[0]->ReplicasOf(table, key)) {
    servers_[replica]->LocalApply(table, key, cells);
    // Applying invalidates the row cache; re-warm so benches start from the
    // hot-replica steady state instead of an artificially cold cache (a
    // no-op when caching is disabled).
    servers_[replica]->WarmRowCache(table, key);
  }

  // Populate each view per Definition 1, mirroring exactly what the
  // propagation engine would produce: a live row under the view-key value
  // when one exists (with a __ds hidden marker when the selection predicate
  // fails), or the hidden sentinel ANCHOR row when the row has no view key —
  // so that every bootstrapped row family is anchored and later update
  // propagations can always find it.
  for (const ViewDef* view : schema_.ViewsOn(table)) {
    auto view_key_cell = cells.Get(view->view_key_column);
    Key view_key;
    Timestamp ts_key;
    if (view_key_cell && !view_key_cell->tombstone) {
      MVSTORE_CHECK(view_key_cell->value.empty() ||
                    view_key_cell->value[0] != kSentinelPrefix)
          << "view key values must not start with the reserved 0x03 byte";
      view_key = view_key_cell->value;
      ts_key = view_key_cell->ts;
    } else {
      view_key = DeletedSentinelViewKey(key);
      ts_key = view_key_cell ? view_key_cell->ts : kNullTimestamp + 1;
    }
    const int shard = ShardOfBaseKey(key, view->shard_count);
    const Key row_key =
        ShardedViewRowKey(view_key, key, shard, view->shard_count);
    storage::Row view_cells;
    view_cells.Apply(kViewBaseKeyColumn, storage::Cell::Live(key, ts_key));
    view_cells.Apply(kViewNextColumn, storage::Cell::Live(view_key, ts_key));
    view_cells.Apply(kViewInitColumn, storage::Cell::Live("1", ts_key));
    for (const ColumnName& col : view->materialized_columns) {
      if (auto cell = cells.Get(col)) view_cells.Apply(col, *cell);
    }
    if (view->selection.has_value()) {
      auto selected = cells.Get(view->selection->column);
      const Timestamp ts_sel = selected ? selected->ts : ts_key;
      view_cells.Apply(kViewSelectionColumn,
                       view->Selects(cells) ? storage::Cell::Tombstone(ts_sel)
                                            : storage::Cell::Live("1", ts_sel));
    }
    for (ServerId replica : servers_[0]->ReplicasOf(view->name, row_key)) {
      servers_[replica]->LocalApply(view->name, row_key, view_cells);
      servers_[replica]->WarmRowCache(view->name, row_key);
    }

    // Every row family's chain originates at the sentinel anchor — an
    // invariant the propagation engine relies on when all of an update's
    // collected pre-images were lost: chasing from the sentinel always
    // reaches the live row. When the view key exists, the anchor is a
    // STALE row pointing at the initial live key (created live above in
    // the key-less case).
    if (!IsSentinelViewKey(view_key)) {
      const Key anchor_key = DeletedSentinelViewKey(key);
      storage::Row anchor;
      anchor.Apply(kViewBaseKeyColumn,
                   storage::Cell::Live(key, kNullTimestamp + 1));
      anchor.Apply(kViewNextColumn,
                   storage::Cell::Live(view_key, kNullTimestamp + 1));
      const Key anchor_row =
          ShardedViewRowKey(anchor_key, key, shard, view->shard_count);
      for (ServerId replica :
           servers_[0]->ReplicasOf(view->name, anchor_row)) {
        servers_[replica]->LocalApply(view->name, anchor_row, anchor);
      }
    }
  }
}

}  // namespace mvstore::store
