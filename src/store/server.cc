// Server: construction, placement, the in-flight registry, the stop/start
// lifecycle and the background ticks. Each work class has its own file.

#include "store/server.h"

#include <utility>

#include "common/logging.h"
#include "store/codec.h"

namespace mvstore::store {

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

// ---------------------------------------------------------------------------
// The in-flight registry and the crash-stop lifecycle.
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

// ---------------------------------------------------------------------------
// Background ticks.
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
       [](Server& s) {
         // A draining server shares no ranges with anyone (it already left
         // the ring); its handoff runs through the decommission syncs. A
         // joiner's first round runs when its syncs have all settled.
         if (s.membership_ == MembershipState::kDraining) return false;
         if (s.membership_ == MembershipState::kServing) {
           s.RunAntiEntropyRound();
         }
         return true;
       }},
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

}  // namespace mvstore::store
