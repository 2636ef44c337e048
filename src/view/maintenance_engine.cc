#include "view/maintenance_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "storage/cell.h"
#include "store/codec.h"
#include "view/aggregate.h"
#include "view/scrub.h"
#include "view/view_row.h"

namespace mvstore::view {

namespace {
using storage::Cell;
using storage::Row;
}  // namespace

MaintenanceEngine::MaintenanceEngine(store::Cluster* cluster)
    : cluster_(cluster),
      rng_(cluster->ForkRng()),
      locks_(&cluster->simulation(), &cluster->network(),
             cluster->lock_service_endpoint(), Micros(120),
             cluster->config().lock_lease_ttl),
      row_queues_(static_cast<std::size_t>(cluster->num_servers())) {
  locks_.set_expired_counter(&cluster->metrics().locks_expired);
  // Background owned-range scrub: one staggered tick chain per server.
  const SimTime scrub_interval = cluster->config().view_scrub_interval;
  if (scrub_interval > 0) {
    for (int i = 0; i < cluster->num_servers(); ++i) {
      const ServerId server = static_cast<ServerId>(i);
      const SimTime phase =
          scrub_interval * static_cast<SimTime>(i + 1) /
          static_cast<SimTime>(cluster->num_servers());
      cluster_->simulation().After(
          phase, [this, server] { OwnedRangeScrubTick(server); });
    }
  }
  cluster_->set_view_hook(this);
}

std::string MaintenanceEngine::ResourceOf(const PropagationTask& task) {
  std::string resource = task.view->name;
  resource.push_back('\0');
  resource += task.base_key;
  return resource;
}

SimTime MaintenanceEngine::RetryDelay(const PropagationTask& task) const {
  const store::PerfModel& perf = cluster_->config().perf;
  const SimTime delay =
      perf.propagation_retry_delay *
      static_cast<SimTime>(task.attempts + task.infra_failures + 1);
  return std::min(delay, perf.propagation_retry_delay_max);
}

const storage::Cell& MaintenanceEngine::CurrentGuess(
    const PropagationTask& task) const {
  MVSTORE_CHECK(!task.guesses.empty());
  return task.guesses[static_cast<std::size_t>(task.attempts) %
                      task.guesses.size()];
}

SimTime MaintenanceEngine::SampleDispatchDelay() {
  const store::PerfModel& perf = cluster_->config().perf;
  const double sampled = rng_.LogNormal(perf.propagation_dispatch_mu,
                                        perf.propagation_dispatch_sigma);
  return std::clamp(static_cast<SimTime>(sampled),
                    perf.propagation_dispatch_min,
                    perf.propagation_dispatch_max);
}

// ---------------------------------------------------------------------------
// Algorithm 1, lines 5-7: schedule asynchronous propagation.
// ---------------------------------------------------------------------------

std::uint64_t MaintenanceEngine::OnBasePutIssued(
    store::Server* coordinator, const Key& key,
    const std::vector<const store::ViewDef*>& views, Timestamp ts,
    store::SessionId session) {
  // Register the freshness intents NOW — synchronously, before the Put's
  // replica traffic — so a bounded read racing the Put's ack can never miss
  // them. Partitions are unresolved until the pre-image collection settles,
  // so each intent conservatively blocks its whole view.
  const std::uint64_t group_id = ++next_put_group_;
  PutGroup group;
  group.origin = coordinator->id();
  for (const store::ViewDef* view : views) {
    group.intents[view->name] =
        cluster_->freshness().RegisterIntent(view->name, key, ts, session);
  }
  put_groups_.emplace(group_id, std::move(group));
  return group_id;
}

void MaintenanceEngine::OnBasePutCommitted(
    store::Server* coordinator, const Key& base_key,
    const storage::Row& written, std::vector<store::CollectedViewKeys> views,
    std::uint64_t put_group) {
  // Claim the intent group registered at Put issue. A missing group means
  // the origin crashed (or left) in the issue->collection window and the
  // cleanup already wounded its intents: intent_of then yields 0, and every
  // tracker call below no-ops.
  std::map<std::string, std::uint64_t> intents;
  if (auto it = put_groups_.find(put_group); it != put_groups_.end()) {
    intents = std::move(it->second.intents);
    put_groups_.erase(it);
  }
  auto intent_of = [&intents](const std::string& view_name) -> std::uint64_t {
    auto it = intents.find(view_name);
    return it == intents.end() ? 0 : it->second;
  };

  // Tasks that survive the per-view checks below. The whole group shares
  // ONE dispatch delay (sampled after the loop): a Put touching N views is
  // maintained in a single maintenance round, extending the same-row
  // coalescing of PR 3 across views of the same change-set.
  std::vector<std::shared_ptr<PropagationTask>> group_tasks;
  for (store::CollectedViewKeys& collected : views) {
    const store::ViewDef* view = collected.view;
    const std::uint64_t intent = intent_of(view->name);
    auto task = std::make_shared<PropagationTask>();
    task->id = ++next_task_id_;
    task->view = view;
    task->base_key = base_key;
    if (auto cell = written.Get(view->view_key_column)) {
      task->view_key_update = *cell;
    }
    for (const ColumnName& col : view->materialized_columns) {
      if (auto cell = written.Get(col)) {
        task->materialized_updates.Apply(col, *cell);
      }
    }
    if (!task->view_key_update && task->materialized_updates.empty()) {
      // Put did not actually touch this view: the intent settles with no
      // freshness effect.
      cluster_->freshness().Discard(intent);
      continue;
    }
    if (coordinator->crashed()) {
      // The coordinator died between committing the Put and scheduling the
      // propagation (the abort path still delivers the collected pre-images).
      // The base update is durable on its replicas but nobody will propagate
      // it — orphaned until the owned-range scrub re-derives the view row.
      // (The intent was already wounded by OnServerCrash's group cleanup,
      // so the MarkWounded here is a no-op on the usual path.)
      cluster_->freshness().MarkWounded(intent);
      cluster_->metrics().propagations_orphaned++;
      continue;
    }
    task->freshness_intent = intent;
    // Narrow the intent to the partitions this write can actually land in:
    // the written view key plus every collected pre-image. An empty set
    // (nothing collected, no key written) keeps blocking the whole view.
    {
      std::set<Key> partitions;
      if (task->view_key_update && !task->view_key_update->tombstone &&
          !task->view_key_update->value.empty()) {
        partitions.insert(task->view_key_update->value);
      }
      for (const Cell& guess : collected.old_keys) {
        if (!guess.IsNull() && !guess.tombstone && !guess.value.empty()) {
          partitions.insert(guess.value);
        }
      }
      cluster_->freshness().ResolvePartitions(intent, std::move(partitions));
    }
    // Prefer recent guesses: the newest pre-image is most likely to be the
    // current live key (the coordinator "is free to try the keys in any
    // order").
    task->guesses = std::move(collected.old_keys);
    task->full_collection = collected.full_collection;
    std::sort(task->guesses.begin(), task->guesses.end(),
              [](const Cell& a, const Cell& b) { return a.ts > b.ts; });
    task->origin = coordinator->id();
    task->put_group = put_group;
    task->created_at = cluster_->simulation().Now();
    // The task's lifetime span hangs off the Put's trace (we run inside the
    // collection continuation, which the coordinator scoped to the Put's
    // operation context). It stays open across dispatch delays and retries
    // until the task completes, is abandoned, or is orphaned.
    {
      Tracer& tracer = cluster_->tracer();
      task->trace = tracer.StartSpan(tracer.current(),
                                     "view.propagate " + view->name,
                                     static_cast<int>(task->origin),
                                     task->created_at);
    }

    cluster_->metrics().propagations_started++;
    ++active_;
    RegisterTask(task);

    // Propagation coalescing: a pending same-row, same-origin task that has
    // not started writing absorbs this update — both propagate in ONE
    // maintenance round instead of two conflicting ones (the conflicts are
    // exactly what Figure 8's retry storms are made of).
    const std::string resource = ResourceOf(*task);
    auto anchor = coalesce_anchor_.find(resource);
    if (anchor != coalesce_anchor_.end() &&
        CanAbsorb(*anchor->second, *task)) {
      AbsorbTask(anchor->second, task);
      continue;  // no dispatch: the task settles with its winner
    }
    coalesce_anchor_[resource] = task;

    group_tasks.push_back(std::move(task));
  }

  if (group_tasks.empty()) return;
  if (group_tasks.size() > 1) cluster_->metrics().prop_multi_view_groups++;
  // One delay for the whole change-set: the views of a multi-view Put enter
  // maintenance together rather than straggling in independently.
  const SimTime delay = SampleDispatchDelay();
  for (std::shared_ptr<PropagationTask>& task : group_tasks) {
    switch (cluster_->config().propagation_mode) {
      case store::PropagationMode::kLockService:
        cluster_->simulation().After(
            delay, [this, task] { RunWithLocks(task); });
        break;
      case store::PropagationMode::kDedicatedPropagators:
        cluster_->simulation().After(
            delay, [this, task] { EnqueueOnPropagator(task); });
        break;
      case store::PropagationMode::kUnsynchronized:
        cluster_->simulation().After(
            delay, [this, task] { RunUnsynchronized(task); });
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Attempt outcome handling (shared by both concurrency-control modes).
// ---------------------------------------------------------------------------

void MaintenanceEngine::OnAttemptDone(
    std::shared_ptr<PropagationTask> task, Status status,
    std::function<void(bool)> then) {
  if (task->orphaned) return;  // executor crashed; bookkeeping already done
  if (status.ok()) {
    TaskCompleted(task);
    then(true);
    return;
  }
  cluster_->metrics().propagation_failures++;
  if (status.IsAborted()) {
    task->attempts++;  // rotate to the next guess
  } else {
    task->infra_failures++;  // same guess: redo the idempotent sequence
  }
  if (task->attempts >= kMaxAttempts || task->infra_failures >= kMaxAttempts) {
    TaskAbandoned(task);
    then(true);
    return;
  }
  // After cycling through every guess once, refresh the guesses from the
  // base row: concurrent updates may have propagated meanwhile and their
  // keys now exist in the view (Section IV-D's progress argument).
  if (status.IsAborted() &&
      task->attempts % static_cast<int>(task->guesses.size()) == 0) {
    RefreshGuesses(task, [then] { then(false); });
    return;
  }
  then(false);
}

void MaintenanceEngine::RefreshGuesses(std::shared_ptr<PropagationTask> task,
                                       std::function<void()> then) {
  // Read from the executing server (== the origin except in dedicated-
  // propagator mode, where a handed-off task outlives its origin).
  Tracer::Scope scope(&cluster_->tracer(), task->trace);
  store::Server& origin = cluster_->server(ExecutorOf(*task));
  origin.CoordinateRead(
      task->view->base_table, task->base_key,
      {task->view->view_key_column}, origin.MajorityQuorum(),
      [](StatusOr<storage::Row>) {},
      [task, then = std::move(then),
       n = cluster_->config().replication_factor](
          std::vector<storage::Row> replicas) {
        if (static_cast<int>(replicas.size()) == n) {
          task->full_collection = true;
        }
        for (const storage::Row& row : replicas) {
          Cell cell;
          if (auto c = row.Get(task->view->view_key_column)) cell = *c;
          // Never chase our OWN write read back from the base table: before
          // this task completes, chasing it can only land on this task's
          // own partial debris (case-2c shortcut) instead of the real live
          // row.
          if (task->view_key_update && cell.ts == task->view_key_update->ts &&
              cell.tombstone == task->view_key_update->tombstone &&
              cell.value == task->view_key_update->value) {
            continue;
          }
          const bool known =
              std::any_of(task->guesses.begin(), task->guesses.end(),
                          [&cell](const Cell& g) {
                            return g.ts == cell.ts && g.value == cell.value &&
                                   g.tombstone == cell.tombstone;
                          });
          if (!known) task->guesses.push_back(cell);
        }
        then();
      });
}

// ---------------------------------------------------------------------------
// Retry parking lot (the two Section IV-F modes): a failed propagation
// almost always failed because a SAME-ROW update has not propagated yet, so
// instead of polling on a timer it parks until a same-row propagation
// completes. A fallback timer guards liveness (e.g. the dependency was
// abandoned, or lives on another row family after a refresh).
// The paper-prototype (unsynchronized) mode deliberately keeps plain timer
// retries — its retry traffic is part of what Figure 8 measures.
// ---------------------------------------------------------------------------

void MaintenanceEngine::DispatchTask(std::shared_ptr<PropagationTask> task) {
  if (task->orphaned) return;
  switch (cluster_->config().propagation_mode) {
    case store::PropagationMode::kLockService:
      RunWithLocks(std::move(task));
      break;
    case store::PropagationMode::kDedicatedPropagators:
      EnqueueOnPropagator(std::move(task));
      break;
    case store::PropagationMode::kUnsynchronized:
      RunUnsynchronized(std::move(task));
      break;
  }
}

void MaintenanceEngine::ParkForRetry(const std::string& resource,
                                     std::shared_ptr<PropagationTask> task) {
  if (task->orphaned) return;
  task->parked = true;
  parked_[resource].push_back(task);
  cluster_->simulation().After(RetryDelay(*task), [this, task, resource] {
    if (!task->parked) return;  // already woken by a completion
    task->parked = false;
    auto it = parked_.find(resource);
    if (it != parked_.end()) {
      auto& tasks = it->second;
      tasks.erase(std::remove(tasks.begin(), tasks.end(), task), tasks.end());
      if (tasks.empty()) parked_.erase(it);
    }
    DispatchTask(task);
  });
}

void MaintenanceEngine::WakeParked(const std::string& resource) {
  auto it = parked_.find(resource);
  if (it == parked_.end()) return;
  std::vector<std::shared_ptr<PropagationTask>> tasks = std::move(it->second);
  parked_.erase(it);
  for (auto& task : tasks) {
    if (!task->parked) continue;
    task->parked = false;
    DispatchTask(task);
  }
}

// ---------------------------------------------------------------------------
// Propagation coalescing: pending same-row tasks collapse into one round.
// ---------------------------------------------------------------------------

bool MaintenanceEngine::CanAbsorb(const PropagationTask& winner,
                                  const PropagationTask& task) const {
  // Merging is only safe while the winner's payload is still inert: no
  // attempt running (its quorum writes would not carry the merged cells
  // atomically), no timed-out attempt in limbo (an infra failure may have
  // landed partial writes derived from the pre-merge payload — those must
  // be redone verbatim, see PropagationTask::infra_failures). The origin
  // must match so executor placement and crash semantics stay aligned;
  // and a shared-lock (materialized-only) round
  // must not silently grow a view-key update it requested no exclusive
  // lock for.
  return !winner.orphaned && !winner.in_attempt &&
         winner.infra_failures == 0 && winner.origin == task.origin &&
         (winner.view_key_update.has_value() ||
          !task.view_key_update.has_value());
}

void MaintenanceEngine::AbsorbTask(
    const std::shared_ptr<PropagationTask>& winner,
    const std::shared_ptr<PropagationTask>& task) {
  cluster_->metrics().prop_batched++;
  // The winner's (pre-merge) view-key write is superseded below if the
  // newcomer's is newer; either way it never reached the view, so the
  // newcomer's pre-image of it must not become a guess to chase. The
  // comparison must be storage::Supersedes, not a bare timestamp test:
  // distinct clients can issue view-key writes at the SAME timestamp, and
  // the base table resolves that tie by the cell ordering — if the merge
  // kept the other cell, the coalesced round would propagate a key the
  // base table's LWW already discarded and the view would converge to the
  // wrong live row.
  const std::optional<Cell> own_write = winner->view_key_update;
  if (task->view_key_update &&
      (!winner->view_key_update ||
       storage::Supersedes(*task->view_key_update,
                           *winner->view_key_update))) {
    winner->view_key_update = task->view_key_update;
  }
  winner->materialized_updates.MergeFrom(task->materialized_updates);
  for (const Cell& guess : task->guesses) {
    if (own_write && guess.ts == own_write->ts &&
        guess.value == own_write->value &&
        guess.tombstone == own_write->tombstone) {
      continue;
    }
    const bool known = std::any_of(
        winner->guesses.begin(), winner->guesses.end(),
        [&guess](const Cell& g) {
          return g.ts == guess.ts && g.value == guess.value &&
                 g.tombstone == guess.tombstone;
        });
    if (!known) winner->guesses.push_back(guess);
  }
  // Mirror the winner's handoff state so a crash dooms or spares them
  // together (dedicated-propagator mode).
  task->handed_off = winner->handed_off;
  winner->absorbed.push_back(task);
  if (task->trace) {
    cluster_->tracer().Annotate(
        task->trace,
        "coalesced into propagation #" + std::to_string(winner->id));
  }
}

void MaintenanceEngine::FinishAbsorbed(
    const std::shared_ptr<PropagationTask>& winner, bool completed) {
  for (const auto& task : winner->absorbed) {
    if (task->orphaned) continue;  // crash bookkeeping already settled it
    if (completed) {
      cluster_->metrics().propagations_completed++;
      cluster_->metrics().propagation_delay.Record(
          cluster_->simulation().Now() - task->created_at);
      cluster_->tracer().EndSpan(task->trace, cluster_->simulation().Now());
    } else {
      cluster_->metrics().propagations_abandoned++;
      if (task->trace) {
        cluster_->tracer().Annotate(task->trace, "abandoned");
        cluster_->tracer().EndSpan(task->trace, cluster_->simulation().Now());
      }
    }
    --active_;
    UnregisterTask(task);
    NotifyOrigin(task, completed);
  }
  winner->absorbed.clear();
}

void MaintenanceEngine::TaskCompleted(
    const std::shared_ptr<PropagationTask>& task) {
  cluster_->metrics().propagations_completed++;
  cluster_->metrics().propagation_delay.Record(
      cluster_->simulation().Now() - task->created_at);
  cluster_->tracer().EndSpan(task->trace, cluster_->simulation().Now());
  --active_;
  UnregisterTask(task);
  NotifyOrigin(task, /*completed=*/true);
  GossipFreshness(task);
  FinishAbsorbed(task, /*completed=*/true);
  WakeParked(ResourceOf(*task));
}

void MaintenanceEngine::TaskAbandoned(
    const std::shared_ptr<PropagationTask>& task) {
  // Under pathological conflict rates (Figure 8 at range 1) thousands of
  // tasks can exhaust their budgets; log the first few and then sample.
  const std::uint64_t n = ++cluster_->metrics().propagations_abandoned;
  if (n <= 3 || n % 1000 == 0) {
    MVSTORE_LOG(Warning) << "abandoning propagation of base key '"
                         << task->base_key << "' to view '"
                         << task->view->name << "' after " << task->attempts
                         << " guess attempts (+" << task->infra_failures
                         << " infra retries); " << n
                         << " abandoned so far (view scrub/repair recovers)";
  }
  if (task->trace) {
    cluster_->tracer().Annotate(task->trace, "abandoned");
    cluster_->tracer().EndSpan(task->trace, cluster_->simulation().Now());
  }
  --active_;
  UnregisterTask(task);
  NotifyOrigin(task, /*completed=*/false);
  FinishAbsorbed(task, /*completed=*/false);
}

// ---------------------------------------------------------------------------
// Crash-stop fault model: eager orphaning of a crashed server's tasks, and
// owned-range scrub as the recovery path.
// ---------------------------------------------------------------------------

ServerId MaintenanceEngine::ExecutorOf(const PropagationTask& task) const {
  if (cluster_->config().propagation_mode ==
      store::PropagationMode::kDedicatedPropagators) {
    return cluster_->ring().PrimaryFor(task.base_key);
  }
  return task.origin;
}

void MaintenanceEngine::RegisterTask(
    const std::shared_ptr<PropagationTask>& task) {
  live_tasks_.emplace(task->id, task);
  active_per_resource_[ResourceOf(*task)]++;
}

void MaintenanceEngine::UnregisterTask(
    const std::shared_ptr<PropagationTask>& task) {
  live_tasks_.erase(task->id);
  const std::string resource = ResourceOf(*task);
  auto it = active_per_resource_.find(resource);
  if (it != active_per_resource_.end() && --it->second <= 0) {
    active_per_resource_.erase(it);
  }
  auto anchor = coalesce_anchor_.find(resource);
  if (anchor != coalesce_anchor_.end() && anchor->second == task) {
    coalesce_anchor_.erase(anchor);
  }
}

void MaintenanceEngine::OrphanTask(
    const std::shared_ptr<PropagationTask>& task) {
  if (task->orphaned) return;
  task->orphaned = true;
  cluster_->metrics().propagations_orphaned++;
  if (task->trace) {
    cluster_->tracer().Annotate(task->trace, "orphaned by crash");
    cluster_->tracer().EndSpan(task->trace, cluster_->simulation().Now());
  }
  --active_;
  UnregisterTask(task);
  if (task->parked) {
    task->parked = false;
    auto it = parked_.find(ResourceOf(*task));
    if (it != parked_.end()) {
      auto& tasks = it->second;
      tasks.erase(std::remove(tasks.begin(), tasks.end(), task), tasks.end());
      if (tasks.empty()) parked_.erase(it);
    }
  }
  // Wound the intent: the write may or may not be in the view, so reads
  // that must reflect it stay blocked until a family audit proves
  // convergence — the ladder's targeted repair, or the owned-range scrub.
  cluster_->freshness().MarkWounded(task->freshness_intent);
  // Tasks absorbed into this one died with it (the flag guard above makes
  // this idempotent against OnServerCrash orphaning them directly).
  for (const auto& absorbed : task->absorbed) OrphanTask(absorbed);
  task->absorbed.clear();
}

void MaintenanceEngine::OnServerCrash(store::Server* server) {
  const ServerId id = server->id();
  const bool dedicated = cluster_->config().propagation_mode ==
                         store::PropagationMode::kDedicatedPropagators;
  // Volatile task state on `id` dies: tasks executing there, and — in
  // dedicated mode — tasks born at `id` that never reached their propagator
  // (the in-flight handoff message is dropped by the incarnation bump).
  std::vector<std::shared_ptr<PropagationTask>> doomed;
  for (const auto& [task_id, task] : live_tasks_) {
    if (ExecutorOf(*task) == id ||
        (dedicated && !task->handed_off && task->origin == id)) {
      doomed.push_back(task);
    }
  }
  for (const auto& task : doomed) OrphanTask(task);
  // Intents registered at Put issue on `id` but not yet attached to a task
  // (the issue->collection window) die with the coordinator: wound them so
  // bounded reads stay honest until the families are audited.
  for (auto it = put_groups_.begin(); it != put_groups_.end();) {
    if (it->second.origin == id) {
      for (const auto& [view_name, intent] : it->second.intents) {
        cluster_->freshness().MarkWounded(intent);
      }
      it = put_groups_.erase(it);
    } else {
      ++it;
    }
  }
  row_queues_[id].clear();
}

void MaintenanceEngine::OnServerRestart(store::Server* server) {
  cluster_->metrics().orphaned_propagations_recovered +=
      RunOwnedRangeScrub(server->id());
}

void MaintenanceEngine::OnServerJoin(store::Server* server) {
  // Ownership of base-key ranges moved onto the joiner: re-derive view
  // state for what it now primarily owns, adopting any family orphaned by
  // the ownership move (a dedicated task that re-homed mid-flight).
  cluster_->metrics().orphaned_propagations_recovered +=
      RunOwnedRangeScrub(server->id());
}

void MaintenanceEngine::OnServerLeave(store::Server* server) {
  const ServerId id = server->id();
  const bool dedicated = cluster_->config().propagation_mode ==
                         store::PropagationMode::kDedicatedPropagators;
  // Like a crash, the leaver's volatile share dies — but the ring has
  // ALREADY dropped it, so ExecutorOf points at the ranges' new primaries
  // and cannot name what still physically runs here. Sweep by where work
  // actually is: tasks originated here that never handed off (the handoff
  // message dies with this endpoint's incarnation), attempts pumped on this
  // propagator (executed_on), and its still-queued row queues. Handed-off
  // tasks of this ORIGIN keep running elsewhere — their completion notice
  // to the dead origin just drops, like after an origin crash.
  std::vector<std::shared_ptr<PropagationTask>> doomed;
  for (const auto& [task_id, task] : live_tasks_) {
    if (dedicated) {
      if ((!task->handed_off && task->origin == id) ||
          (task->in_attempt && task->executed_on == id)) {
        doomed.push_back(task);
      }
    } else if (task->origin == id) {
      doomed.push_back(task);
    }
  }
  for (const auto& [resource, queue] : row_queues_[id]) {
    for (const auto& task : queue.tasks) doomed.push_back(task);
  }
  for (const auto& task : doomed) OrphanTask(task);
  // Same unattached-intent cleanup as a crash: the leaver's issue-window
  // intents will never attach to a task.
  for (auto it = put_groups_.begin(); it != put_groups_.end();) {
    if (it->second.origin == id) {
      for (const auto& [view_name, intent] : it->second.intents) {
        cluster_->freshness().MarkWounded(intent);
      }
      it = put_groups_.erase(it);
    } else {
      ++it;
    }
  }
  row_queues_[id].clear();
  // Recovery of the orphaned families follows the same path as after a
  // crash: every one of them has a (new) primary owner in the ring, whose
  // periodic owned-range scrub re-derives the view rows. Clusters that
  // churn membership should therefore run with view_scrub_interval > 0,
  // exactly like clusters that crash servers.
}

std::size_t MaintenanceEngine::RunOwnedRangeScrub(ServerId server) {
  std::size_t recovered = 0;
  for (const std::string& table : cluster_->schema().TableNames()) {
    for (const store::ViewDef* view : cluster_->schema().ViewsOn(table)) {
      recovered += ScrubOwnedRanges(
          *cluster_, *view, server,
          [this, view](const Key& base_key) {
            std::string resource = view->name;
            resource.push_back('\0');
            resource += base_key;
            return active_per_resource_.count(resource) != 0;
          },
          [this, view](const Key& base_key) {
            // The audit proved the family matches Definition 1: clear its
            // intents — wounded blockers, and dead bookkeeping whose
            // completion notice was lost (ISSUE 7).
            cluster_->freshness().FamilyAudited(view->name, base_key);
          });
    }
  }
  return recovered;
}

void MaintenanceEngine::OwnedRangeScrubTick(ServerId server) {
  if (!cluster_->server(server).crashed() &&
      cluster_->server(server).is_member()) {
    cluster_->metrics().orphaned_propagations_recovered +=
        RunOwnedRangeScrub(server);
  }
  cluster_->simulation().After(
      cluster_->config().view_scrub_interval,
      [this, server] { OwnedRangeScrubTick(server); });
}

void MaintenanceEngine::NotifyOrigin(
    const std::shared_ptr<PropagationTask>& task, bool completed) {
  // Intent bookkeeping lives with the origin's tracker shard; in dedicated-
  // propagator mode the settlement notice crosses the network and can be
  // lost to an origin crash, in which case the next family audit clears the
  // intent.
  const std::uint64_t intent = task->freshness_intent;
  if (intent == 0) return;
  store::FreshnessTracker* tracker = &cluster_->freshness();
  auto settle = [tracker, intent, completed] {
    if (completed) {
      tracker->MarkApplied(intent);
    } else {
      tracker->MarkWounded(intent);
    }
  };
  if (cluster_->config().propagation_mode !=
      store::PropagationMode::kDedicatedPropagators) {
    // Lock-service and unsynchronized modes execute on the origin itself.
    settle();
    return;
  }
  cluster_->network().Send(cluster_->ring().PrimaryFor(task->base_key),
                           task->origin, std::move(settle));
}

// ---------------------------------------------------------------------------
// Paper-prototype mode: coordinator-driven propagation with NO concurrency
// control. Conflicting propagations to the same base row may interleave —
// acceptable when view-key conflicts are rare, and exactly the behaviour
// Figure 8 measures under skew (retry storms from unpropagated guesses).
// ---------------------------------------------------------------------------

void MaintenanceEngine::RunUnsynchronized(
    std::shared_ptr<PropagationTask> task) {
  if (task->orphaned) return;
  store::Server* executor = &cluster_->server(task->origin);
  // Attempts run under the task's span (dispatch arrived via a bare timer,
  // which carries no ambient context).
  Tracer::Scope scope(&cluster_->tracer(), task->trace);
  task->in_attempt = true;
  task->executed_on = task->origin;
  Propagation::Run(executor, task, CurrentGuess(*task),
                   [this, task](Status status) {
                     task->in_attempt = false;
                     OnAttemptDone(task, std::move(status),
                                   [this, task](bool done) {
                                     if (done) return;
                                     cluster_->simulation().After(
                                         RetryDelay(*task), [this, task] {
                                           RunUnsynchronized(task);
                                         });
                                   });
                   });
}

// ---------------------------------------------------------------------------
// Section IV-F mode 1: coordinator-driven propagation under a lock service.
// ---------------------------------------------------------------------------

void MaintenanceEngine::RunWithLocks(std::shared_ptr<PropagationTask> task) {
  if (task->orphaned) return;
  store::Server* executor = &cluster_->server(task->origin);
  task->executed_on = task->origin;
  const std::string resource = ResourceOf(*task);
  const LockMode mode = task->view_key_update.has_value()
                            ? LockMode::kExclusive
                            : LockMode::kShared;
  Tracer::Scope scope(&cluster_->tracer(), task->trace);
  TraceContext lock_wait;
  if (!locks_.WouldGrantImmediately(resource, mode)) {
    cluster_->metrics().lock_waits++;
    // The wait span runs from the acquire request to the grant, making the
    // time spent queued behind a rival propagation visible in the trace.
    lock_wait = cluster_->tracer().StartSpan(
        task->trace, "view.lock_wait", static_cast<int>(executor->id()),
        cluster_->simulation().Now());
  }
  locks_.Acquire(
      executor->id(), resource, mode,
      [this, task, executor, resource, mode, lock_wait] {
        if (lock_wait) {
          cluster_->tracer().EndSpan(lock_wait, cluster_->simulation().Now());
        }
        if (task->orphaned) {
          // The grant reached a crashed requester: the dead process cannot
          // release, so the hold stays registered at the service until its
          // lease expires (counted in Metrics::locks_expired).
          return;
        }
        Tracer::Scope attempt_scope(&cluster_->tracer(), task->trace);
        task->in_attempt = true;
        Propagation::Run(
            executor, task, CurrentGuess(*task),
            [this, task, executor, resource, mode](Status status) {
              task->in_attempt = false;
              if (task->orphaned) {
                // Crashed mid-attempt: the Release below is never sent —
                // lease expiry reclaims the hold.
                return;
              }
              // Release between attempts: holding the lock across a retry
              // would deadlock against the very propagation this one is
              // waiting for.
              locks_.Release(executor->id(), resource, mode);
              OnAttemptDone(task, std::move(status),
                            [this, task, resource](bool done) {
                              if (done) return;
                              ParkForRetry(resource, task);
                            });
            });
      });
}

// ---------------------------------------------------------------------------
// Section IV-F mode 2: dedicated propagators chosen by consistent hashing of
// the base key; per-(view, base key) FIFO execution.
// ---------------------------------------------------------------------------

void MaintenanceEngine::EnqueueOnPropagator(
    std::shared_ptr<PropagationTask> task) {
  if (task->orphaned) return;
  const ServerId propagator = cluster_->ring().PrimaryFor(task->base_key);
  const std::string resource = ResourceOf(*task);
  auto enqueue = [this, task, propagator, resource] {
    if (task->orphaned) return;
    task->handed_off = true;
    RowQueue& queue = row_queues_[propagator][resource];
    queue.tasks.push_back(task);
    if (!queue.running) {
      queue.running = true;
      PumpRowQueue(propagator, resource);
    }
  };
  if (task->handed_off) {
    // Re-dispatch of a task already at the propagator (retry wake-up): no
    // network hop — responsibility was transferred once.
    enqueue();
    return;
  }
  // Hand the task over the network (no-op hop when origin == propagator),
  // under the task's span so the handoff hop shows up in its trace.
  Tracer::Scope scope(&cluster_->tracer(), task->trace);
  cluster_->network().Send(task->origin, propagator, std::move(enqueue));
}

void MaintenanceEngine::PumpRowQueue(ServerId propagator,
                                     const std::string& resource) {
  // The queue entry may have vanished under us: a propagator crash clears
  // row_queues_[propagator] while a completion callback for a previous head
  // is still in flight.
  auto per_server = row_queues_[propagator].find(resource);
  if (per_server == row_queues_[propagator].end()) return;
  RowQueue& queue = per_server->second;
  if (queue.tasks.empty()) {
    queue.running = false;
    row_queues_[propagator].erase(resource);
    return;
  }
  std::shared_ptr<PropagationTask> task = queue.tasks.front();
  queue.tasks.pop_front();
  store::Server* executor = &cluster_->server(propagator);
  // The pump may be running under the PREVIOUS task's delivery context;
  // re-enter the dequeued task's own span.
  Tracer::Scope scope(&cluster_->tracer(), task->trace);
  task->in_attempt = true;
  task->executed_on = propagator;
  Propagation::Run(
      executor, task, CurrentGuess(*task),
      [this, task, propagator, resource](Status status) {
        task->in_attempt = false;
        if (task->orphaned) {
          // Propagator crashed mid-attempt; its queues were cleared and the
          // owned-range scrub inherits this family.
          return;
        }
        OnAttemptDone(
            task, std::move(status),
            [this, task, propagator, resource](bool done) {
              if (!done) {
                // The update this one depends on has not propagated yet;
                // park until a same-row propagation completes (or the
                // fallback timer fires) and keep the queue moving.
                ParkForRetry(resource, task);
              }
              PumpRowQueue(propagator, resource);
            });
      });
}

// ---------------------------------------------------------------------------
// Algorithm 4: reading from a versioned view.
// ---------------------------------------------------------------------------

void MaintenanceEngine::HandleViewGet(
    store::Server* coordinator, const store::ViewDef& view,
    const Key& view_key, store::ViewReadSpec spec,
    std::function<void(StatusOr<store::ViewReadOutcome>)> callback) {
  if (view.IsAggregate()) {
    // The client sees only the folded output column; a caller-supplied
    // projection would starve the fold of the per-base-key sub-aggregate
    // cells it reads. Every path below (view scan, SI/base fallback) folds
    // from the view's own materialized columns.
    spec.columns.clear();
  }

  if (spec.consistency == store::ReadConsistency::kEventual) {
    ServeFromView(coordinator, view, view_key, spec, spec.read_quorum,
                  std::move(callback));
    return;
  }
  ReadRequirement req;
  if (spec.consistency == store::ReadConsistency::kBoundedStaleness) {
    req.bound = spec.max_staleness > 0
                    ? spec.max_staleness
                    : cluster_->config().max_staleness_default;
    req.deadline =
        cluster_->simulation().Now() + cluster_->config().freshness_wait_max;
  } else {
    // Definition 4: the session's own writes, whatever their age, with no
    // deadline and no way around the view.
    req.session = spec.session;
  }
  ProvenViewGet(coordinator, view, view_key, std::move(spec), req,
                /*attempt=*/0, std::move(callback));
}

// ---------------------------------------------------------------------------
// Freshness contract: the policy ladder every consistency level
// but eventual climbs — bounded staleness and read-your-writes alike.
// ---------------------------------------------------------------------------

void MaintenanceEngine::ProvenViewGet(
    store::Server* coordinator, const store::ViewDef& view,
    const Key& view_key, store::ViewReadSpec spec, ReadRequirement req,
    int attempt,
    std::function<void(StatusOr<store::ViewReadOutcome>)> callback) {
  const store::ViewDef* view_def = &view;
  store::FreshnessTracker& tracker = cluster_->freshness();
  const Timestamp now_ts =
      store::kClientTimestampEpoch + cluster_->simulation().Now();
  const Timestamp need =
      req.bound ? std::max<Timestamp>(0, now_ts - *req.bound)
                : std::numeric_limits<Timestamp>::max();

  const store::FreshnessTracker::BlockerSummary blockers =
      tracker.BlockersBefore(view.name, view_key, need, req.session);

  if (blockers.live == 0 && blockers.wounded == 0) {
    // The requirement is proven: no unsettled intent the read must reflect
    // can reach this partition. Serve from the view — at a quorum that
    // intersects propagation's majority write quorum, so the scan cannot
    // read a single replica that missed an applied (settled) propagation.
    ServeFromView(coordinator, view, view_key, spec,
                  std::max(spec.read_quorum, coordinator->MajorityQuorum()),
                  std::move(callback));
    return;
  }

  if (attempt == 0 && req.bound) {
    cluster_->metrics().freshness_bound_misses++;
  }

  if (blockers.live == 0) {
    // Only wounded families block: their propagations died, so no amount of
    // waiting helps. Fire a targeted repair of exactly those families (the
    // owned-range scrub's audit, scoped to the blockers), then re-prove.
    cluster_->metrics().freshness_targeted_repairs++;
    std::vector<Key> wounded = blockers.wounded_keys;
    coordinator->Enqueue(
        cluster_->config().perf.view_scan_local,
        [this, coordinator, view_def, view_key, spec = std::move(spec), req,
         attempt, wounded = std::move(wounded),
         callback = std::move(callback)]() mutable {
          RepairViewFamilies(*cluster_, *view_def, wounded,
                             [this, view_def](const Key& base_key) {
                               std::string resource = view_def->name;
                               resource.push_back('\0');
                               resource += base_key;
                               return active_per_resource_.count(resource) !=
                                      0;
                             });
          // The audited families provably match Definition 1 now; clearing
          // their intents guarantees the re-entry below cannot see the same
          // wounded blockers (no repair loop).
          for (const Key& base_key : wounded) {
            cluster_->freshness().FamilyAudited(view_def->name, base_key);
          }
          ProvenViewGet(coordinator, *view_def, view_key, std::move(spec),
                        req, attempt + 1, std::move(callback));
        });
    return;
  }

  // Live propagations block. With a bound, ask the router: will they
  // plausibly settle within the bound/wait budget? The coordinator's
  // advisory cache answers without a tracker round trip; fall through to
  // the tracker's own estimate when the cache is cold.
  const SimTime now = cluster_->simulation().Now();
  if (req.bound) {
    SimTime lag = coordinator->freshness_cache().LagEstimate(view.name);
    if (lag < 0) lag = tracker.LagEstimate(view.name);
    if (now >= req.deadline || (lag >= 0 && lag > *req.bound)) {
      // Waiting is hopeless (deadline spent) or pointless (typical
      // propagation lag exceeds the bound): route around the view.
      FallbackRead(coordinator, view, view_key, spec, std::move(callback));
      return;
    }
  }

  // Park until the blockers change (an intent applies, discards, audits
  // away, or is wounded) or the wait deadline fires — whichever comes
  // first. A park dies with its coordinator's incarnation: a crashed
  // coordinator answers nothing, and the client's request timeout does.
  if (req.bound) {
    cluster_->metrics().freshness_bound_waits++;
  } else if (!req.parked) {
    cluster_->metrics().view_get_deferrals++;
  }
  req.parked = true;
  // The wake fires from the tracker or a bare timer, under whatever
  // context THAT runs in — carry this read's context over it explicitly and
  // span the parked interval (Definition 4's wait, Fig 7).
  Tracer& tracer = cluster_->tracer();
  const TraceContext ctx = tracer.current();
  const TraceContext park = tracer.StartSpan(
      ctx, "view.freshness_wait", static_cast<int>(coordinator->id()), now);
  auto fired = std::make_shared<bool>(false);
  auto wake = std::make_shared<std::function<void()>>(
      [this, coordinator, incarnation = coordinator->incarnation(), view_def,
       view_key, spec = std::move(spec), req, attempt, ctx, park, fired,
       parked_at = now, callback = std::move(callback)]() mutable {
        if (*fired) return;
        *fired = true;
        const SimTime woke = cluster_->simulation().Now();
        cluster_->tracer().EndSpan(park, woke);
        if (coordinator->crashed() ||
            coordinator->incarnation() != incarnation) {
          return;
        }
        if (req.bound) {
          cluster_->metrics().freshness_wait.Record(woke - parked_at);
        }
        Tracer::Scope scope(&cluster_->tracer(), ctx);
        ProvenViewGet(coordinator, *view_def, view_key, std::move(spec), req,
                      attempt + 1, std::move(callback));
      });
  tracker.NotifyOnImprovement(view.name, [wake] { (*wake)(); });
  if (req.deadline != kSimTimeMax) {
    cluster_->simulation().After(std::max<SimTime>(1, req.deadline - now),
                                 [wake] { (*wake)(); });
  }
}

void MaintenanceEngine::ServeFromView(
    store::Server* coordinator, const store::ViewDef& view,
    const Key& view_key, const store::ViewReadSpec& spec, int read_quorum,
    std::function<void(StatusOr<store::ViewReadOutcome>)> callback) {
  const store::ViewDef* view_def = &view;
  // Only eventual reads may degrade to a partial scatter: RYW and bounded
  // reads promised something about the rows they return, and rows missing
  // with their sub-shard would silently break that promise.
  const bool allow_partial =
      spec.consistency == store::ReadConsistency::kEventual;
  DoViewGet(coordinator, view, view_key, spec.columns, read_quorum,
            allow_partial, /*attempt=*/0,
            [this, view_def, view_key, callback = std::move(callback)](
                StatusOr<ViewScanResult> scan) mutable {
              if (!scan.ok()) {
                callback(scan.status());
                return;
              }
              store::ViewReadOutcome outcome;
              outcome.records = std::move(scan->records);
              if (view_def->IsAggregate()) {
                // Collapse the per-base-key sub-aggregates into the single
                // record the client sees (ISSUE 10).
                const AggregateFold fold =
                    FoldAggregateRecords(*view_def, outcome.records);
                cluster_->metrics().view_aggregate_folds++;
                cluster_->metrics().view_aggregate_fold_skipped +=
                    fold.skipped;
                outcome.records = FoldedAggregateView(*view_def, fold);
              }
              const Timestamp now_ts = store::kClientTimestampEpoch +
                                       cluster_->simulation().Now();
              if (scan->failed_shards > 0) {
                // Partial coverage: some sub-shards' rows are simply absent,
                // so no freshness can honestly be claimed — clamp to the
                // null timestamp ("everything after the epoch may be
                // missing") and record the degradation, not a staleness.
                outcome.freshness = kNullTimestamp;
                outcome.served_by = store::ServedBy::kView;
                callback(std::move(outcome));
                return;
              }
              if (view_def->shard_count > 1) {
                // A scatter-gather read is only as fresh as its weakest
                // sub-shard: claim the min of the per-shard freshness
                // (ISSUE 9's freshness-over-shards rule).
                Timestamp fresh = now_ts;
                for (int shard = 0; shard < view_def->shard_count; ++shard) {
                  fresh = std::min(
                      fresh, cluster_->freshness().FreshAsOfShard(
                                 view_def->name, view_key, shard,
                                 view_def->shard_count, now_ts));
                }
                outcome.freshness = fresh;
              } else {
                outcome.freshness = cluster_->freshness().FreshAsOf(
                    view_def->name, view_key, now_ts);
              }
              outcome.served_by = store::ServedBy::kView;
              cluster_->metrics().view_staleness.Record(
                  std::max<Timestamp>(0, now_ts - outcome.freshness));
              callback(std::move(outcome));
            });
}

void MaintenanceEngine::FallbackRead(
    store::Server* coordinator, const store::ViewDef& view,
    const Key& view_key, const store::ViewReadSpec& spec,
    std::function<void(StatusOr<store::ViewReadOutcome>)> callback) {
  const store::ViewDef* view_def = &view;
  const bool si = cluster_->schema().FindIndex(view.base_table,
                                               view.view_key_column) != nullptr;
  const store::ServedBy path =
      si ? store::ServedBy::kSiPath : store::ServedBy::kBaseScan;
  if (si) {
    cluster_->metrics().freshness_fallback_si++;
  } else {
    cluster_->metrics().freshness_fallback_base++;
  }
  auto on_rows = [this, view_def, path, columns = spec.columns,
                  callback = std::move(callback)](
                     StatusOr<std::vector<storage::KeyedRow>> rows) mutable {
    if (!rows.ok()) {
      callback(rows.status());
      return;
    }
    // Evaluate the view definition inline over the base rows: selection
    // filter, then project the wanted materialized columns.
    const std::vector<ColumnName>& wanted =
        columns.empty() ? view_def->materialized_columns : columns;
    store::ViewReadOutcome outcome;
    for (const storage::KeyedRow& kr : *rows) {
      if (view_def->selection.has_value()) {
        auto selected = kr.row.GetValue(view_def->selection->column);
        if (!selected || *selected != view_def->selection->equals) continue;
      }
      store::ViewRecord record;
      record.base_key = kr.key;
      for (const ColumnName& col : wanted) {
        if (auto cell = kr.row.Get(col); cell && !cell->tombstone) {
          record.cells.Apply(col, *cell);
        }
      }
      outcome.records.push_back(std::move(record));
    }
    if (view_def->IsAggregate()) {
      // Same fold as the view path, over the base rows' freshly evaluated
      // records — recompute-on-read, the baseline fig10 measures against.
      const AggregateFold fold =
          FoldAggregateRecords(*view_def, outcome.records);
      cluster_->metrics().view_aggregate_folds++;
      cluster_->metrics().view_aggregate_fold_skipped += fold.skipped;
      outcome.records = FoldedAggregateView(*view_def, fold);
    }
    // Both fallback paths read the base table's CURRENT state (the SI is
    // maintained synchronously with each replica write), so the outcome
    // claims freshness "now": staleness zero by construction.
    outcome.freshness =
        store::kClientTimestampEpoch + cluster_->simulation().Now();
    outcome.served_by = path;
    cluster_->metrics().view_staleness.Record(0);
    callback(std::move(outcome));
  };
  coordinator->CoordinateMatchScan(view.base_table, view.view_key_column,
                                   view_key, std::move(on_rows));
}

void MaintenanceEngine::GossipFreshness(
    const std::shared_ptr<PropagationTask>& task) {
  // Piggyback the observed lag for this view onto traffic toward the view
  // partition's replicas — the servers a future read of this partition will
  // coordinate scans against.
  const std::string view_name = task->view->name;
  const SimTime lag = cluster_->simulation().Now() - task->created_at;
  const double alpha = cluster_->config().freshness_lag_alpha;
  cluster_->freshness().RecordLag(view_name, lag, alpha);

  Key partition;
  if (task->view_key_update && !task->view_key_update->tombstone &&
      !task->view_key_update->value.empty()) {
    partition = task->view_key_update->value;
  } else {
    for (const Cell& guess : task->guesses) {
      if (!guess.IsNull() && !guess.tombstone && !guess.value.empty()) {
        partition = guess.value;
        break;
      }
    }
  }
  if (partition.empty()) return;

  const ServerId from = ExecutorOf(*task);
  // Gossip to the replicas of the sub-shard this task actually wrote — the
  // servers a scatter-gather read of that shard will scan.
  const int shard_count = task->view->shard_count;
  for (ServerId replica : cluster_->server(0).ReplicasOf(
           view_name,
           store::ShardedViewPartitionPrefix(
               partition, store::ShardOfBaseKey(task->base_key, shard_count),
               shard_count))) {
    cluster_->metrics().freshness_gossip_updates++;
    store::Server* target = &cluster_->server(replica);
    cluster_->network().Send(
        from, replica, [target, view_name, lag, alpha] {
          target->freshness_cache().Merge(view_name, lag, alpha);
        });
  }
}

void MaintenanceEngine::DoViewGet(
    store::Server* coordinator, const store::ViewDef& view,
    const Key& view_key, std::vector<ColumnName> columns, int read_quorum,
    bool allow_partial, int attempt,
    std::function<void(StatusOr<ViewScanResult>)> callback) {
  const store::ViewDef* view_def = &view;
  // Sharded views scatter one scan per sub-shard and merge at the
  // coordinator; a single-shard view degenerates to the classic one-prefix
  // scan inside CoordinateViewScatterScan.
  std::vector<Key> prefixes;
  prefixes.reserve(static_cast<std::size_t>(std::max(1, view.shard_count)));
  for (int shard = 0; shard < std::max(1, view.shard_count); ++shard) {
    prefixes.push_back(
        store::ShardedViewPartitionPrefix(view_key, shard, view.shard_count));
  }
  coordinator->CoordinateViewScatterScan(
      view.name, std::move(prefixes), read_quorum, allow_partial,
      [this, coordinator, view_def, view_key, columns, read_quorum,
       allow_partial, attempt, callback = std::move(callback)](
          StatusOr<store::ScatterScanResult> scan) mutable {
        if (!scan.ok()) {
          callback(scan.status());
          return;
        }
        std::map<Key, const storage::Row*> live_rows;  // by base key
        std::map<Key, bool> initializing;              // by base key
        for (const storage::KeyedRow& kr : scan->rows) {
          auto split =
              store::SplitShardedViewRowKey(kr.key, view_def->shard_count);
          if (!split || split->first != view_key) continue;
          const Key& base_key = split->second;
          RowStatus status = ClassifyViewRow(kr.row, view_key);
          if (!status.exists) continue;
          if (!status.live) {
            cluster_->metrics().stale_rows_filtered++;
            continue;
          }
          if (!status.initialized) {
            initializing[base_key] = true;
            continue;
          }
          if (status.hidden) continue;
          live_rows[base_key] = &kr.row;
        }
        // Section IV-F: never expose a window where the row's only live
        // version is still being initialized — wait for the promotion to
        // finish (bounded).
        bool must_spin = false;
        for (const auto& [base_key, unused] : initializing) {
          if (live_rows.count(base_key) == 0) {
            must_spin = true;
            break;
          }
        }
        if (must_spin && attempt < kMaxReadSpins) {
          cluster_->metrics().view_get_spins++;
          // The retry crosses a bare timer; carry the context over it and
          // span the wait so initialization spins show in the timeline.
          Tracer& tracer = cluster_->tracer();
          const TraceContext ctx = tracer.current();
          const TraceContext spin =
              tracer.StartSpan(ctx, "view.read_spin",
                               static_cast<int>(coordinator->id()),
                               cluster_->simulation().Now());
          cluster_->simulation().After(
              kReadSpinDelay,
              [this, coordinator, view_def, view_key, ctx, spin,
               columns = std::move(columns), read_quorum, allow_partial,
               attempt, callback = std::move(callback)]() mutable {
                cluster_->tracer().EndSpan(spin, cluster_->simulation().Now());
                Tracer::Scope scope(&cluster_->tracer(), ctx);
                DoViewGet(coordinator, *view_def, view_key, std::move(columns),
                          read_quorum, allow_partial, attempt + 1,
                          std::move(callback));
              });
          return;
        }
        const std::vector<ColumnName>& wanted =
            columns.empty() ? view_def->materialized_columns : columns;
        ViewScanResult result;
        result.failed_shards = scan->failed_shards;
        result.records.reserve(live_rows.size());
        for (const auto& [base_key, row] : live_rows) {
          store::ViewRecord record;
          record.base_key = base_key;
          for (const ColumnName& col : wanted) {
            if (auto cell = row->Get(col); cell && !cell->tombstone) {
              record.cells.Apply(col, *cell);
            }
          }
          result.records.push_back(std::move(record));
        }
        callback(std::move(result));
      });
}

// ---------------------------------------------------------------------------

void MaintenanceEngine::Quiesce() {
  while (active_ > 0) {
    MVSTORE_CHECK(cluster_->simulation().Step())
        << "simulation ran dry with " << active_ << " propagations pending";
  }
}

}  // namespace mvstore::view
