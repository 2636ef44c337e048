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

/// Whether `cell` names a view key: a live, non-empty value.
bool NamesViewKey(const Cell& cell) {
  return !cell.IsNull() && !cell.tombstone && !cell.value.empty();
}

/// Adds `cell` to a task's guesses unless it is one already or is the
/// task's own view-key write: chasing that write before the task completes
/// can only land on the task's own partial debris (the case-2c shortcut)
/// instead of the real live row.
void AddGuess(std::vector<Cell>& guesses, const Cell& cell,
              const std::optional<Cell>& own_write) {
  if (own_write && cell == *own_write) return;
  if (std::find(guesses.begin(), guesses.end(), cell) == guesses.end()) {
    guesses.push_back(cell);
  }
}

/// Collapses an aggregate view's per-base-key sub-aggregates into the one
/// record the client sees; the records of other views pass through.
void FoldIfAggregate(const store::ViewDef& view,
                     std::vector<store::ViewRecord>& records,
                     store::Metrics& metrics) {
  if (!view.IsAggregate()) return;
  const AggregateFold fold = FoldAggregateRecords(view, records);
  metrics.view_aggregate_folds++;
  metrics.view_aggregate_fold_skipped += fold.skipped;
  records = FoldedAggregateView(view, fold);
}
}  // namespace

MaintenanceEngine::MaintenanceEngine(store::Cluster* cluster)
    : cluster_(cluster),
      rng_(cluster->ForkRng()),
      locks_(&cluster->simulation(), Micros(120),
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

std::string MaintenanceEngine::ResourceOf(const std::string& view,
                                          const Key& base_key) {
  std::string resource = view;
  resource.push_back('\0');
  resource += base_key;
  return resource;
}

bool MaintenanceEngine::FamilyBusy(const std::string& view,
                                   const Key& base_key) const {
  return families_.count(ResourceOf(view, base_key)) != 0;
}

bool MaintenanceEngine::Dedicated() const {
  return cluster_->config().propagation_mode ==
         store::PropagationMode::kDedicatedPropagators;
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
                    kDispatchDelayMax);
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
    task->resource = ResourceOf(view->name, base_key);
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
      cluster_->freshness().MarkApplied(intent);
      continue;
    }
    if (coordinator->crashed()) {
      // The coordinator died between committing the Put and scheduling the
      // propagation (the abort path still delivers the collected pre-images).
      // The base update is durable on its replicas but nobody will propagate
      // it — a propagation started and orphaned at once, until the
      // owned-range scrub re-derives the view row. (The intent was already
      // wounded by OnServerDown's group cleanup, so the MarkWounded here is
      // a no-op on the usual path.)
      cluster_->freshness().MarkWounded(intent);
      cluster_->metrics().propagations_started++;
      cluster_->metrics().propagations_orphaned++;
      continue;
    }
    task->freshness_intent = intent;
    // Narrow the intent to the partitions this write can actually land in:
    // the written view key plus every collected pre-image. An empty set
    // (nothing collected, no key written) keeps blocking the whole view.
    {
      std::set<Key> partitions;
      if (task->view_key_update && NamesViewKey(*task->view_key_update)) {
        partitions.insert(task->view_key_update->value);
      }
      for (const Cell& guess : collected.old_keys) {
        if (NamesViewKey(guess)) partitions.insert(guess.value);
      }
      cluster_->freshness().ResolvePartitions(intent, std::move(partitions));
    }
    // Prefer recent guesses: the newest pre-image is most likely to be the
    // current live key (the coordinator "is free to try the keys in any
    // order").
    task->guesses = std::move(collected.old_keys);
    std::sort(task->guesses.begin(), task->guesses.end(),
              [](const Cell& a, const Cell& b) { return a.ts > b.ts; });
    task->origin = coordinator->id();
    task->home = task->origin;
    task->created_at = cluster_->simulation().Now();
    // The task's lifetime span hangs off the Put's trace (we run inside the
    // collection continuation, which the coordinator scoped to the Put's
    // operation context). It stays open across dispatch delays and retries
    // until the task ends (EndTask).
    {
      Tracer& tracer = cluster_->tracer();
      task->trace = tracer.StartSpan(tracer.current(),
                                     "view.propagate " + view->name,
                                     static_cast<int>(task->origin),
                                     task->created_at);
    }

    cluster_->metrics().propagations_started++;
    Family& family = RegisterTask(task);

    // Propagation coalescing: a pending same-row, same-origin task that has
    // not started writing absorbs this update — both propagate in ONE
    // maintenance round instead of two conflicting ones (the conflicts are
    // exactly what Figure 8's retry storms are made of).
    if (family.anchor && CanAbsorb(*family.anchor, *task)) {
      AbsorbTask(family.anchor, task);
      continue;  // no dispatch: the task ends with its winner
    }
    family.anchor = task;

    group_tasks.push_back(std::move(task));
  }

  if (group_tasks.empty()) return;
  if (group_tasks.size() > 1) cluster_->metrics().prop_multi_view_groups++;
  // One delay for the whole change-set: the views of a multi-view Put enter
  // maintenance together rather than straggling in independently.
  const SimTime delay = SampleDispatchDelay();
  for (std::shared_ptr<PropagationTask>& task : group_tasks) {
    cluster_->simulation().After(delay, [this, task] { DispatchTask(task); });
  }
}

// ---------------------------------------------------------------------------
// One attempt and its outcome (shared by every concurrency-control mode).
// ---------------------------------------------------------------------------

void MaintenanceEngine::RunAttempt(std::shared_ptr<PropagationTask> task,
                                   std::function<void()> release,
                                   std::function<void(bool)> then) {
  // Attempts run under the task's span: dispatch arrives via a bare timer, a
  // lock grant, or the previous row-queue head's completion, none of which
  // carries this task's context.
  Tracer::Scope scope(&cluster_->tracer(), task->trace);
  task->in_attempt = true;
  Propagation::Run(
      &cluster_->server(task->home), task, CurrentGuess(*task),
      [this, task, release = std::move(release),
       then = std::move(then)](Status status) mutable {
        task->in_attempt = false;
        // The task's home crashed (or left) mid-attempt: the task already
        // ended as orphaned, and a lock it held is left to lease expiry.
        if (task->orphaned) return;
        if (release) release();
        OnAttemptDone(task, std::move(status), std::move(then));
      });
}

void MaintenanceEngine::OnAttemptDone(
    std::shared_ptr<PropagationTask> task, Status status,
    std::function<void(bool)> then) {
  if (status.ok()) {
    EndTask(task, TaskOutcome::kCompleted);
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
    EndTask(task, TaskOutcome::kAbandoned);
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
  // Read from the task's home (the origin except in dedicated-propagator
  // mode, where a handed-off task outlives its origin).
  Tracer::Scope scope(&cluster_->tracer(), task->trace);
  store::Server& home = cluster_->server(task->home);
  home.CoordinateRead(
      task->view->base_table, task->base_key,
      {task->view->view_key_column}, home.MajorityQuorum(),
      [](StatusOr<storage::Row>) {},
      [task, then = std::move(then)](std::vector<storage::Row> replicas) {
        for (const storage::Row& row : replicas) {
          Cell cell;
          if (auto c = row.Get(task->view->view_key_column)) cell = *c;
          AddGuess(task->guesses, cell, task->view_key_update);
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

void MaintenanceEngine::ParkForRetry(std::shared_ptr<PropagationTask> task) {
  if (task->orphaned) return;
  task->parked = true;
  families_.at(task->resource).parked.push_back(task);
  cluster_->simulation().After(RetryDelay(*task), [this, task] {
    // Not parked any more: already woken by a completion, or orphaned.
    if (Unpark(task)) DispatchTask(task);
  });
}

bool MaintenanceEngine::Unpark(const std::shared_ptr<PropagationTask>& task) {
  if (!task->parked) return false;
  task->parked = false;
  auto& parked = families_.at(task->resource).parked;
  parked.erase(std::remove(parked.begin(), parked.end(), task), parked.end());
  return true;
}

void MaintenanceEngine::WakeParked(const std::string& resource) {
  auto it = families_.find(resource);
  if (it == families_.end()) return;
  // Dispatch may re-park into (or end) this family: take the lot first.
  std::vector<std::shared_ptr<PropagationTask>> tasks =
      std::move(it->second.parked);
  it->second.parked.clear();
  for (auto& task : tasks) {
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
  // must match so the two share one home (placement and crash semantics);
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
    AddGuess(winner->guesses, guess, own_write);
  }
  // The task follows its winner, so a crash dooms or spares them together.
  task->home = winner->home;
  winner->absorbed.push_back(task);
  if (task->trace) {
    cluster_->tracer().Annotate(
        task->trace,
        "coalesced into propagation #" + std::to_string(winner->id));
  }
}

void MaintenanceEngine::EndTask(const std::shared_ptr<PropagationTask>& task,
                                TaskOutcome outcome) {
  store::Metrics& metrics = cluster_->metrics();
  Tracer& tracer = cluster_->tracer();
  const SimTime now = cluster_->simulation().Now();
  // The end of one task of the coalesced group: the winner, then each task
  // it absorbed. False when a crash already ended it.
  auto end_one = [&](const std::shared_ptr<PropagationTask>& t) {
    if (t->orphaned) return false;
    switch (outcome) {
      case TaskOutcome::kCompleted:
        metrics.propagations_completed++;
        metrics.propagation_delay.Record(now - t->created_at);
        break;
      case TaskOutcome::kAbandoned:
        metrics.propagations_abandoned++;
        tracer.Annotate(t->trace, "abandoned");
        break;
      case TaskOutcome::kOrphaned:
        // Every pending closure that still holds the task bails out on this
        // flag; only an orphan can still be parked.
        t->orphaned = true;
        metrics.propagations_orphaned++;
        tracer.Annotate(t->trace, "orphaned by crash");
        Unpark(t);
        break;
    }
    tracer.EndSpan(t->trace, now);
    UnregisterTask(t);
    if (outcome == TaskOutcome::kOrphaned) {
      // The write may or may not be in the view, so reads that must reflect
      // it stay blocked until a family audit proves convergence — the
      // ladder's targeted repair, or the owned-range scrub.
      cluster_->freshness().MarkWounded(t->freshness_intent);
    } else {
      NotifyOrigin(t, outcome == TaskOutcome::kCompleted);
    }
    return true;
  };
  if (!end_one(task)) return;
  if (outcome == TaskOutcome::kAbandoned) {
    // Under pathological conflict rates (Figure 8 at range 1) thousands of
    // tasks can exhaust their budgets; log the first few and then sample.
    const std::uint64_t n = metrics.propagations_abandoned;
    if (n <= 3 || n % 1000 == 0) {
      MVSTORE_LOG(Warning) << "abandoning propagation of base key '"
                           << task->base_key << "' to view '"
                           << task->view->name << "' after " << task->attempts
                           << " guess attempts (+" << task->infra_failures
                           << " infra retries); " << n
                           << " abandoned so far (view scrub/repair recovers)";
    }
  }
  if (outcome == TaskOutcome::kCompleted) {
    cluster_->freshness().RecordLag(task->view->name,
                                    cluster_->simulation().Now() -
                                        task->created_at);
  }
  for (const auto& absorbed : task->absorbed) end_one(absorbed);
  task->absorbed.clear();
  if (outcome == TaskOutcome::kCompleted) WakeParked(task->resource);
}

// ---------------------------------------------------------------------------
// Crash-stop fault model: eager orphaning of a downed server's tasks, and
// owned-range scrub as the recovery path.
// ---------------------------------------------------------------------------

MaintenanceEngine::Family& MaintenanceEngine::RegisterTask(
    const std::shared_ptr<PropagationTask>& task) {
  live_tasks_.emplace(task->id, task);
  Family& family = families_[task->resource];
  family.active++;
  return family;
}

void MaintenanceEngine::UnregisterTask(
    const std::shared_ptr<PropagationTask>& task) {
  live_tasks_.erase(task->id);
  auto it = families_.find(task->resource);
  if (it->second.anchor == task) it->second.anchor.reset();
  if (--it->second.active == 0) families_.erase(it);
}

void MaintenanceEngine::OnServerDown(store::Server* server) {
  const ServerId id = server->id();
  // A crash and a leave end the process alike: the tasks it holds die with
  // it, whatever the ring now says. Handed-off tasks of this ORIGIN keep
  // running at their propagators — their completion notice to the dead
  // origin just drops. Recovery of the orphaned families is the (new)
  // primary owner's periodic owned-range scrub, so clusters that crash or
  // churn servers run with view_scrub_interval > 0.
  std::vector<std::shared_ptr<PropagationTask>> doomed;
  for (const auto& [task_id, task] : live_tasks_) {
    if (task->home == id) doomed.push_back(task);
  }
  for (const auto& task : doomed) EndTask(task, TaskOutcome::kOrphaned);
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

void MaintenanceEngine::OnServerUp(store::Server* server) {
  cluster_->metrics().orphaned_propagations_recovered +=
      RunOwnedRangeScrub(server->id());
}

std::size_t MaintenanceEngine::RunOwnedRangeScrub(ServerId server) {
  std::size_t recovered = 0;
  for (const std::string& table : cluster_->schema().TableNames()) {
    for (const store::ViewDef* view : cluster_->schema().ViewsOn(table)) {
      recovered += ScrubOwnedRanges(
          *cluster_, *view, server,
          [this, view](const Key& base_key) {
            return FamilyBusy(view->name, base_key);
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
  if (!Dedicated()) {
    // Lock-service and unsynchronized modes execute on the origin itself.
    settle();
    return;
  }
  cluster_->network().Send(task->home, task->origin, std::move(settle));
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
  RunAttempt(task, nullptr, [this, task](bool ended) {
    if (ended) return;
    cluster_->simulation().After(RetryDelay(*task),
                                 [this, task] { RunUnsynchronized(task); });
  });
}

// ---------------------------------------------------------------------------
// Section IV-F mode 1: coordinator-driven propagation under a lock service.
// ---------------------------------------------------------------------------

void MaintenanceEngine::RunWithLocks(std::shared_ptr<PropagationTask> task) {
  if (task->orphaned) return;
  const ServerId executor = task->origin;
  const LockMode mode = task->view_key_update.has_value()
                            ? LockMode::kExclusive
                            : LockMode::kShared;
  Tracer::Scope scope(&cluster_->tracer(), task->trace);
  TraceContext lock_wait;
  if (!locks_.WouldGrantImmediately(task->resource, mode)) {
    cluster_->metrics().lock_waits++;
    // The wait span runs from the acquire request to the grant, making the
    // time spent queued behind a rival propagation visible in the trace.
    lock_wait = cluster_->tracer().StartSpan(
        task->trace, "view.lock_wait", static_cast<int>(executor),
        cluster_->simulation().Now());
  }
  // Release between attempts: holding the lock across a retry would
  // deadlock against the very propagation this one is waiting for.
  auto release = [this, task, executor, mode] {
    locks_.Release(executor, task->resource, mode);
  };
  locks_.Acquire(
      executor, task->resource, mode,
      [this, task, executor, lock_wait, release] {
        cluster_->tracer().EndSpan(lock_wait, cluster_->simulation().Now());
        if (task->orphaned) {
          // The grant reached a crashed requester: the dead process cannot
          // release, so the hold stays registered at the service until its
          // lease expires (counted in Metrics::locks_expired).
          return;
        }
        RunAttempt(task, release, [this, task](bool ended) {
          if (!ended) ParkForRetry(task);
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
  auto enqueue = [this, task, propagator] {
    // The task's volatile state lives at the propagator from here on, and
    // so does that of the tasks it absorbed.
    task->home = propagator;
    for (const auto& absorbed : task->absorbed) absorbed->home = propagator;
    RowQueue& queue = row_queues_[propagator][task->resource];
    queue.tasks.push_back(task);
    if (!queue.running) {
      queue.running = true;
      PumpRowQueue(propagator, task->resource);
    }
  };
  if (task->handed_off && task->home == propagator) {
    // Re-dispatch of a task already at its propagator (retry wake-up): no
    // network hop — responsibility was transferred once.
    enqueue();
    return;
  }
  // Hand the task over the network from its home: the origin at first
  // dispatch (a no-op hop when it is the propagator), the old propagator
  // when a join or leave has moved the key's primary since. Under the
  // task's span, so the handoff hop shows up in its trace. A handoff lost
  // at a dead or partitioned propagator is re-sent to the then-current
  // primary after rpc_timeout; the first copy to land wins.
  task->handed_off = false;
  Tracer::Scope scope(&cluster_->tracer(), task->trace);
  cluster_->network().Send(task->home, propagator,
                           [task, enqueue = std::move(enqueue)] {
                             if (task->orphaned || task->handed_off) return;
                             task->handed_off = true;
                             enqueue();
                           });
  cluster_->simulation().After(cluster_->config().rpc_timeout, [this, task] {
    if (!task->handed_off) EnqueueOnPropagator(task);
  });
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
  RunAttempt(task, nullptr,
             [this, task, propagator, resource](bool ended) {
               // The update this one depends on has not propagated yet; park
               // until a same-row propagation completes (or the fallback
               // timer fires) and keep the queue moving.
               if (!ended) ParkForRetry(task);
               PumpRowQueue(propagator, resource);
             });
}

// ---------------------------------------------------------------------------
// Algorithm 4: reading from a versioned view.
// ---------------------------------------------------------------------------

namespace {

/// Bound of a kBoundedStaleness read whose ReadOptions left `max_staleness`
/// at 0.
constexpr SimTime kDefaultMaxStaleness = Millis(500);
/// How long a bounded read may stay parked waiting for in-flight
/// propagations before the router gives up on the view and falls back to
/// the SI/base-table path.
constexpr SimTime kMaxFreshnessWait = Millis(100);

}  // namespace

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
    req.bound =
        spec.max_staleness > 0 ? spec.max_staleness : kDefaultMaxStaleness;
    req.deadline = cluster_->simulation().Now() + kMaxFreshnessWait;
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
  const SimTime now = cluster_->simulation().Now();
  const Timestamp now_ts = store::kClientTimestampEpoch + now;
  const Timestamp need =
      req.bound ? std::max<Timestamp>(0, now_ts - *req.bound)
                : std::numeric_limits<Timestamp>::max();

  const store::FreshnessTracker::BlockerSummary blockers =
      tracker.BlockersBefore(view.name, view_key, need, req.session);
  // A bounded read's wait runs from its first park to its serve or
  // fallback, however many wake-ups re-parked it in between.
  auto end_wait = [&] {
    if (req.bound && req.parked_at >= 0) {
      cluster_->metrics().freshness_wait.Record(now - req.parked_at);
    }
  };

  if (blockers.live == 0 && blockers.wounded == 0) {
    end_wait();
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
                               return FamilyBusy(view_def->name, base_key);
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
  // plausibly settle within the bound/wait budget?
  if (req.bound) {
    const SimTime lag = tracker.LagEstimate(view.name);
    if (now >= req.deadline || (lag >= 0 && lag > *req.bound)) {
      // Waiting is hopeless (deadline spent) or pointless (typical
      // propagation lag exceeds the bound): route around the view.
      end_wait();
      FallbackRead(coordinator, view, view_key, spec, std::move(callback));
      return;
    }
  }

  // Park until the blockers change (an intent applies, audits away, or is
  // wounded) or the wait deadline fires — whichever comes first. A park
  // dies with its coordinator's incarnation: a crashed coordinator answers
  // nothing, and the client's request timeout does.
  if (req.parked_at < 0) {
    req.parked_at = now;
    if (req.bound) {
      cluster_->metrics().freshness_bound_waits++;
    } else {
      cluster_->metrics().view_get_deferrals++;
    }
  }
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
       callback = std::move(callback)]() mutable {
        if (*fired) return;
        *fired = true;
        cluster_->tracer().EndSpan(park, cluster_->simulation().Now());
        if (coordinator->crashed() ||
            coordinator->incarnation() != incarnation) {
          return;
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
              FoldIfAggregate(*view_def, outcome.records,
                              cluster_->metrics());
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
              // A scatter-gather read is only as fresh as its weakest
              // sub-shard: claim the min of the per-shard freshness.
              outcome.freshness = now_ts;
              for (int shard = 0; shard < std::max(1, view_def->shard_count);
                   ++shard) {
                outcome.freshness = std::min(
                    outcome.freshness,
                    cluster_->freshness().FreshAsOf(view_def->name, view_key,
                                                    now_ts, shard,
                                                    view_def->shard_count));
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
    store::ViewReadOutcome outcome;
    for (const storage::KeyedRow& kr : *rows) {
      if (!view_def->Selects(kr.row)) continue;
      store::ViewRecord record;
      record.base_key = kr.key;
      record.cells = view_def->Project(kr.row, columns);
      outcome.records.push_back(std::move(record));
    }
    // Same fold as the view path, over the base rows' freshly evaluated
    // records — recompute-on-read, the baseline fig10 measures against.
    FoldIfAggregate(*view_def, outcome.records, cluster_->metrics());
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
        ViewScanResult result;
        result.failed_shards = scan->failed_shards;
        result.records.reserve(live_rows.size());
        for (const auto& [base_key, row] : live_rows) {
          store::ViewRecord record;
          record.base_key = base_key;
          record.cells = view_def->Project(*row, columns);
          result.records.push_back(std::move(record));
        }
        callback(std::move(result));
      });
}

// ---------------------------------------------------------------------------

void MaintenanceEngine::Quiesce() {
  while (!live_tasks_.empty()) {
    MVSTORE_CHECK(cluster_->simulation().Step())
        << "simulation ran dry with " << live_tasks_.size()
        << " propagations pending";
  }
}

}  // namespace mvstore::view
