// Server: elastic membership — join and decommission plans, the leave.

#include "store/server.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace mvstore::store {

namespace {

/// Base backoff before retrying a membership sync that fell silent; grows
/// linearly with the attempt count, capped at 8x.
constexpr SimTime kStreamRetryBackoff = Millis(50);

/// How long a decommissioning server keeps waiting for its own hinted
/// handoffs to drain before it force-reroutes them to the keys' current
/// replicas and leaves anyway.
constexpr SimTime kDrainTimeout = Seconds(30);

}  // namespace

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
  drain_deadline_ = sim_->Now() + kDrainTimeout;
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
    // replicas, and go once each re-send has been acked or has failed.
    // Going sooner would drop the re-sends in flight.
    CountForcedDrain();
    auto unanswered = std::make_shared<std::size_t>(hints_outstanding());
    const std::uint64_t incarnation = this->incarnation();
    const auto answered = [this, unanswered, incarnation](const Status&) {
      if (--*unanswered > 0) return;
      // In an event of its own: a failed re-send answers before it has
      // hinted its silent replicas, and those hints must go with the leave.
      sim_->After(0, [this, incarnation] {
        if (incarnation == this->incarnation()) FinishLeave(/*forced=*/true);
      });
    };
    for (const auto& [target, queue] : hints_) {
      RerouteHintsFor(target, answered);
    }
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
  if (tracer_ != nullptr) {
    tracer_->Mark(member_trace_, "member.leave", static_cast<int>(id_),
                  sim_->Now(), forced ? "forced" : "drained");
  }
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

}  // namespace mvstore::store
