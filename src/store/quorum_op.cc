#include "store/quorum_op.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "store/server.h"

namespace mvstore::store {

namespace {

/// A slot still silent this long into the op is re-sent its request, once.
/// A probe that would fall past the rpc timeout never runs.
constexpr SimTime kProbeDelay = Millis(100);

}  // namespace

template <typename Response>
QuorumOp<Response>::QuorumOp(Server* coord, Spec spec)
    : coord_(coord), spec_(std::move(spec)) {
  responses_.resize(spec_.targets.size());
}

template <typename Response>
typename QuorumOp<Response>::Ptr QuorumOp<Response>::Start(Server* coord,
                                                           Spec spec) {
  MVSTORE_CHECK(spec.on_quorum && spec.on_error)
      << "quorum op '" << spec.name << "' missing a reply policy";
  MVSTORE_CHECK_LE(spec.quorum, static_cast<int>(spec.targets.size()));
  Ptr op(new QuorumOp<Response>(coord, std::move(spec)));
  op->Launch();
  return op;
}

template <typename Response>
void QuorumOp<Response>::Launch() {
  Tracer* tracer = coord_->tracer();
  if (tracer != nullptr && tracer->current()) {
    trace_ = tracer->StartSpan(tracer->current(), "quorum." + spec_.name,
                               static_cast<int>(coord_->id()),
                               coord_->simulation()->Now());
  }
  // The in-flight registry owns the op until Finalize/Abort deregisters it,
  // so the op's timer needs only a weak reference: a stuck op still times
  // out, and a finished one is freed at once instead of living (with its
  // spec closures and response rows) until the timer's fire time.
  auto self = this->shared_from_this();
  op_id_ = coord_->RegisterInflightOp(
      [self] { self->Abort(); },
      [self](ServerId departed) { self->Retarget(departed); });
  // Fan out under the op's span so every request hop nests beneath it.
  Tracer::Scope scope(tracer, trace_);
  for (std::size_t i = 0; i < spec_.targets.size(); ++i) SendTo(i);
  const SimTime rpc_timeout = coord_->config().rpc_timeout;
  const SimTime now = coord_->simulation()->Now();
  deadline_ = now + rpc_timeout;
  // A read's lone target may stay silent for the probe delay before its
  // spares are contacted, but never past half the rpc timeout, so the
  // spares always have time left to answer.
  spare_at_ = now + std::min(rpc_timeout / 2, kProbeDelay);
  probe_at_ = now + kProbeDelay;
  ArmTimer();
}

template <typename Response>
void QuorumOp<Response>::SendTo(std::size_t slot) {
  auto self = this->shared_from_this();
  auto on_reply = [self, slot](Response response) {
    self->OnResponse(slot, std::move(response));
  };
  if (spec_.send) {
    spec_.send(*coord_, spec_.targets[slot], std::move(on_reply));
    return;
  }
  // The request runs through the op, which the reply closure keeps alive
  // anyway, instead of shipping a copy of the request closure per send.
  auto request = [self](Server& s) { return self->spec_.request(s); };
  if (spec_.service_at) {
    coord_->CallPeer<Response>(
        spec_.targets[slot],
        [self](Server& s) { return self->spec_.service_at(s); },
        std::move(request), std::move(on_reply));
    return;
  }
  coord_->CallPeer<Response>(spec_.targets[slot], spec_.service,
                             std::move(request), std::move(on_reply));
}

template <typename Response>
void QuorumOp<Response>::ArmTimer() {
  SimTime at = std::min(deadline_, probe_at_);
  if (!spec_.spares.empty()) at = std::min(at, spare_at_);
  coord_->simulation()->At(at, [weak = this->weak_from_this()] {
    auto self = weak.lock();
    if (self && !self->finalized_) self->OnTimer();
  });
}

template <typename Response>
void QuorumOp<Response>::OnTimer() {
  const SimTime now = coord_->simulation()->Now();
  Tracer::Scope scope(coord_->tracer(), trace_);
  if (probe_at_ <= now) ProbeSilentSlots();
  if (!finalized_ && !spec_.spares.empty() && spare_at_ <= now) {
    ContactSpares();
  }
  if (finalized_) return;
  if (deadline_ <= now) {
    Finalize();
    return;
  }
  ArmTimer();
}

template <typename Response>
void QuorumOp<Response>::ProbeSilentSlots() {
  probe_at_ = kSimTimeMax;
  // Iterate by index: a synchronous reply may finalize the op mid-loop.
  for (std::size_t slot = 0; slot < spec_.targets.size() && !finalized_;
       ++slot) {
    if (responses_[slot]) continue;
    coord_->metrics()->coordinator_retries++;
    if (trace_) {
      coord_->tracer()->Annotate(
          trace_, "retry -> " + std::to_string(spec_.targets[slot]));
    }
    SendTo(slot);
  }
}

template <typename Response>
void QuorumOp<Response>::ContactSpares() {
  std::vector<ServerId> spares = std::move(spec_.spares);
  spec_.spares.clear();
  for (ServerId spare : spares) {
    if (finalized_) return;
    spec_.targets.push_back(spare);
    responses_.emplace_back();
    coord_->metrics()->spares_contacted++;
    if (trace_) {
      coord_->tracer()->Annotate(trace_,
                                 "spare -> " + std::to_string(spare));
    }
    SendTo(spec_.targets.size() - 1);
  }
}

template <typename Response>
void QuorumOp<Response>::OnResponse(std::size_t slot, Response response) {
  if (finalized_) return;
  if (responses_[slot]) return;  // duplicate reply for this slot
  responses_[slot] = std::move(response);
  ++num_responses_;
  if (!replied_ && num_responses_ >= spec_.quorum) {
    replied_ = true;
    spec_.on_quorum(*this);
  }
  if (num_responses_ == static_cast<int>(spec_.targets.size())) Finalize();
}

template <typename Response>
void QuorumOp<Response>::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  coord_->DeregisterInflightOp(op_id_);
  Tracer::Scope scope(coord_->tracer(), trace_);
  if (!replied_) {
    replied_ = true;
    coord_->metrics()->quorum_failures++;
    spec_.on_error(*this, Status::Unavailable(spec_.quorum_error));
  }
  Settle(/*aborted=*/false);
  if (trace_) {
    coord_->tracer()->EndSpan(trace_, coord_->simulation()->Now());
  }
}

template <typename Response>
void QuorumOp<Response>::Abort() {
  if (finalized_) return;
  finalized_ = true;
  Tracer::Scope scope(coord_->tracer(), trace_);
  if (!replied_) {
    replied_ = true;
    spec_.on_error(*this, Status::Unavailable("coordinator crashed"));
  }
  Settle(/*aborted=*/true);
  if (trace_) {
    coord_->tracer()->Annotate(trace_, "aborted by crash");
    coord_->tracer()->EndSpan(trace_, coord_->simulation()->Now());
  }
}

template <typename Response>
void QuorumOp<Response>::Retarget(ServerId departed) {
  if (finalized_) return;
  if (spec_.hint_table.empty()) return;
  for (std::size_t slot = 0; slot < spec_.targets.size(); ++slot) {
    if (spec_.targets[slot] != departed || responses_[slot]) continue;
    // Move the slot onto a current replica no other slot already covers.
    ServerId replacement = 0;
    bool found = false;
    for (ServerId r :
         coord_->ReplicasOf(spec_.hint_table, spec_.hint_key)) {
      bool taken = false;
      for (std::size_t j = 0; j < spec_.targets.size(); ++j) {
        if (j != slot && spec_.targets[j] == r) {
          taken = true;
          break;
        }
      }
      if (!taken) {
        replacement = r;
        found = true;
        break;
      }
    }
    if (!found) continue;  // every current replica already targeted
    spec_.targets[slot] = replacement;
    coord_->metrics()->member_ops_retargeted++;
    if (trace_) {
      coord_->tracer()->Annotate(
          trace_, "retarget " + std::to_string(departed) + " -> " +
                      std::to_string(replacement));
    }
    Tracer::Scope scope(coord_->tracer(), trace_);
    SendTo(slot);
  }
}

template <typename Response>
void QuorumOp<Response>::Settle(bool aborted) {
  // Hinted handoff: every target that never answered gets a hint at this
  // coordinator, replayed until it acks (the write may or may not have
  // landed; re-applying is idempotent under LWW). A crashed coordinator
  // stores none — its hints would die with the process anyway.
  if (!aborted && !spec_.hint_table.empty() &&
      coord_->config().hint_replay_interval > 0) {
    for (std::size_t i = 0; i < spec_.targets.size(); ++i) {
      if (!responses_[i]) {
        coord_->StoreHint(spec_.targets[i], spec_.hint_table, spec_.hint_key,
                          spec_.hint_cells);
      }
    }
  }
  if (spec_.on_settled) spec_.on_settled(*this, aborted);
}

template class QuorumOp<storage::Row>;
template class QuorumOp<bool>;
template class QuorumOp<std::vector<storage::KeyedRow>>;

}  // namespace mvstore::store
