// The generic coordinator state machine.
//
// Every coordinator operation in the store is the same pattern — fan a
// request out to a set of replica targets, track responses by slot, reply
// to the caller once a quorum has answered, and settle the stragglers when
// everyone answered or the rpc timeout expired. QuorumOp owns that pattern
// once: slot-deduplicated response tracking (a replayed ack can never
// satisfy a quorum twice), reply-once semantics, the overall timeout, one
// re-send to every replica still silent 100 ms into the op, crash-abort via
// the coordinator's in-flight registry, hint scheduling for unresponsive
// write targets, and uniform metrics/trace emission.
//
// The five concrete operations (read, write, get-then-put, scan, index
// scan) and the hinted-handoff replay are thin policies on top: a request
// closure that runs on each target, a merge/finalize pair expressed through
// three callbacks, and a distinct quorum-failure message.
//
// An op contacts only its `targets`. A read that needs one answer names one
// target and keeps the key's other replicas as `spares`. If that target is
// still silent at the spare delay — min(100 ms, rpc_timeout / 2), so it
// always falls inside the rpc timeout — every spare is contacted at once,
// each in a slot of its own: the read degrades to the full fan-out, so
// losing the one replica never fails a read that another live replica could
// answer. The op settles once every contacted slot has answered.
//
//   on_quorum(op)            exactly once, when the quorum-th response
//                            lands: deliver the success reply.
//   on_error(op, status)     exactly once INSTEAD of on_quorum, when the
//                            op finalizes (timeout) or aborts (coordinator
//                            crash) before the quorum was met.
//   on_settled(op, aborted)  exactly once, after every contacted target
//                            answered or the timeout/abort ended the op:
//                            side effects that want the full response set
//                            (read repair, pre-image collection). On abort
//                            the policy must not perform repairs — a dead
//                            process cannot push writes.

#ifndef MVSTORE_STORE_QUORUM_OP_H_
#define MVSTORE_STORE_QUORUM_OP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "sim/simulation.h"
#include "storage/row.h"

namespace mvstore::store {

class Server;

template <typename Response>
class QuorumOp : public std::enable_shared_from_this<QuorumOp<Response>> {
 public:
  using Ptr = std::shared_ptr<QuorumOp<Response>>;

  struct Spec {
    /// Short label ("read", "write", ...) naming the op's trace span.
    std::string name;
    /// The replicas contacted at launch, one slot each.
    std::vector<ServerId> targets;
    /// Replicas held back at launch: if any target is still silent at the
    /// spare delay, each spare gets a slot of its own and the request.
    std::vector<ServerId> spares;
    int quorum = 1;
    /// Per-target service demand of executing `request` remotely.
    SimTime service = 0;
    /// Optional per-target service override, evaluated ON THE TARGET when
    /// the request is dequeued there (not at send time): lets the demand
    /// depend on replica-local state the coordinator cannot see — a read
    /// answered from the target's row cache costs `kReadCachedLocal`
    /// instead of `read_local`. Unset = the flat `service` above.
    std::function<SimTime(Server&)> service_at;
    /// Runs on each target under its service queue; the returned value
    /// travels back to the coordinator.
    std::function<Response(Server&)> request;
    /// Optional transport override, for tests that script replies. When
    /// set, it must eventually invoke the reply callback with the target's
    /// response; the default ships `request` via Server::CallPeer.
    std::function<void(Server&, ServerId, std::function<void(Response)>)>
        send;
    /// Per-op-kind quorum-failure message (each op reports its own).
    std::string quorum_error = "quorum not reached";
    /// When non-empty, finalization stores a hint per unresponsive target
    /// (hinted handoff; skipped on abort and when replay is disabled).
    std::string hint_table;
    Key hint_key;
    storage::Row hint_cells;
    std::function<void(QuorumOp&)> on_quorum;
    std::function<void(QuorumOp&, const Status&)> on_error;
    std::function<void(QuorumOp&, bool /*aborted*/)> on_settled;
  };

  /// Fans the op out and arms its timeouts. The returned handle is shared
  /// with every in-flight closure; callers normally drop it.
  static Ptr Start(Server* coord, Spec spec);

  QuorumOp(const QuorumOp&) = delete;
  QuorumOp& operator=(const QuorumOp&) = delete;

  // --- policy-facing state accessors ---

  /// The target of each contacted slot: the launch targets, then any
  /// spares contacted since.
  const std::vector<ServerId>& targets() const { return spec_.targets; }
  /// Responses by target slot; unanswered slots are nullopt.
  const std::vector<std::optional<Response>>& responses() const {
    return responses_;
  }
  int num_responses() const { return num_responses_; }
  bool replied() const { return replied_; }
  Server& coordinator() const { return *coord_; }

 private:
  QuorumOp(Server* coord, Spec spec);

  void Launch();
  void SendTo(std::size_t slot);
  /// Arms the op's one timer at its next due event: the spare delay while
  /// spares are held back, the silence probe until it has run (if it falls
  /// at or before the rpc timeout), else the rpc timeout itself.
  void ArmTimer();
  /// Runs every event due now, in that order: re-sends to silent slots,
  /// the spares' fan-out, finalization at the rpc timeout.
  void OnTimer();
  /// Re-sends to every still-silent slot (the request is idempotent — LWW
  /// applies absorb duplicates and the slot dedupe absorbs a duplicate
  /// reply). Runs at most once per op.
  void ProbeSilentSlots();
  /// Gives every held-back spare a slot and sends it the request.
  void ContactSpares();
  void OnResponse(std::size_t slot, Response response);
  void Finalize();
  /// Crash-stop: the coordinator died mid-operation. Outstanding callbacks
  /// fire with errors/partials but no side effects are performed.
  void Abort();
  /// `departed` left the ring mid-operation: unanswered slots targeting it
  /// re-point to a current replica of the op's key and re-send, so an acked
  /// write is never stranded waiting on a server that will not answer. Only
  /// hint-keyed (write-shaped) ops know their key; others run out their
  /// timeout as before.
  void Retarget(ServerId departed);
  void Settle(bool aborted);

  Server* coord_;
  Spec spec_;
  std::vector<std::optional<Response>> responses_;
  int num_responses_ = 0;
  bool replied_ = false;
  bool finalized_ = false;
  SimTime deadline_ = 0;  ///< launch + rpc_timeout: the op finalizes here
  SimTime spare_at_ = 0;  ///< launch + the spare delay
  SimTime probe_at_ = 0;  ///< launch + the probe delay; never once it ran
  std::uint64_t op_id_ = 0;
  /// The op's own span (child of the ambient context at creation);
  /// finalization re-enters it so read repair, hints, and collection
  /// continuations stay on the op's trace even when triggered by the
  /// (context-free) rpc timeout.
  TraceContext trace_;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_QUORUM_OP_H_
