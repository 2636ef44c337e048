// Lock service for update propagation (Section IV-F, first alternative).
//
// "Since each base row corresponds to a distinct set of view rows, it is
// sufficient for propagation operations to lock the key of the base row...
// Propagations of view key updates must obtain an exclusive lock, while
// propagations of view-materialized cell updates can proceed with a shared
// lock. Locks could be implemented by a separate lock service."
//
// We model exactly that: a dedicated endpoint holding the lock tables.
// Acquire/grant/release each cost one message latency, so locking is
// visible in the ablation bench (A2). The lock channel is RELIABLE (a real
// lock service speaks TCP and retries internally; losing a grant would
// strand its propagation forever), so messages bypass the lossy datapath
// network and pay a fixed per-hop latency instead. Locks affect only update
// propagation — never base-table Puts/Gets or view Gets.
//
// Crash model: grants are LEASES. A holder that crashes between acquire and
// release never sends its Release, so every hold carries a TTL; when it
// expires the service force-releases the hold and pumps the wait queue. A
// Release arriving for an already-expired hold is ignored (the service
// already reclaimed it). TTL 0 disables expiry (pre-crash-model behaviour).

#ifndef MVSTORE_VIEW_LOCK_SERVICE_H_
#define MVSTORE_VIEW_LOCK_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace mvstore::view {

enum class LockMode { kShared, kExclusive };

class LockService {
 public:
  /// `hop_latency` is the one-way cost of each lock message; `lease_ttl` is
  /// the hold expiry window (0 = holds never expire).
  explicit LockService(sim::Simulation* sim, SimTime hop_latency = Micros(120),
                       SimTime lease_ttl = 0);

  LockService(const LockService&) = delete;
  LockService& operator=(const LockService&) = delete;

  /// Requests `resource` in `mode` from `requester`; `granted` runs at the
  /// requester once the lock is held. FIFO queuing (no starvation of
  /// exclusive requests behind a shared stream).
  void Acquire(sim::EndpointId requester, const std::string& resource,
               LockMode mode, std::function<void()> granted);

  /// Releases one previously granted hold. Fire-and-forget from the
  /// requester's perspective.
  void Release(sim::EndpointId requester, const std::string& resource,
               LockMode mode);

  /// True when a new Acquire of `mode` would be granted immediately
  /// (introspection for tests/metrics; evaluated instantly).
  bool WouldGrantImmediately(const std::string& resource, LockMode mode) const;

  std::uint64_t grants() const { return grants_; }
  std::uint64_t waits() const { return waits_; }

  /// Holds reclaimed by lease expiry (their holder never released).
  std::uint64_t expirations() const { return expirations_; }

  /// Optional external counter (store::Metrics::locks_expired) bumped on
  /// every lease expiry.
  void set_expired_counter(Counter* counter) { expired_counter_ = counter; }

  SimTime lease_ttl() const { return lease_ttl_; }

  /// Currently granted holds across all resources (test introspection: lets
  /// a crash test fire exactly while some propagation holds its lock).
  std::size_t holds_outstanding() const {
    std::size_t n = 0;
    for (const auto& [resource, state] : locks_) n += state.holds.size();
    return n;
  }

 private:
  struct Waiter {
    sim::EndpointId requester;
    LockMode mode;
    std::function<void()> granted;
  };
  /// One granted hold; `expiry` fires if the holder never releases.
  struct Hold {
    std::uint64_t id = 0;
    sim::EndpointId requester = 0;
    LockMode mode = LockMode::kShared;
    sim::EventHandle expiry;
  };
  struct LockState {
    std::vector<Hold> holds;
    std::deque<Waiter> waiters;
  };

  // Executed at the lock endpoint.
  void DoAcquire(Waiter waiter, const std::string& resource);
  void DoRelease(const std::string& resource, sim::EndpointId requester,
                 LockMode mode);
  bool Compatible(const LockState& state, LockMode mode) const;
  void GrantHold(const std::string& resource, LockState& state, Waiter waiter);
  void Grant(Waiter waiter);
  void PumpWaiters(const std::string& resource);
  void ExpireHold(const std::string& resource, std::uint64_t hold_id);
  void EraseIfIdle(const std::string& resource);

  sim::Simulation* sim_;
  SimTime hop_latency_;
  SimTime lease_ttl_;
  std::map<std::string, LockState> locks_;
  std::uint64_t grants_ = 0;
  std::uint64_t waits_ = 0;
  std::uint64_t expirations_ = 0;
  std::uint64_t next_hold_id_ = 0;
  Counter* expired_counter_ = nullptr;
};

}  // namespace mvstore::view

#endif  // MVSTORE_VIEW_LOCK_SERVICE_H_
