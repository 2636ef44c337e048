#include "view/lock_service.h"

#include <algorithm>
#include <utility>

namespace mvstore::view {

LockService::LockService(sim::Simulation* sim, SimTime hop_latency,
                         SimTime lease_ttl)
    : sim_(sim), hop_latency_(hop_latency), lease_ttl_(lease_ttl) {}

void LockService::Acquire(sim::EndpointId requester,
                          const std::string& resource, LockMode mode,
                          std::function<void()> granted) {
  // Request message travels to the lock endpoint (reliable channel).
  sim_->After(hop_latency_,
              [this, resource,
               waiter = Waiter{requester, mode, std::move(granted)}]() mutable {
                DoAcquire(std::move(waiter), resource);
              });
}

void LockService::Release(sim::EndpointId requester,
                          const std::string& resource, LockMode mode) {
  sim_->After(hop_latency_, [this, resource, requester, mode] {
    DoRelease(resource, requester, mode);
  });
}

bool LockService::Compatible(const LockState& state, LockMode mode) const {
  // An exclusive hold admits nobody; an exclusive request needs no holds.
  if (mode == LockMode::kExclusive) return state.holds.empty();
  return std::none_of(
      state.holds.begin(), state.holds.end(),
      [](const Hold& h) { return h.mode == LockMode::kExclusive; });
}

void LockService::Grant(Waiter waiter) {
  ++grants_;
  // ...and the grant travels back to the requester (reliable channel).
  sim_->After(hop_latency_, [granted = std::move(waiter.granted)] { granted(); });
}

void LockService::GrantHold(const std::string& resource, LockState& state,
                            Waiter waiter) {
  Hold hold;
  hold.id = ++next_hold_id_;
  hold.requester = waiter.requester;
  hold.mode = waiter.mode;
  if (lease_ttl_ > 0) {
    const std::uint64_t hold_id = hold.id;
    hold.expiry = sim_->AfterCancelable(
        lease_ttl_, [this, resource, hold_id] { ExpireHold(resource, hold_id); });
  }
  state.holds.push_back(std::move(hold));
  Grant(std::move(waiter));
}

void LockService::DoAcquire(Waiter waiter, const std::string& resource) {
  LockState& state = locks_[resource];
  // FIFO fairness: grant immediately only when compatible AND nobody is
  // already queued (otherwise a shared stream could starve an exclusive
  // waiter forever).
  if (state.waiters.empty() && Compatible(state, waiter.mode)) {
    GrantHold(resource, state, std::move(waiter));
    return;
  }
  ++waits_;
  state.waiters.push_back(std::move(waiter));
}

void LockService::DoRelease(const std::string& resource,
                            sim::EndpointId requester, LockMode mode) {
  auto it = locks_.find(resource);
  if (it == locks_.end()) return;  // hold already reclaimed by lease expiry
  LockState& state = it->second;
  auto hold = std::find_if(state.holds.begin(), state.holds.end(),
                           [requester, mode](const Hold& h) {
                             return h.requester == requester && h.mode == mode;
                           });
  if (hold == state.holds.end()) return;  // already reclaimed
  hold->expiry.Cancel();
  state.holds.erase(hold);
  PumpWaiters(resource);
  EraseIfIdle(resource);
}

void LockService::ExpireHold(const std::string& resource,
                             std::uint64_t hold_id) {
  auto it = locks_.find(resource);
  if (it == locks_.end()) return;
  LockState& state = it->second;
  auto hold = std::find_if(state.holds.begin(), state.holds.end(),
                           [hold_id](const Hold& h) { return h.id == hold_id; });
  if (hold == state.holds.end()) return;  // released in the same tick
  state.holds.erase(hold);
  ++expirations_;
  if (expired_counter_ != nullptr) ++*expired_counter_;
  PumpWaiters(resource);
  EraseIfIdle(resource);
}

void LockService::EraseIfIdle(const std::string& resource) {
  auto it = locks_.find(resource);
  if (it != locks_.end() && it->second.waiters.empty() &&
      it->second.holds.empty()) {
    locks_.erase(it);
  }
}

void LockService::PumpWaiters(const std::string& resource) {
  auto it = locks_.find(resource);
  if (it == locks_.end()) return;
  LockState& state = it->second;
  while (!state.waiters.empty() &&
         Compatible(state, state.waiters.front().mode)) {
    Waiter waiter = std::move(state.waiters.front());
    state.waiters.pop_front();
    GrantHold(resource, state, std::move(waiter));
  }
}

bool LockService::WouldGrantImmediately(const std::string& resource,
                                        LockMode mode) const {
  auto it = locks_.find(resource);
  if (it == locks_.end()) return true;
  return it->second.waiters.empty() && Compatible(it->second, mode);
}

}  // namespace mvstore::view
