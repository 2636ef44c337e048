#include "store/freshness.h"

#include <algorithm>
#include <utility>

#include "store/codec.h"
#include "store/metrics.h"

namespace mvstore::store {

namespace {

/// Weight of the newest sample in the per-view propagation-lag EWMA.
constexpr double kLagAlpha = 0.2;

}  // namespace

FreshnessTracker::FreshnessTracker(Metrics* metrics) : metrics_(metrics) {}

// ---------------------------------------------------------------------------
// Intent lifecycle.
// ---------------------------------------------------------------------------

std::uint64_t FreshnessTracker::RegisterIntent(const std::string& view,
                                               const Key& base_key,
                                               Timestamp ts,
                                               SessionId session) {
  const std::uint64_t id = ++next_intent_;
  Intent intent;
  intent.view = view;
  intent.base_key = base_key;
  intent.ts = ts;
  intent.session = session;
  intents_.emplace(id, std::move(intent));
  by_view_[view].insert(id);
  if (metrics_ != nullptr) metrics_->freshness_intents_registered++;
  return id;
}

void FreshnessTracker::ResolvePartitions(std::uint64_t intent,
                                         std::set<Key> partitions) {
  if (intent == 0 || partitions.empty()) return;
  auto it = intents_.find(intent);
  if (it == intents_.end()) return;
  it->second.partitions = std::move(partitions);
}

void FreshnessTracker::EraseIntent(
    std::map<std::uint64_t, Intent>::iterator it) {
  auto view_it = by_view_.find(it->second.view);
  if (view_it != by_view_.end()) {
    view_it->second.erase(it->first);
    if (view_it->second.empty()) by_view_.erase(view_it);
  }
  intents_.erase(it);
}

void FreshnessTracker::MarkApplied(std::uint64_t intent) {
  if (intent == 0) return;
  auto it = intents_.find(intent);
  if (it == intents_.end()) return;
  const std::string view = it->second.view;
  EraseIntent(it);
  FireImprovement(view);
}

void FreshnessTracker::MarkWounded(std::uint64_t intent) {
  if (intent == 0) return;
  auto it = intents_.find(intent);
  if (it == intents_.end() || it->second.wounded) return;
  it->second.wounded = true;
  if (metrics_ != nullptr) metrics_->freshness_intents_wounded++;
  FireImprovement(it->second.view);
}

std::size_t FreshnessTracker::FamilyAudited(const std::string& view,
                                            const Key& base_key) {
  auto view_it = by_view_.find(view);
  if (view_it == by_view_.end()) return 0;
  std::vector<std::uint64_t> matched;
  for (std::uint64_t id : view_it->second) {
    if (intents_.at(id).base_key == base_key) matched.push_back(id);
  }
  for (std::uint64_t id : matched) {
    auto it = intents_.find(id);
    if (it->second.wounded && metrics_ != nullptr) {
      metrics_->freshness_wounds_cleared++;
    }
    EraseIntent(it);
  }
  if (!matched.empty()) FireImprovement(view);
  return matched.size();
}

// ---------------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------------

Timestamp FreshnessTracker::FreshAsOf(const std::string& view,
                                      const Key& partition, Timestamp now_ts,
                                      int shard, int shard_count) const {
  Timestamp fresh = now_ts;
  auto view_it = by_view_.find(view);
  if (view_it == by_view_.end()) return fresh;
  for (std::uint64_t id : view_it->second) {
    const Intent& intent = intents_.at(id);
    if (!Covers(intent, partition)) continue;
    if (shard_count > 1 &&
        ShardOfBaseKey(intent.base_key, shard_count) != shard) {
      continue;
    }
    fresh = std::min(fresh, intent.ts - 1);
  }
  return fresh;
}

FreshnessTracker::BlockerSummary FreshnessTracker::BlockersBefore(
    const std::string& view, const Key& partition, Timestamp need,
    std::optional<SessionId> session) const {
  BlockerSummary summary;
  if (session == SessionId{0}) return summary;  // no session, no own writes
  auto view_it = by_view_.find(view);
  if (view_it == by_view_.end()) return summary;
  for (std::uint64_t id : view_it->second) {
    const Intent& intent = intents_.at(id);
    if (session && intent.session != *session) continue;
    if (!Covers(intent, partition)) continue;
    if (intent.ts > need) continue;  // within the allowed staleness window
    if (intent.wounded) {
      summary.wounded++;
      summary.wounded_keys.push_back(intent.base_key);
    } else {
      summary.live++;
    }
  }
  return summary;
}

void FreshnessTracker::RecordLag(const std::string& view, SimTime lag) {
  auto [it, inserted] = lag_ewma_.try_emplace(view, static_cast<double>(lag));
  if (!inserted) {
    it->second =
        kLagAlpha * static_cast<double>(lag) + (1.0 - kLagAlpha) * it->second;
  }
}

SimTime FreshnessTracker::LagEstimate(const std::string& view) const {
  auto it = lag_ewma_.find(view);
  return it == lag_ewma_.end() ? -1 : static_cast<SimTime>(it->second);
}

void FreshnessTracker::NotifyOnImprovement(const std::string& view,
                                           std::function<void()> callback) {
  improvement_[view].push_back(std::move(callback));
}

void FreshnessTracker::FireImprovement(const std::string& view) {
  auto it = improvement_.find(view);
  if (it == improvement_.end()) return;
  std::vector<std::function<void()>> callbacks = std::move(it->second);
  improvement_.erase(it);
  for (auto& callback : callbacks) callback();
}

}  // namespace mvstore::store
