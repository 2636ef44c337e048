#include "store/ring.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"

namespace mvstore::store {

namespace {

bool Contains(const std::vector<ServerId>& servers, ServerId s) {
  return std::find(servers.begin(), servers.end(), s) != servers.end();
}

bool SortByToken(const Ring::RangeTransfer& a, const Ring::RangeTransfer& b) {
  return a.range.begin < b.range.begin;
}

}  // namespace

Ring::Ring(int num_servers, int vnodes_per_server, std::uint64_t seed)
    : vnodes_per_server_(vnodes_per_server), seed_(seed) {
  MVSTORE_CHECK_GT(num_servers, 0);
  MVSTORE_CHECK_GT(vnodes_per_server, 0);
  vnodes_.reserve(static_cast<std::size_t>(num_servers) * vnodes_per_server);
  for (ServerId s = 0; s < static_cast<ServerId>(num_servers); ++s) {
    members_.insert(s);
    auto tokens = TokensFor(s);
    vnodes_.insert(vnodes_.end(), tokens.begin(), tokens.end());
  }
  std::sort(vnodes_.begin(), vnodes_.end(),
            [](const VNode& a, const VNode& b) {
              if (a.token != b.token) return a.token < b.token;
              return a.server < b.server;
            });
}

std::vector<Ring::VNode> Ring::TokensFor(ServerId server) const {
  // Each server draws from its own stream so the tokens it lands on do not
  // depend on which other servers exist or the order they joined.
  Rng rng(HashCombine(HashCombine(seed_, 0x52494E47 /*"RING"*/),
                      static_cast<std::uint64_t>(server) + 1));
  std::vector<VNode> tokens;
  tokens.reserve(static_cast<std::size_t>(vnodes_per_server_));
  for (int v = 0; v < vnodes_per_server_; ++v) {
    tokens.push_back(VNode{rng.Next(), server});
  }
  return tokens;
}

std::vector<ServerId> Ring::WalkFrom(std::size_t start, int n,
                                     ServerId exclude) const {
  std::vector<ServerId> replicas;
  replicas.reserve(static_cast<std::size_t>(n));
  for (std::size_t walked = 0;
       walked < vnodes_.size() &&
       replicas.size() < static_cast<std::size_t>(n);
       ++walked) {
    const VNode& v = vnodes_[(start + walked) % vnodes_.size()];
    if (v.server == exclude) continue;
    if (!Contains(replicas, v.server)) replicas.push_back(v.server);
  }
  MVSTORE_CHECK_EQ(replicas.size(), static_cast<std::size_t>(n));
  return replicas;
}

template <typename Fn>
void Ring::ForEachSegment(int n, Fn fn) const {
  const std::size_t count = vnodes_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t prev = vnodes_[(i + count - 1) % count].token;
    const std::uint64_t cur = vnodes_[i].token;
    // Duplicate tokens leave an empty arc between them (a single-vnode ring
    // is the exception: its one "segment" is the full circle).
    if (count > 1 && prev == cur) continue;
    fn(TokenRange{prev, cur}, WalkFrom(i, n));
  }
}

std::size_t Ring::StartFor(std::uint64_t token) const {
  auto it = std::lower_bound(
      vnodes_.begin(), vnodes_.end(), token,
      [](const VNode& v, std::uint64_t t) { return v.token < t; });
  return it == vnodes_.end() ? 0
                             : static_cast<std::size_t>(it - vnodes_.begin());
}

std::vector<ServerId> Ring::ReplicasFor(std::string_view partition_key,
                                        int n) const {
  MVSTORE_CHECK_LE(n, num_servers());
  return WalkFrom(StartFor(TokenOf(partition_key)), n);
}

const std::vector<ServerId>& Ring::PlacementFor(
    std::string_view partition_key, int n) const {
  MVSTORE_CHECK_LE(n, num_servers());
  PlacementTable& table = placements_[n];
  if (table.replicas.empty() || table.version != version_) {
    table.replicas.clear();
    for (std::size_t i = 0; i < vnodes_.size(); ++i) {
      table.replicas.push_back(WalkFrom(i, n));
    }
    table.version = version_;
  }
  return table.replicas[StartFor(TokenOf(partition_key))];
}

ServerId Ring::PrimaryFor(std::string_view partition_key) const {
  return ReplicasFor(partition_key, 1)[0];
}

std::uint64_t Ring::TokenOf(std::string_view partition_key) {
  return Hash64(partition_key);
}

std::vector<Ring::TokenRange> Ring::RangesReplicatedOn(ServerId server,
                                                       int n) const {
  std::vector<TokenRange> ranges;
  ForEachSegment(n, [&](TokenRange range, const std::vector<ServerId>& reps) {
    if (!Contains(reps, server)) return;
    if (!ranges.empty() && ranges.back().end == range.begin) {
      ranges.back().end = range.end;
    } else {
      ranges.push_back(range);
    }
  });
  return ranges;
}

std::vector<Ring::RangeTransfer> Ring::AddServer(ServerId server, int n) {
  MVSTORE_CHECK(!IsMember(server));
  ++version_;
  members_.insert(server);
  auto tokens = TokensFor(server);
  vnodes_.insert(vnodes_.end(), tokens.begin(), tokens.end());
  std::sort(vnodes_.begin(), vnodes_.end(),
            [](const VNode& a, const VNode& b) {
              if (a.token != b.token) return a.token < b.token;
              return a.server < b.server;
            });

  // In the grown ring, every range the joiner replicates must be streamed
  // in. The sources are the range's PRE-JOIN replicas — the walk that skips
  // the joiner's vnodes — which is a superset of "new replicas minus the
  // joiner" (it also includes the displaced old replica), and, unlike it,
  // stays non-empty at replication factor 1.
  const int effective_n = std::min(n, num_servers());
  const int source_n = std::min(n, num_servers() - 1);
  std::vector<RangeTransfer> transfers;
  ForEachSegment(effective_n,
                 [&](TokenRange range, const std::vector<ServerId>& reps) {
    if (!Contains(reps, server)) return;
    std::vector<ServerId> sources =
        WalkFrom(StartFor(range.end), source_n, server);
    if (!transfers.empty() && transfers.back().range.end == range.begin &&
        transfers.back().peers == sources) {
      transfers.back().range.end = range.end;
    } else {
      transfers.push_back(RangeTransfer{range, std::move(sources)});
    }
  });
  std::sort(transfers.begin(), transfers.end(), SortByToken);
  return transfers;
}

std::vector<Ring::RangeTransfer> Ring::RemoveServer(ServerId server, int n) {
  MVSTORE_CHECK(IsMember(server));
  MVSTORE_CHECK_GT(num_servers(), 1);
  ++version_;

  // Snapshot, before removal, every range the leaver replicates together
  // with its old replica set.
  struct OldSegment {
    TokenRange range;
    std::vector<ServerId> replicas;
  };
  const int old_n = std::min(n, num_servers());
  std::vector<OldSegment> owned;
  ForEachSegment(old_n,
                 [&](TokenRange range, const std::vector<ServerId>& reps) {
    if (Contains(reps, server)) owned.push_back(OldSegment{range, reps});
  });

  members_.erase(server);
  vnodes_.erase(std::remove_if(vnodes_.begin(), vnodes_.end(),
                               [server](const VNode& v) {
                                 return v.server == server;
                               }),
                vnodes_.end());

  // Removing vnodes only merges segments, so each old segment maps to a
  // single new replica set; the servers in it that were not replicas before
  // must receive the leaver's copy.
  const int new_n = std::min(n, num_servers());
  std::vector<RangeTransfer> transfers;
  for (const OldSegment& seg : owned) {
    std::vector<ServerId> gained;
    for (ServerId r : WalkFrom(StartFor(seg.range.end), new_n)) {
      if (!Contains(seg.replicas, r)) gained.push_back(r);
    }
    if (!transfers.empty() && transfers.back().range.end == seg.range.begin &&
        transfers.back().peers == gained) {
      transfers.back().range.end = seg.range.end;
    } else {
      transfers.push_back(RangeTransfer{seg.range, std::move(gained)});
    }
  }
  std::sort(transfers.begin(), transfers.end(), SortByToken);
  return transfers;
}

}  // namespace mvstore::store
