// Consistent-hash ring for record placement.
//
// Each server contributes `vnodes_per_server` virtual nodes at pseudo-random
// tokens; a partition key hashes to a token and its N replicas are the next
// N DISTINCT servers clockwise. This is the Dynamo/Cassandra placement the
// paper assumes ("placement of a record's copies is determined by its key
// value"); the exact policy is orthogonal to view maintenance, but a real
// ring gives realistic per-server load spread for the throughput figures.
//
// Membership is dynamic: AddServer / RemoveServer re-assign tokens at
// runtime and report the key ranges whose replica sets changed, so the
// cluster can stream exactly the affected data. Each server draws its
// tokens from its own seed-derived stream, which makes the ring a pure
// function of (seed, member set): an incrementally grown ring is
// token-for-token identical to one built from scratch with the same
// members.

#ifndef MVSTORE_STORE_RING_H_
#define MVSTORE_STORE_RING_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace mvstore::store {

class Ring {
 public:
  /// A half-open arc of the token circle: tokens t with
  /// begin < t <= end, wrapping through 0 when end <= begin. A range with
  /// begin == end covers the whole circle (single-vnode rings).
  struct TokenRange {
    std::uint64_t begin;
    std::uint64_t end;

    bool Covers(std::uint64_t token) const {
      if (begin < end) return token > begin && token <= end;
      return token > begin || token <= end;
    }
    bool operator==(const TokenRange& o) const {
      return begin == o.begin && end == o.end;
    }
  };

  /// One range whose replica set changed, plus the peers involved in moving
  /// it: for AddServer the existing replicas the joiner can stream from, for
  /// RemoveServer the servers that newly gained the range and must receive
  /// the leaver's copy.
  struct RangeTransfer {
    TokenRange range;
    std::vector<ServerId> peers;
  };

  /// Builds the ring deterministically from the seed with members
  /// {0, ..., num_servers-1}.
  Ring(int num_servers, int vnodes_per_server, std::uint64_t seed);

  /// Adds `server`'s vnodes to the ring. Returns the ranges the new server
  /// now replicates (at replication factor `n`), each with the other current
  /// replicas as streaming sources. Requires `server` not be a member.
  std::vector<RangeTransfer> AddServer(ServerId server, int n);

  /// Removes `server`'s vnodes. Returns the ranges `server` replicated
  /// before removal, each with the servers that newly gained the range (may
  /// be empty when the remaining members already covered it). Requires
  /// `server` be a member and at least one member remain.
  std::vector<RangeTransfer> RemoveServer(ServerId server, int n);

  /// The `n` distinct servers responsible for `partition_key`, in preference
  /// order. Requires n <= num_servers. Takes a view so callers routing on a
  /// slice of a composed key need not materialize it.
  std::vector<ServerId> ReplicasFor(std::string_view partition_key,
                                    int n) const;

  /// The same replica set as ReplicasFor, by reference into a ring-owned
  /// table holding the replica set of every vnode start. The table is
  /// rebuilt on first use after a membership change, so its size follows
  /// the ring, not the number of keys ever routed. The reference is stable
  /// until version() changes.
  const std::vector<ServerId>& PlacementFor(std::string_view partition_key,
                                            int n) const;

  /// First replica (used to pick dedicated propagators).
  ServerId PrimaryFor(std::string_view partition_key) const;

  /// The ranges `server` replicates at replication factor `n` in the
  /// current ring (adjacent segments merged).
  std::vector<TokenRange> RangesReplicatedOn(ServerId server, int n) const;

  /// The token a partition key hashes to (for range membership checks).
  static std::uint64_t TokenOf(std::string_view partition_key);

  /// Monotone counter bumped by every membership change. Placement caches
  /// key their validity on it: same version, same ReplicasFor answers.
  std::uint64_t version() const { return version_; }

  bool IsMember(ServerId server) const {
    return members_.count(server) != 0;
  }
  const std::set<ServerId>& members() const { return members_; }

  /// Number of current members.
  int num_servers() const { return static_cast<int>(members_.size()); }

 private:
  struct VNode {
    std::uint64_t token;
    ServerId server;
  };

  /// Replica set of each vnode start (WalkFrom(i, n) at index i) for one
  /// replication factor, valid while non-empty and `version` equals the
  /// ring's.
  struct PlacementTable {
    std::uint64_t version = 0;
    std::vector<std::vector<ServerId>> replicas;
  };

  /// The deterministic vnode tokens of `server` (independent of membership).
  std::vector<VNode> TokensFor(ServerId server) const;

  /// Index of the first vnode whose token is >= `token` (wrapping to 0):
  /// where the replica walk for that token starts.
  std::size_t StartFor(std::uint64_t token) const;

  /// Distinct-server walk starting at vnode index `start`, i.e. the replica
  /// set of keys mapping to that vnode. With `exclude` >= 0 that server's
  /// vnodes are skipped, which reconstructs the walk of the ring as it was
  /// before `exclude` joined (per-server token streams make the two rings
  /// identical apart from those vnodes).
  std::vector<ServerId> WalkFrom(std::size_t start, int n,
                                 ServerId exclude = -1) const;

  /// Per-segment scan: invokes `fn(range, replicas)` for every arc between
  /// consecutive vnodes (segment i covers (token[i-1], token[i]]).
  template <typename Fn>
  void ForEachSegment(int n, Fn fn) const;

  int vnodes_per_server_;
  std::uint64_t seed_;
  std::uint64_t version_ = 0;
  std::set<ServerId> members_;
  std::vector<VNode> vnodes_;  // sorted by token
  /// PlacementFor's tables, one per replication factor asked for (a map, so
  /// a table never moves and handed-out references stay put).
  mutable std::map<int, PlacementTable> placements_;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_RING_H_
