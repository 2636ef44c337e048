// Server: repair — range syncs, anti-entropy, hinted handoff, compaction.

#include "store/server.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/hash.h"
#include "store/quorum_op.h"

namespace mvstore::store {

namespace {

/// Salt mixed into each anti-entropy digest entry before summation, so the
/// combiner is not the plain entry hash (defense against crafted inputs
/// that target the entry-hash function directly).
constexpr std::uint64_t kSyncDigestSalt = 0x9e3779b97f4a7c15ULL;

/// Key-hash buckets per (table, peer) range sync. More buckets make the key
/// list in a digest answer shorter, not the rows shipped fewer: those are
/// exactly the rows that differ.
constexpr int kSyncBuckets = 64;

/// Entries (rows pushed plus keys pulled) per push message of a range sync:
/// anti-entropy repair, join bootstrap and decommission handoff alike.
constexpr std::size_t kSyncChunkEntries = 128;

/// Hints kept per target server; beyond this the oldest is dropped
/// (anti-entropy is the backstop).
constexpr std::size_t kMaxHintsPerTarget = 4096;

/// Service demand of one clock-driven compaction round (merge + tombstone
/// GC), charged per run merged.
constexpr SimTime kCompactionPerRun = Micros(250);

}  // namespace

bool Server::InSyncScope(const std::string& table, const Key& key,
                         ServerId peer, const SyncScope& scope) const {
  if (scope.range) {
    return scope.range->Covers(Ring::TokenOf(PartitionViewFor(table, key)));
  }
  const auto& replicas = ReplicasOf(table, key);
  return std::find(replicas.begin(), replicas.end(), id_) != replicas.end() &&
         std::find(replicas.begin(), replicas.end(), peer) != replicas.end();
}

std::vector<std::uint64_t> Server::ComputeSyncDigests(
    const std::string& table, ServerId peer, const SyncScope& scope) const {
  std::vector<std::uint64_t> digests(kSyncBuckets, 0);
  auto it = engines_.find(table);
  if (it == engines_.end()) return digests;
  // Sum (mod 2^64) of salted entry hashes, folded with the bucket's row
  // count. Addition is commutative, so the digest is still set-like — but
  // unlike the XOR combiner this used to be, it is not a GF(2) linear map:
  // with XOR, any bucket whose entry hashes form a linearly dependent set
  // (guaranteed once a bucket holds > 64 rows, and constructible with far
  // fewer) could cancel to the same digest on two replicas holding
  // DIFFERENT rows, silently skipping the bucket forever.
  std::vector<std::uint64_t> counts(kSyncBuckets, 0);
  it->second->ForEach([&](const Key& key, const storage::Row& row) {
    if (!InSyncScope(table, key, peer, scope)) return;
    const std::uint64_t key_hash = Hash64(key);
    const std::size_t bucket = key_hash % kSyncBuckets;
    digests[bucket] +=
        HashCombine(HashCombine(key_hash, storage::RowDigest(row)),
                    kSyncDigestSalt);
    ++counts[bucket];
  });
  for (std::size_t b = 0; b < digests.size(); ++b) {
    // Empty buckets stay 0 so a server with no engine for the table (all-zero
    // fast path above) agrees with a peer that has the engine but no rows in
    // scope.
    if (counts[b] > 0) digests[b] = HashCombine(digests[b], counts[b]);
  }
  return digests;
}

void Server::ForEachRowInBuckets(
    const std::string& table, ServerId peer, const SyncScope& scope,
    const std::vector<int>& buckets,
    const std::function<void(const Key&, const storage::Row&)>& fn) const {
  auto it = engines_.find(table);
  if (it == engines_.end()) return;
  std::vector<bool> wanted(kSyncBuckets, false);
  for (int bucket : buckets) wanted[static_cast<std::size_t>(bucket)] = true;
  it->second->ForEach([&](const Key& key, const storage::Row& row) {
    const std::size_t bucket = Hash64(key) % kSyncBuckets;
    if (wanted[bucket] && InSyncScope(table, key, peer, scope)) fn(key, row);
  });
}

// A (table, peer) range sync — one anti-entropy exchange, or one membership
// task — runs in three steps:
//   1. the peer compares bucket digests over the keys in scope and answers
//      with its mismatched buckets and the row digest of each of its keys
//      in them;
//   2. this server diffs that key list against its own rows of those
//      buckets and pushes, in chunks, the rows that differ or that the peer
//      lacks, plus the keys only the peer holds;
//   3. the peer applies each chunk and answers with its rows of the keys it
//      holds differently or alone, which this server applies. The peer
//      reads those rows around its row cache, so repair traffic neither
//      evicts client-hot rows nor counts as cache probes.
// Steps 1 and 2 each walk the whole table for their digests and are priced
// one flat `read_local` each; the walks are not yet charged per row. Every
// row applied in step 3, on either side, costs `write_local`, and every
// pulled key a `read_local` on the peer. A sync only ships what differs, so
// re-running one after a lost message ships only what is still missing.
void Server::SyncTableWithPeer(const std::string& table, ServerId peer,
                               const SyncScope& scope,
                               SyncSettled on_settled) {
  std::vector<std::uint64_t> mine = ComputeSyncDigests(table, peer, scope);
  if (!scope.range) metrics_->anti_entropy_digest_exchanges++;
  const ServerId self_id = id_;
  CallPeer<BucketKeyDigests>(
      peer, config_->perf.read_local,
      [table, self_id, scope, mine = std::move(mine)](Server& s) {
        const std::vector<std::uint64_t> theirs =
            s.ComputeSyncDigests(table, self_id, scope);
        BucketKeyDigests reply;
        for (int b = 0; b < kSyncBuckets; ++b) {
          if (mine[static_cast<std::size_t>(b)] !=
              theirs[static_cast<std::size_t>(b)]) {
            reply.buckets.push_back(b);
          }
        }
        if (reply.buckets.empty()) return reply;
        s.ForEachRowInBuckets(
            table, self_id, scope, reply.buckets,
            [&reply](const Key& key, const storage::Row& row) {
              reply.keys.emplace_back(key, storage::RowDigest(row));
            });
        return reply;
      },
      [this, table, peer, scope,
       on_settled = std::move(on_settled)](BucketKeyDigests theirs) mutable {
        if (theirs.buckets.empty()) {
          if (on_settled) on_settled(0);
          return;
        }
        if (!scope.range) {
          metrics_->anti_entropy_buckets_synced += theirs.buckets.size();
        }
        Enqueue(config_->perf.read_local,
                [this, table, peer, scope, theirs = std::move(theirs),
                 on_settled = std::move(on_settled)]() mutable {
                  PushDifferingRows(table, peer, scope, theirs,
                                    std::move(on_settled));
                });
      });
}

void Server::PushDifferingRows(const std::string& table, ServerId peer,
                               const SyncScope& scope,
                               const BucketKeyDigests& theirs,
                               SyncSettled on_settled) {
  std::vector<SyncChunk> chunks(1);
  auto next_entry = [&]() -> SyncChunk& {
    if (chunks.back().rows.size() + chunks.back().pulls.size() ==
        kSyncChunkEntries) {
      chunks.emplace_back();
    }
    return chunks.back();
  };
  // Both sides list their keys in engine order, so one merge pass sorts
  // every key into ours only, the peer's only, or on both sides.
  auto peer_it = theirs.keys.begin();
  ForEachRowInBuckets(
      table, peer, scope, theirs.buckets,
      [&](const Key& key, const storage::Row& row) {
        for (; peer_it != theirs.keys.end() && peer_it->first < key;
             ++peer_it) {
          next_entry().pulls.push_back(peer_it->first);
        }
        if (peer_it != theirs.keys.end() && peer_it->first == key) {
          const bool same = peer_it->second == storage::RowDigest(row);
          ++peer_it;
          if (same) return;
        }
        next_entry().rows.push_back(storage::KeyedRow{key, row});
      });
  for (; peer_it != theirs.keys.end(); ++peer_it) {
    next_entry().pulls.push_back(peer_it->first);
  }
  if (chunks.back().rows.empty() && chunks.back().pulls.empty()) {
    chunks.pop_back();  // nothing differed after all
  }
  auto tally = std::make_shared<SyncTally>(
      SyncTally{chunks.size(), 0, std::move(on_settled)});
  if (chunks.empty() && tally->on_settled) tally->on_settled(0);
  for (SyncChunk& chunk : chunks) {
    SendSyncChunk(table, peer, scope, std::move(chunk), tally);
  }
}

void Server::SendSyncChunk(const std::string& table, ServerId peer,
                           const SyncScope& scope, SyncChunk chunk,
                           std::shared_ptr<SyncTally> tally) {
  // Membership tasks count their rows apart from anti-entropy repair.
  Counter& shipped = scope.range ? metrics_->member_rows_streamed
                                 : metrics_->anti_entropy_rows_pushed;
  shipped += chunk.rows.size();
  tally->rows += chunk.rows.size();
  const SimTime service =
      config_->perf.write_local * static_cast<SimTime>(chunk.rows.size()) +
      config_->perf.read_local * static_cast<SimTime>(chunk.pulls.size());
  CallPeer<std::vector<storage::KeyedRow>>(
      peer, service,
      [table, chunk = std::move(chunk)](Server& s) {
        return s.ApplySyncChunk(table, chunk);
      },
      [this, table, &shipped,
       tally = std::move(tally)](std::vector<storage::KeyedRow> returned) {
        if (returned.empty()) {
          tally->Close();
          return;
        }
        shipped += returned.size();
        tally->rows += returned.size();
        Enqueue(config_->perf.write_local *
                    static_cast<SimTime>(returned.size()),
                [this, table, tally, returned = std::move(returned)] {
                  for (const auto& kr : returned) {
                    LocalApply(table, kr.key, kr.row);
                  }
                  tally->Close();
                });
      });
}

std::vector<storage::KeyedRow> Server::ApplySyncChunk(const std::string& table,
                                                      const SyncChunk& chunk) {
  storage::Engine& engine = EngineFor(table);
  std::vector<storage::KeyedRow> back;
  for (const auto& kr : chunk.rows) {
    LocalApply(table, kr.key, kr.row);
    // When the pushed row dominated ours, the merge is the pushed row and
    // the initiator already holds it.
    std::optional<storage::Row> merged = engine.GetRowBypassingCache(kr.key);
    if (merged && storage::RowDigest(*merged) != storage::RowDigest(kr.row)) {
      back.push_back(storage::KeyedRow{kr.key, std::move(*merged)});
    }
  }
  for (const Key& key : chunk.pulls) {
    if (std::optional<storage::Row> row = engine.GetRowBypassingCache(key)) {
      back.push_back(storage::KeyedRow{key, std::move(*row)});
    }
  }
  return back;
}

void Server::RunAntiEntropyRound() {
  // Each round is its own root trace: background repair has no client
  // operation to hang off, but its fan-out is still worth reconstructing.
  TraceContext round;
  if (tracer_ != nullptr) {
    round = tracer_->StartTrace("anti_entropy.round", static_cast<int>(id_),
                                sim_->Now());
  }
  Tracer::Scope scope(tracer_, round);
  for (ServerId peer : ring_->members()) {
    // Anti-entropy pairs serving members only: a joiner is still being
    // bootstrapped by its own membership syncs.
    if (peer == id_ || (peers_ != nullptr &&
                        (*peers_)[peer]->membership() !=
                            MembershipState::kServing)) {
      continue;
    }
    for (const auto& [table, engine] : engines_) {
      SyncTableWithPeer(table, peer);
    }
  }
  if (round) tracer_->EndSpan(round, sim_->Now());
}

// ---------------------------------------------------------------------------
// Hinted handoff.
// ---------------------------------------------------------------------------

void Server::StoreHint(ServerId target, const std::string& table,
                       const Key& key, const storage::Row& cells) {
  // A write owed to a server on its way out of the ring (or already gone)
  // must not park behind it — the target will never come back for it.
  // Re-coordinate it to the key's current replicas instead, as a W=1 write
  // that hints whichever of them stays silent.
  if (peers_ != nullptr) {
    const MembershipState target_state = (*peers_)[target]->membership();
    if (target_state == MembershipState::kDraining ||
        target_state == MembershipState::kLeft) {
      metrics_->member_hints_rerouted++;
      CoordinateWrite(table, key, cells, /*write_quorum=*/1, [](Status) {});
      return;
    }
  }
  std::deque<Hint>& queue = hints_[target];
  if (queue.size() >= kMaxHintsPerTarget) {
    queue.pop_front();  // oldest first; anti-entropy is the backstop
    metrics_->hints_dropped++;
  }
  Hint hint{table, key, cells, {}};
  if (tracer_ != nullptr && tracer_->current()) {
    hint.trace = tracer_->current();
    tracer_->Mark(hint.trace, "hint.stored", static_cast<int>(id_),
                  sim_->Now(), "target=" + std::to_string(target));
  }
  queue.push_back(std::move(hint));
  metrics_->hints_stored++;
}

std::size_t Server::pending_hints(ServerId target) const {
  auto it = hints_.find(target);
  return it == hints_.end() ? 0 : it->second.size();
}

void Server::ReplayHints() {
  for (auto& [target, queue] : hints_) {
    if (queue.empty()) continue;
    // The target left the ring since these queued: replaying at it is
    // pointless, move the writes to the keys' current replicas.
    if (peers_ != nullptr && !(*peers_)[target]->is_member()) {
      RerouteHintsFor(target);
      continue;
    }
    // Ship the whole queue; drop it only when the target acknowledges.
    // (Re-delivery after a lost ack is harmless: LWW applies are
    // idempotent.)
    auto batch =
        std::make_shared<std::vector<Hint>>(queue.begin(), queue.end());
    const std::size_t count = batch->size();
    if (tracer_ != nullptr) {
      // Instant markers tie each originating write's trace to the replay
      // attempt that finally delivers it.
      for (const Hint& hint : *batch) {
        if (!hint.trace) continue;
        tracer_->Mark(hint.trace, "hint.replay", static_cast<int>(id_),
                      sim_->Now(), "target=" + std::to_string(target));
      }
    }
    // The replay is a single-target QuorumOp: it inherits the framework's
    // silence retry, crash abort, and uniform tracing for free.
    const ServerId target_id = target;
    using Op = QuorumOp<bool>;
    Op::Spec spec;
    spec.name = "hint_replay";
    spec.targets = {target_id};
    spec.quorum = 1;
    spec.service = config_->perf.write_local * static_cast<SimTime>(count);
    spec.request = [batch](Server& s) {
      for (const Hint& hint : *batch) {
        s.LocalApply(hint.table, hint.key, hint.cells);
      }
      return true;
    };
    spec.quorum_error = "hint replay unacknowledged";
    spec.on_quorum = [this, target_id, count](Op&) {
      // Acked: retire the replayed prefix (new hints may have queued
      // behind it meanwhile).
      std::deque<Hint>& q = hints_[target_id];
      const std::size_t drop = std::min(count, q.size());
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(drop));
      metrics_->hints_replayed += drop;
    };
    spec.on_error = [](Op&, const Status&) {
      // Target still unreachable: the queue stays put for the next tick.
    };
    Op::Start(this, std::move(spec));
  }
}

void Server::RerouteHintsFor(ServerId departed,
                             const std::function<void(Status)>& on_answer) {
  auto it = hints_.find(departed);
  if (it == hints_.end() || it->second.empty()) return;
  std::deque<Hint> moved;
  moved.swap(it->second);
  for (const Hint& hint : moved) {
    metrics_->member_hints_rerouted++;
    if (tracer_ != nullptr && hint.trace) {
      tracer_->Mark(hint.trace, "hint.rerouted", static_cast<int>(id_),
                    sim_->Now(), "departed=" + std::to_string(departed));
    }
    CoordinateWrite(hint.table, hint.key, hint.cells, /*write_quorum=*/1,
                    on_answer);
  }
}

std::size_t Server::hints_outstanding() const {
  std::size_t total = 0;
  for (const auto& [target, queue] : hints_) total += queue.size();
  return total;
}

Timestamp Server::OldestHintTimestamp() const {
  Timestamp oldest = std::numeric_limits<Timestamp>::max();
  for (const auto& [target, queue] : hints_) {
    for (const Hint& hint : queue) {
      for (const auto& [col, cell] : hint.cells.cells()) {
        oldest = std::min(oldest, cell.ts);
      }
    }
  }
  return oldest;
}

// ---------------------------------------------------------------------------
// Clock-driven compaction (tombstone GC in the service model).
// ---------------------------------------------------------------------------

void Server::RunCompactionRound() {
  for (const auto& [table, engine] : engines_) {
    storage::Engine* eng = engine.get();
    // Demand scales with the merge width; it contends with foreground work
    // on the same cores (the point of modelling compaction at all).
    const SimTime demand =
        kCompactionPerRun *
        static_cast<SimTime>(std::max<std::size_t>(1, eng->num_runs()));
    Enqueue(demand, [this, eng, demand] {
      // Both clocks are evaluated at execution time, not scheduling time:
      // the grace cutoff on the engine's local clock (the one that stamped
      // each tombstone's local deletion time), and the purge floor — in the
      // write-timestamp domain — from whatever hints are STILL pending when
      // the merge actually runs.
      const storage::GcStats stats =
          eng->Compact(sim_->Now(), OldestHintTimestamp());
      metrics_->compactions_run++;
      metrics_->tombstones_purged += stats.tombstones_purged;
      metrics_->tombstone_purge_deferred += stats.tombstones_deferred;
      metrics_->stage_compaction.Record(demand);
    });
  }
}

}  // namespace mvstore::store
