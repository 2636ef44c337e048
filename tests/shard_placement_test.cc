// Shard placement is ONE function (ISSUE 10): the codec's ShardOfBaseKey is
// the single routing authority, and every layer that slices a view key into
// sub-shards — row-key encoding (maintenance/propagation), scatter prefixes
// (reads), and the freshness tracker's per-shard intent filter — must agree
// with it key-for-key. These property tests pin the agreement so a future
// "local copy" of the hash can never silently diverge and strand intents
// (or rows) in a shard no reader consults.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "store/codec.h"
#include "store/freshness.h"

namespace mvstore {
namespace {

std::string RandomKey(Rng& rng) {
  const int len = static_cast<int>(rng.UniformInt(1, 24));
  std::string key;
  key.reserve(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    key.push_back(static_cast<char>(rng.UniformInt(32, 126)));
  }
  return key;
}

// The encoded row key of (view_key, base_key) must land in exactly the
// shard ShardOfBaseKey names — the invariant the chain walk, scatter read,
// and scrub all navigate by.
TEST(ShardPlacementTest, RowKeyEncodingAgreesWithShardOfBaseKey) {
  Rng rng(20260807);
  for (int trial = 0; trial < 2000; ++trial) {
    const int shards =
        static_cast<int>(rng.UniformInt(2, store::kMaxViewShards));
    const Key view_key = RandomKey(rng);
    const Key base_key = RandomKey(rng);
    const int want = store::ShardOfBaseKey(base_key, shards);
    const Key row_key =
        store::ShardedViewRowKey(view_key, base_key, want, shards);

    auto encoded_shard = store::ShardOfComposedKey(row_key, shards);
    ASSERT_TRUE(encoded_shard.has_value());
    EXPECT_EQ(*encoded_shard, want);

    // The row sits under its shard's scatter prefix and splits back.
    const Key prefix =
        store::ShardedViewPartitionPrefix(view_key, want, shards);
    EXPECT_EQ(row_key.compare(0, prefix.size(), prefix), 0);
    auto split = store::SplitShardedViewRowKey(row_key, shards);
    ASSERT_TRUE(split.has_value());
    EXPECT_EQ(split->first, view_key);
    EXPECT_EQ(split->second, base_key);
  }
}

// The freshness tracker filters per-shard blockers with the SAME routing:
// an unsettled intent for base key B must depress the per-shard FreshAsOf for
// exactly ShardOfBaseKey(B) and no other shard — otherwise a scatter read
// would claim freshness for the very shard the pending write lands in.
TEST(ShardPlacementTest, FreshnessIntentBlocksExactlyTheRoutedShard) {
  Rng rng(424242);
  for (int trial = 0; trial < 200; ++trial) {
    store::FreshnessTracker tracker;
    const int shards = static_cast<int>(rng.UniformInt(2, 16));
    const Key partition = RandomKey(rng);
    const Key base_key = RandomKey(rng);
    const Timestamp ts = 1000;
    const Timestamp now_ts = 2000;
    const std::uint64_t intent =
        tracker.RegisterIntent("v", base_key, ts, /*session=*/0);
    tracker.ResolvePartitions(intent, {partition});

    const int routed = store::ShardOfBaseKey(base_key, shards);
    for (int shard = 0; shard < shards; ++shard) {
      const Timestamp fresh =
          tracker.FreshAsOf("v", partition, now_ts, shard, shards);
      if (shard == routed) {
        EXPECT_EQ(fresh, ts - 1) << "trial " << trial;
      } else {
        EXPECT_EQ(fresh, now_ts) << "trial " << trial << " shard " << shard;
      }
    }
    // Settling the intent releases the routed shard too.
    tracker.MarkApplied(intent);
    EXPECT_EQ(tracker.FreshAsOf("v", partition, now_ts, routed, shards),
              now_ts);
  }
}

// Hash quality guard: the router spreads keys over every shard (no shard
// starves), so scatter reads cannot quietly degenerate to one scan.
TEST(ShardPlacementTest, RoutingCoversEveryShard) {
  Rng rng(7);
  for (int shards : {2, 8, store::kMaxViewShards}) {
    std::set<int> hit;
    for (int i = 0;
         i < 200 * shards && static_cast<int>(hit.size()) < shards; ++i) {
      hit.insert(store::ShardOfBaseKey(RandomKey(rng), shards));
    }
    EXPECT_EQ(static_cast<int>(hit.size()), shards);
  }
}

}  // namespace
}  // namespace mvstore
