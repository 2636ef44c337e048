// Composite view-row key encoding: injectivity, ordering, prefix-scan
// safety, and the deleted-row sentinel keys.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "store/codec.h"

namespace mvstore::store {
namespace {

TEST(CodecTest, RoundTripSimple) {
  Key composed = ComposeViewRowKey("rliu", "ticket-1");
  auto split = SplitViewRowKey(composed);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->first, "rliu");
  EXPECT_EQ(split->second, "ticket-1");
}

TEST(CodecTest, RoundTripWithSeparatorAndEscapeBytes) {
  const std::string nasty1 = std::string("a\x01b\x02c");
  const std::string nasty2 = std::string("\x02\x02\x01");
  Key composed = ComposeViewRowKey(nasty1, nasty2);
  auto split = SplitViewRowKey(composed);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->first, nasty1);
  EXPECT_EQ(split->second, nasty2);

  // Every escape-relevant shape, in either component, comes back
  // byte-identical, and the composed key's partition slice routes like its
  // view key's prefix.
  const std::string sep(1, kComponentSeparator);
  const std::string esc(1, kEscape);
  const std::vector<std::string> components = {
      "",                       // empty
      "plain",                  // nothing to escape
      sep,                      // separator alone
      esc,                      // escape alone
      sep + sep + sep,          // runs of separators
      esc + esc,                // runs of escapes
      esc + sep,                // escape then separator
      sep + esc,                // separator then escape
      "a" + sep + "b" + esc,    // mixed with plain bytes
      esc + "s",                // bytes that LOOK like an escape sequence
      esc + "e",
      std::string(1, kSentinelPrefix),  // sentinel byte is not special here
      std::string("\x00\x01\x02\x03", 4),
  };
  for (const std::string& vk : components) {
    for (const std::string& bk : components) {
      const Key key = ComposeViewRowKey(vk, bk);
      auto parts = SplitViewRowKey(key);
      ASSERT_TRUE(parts.has_value()) << "vk/bk shape broke the split";
      EXPECT_EQ(parts->first, vk);
      EXPECT_EQ(parts->second, bk);
      EXPECT_EQ(PartitionPrefixViewOf(key), ViewPartitionPrefix(vk));
    }
  }
}

TEST(CodecTest, EmptyComponents) {
  Key composed = ComposeViewRowKey("", "");
  auto split = SplitViewRowKey(composed);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->first, "");
  EXPECT_EQ(split->second, "");
}

TEST(CodecTest, PartitionPrefixMatchesExactlyItsViewKey) {
  // "a" must not be a prefix-match for view key "ab" rows.
  Key prefix_a = ViewPartitionPrefix("a");
  Key row_ab = ComposeViewRowKey("ab", "k");
  Key row_a = ComposeViewRowKey("a", "k");
  EXPECT_EQ(row_a.compare(0, prefix_a.size(), prefix_a), 0);
  EXPECT_NE(row_ab.compare(0, prefix_a.size(), prefix_a), 0);
}

TEST(CodecTest, PartitionPrefixOfComposedKey) {
  Key composed = ComposeViewRowKey("user\x01x", "base");
  EXPECT_EQ(PartitionPrefixOf(composed), ViewPartitionPrefix("user\x01x"));
}

TEST(CodecTest, SameViewKeyGroupsContiguously) {
  // All rows of one view key sort between the prefix and any other view key.
  std::vector<Key> keys = {
      ComposeViewRowKey("bob", "2"),  ComposeViewRowKey("alice", "9"),
      ComposeViewRowKey("bob", "1"),  ComposeViewRowKey("alice", "1"),
      ComposeViewRowKey("carol", "5"),
  };
  std::sort(keys.begin(), keys.end());
  // alice rows first, then bob rows, then carol.
  EXPECT_EQ(SplitViewRowKey(keys[0])->first, "alice");
  EXPECT_EQ(SplitViewRowKey(keys[1])->first, "alice");
  EXPECT_EQ(SplitViewRowKey(keys[2])->first, "bob");
  EXPECT_EQ(SplitViewRowKey(keys[3])->first, "bob");
  EXPECT_EQ(SplitViewRowKey(keys[4])->first, "carol");
}

TEST(CodecTest, InjectivityRandomized) {
  // Distinct (view key, base key) pairs never collide after encoding.
  Rng rng(99);
  std::set<Key> seen_composed;
  std::set<std::pair<Key, Key>> seen_pairs;
  auto random_component = [&rng]() {
    std::string s;
    const int len = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.UniformInt(0, 4)));  // nasty bytes
    }
    return s;
  };
  for (int i = 0; i < 5000; ++i) {
    Key vk = random_component();
    Key bk = random_component();
    const bool fresh_pair = seen_pairs.insert({vk, bk}).second;
    const bool fresh_key = seen_composed.insert(ComposeViewRowKey(vk, bk)).second;
    EXPECT_EQ(fresh_pair, fresh_key) << "collision or instability";
  }
}

TEST(CodecTest, MalformedKeysRejected) {
  EXPECT_FALSE(SplitViewRowKey("no-separator-here").has_value());
  // Dangling escape byte.
  EXPECT_FALSE(
      SplitViewRowKey(std::string("ab\x02") + kComponentSeparator + "c")
          .has_value());
  // Unknown escape code.
  EXPECT_FALSE(
      SplitViewRowKey(std::string("a\x02x") + kComponentSeparator + "c")
          .has_value());
}

TEST(CodecTest, UnescapeRejectsRawSeparator) {
  EXPECT_FALSE(UnescapeComponent(std::string(1, kComponentSeparator))
                   .has_value());
}

TEST(CodecTest, SplitViewsReturnEscapedSlicesZeroCopy) {
  const std::string vk = std::string("v\x01");
  const std::string bk = std::string("b\x02");
  Key composed = ComposeViewRowKey(vk, bk);
  std::string_view escaped_view;
  std::string_view escaped_base;
  ASSERT_TRUE(SplitViewRowKeyViews(composed, &escaped_view, &escaped_base));
  // The slices point into the composed key itself...
  EXPECT_EQ(escaped_view.data(), composed.data());
  EXPECT_EQ(escaped_base.data() + escaped_base.size(),
            composed.data() + composed.size());
  // ...and unescape back to the originals.
  EXPECT_EQ(UnescapeComponent(escaped_view), vk);
  EXPECT_EQ(UnescapeComponent(escaped_base), bk);
  EXPECT_FALSE(SplitViewRowKeyViews("no-separator", &escaped_view,
                                    &escaped_base));
}

TEST(CodecTest, ComposeToReusesScratchBuffer) {
  std::string scratch;
  ComposeViewRowKeyTo("alice", "1", scratch);
  EXPECT_EQ(scratch, ComposeViewRowKey("alice", "1"));
  scratch.clear();
  const char* data_before = scratch.data();
  ComposeViewRowKeyTo("bob", "2", scratch);
  EXPECT_EQ(scratch, ComposeViewRowKey("bob", "2"));
  // Same capacity, no reallocation for a smaller second key.
  EXPECT_EQ(scratch.data(), data_before);
}

// ---------------------------------------------------------------------------
// Sub-shard headers (ISSUE 9).
// ---------------------------------------------------------------------------

TEST(CodecShardTest, ShardCountOneIsByteIdenticalToClassicLayout) {
  // The regression the whole PR hangs on: shard_count == 1 must not move a
  // single byte, so pre-sharding clusters keep their data layout.
  const std::pair<Key, Key> cases[] = {
      {"rliu", "ticket-1"},
      {"", ""},
      {std::string("a\x01b\x02"), std::string("\x02\x01")},
  };
  for (const auto& [vk, bk] : cases) {
    EXPECT_EQ(ShardedViewRowKey(vk, bk, 0, 1), ComposeViewRowKey(vk, bk));
    std::string appended;
    ShardedViewRowKeyTo(vk, bk, 0, 1, appended);
    EXPECT_EQ(appended, ComposeViewRowKey(vk, bk));
    EXPECT_EQ(ShardedViewPartitionPrefix(vk, 0, 1), ViewPartitionPrefix(vk));
  }
  Key classic = ComposeViewRowKey("v", "b");
  auto split = SplitShardedViewRowKey(classic, 1);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->first, "v");
  EXPECT_EQ(split->second, "b");
  EXPECT_EQ(ShardOfComposedKey(classic, 1).value_or(-1), 0);
}

TEST(CodecShardTest, ShardedRoundTrip) {
  Rng rng(20130913);
  auto random_component = [&rng]() {
    std::string s;
    const int len = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.UniformInt(0, 5)));  // nasty bytes
    }
    return s;
  };
  for (int shard_count : {2, 8, kMaxViewShards}) {
    for (int i = 0; i < 500; ++i) {
      const Key vk = random_component();
      const Key bk = random_component();
      const int shard = ShardOfBaseKey(bk, shard_count);
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, shard_count);
      const Key composed = ShardedViewRowKey(vk, bk, shard, shard_count);
      auto split = SplitShardedViewRowKey(composed, shard_count);
      ASSERT_TRUE(split.has_value());
      EXPECT_EQ(split->first, vk);
      EXPECT_EQ(split->second, bk);
      EXPECT_EQ(ShardOfComposedKey(composed, shard_count).value_or(-1), shard);
    }
  }
}

TEST(CodecShardTest, ShardRoutingIsDeterministic) {
  EXPECT_EQ(ShardOfBaseKey("ticket-42", 8), ShardOfBaseKey("ticket-42", 8));
  EXPECT_EQ(ShardOfBaseKey("anything", 1), 0);
  EXPECT_EQ(ShardOfBaseKey("anything", 0), 0);
}

TEST(CodecShardTest, ShardHeaderExtendsThePartitionPrefix) {
  // Placement for free: the shard header precedes the first separator, so
  // PartitionPrefixOf — which the ring, anti-entropy, and membership
  // streaming all key on — automatically distinguishes sub-shards.
  const int shard_count = 8;
  const Key bk = "ticket-7";
  const int shard = ShardOfBaseKey(bk, shard_count);
  const Key composed = ShardedViewRowKey("rliu", bk, shard, shard_count);
  EXPECT_EQ(PartitionPrefixOf(composed),
            ShardedViewPartitionPrefix("rliu", shard, shard_count));
  // Distinct sub-shards of one view key are distinct ring partitions.
  EXPECT_NE(ShardedViewPartitionPrefix("rliu", 0, shard_count),
            ShardedViewPartitionPrefix("rliu", 1, shard_count));
}

TEST(CodecShardTest, RowsOfOneShardGroupUnderItsPrefix) {
  const int shard_count = 4;
  for (int shard = 0; shard < shard_count; ++shard) {
    const Key prefix = ShardedViewPartitionPrefix("hot", shard, shard_count);
    const Key row = ShardedViewRowKey("hot", "b" + std::to_string(shard),
                                      shard, shard_count);
    EXPECT_EQ(row.compare(0, prefix.size(), prefix), 0);
    // And not under any other shard's prefix.
    const Key other =
        ShardedViewPartitionPrefix("hot", (shard + 1) % shard_count,
                                   shard_count);
    EXPECT_NE(row.compare(0, other.size(), other), 0);
  }
}

TEST(CodecShardTest, MalformedShardHeadersRejected) {
  const int shard_count = 8;
  // A classic (headerless) key is not a valid sharded key.
  const Key classic = ComposeViewRowKey("v", "b");
  EXPECT_FALSE(SplitShardedViewRowKey(classic, shard_count).has_value());
  EXPECT_FALSE(ShardOfComposedKey(classic, shard_count).has_value());
  // A shard byte outside [0, shard_count) is rejected.
  Key bad = ShardedViewRowKey("v", "b", 7, shard_count);
  bad[1] = static_cast<char>(kShardByteBase + shard_count);
  EXPECT_FALSE(SplitShardedViewRowKey(bad, shard_count).has_value());
  EXPECT_FALSE(ShardOfComposedKey(bad, shard_count).has_value());
  // Truncated: header with nothing behind it.
  const Key truncated(1, kShardHeaderPrefix);
  EXPECT_FALSE(SplitShardedViewRowKey(truncated, shard_count).has_value());
}

TEST(CodecShardTest, SentinelFamiliesStayInTheirBaseKeyShard) {
  // The anchor row of base key B lives under the sentinel view key but is
  // sharded by B — the whole family (live row, stale chain, anchor) must
  // land in ONE sub-shard so chain walks never cross partitions.
  const int shard_count = 8;
  const Key bk = "ticket-3";
  const int shard = ShardOfBaseKey(bk, shard_count);
  const Key anchor =
      ShardedViewRowKey(DeletedSentinelViewKey(bk), bk, shard, shard_count);
  EXPECT_EQ(ShardOfComposedKey(anchor, shard_count).value_or(-1), shard);
}

TEST(CodecTest, SentinelViewKeys) {
  Key sentinel = DeletedSentinelViewKey("base-7");
  EXPECT_TRUE(IsSentinelViewKey(sentinel));
  EXPECT_FALSE(IsSentinelViewKey("base-7"));
  EXPECT_FALSE(IsSentinelViewKey(""));
  EXPECT_NE(DeletedSentinelViewKey("a"), DeletedSentinelViewKey("b"));

  // Sentinel rows round-trip through the codec like any other view key.
  Key composed = ComposeViewRowKey(sentinel, "base-7");
  auto split = SplitViewRowKey(composed);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->first, sentinel);
  EXPECT_TRUE(IsSentinelViewKey(split->first));
}

}  // namespace
}  // namespace mvstore::store
