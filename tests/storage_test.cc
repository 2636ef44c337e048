// Unit and property tests for the storage engine: LWW cell merge semantics
// (the foundation of replica convergence), rows, memtable, runs, flush,
// compaction, and tombstone GC.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/cell.h"
#include "storage/engine.h"
#include "storage/memtable.h"
#include "storage/row.h"
#include "storage/row_cache.h"
#include "storage/run.h"

namespace mvstore::storage {
namespace {

TEST(CellTest, LargerTimestampWins) {
  Cell a = Cell::Live("x", 10);
  Cell b = Cell::Live("y", 20);
  EXPECT_TRUE(Supersedes(b, a));
  EXPECT_FALSE(Supersedes(a, b));
  EXPECT_EQ(MergeCells(a, b).value, "y");
}

TEST(CellTest, TombstoneWinsTimestampTie) {
  Cell live = Cell::Live("x", 10);
  Cell dead = Cell::Tombstone(10);
  EXPECT_TRUE(Supersedes(dead, live));
  EXPECT_TRUE(MergeCells(live, dead).tombstone);
}

TEST(CellTest, ValueBreaksFullTie) {
  Cell a = Cell::Live("apple", 10);
  Cell b = Cell::Live("banana", 10);
  EXPECT_TRUE(Supersedes(b, a));
  EXPECT_EQ(MergeCells(a, b).value, "banana");
}

TEST(CellTest, MergeIsIdempotent) {
  Cell a = Cell::Live("x", 10);
  EXPECT_EQ(MergeCells(a, a), a);
}

// The convergence property: merge must be commutative and associative so
// replicas agree regardless of delivery order. Exercised over random cells.
TEST(CellTest, MergeCommutativeAssociativeRandomized) {
  Rng rng(42);
  auto random_cell = [&rng]() {
    Cell c;
    c.ts = rng.UniformInt(0, 4);
    c.tombstone = rng.Chance(0.3);
    if (!c.tombstone) c.value = std::string(1, 'a' + rng.UniformInt(0, 3));
    return c;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    Cell a = random_cell();
    Cell b = random_cell();
    Cell c = random_cell();
    EXPECT_EQ(MergeCells(a, b), MergeCells(b, a));
    EXPECT_EQ(MergeCells(MergeCells(a, b), c), MergeCells(a, MergeCells(b, c)));
  }
}

// The full merge algebra, fuzzed over the awkward corners the randomized
// test above never generates: null cells (kNullTimestamp, no value),
// timestamp ties between tombstones and lives, and identical cells. Any
// violation here is a replica-divergence bug — MergeCells must be a
// commutative, associative, idempotent join for LWW convergence to hold.
TEST(CellTest, MergeAlgebraHoldsWithNullCellsAndTies) {
  Rng rng(20130401);
  auto random_cell = [&rng]() {
    Cell c;
    if (rng.Chance(0.15)) return c;  // null cell
    c.ts = rng.UniformInt(0, 3);     // tight range: ties are common
    c.tombstone = rng.Chance(0.4);
    if (!c.tombstone) {
      c.value = std::string(1, static_cast<char>('a' + rng.UniformInt(0, 1)));
    }
    return c;
  };
  for (int trial = 0; trial < 5000; ++trial) {
    Cell a = random_cell();
    Cell b = random_cell();
    Cell c = random_cell();
    EXPECT_EQ(MergeCells(a, a), a);  // idempotent
    EXPECT_EQ(MergeCells(a, b), MergeCells(b, a));  // commutative
    EXPECT_EQ(MergeCells(MergeCells(a, b), c),
              MergeCells(a, MergeCells(b, c)));  // associative
  }
}

TEST(CellTest, LocalDeletionTimeIsReplicaPrivate) {
  // Two replicas learned the same delete at different local times: the
  // cells, their rows and the rows' digests must still agree, or
  // anti-entropy would ship the tombstone back and forth forever.
  Cell early = Cell::Tombstone(7);
  early.StampLocalDeletion(Millis(3));
  Cell late = Cell::Tombstone(7);
  late.StampLocalDeletion(Seconds(9));
  EXPECT_EQ(early, late);
  EXPECT_FALSE(Supersedes(early, late));
  EXPECT_FALSE(Supersedes(late, early));
  Row a;
  a.Apply("c", early);
  Row b;
  b.Apply("c", late);
  EXPECT_EQ(a, b);
  EXPECT_EQ(RowDigest(a), RowDigest(b));
}

TEST(CellTest, LocalDeletionStampRoundsUpToWholeMilliseconds) {
  Cell c = Cell::Tombstone(1);
  c.StampLocalDeletion(Millis(5) + 1);
  EXPECT_EQ(c.local_deletion_time(), Millis(6));  // never reads earlier
  c.StampLocalDeletion(Millis(5));
  EXPECT_EQ(c.local_deletion_time(), Millis(5));
  c.StampLocalDeletion(Seconds(30LL * 24 * 3600));  // past the int32 range
  EXPECT_GT(c.local_deletion_time(), Seconds(24LL * 24 * 3600));
}

TEST(RowTest, EqualTombstonesKeepTheEarlierLocalDeletionTime) {
  Cell early = Cell::Tombstone(7);
  early.StampLocalDeletion(Millis(3));
  Cell late = Cell::Tombstone(7);
  late.StampLocalDeletion(Millis(900));

  Row applied;
  applied.Apply("c", late);
  EXPECT_FALSE(applied.Apply("c", early));  // LWW keeps the incumbent...
  EXPECT_EQ(applied.Get("c")->local_deletion_time(), Millis(3));  // ...earlier

  for (bool move : {false, true}) {
    Row incumbent;
    incumbent.Apply("c", late);
    Row incoming;
    incoming.Apply("c", early);
    if (move) {
      incumbent.MergeFrom(std::move(incoming));
    } else {
      incumbent.MergeFrom(incoming);
    }
    EXPECT_EQ(incumbent.Get("c")->local_deletion_time(), Millis(3)) << move;
  }
}

TEST(RowTest, ApplyKeepsNewest) {
  Row row;
  EXPECT_TRUE(row.Apply("c", Cell::Live("v1", 10)));
  EXPECT_FALSE(row.Apply("c", Cell::Live("old", 5)));
  EXPECT_TRUE(row.Apply("c", Cell::Live("v2", 20)));
  EXPECT_EQ(row.GetValue("c").value_or(""), "v2");
}

TEST(RowTest, GetValueHidesTombstones) {
  Row row;
  row.Apply("c", Cell::Live("v", 10));
  row.Apply("c", Cell::Tombstone(20));
  EXPECT_FALSE(row.GetValue("c").has_value());
  ASSERT_TRUE(row.Get("c").has_value());  // raw cell still visible
  EXPECT_TRUE(row.Get("c")->tombstone);
}

TEST(RowTest, MergeFromIsCellwise) {
  Row a;
  a.Apply("x", Cell::Live("ax", 10));
  a.Apply("y", Cell::Live("ay", 30));
  Row b;
  b.Apply("x", Cell::Live("bx", 20));
  b.Apply("z", Cell::Live("bz", 5));
  a.MergeFrom(b);
  EXPECT_EQ(a.GetValue("x").value_or(""), "bx");
  EXPECT_EQ(a.GetValue("y").value_or(""), "ay");
  EXPECT_EQ(a.GetValue("z").value_or(""), "bz");
}

TEST(RowTest, MaxTimestampAndAllTombstones) {
  Row row;
  EXPECT_EQ(row.MaxTimestamp(), kNullTimestamp);
  row.Apply("a", Cell::Tombstone(7));
  row.Apply("b", Cell::Tombstone(9));
  EXPECT_EQ(row.MaxTimestamp(), 9);
  EXPECT_TRUE(row.AllTombstones());
  row.Apply("b", Cell::Live("v", 12));
  EXPECT_FALSE(row.AllTombstones());
}

TEST(MemTableTest, ApplyAndGet) {
  MemTable mt;
  mt.Apply("k1", "c", Cell::Live("v", 1));
  ASSERT_NE(mt.Get("k1"), nullptr);
  EXPECT_EQ(mt.Get("k1")->GetValue("c").value_or(""), "v");
  EXPECT_EQ(mt.Get("k2"), nullptr);
  EXPECT_EQ(mt.entries(), 1u);
  EXPECT_EQ(mt.cell_count(), 1u);
}

TEST(MemTableTest, ScanPrefixOrderedAndBounded) {
  MemTable mt;
  for (const char* k : {"a1", "a2", "b1", "a3", "ab"}) {
    mt.Apply(k, "c", Cell::Live(k, 1));
  }
  std::vector<Key> keys;
  mt.ScanPrefix("a", [&](const Key& k, const Row&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<Key>{"a1", "a2", "a3", "ab"}));
}

TEST(RunTest, BinarySearchGet) {
  std::vector<KeyedRow> entries;
  for (const char* k : {"a", "c", "e"}) {
    Row row;
    row.Apply("v", Cell::Live(k, 1));
    entries.push_back(KeyedRow{k, row});
  }
  auto run = Run::FromSorted(std::move(entries));
  EXPECT_NE(run->Get("c"), nullptr);
  EXPECT_EQ(run->Get("b"), nullptr);
  EXPECT_EQ(run->Get("z"), nullptr);
  EXPECT_EQ(run->entries(), 3u);
}

TEST(RunTest, MergePurgesExpiredTombstones) {
  std::vector<KeyedRow> e1;
  Row r1;
  Cell tombstone = Cell::Tombstone(50);
  tombstone.StampLocalDeletion(Millis(50));  // applied locally at 50 ms
  r1.Apply("c", tombstone);
  e1.push_back(KeyedRow{"k", r1});
  auto run1 = Run::FromSorted(std::move(e1));

  // Deleted locally before the cutoff: the cell disappears and the empty
  // row is elided.
  auto merged = Run::Merge({run1}, /*deleted_before=*/Millis(100));
  EXPECT_EQ(merged->entries(), 0u);

  // Deleted after the cutoff it must be kept (still shadowing older live
  // cells).
  auto kept = Run::Merge({run1}, /*deleted_before=*/Millis(10));
  EXPECT_EQ(kept->entries(), 1u);
}

TEST(RunTest, MergeCountsPurgedAndDeferredTombstones) {
  std::vector<KeyedRow> entries;
  for (const auto& [key, ts] :
       std::vector<std::pair<Key, Timestamp>>{{"a", 10}, {"b", 50}, {"c", 90}}) {
    Row row;
    Cell tombstone = Cell::Tombstone(ts);
    tombstone.StampLocalDeletion(Millis(ts));  // applied locally at ts ms
    row.Apply("col", tombstone);
    entries.push_back(KeyedRow{key, row});
  }
  auto run = Run::FromSorted(std::move(entries));

  GcStats stats;
  // "a" and "b" were deleted locally before the 80 ms cutoff. "a" (ts 10)
  // is below the pending-hint floor of 40 and is dropped; "b" (ts 50) is
  // past grace but protected by the floor, so it is deferred. "c", deleted
  // locally at 90 ms, is simply within grace.
  auto merged = Run::Merge({run}, /*deleted_before=*/Millis(80),
                           /*purge_floor=*/40, &stats);
  EXPECT_EQ(stats.tombstones_purged, 1u);
  EXPECT_EQ(stats.tombstones_deferred, 1u);
  EXPECT_EQ(merged->entries(), 2u);
  EXPECT_EQ(merged->Get("a"), nullptr);
  EXPECT_NE(merged->Get("b"), nullptr);
  EXPECT_NE(merged->Get("c"), nullptr);
}

TEST(RunTest, ScanPrefixFenceSkipsDisjointRuns) {
  std::vector<KeyedRow> entries;
  for (const char* k : {"m1", "m2", "m3"}) {
    Row row;
    row.Apply("c", Cell::Live(k, 1));
    entries.push_back(KeyedRow{k, row});
  }
  auto run = Run::FromSorted(std::move(entries));

  int visited = 0;
  run->ScanPrefix("z", [&](const Key&, const Row&) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_EQ(run->fence_skips(), 1u);  // every key < "z"

  run->ScanPrefix("a", [&](const Key&, const Row&) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_EQ(run->fence_skips(), 2u);  // every key already > the "a" prefix

  run->ScanPrefix("m", [&](const Key&, const Row&) { ++visited; });
  EXPECT_EQ(visited, 3);
  EXPECT_EQ(run->fence_skips(), 2u);  // intersecting scan pays full price
}

TEST(EngineTest, GetMergesAcrossMemtableAndRuns) {
  EngineOptions options;
  options.memtable_flush_entries = 2;  // flush aggressively
  Engine engine(options);
  engine.Apply("k", "a", Cell::Live("v1", 10));
  engine.Apply("k2", "a", Cell::Live("x", 10));  // triggers flush
  engine.Apply("k", "b", Cell::Live("v2", 20));  // lands in new memtable

  auto row = engine.GetRow("k");
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetValue("a").value_or(""), "v1");
  EXPECT_EQ(row->GetValue("b").value_or(""), "v2");
  EXPECT_GE(engine.num_runs(), 1u);
}

TEST(EngineTest, NewerCellInOlderRunStillWins) {
  EngineOptions options;
  options.memtable_flush_entries = 1000;
  Engine engine(options);
  engine.Apply("k", "c", Cell::Live("new", 100));
  engine.Flush();
  engine.Apply("k", "c", Cell::Live("stale", 50));  // older write arrives late
  auto cell = engine.GetCell("k", "c");
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, "new");
}

TEST(EngineTest, ScanPrefixMergesStructures) {
  Engine engine;
  engine.Apply("p1", "c", Cell::Live("a", 1));
  engine.Flush();
  engine.Apply("p2", "c", Cell::Live("b", 1));
  std::vector<Key> keys;
  engine.ScanPrefix("p", [&](const Key& k, const Row&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<Key>{"p1", "p2"}));
}

TEST(EngineTest, CompactionReducesRunsAndKeepsData) {
  EngineOptions options;
  options.memtable_flush_entries = 1;
  options.max_runs = 100;  // no automatic compaction
  Engine engine(options);
  for (int i = 0; i < 10; ++i) {
    engine.Apply("k" + std::to_string(i), "c", Cell::Live("v", i));
  }
  EXPECT_GE(engine.num_runs(), 9u);
  engine.Compact(kNullTimestamp);
  EXPECT_EQ(engine.num_runs(), 1u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(engine.GetRow("k" + std::to_string(i)).has_value());
  }
  EXPECT_EQ(engine.compactions(), 1u);
}

TEST(EngineTest, AutomaticCompactionBoundsRunCount) {
  EngineOptions options;
  options.memtable_flush_entries = 1;
  options.max_runs = 3;
  Engine engine(options);
  for (int i = 0; i < 50; ++i) {
    engine.Apply("k" + std::to_string(i), "c", Cell::Live("v", i));
  }
  EXPECT_LE(engine.num_runs(), 4u);
}

TEST(EngineTest, SizeTieredCompactionLeavesLargeRunsAlone) {
  EngineOptions options;
  options.memtable_flush_entries = 1000;  // manual flushes only
  options.max_runs = 3;
  Engine engine(options);

  // One large, old run of 100 keys.
  for (int i = 0; i < 100; ++i) {
    engine.Apply("big" + std::to_string(i), "c", Cell::Live("v", 1));
  }
  engine.Flush();
  // Three 1-entry runs behind it.
  for (int i = 0; i < 3; ++i) {
    engine.Apply("small" + std::to_string(i), "c", Cell::Live("v", 1));
    engine.Flush();
  }
  ASSERT_EQ(engine.num_runs(), 4u);
  const std::uint64_t before = engine.compactions();

  // The next apply trips the run-count trigger. Size-tiering must merge the
  // tier of small runs only — NOT rewrite the 100-entry run (the quadratic
  // write amplification the old merge-everything behaviour had).
  engine.Apply("trigger", "c", Cell::Live("v", 1));
  EXPECT_EQ(engine.compactions(), before + 1);
  const std::vector<std::size_t> counts = engine.run_entry_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_TRUE(counts[0] == 100 || counts[1] == 100)
      << "the large run was rewritten";
  // All data still readable.
  EXPECT_TRUE(engine.GetRow("big42").has_value());
  EXPECT_TRUE(engine.GetRow("small2").has_value());
  EXPECT_TRUE(engine.GetRow("trigger").has_value());
}

TEST(EngineTest, CompactReportsGcStatsAndHonorsPurgeFloor) {
  SimTime now = Millis(200);
  Engine engine(EngineOptions(), [&now] { return now; });
  engine.Apply("k", "c", Cell::Tombstone(200));  // applied locally at 200 ms
  engine.Flush();

  // Grace expired (the cutoff is past 200 ms) but the purge floor — the
  // oldest pending-hint timestamp — protects the delete: it is counted
  // deferred, not purged.
  now = Millis(500) + kTombstoneGcGrace;
  GcStats deferred = engine.Compact(now, /*purge_floor=*/150);
  EXPECT_EQ(deferred.tombstones_purged, 0u);
  EXPECT_EQ(deferred.tombstones_deferred, 1u);
  ASSERT_TRUE(engine.GetCell("k", "c").has_value());
  EXPECT_TRUE(engine.GetCell("k", "c")->tombstone);

  // Floor lifted (hint acknowledged): the tombstone goes.
  GcStats purged = engine.Compact(now);
  EXPECT_EQ(purged.tombstones_purged, 1u);
  EXPECT_EQ(purged.tombstones_deferred, 0u);
  EXPECT_FALSE(engine.GetRow("k").has_value());
}

TEST(EngineTest, TombstoneGcHonorsGracePeriod) {
  SimTime now = Millis(10);
  Engine engine(EngineOptions(), [&now] { return now; });
  engine.Apply("k", "c", Cell::Live("v", 10));
  now = Millis(20);
  engine.Apply("k", "c", Cell::Tombstone(20));  // applied locally at 20 ms
  engine.Flush();
  now = Millis(30);
  engine.Apply("other", "c", Cell::Live("x", 30));
  engine.Flush();

  // Within grace: tombstone retained.
  engine.Compact(/*now=*/Millis(20) + kTombstoneGcGrace - Millis(1));
  ASSERT_TRUE(engine.GetCell("k", "c").has_value());
  EXPECT_TRUE(engine.GetCell("k", "c")->tombstone);

  // Past grace: tombstone (and the empty row) disappear.
  engine.Compact(/*now=*/Millis(20) + kTombstoneGcGrace + Millis(1));
  EXPECT_FALSE(engine.GetRow("k").has_value());
  EXPECT_TRUE(engine.GetRow("other").has_value());
}

// The backdated-tombstone bug: the view engine revokes an old row's __init
// with a tombstone stamped at that row's live timestamp (~1 ms for a
// bootstrap row). Grace measured from the write timestamp purged it on the
// first compaction; measured from the local apply time it survives.
TEST(EngineTest, BackdatedTombstoneAppliedWithinGraceSurvivesCompact) {
  SimTime now = Seconds(1);
  Engine engine(EngineOptions(), [&now] { return now; });
  engine.Apply("k", "__init", Cell::Live("1", Millis(1)));
  engine.Flush();
  now = Seconds(10);
  // Write timestamp 1 ms, far older than now - grace would ever allow...
  engine.Apply("k", "__init", Cell::Tombstone(Millis(1)));
  // ...but applied here at 10 s, so it is within grace at 20 s.
  now = Seconds(20);
  GcStats kept = engine.Compact(now);
  EXPECT_EQ(kept.tombstones_purged, 0u);
  ASSERT_TRUE(engine.GetCell("k", "__init").has_value());
  EXPECT_TRUE(engine.GetCell("k", "__init")->tombstone);

  // Grace ends kTombstoneGcGrace after the local apply.
  now = Seconds(11) + kTombstoneGcGrace;
  GcStats purged = engine.Compact(now);
  EXPECT_EQ(purged.tombstones_purged, 1u);
  EXPECT_FALSE(engine.GetRow("k").has_value());
}

// Re-learning a delete (anti-entropy re-ships a tombstone this replica
// already holds in a run) must not restart its grace period: compaction
// folds both copies and keeps the earlier local deletion time.
TEST(EngineTest, RelearnedTombstoneKeepsItsFirstLocalDeletionTime) {
  SimTime now = Millis(10);
  Engine engine(EngineOptions(), [&now] { return now; });
  engine.Apply("k", "c", Cell::Tombstone(5));  // first applied at 10 ms
  engine.Flush();
  now = kTombstoneGcGrace - Millis(10);
  Row resent;
  resent.Apply("c", Cell::Tombstone(5));
  engine.ApplyRow("k", resent);  // the same delete, re-learned much later
  // Past grace from the first apply, within it from the re-learning.
  EXPECT_EQ(engine.Compact(kTombstoneGcGrace + Millis(50)).tombstones_purged,
            1u);
  EXPECT_FALSE(engine.GetRow("k").has_value());
}

// The commit log keeps the stamped cells: a crash-and-replay restores the
// original local deletion time rather than losing it.
TEST(EngineTest, CommitLogReplayKeepsLocalDeletionTime) {
  SimTime now = Millis(10);
  Engine engine(EngineOptions(), [&now] { return now; });
  engine.Apply("k", "c", Cell::Tombstone(5));
  engine.LoseVolatileState();
  now = Millis(500);
  ASSERT_EQ(engine.RecoverFromLog(), 1u);
  ASSERT_TRUE(engine.GetCell("k", "c").has_value());
  EXPECT_EQ(engine.GetCell("k", "c")->local_deletion_time(), Millis(10));
}

TEST(EngineTest, CompactionDoesNotResurrectDeletedData) {
  // The deletion shadows an older live cell sitting in an older run. GC of
  // the tombstone must not bring the old value back.
  SimTime now = Millis(10);
  Engine engine(EngineOptions(), [&now] { return now; });
  engine.Apply("k", "c", Cell::Live("old", 10));
  engine.Flush();
  now = Millis(20);
  engine.Apply("k", "c", Cell::Tombstone(20));  // applied locally at 20 ms
  // Grace expired; both cells merge first.
  engine.Compact(/*now=*/Millis(20) + kTombstoneGcGrace + Millis(1));
  EXPECT_FALSE(engine.GetCell("k", "c").has_value());
}

TEST(EngineTest, ForEachVisitsMergedRowsInOrder) {
  Engine engine;
  engine.Apply("b", "c", Cell::Live("1", 1));
  engine.Flush();
  engine.Apply("a", "c", Cell::Live("2", 1));
  std::vector<Key> keys;
  engine.ForEach([&](const Key& k, const Row&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<Key>{"a", "b"}));
}

// Randomized: an Engine receiving updates in ANY order equals a plain map
// applying LWW — regardless of interleaved flushes and compactions.
TEST(EngineTest, RandomizedEquivalenceToLwwMap) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    EngineOptions options;
    options.memtable_flush_entries = 4;
    options.max_runs = 3;
    Engine engine(options);
    std::map<Key, Row> model;
    for (int i = 0; i < 300; ++i) {
      Key key = "k" + std::to_string(rng.UniformInt(0, 10));
      ColumnName col = "c" + std::to_string(rng.UniformInt(0, 2));
      Cell cell;
      cell.ts = rng.UniformInt(0, 50);
      cell.tombstone = rng.Chance(0.2);
      if (!cell.tombstone) {
        cell.value = std::to_string(rng.UniformInt(0, 99));
      }
      engine.Apply(key, col, cell);
      model[key].Apply(col, cell);
      if (rng.Chance(0.05)) engine.Flush();
      if (rng.Chance(0.02)) engine.Compact(kNullTimestamp);
    }
    for (const auto& [key, row] : model) {
      auto stored = engine.GetRow(key);
      ASSERT_TRUE(stored.has_value()) << key;
      EXPECT_EQ(*stored, row) << key;
    }
  }
}

TEST(RowCacheTest, LruEvictionAndStats) {
  RowCache cache(2);
  Row row;
  row.Apply("c", Cell::Live("v", 1));
  cache.Put("t", "a", row);
  cache.Put("t", "b", row);
  EXPECT_NE(cache.Get("t", "a"), nullptr);  // bumps "a" to MRU
  cache.Put("t", "c", row);                 // evicts LRU "b"
  EXPECT_TRUE(cache.Contains("t", "a"));
  EXPECT_FALSE(cache.Contains("t", "b"));
  EXPECT_TRUE(cache.Contains("t", "c"));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);  // Contains is a pure probe
  EXPECT_EQ(cache.Get("t", "b"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(RowCacheTest, InvalidateAndClear) {
  RowCache cache(8);
  Row row;
  row.Apply("c", Cell::Live("v", 1));
  cache.Put("t", "a", row);
  cache.Put("t", "b", row);
  cache.Invalidate("t", "a");
  EXPECT_FALSE(cache.Contains("t", "a"));
  EXPECT_TRUE(cache.Contains("t", "b"));
  EXPECT_EQ(cache.invalidations(), 1u);
  cache.Invalidate("t", "nope");  // absent: no effect, no count
  EXPECT_EQ(cache.invalidations(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.invalidations(), 2u);
}

TEST(RowCacheTest, ZeroCapacityStoresNothing) {
  RowCache cache(0);
  Row row;
  row.Apply("c", Cell::Live("v", 1));
  cache.Put("t", "a", row);
  EXPECT_FALSE(cache.Contains("t", "a"));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RowCacheTest, TablesNamespaceKeys) {
  RowCache cache(8);
  Row row;
  row.Apply("c", Cell::Live("v", 1));
  cache.Put("t1", "k", row);
  EXPECT_TRUE(cache.Contains("t1", "k"));
  EXPECT_FALSE(cache.Contains("t2", "k"));
}

TEST(EngineTest, RowCacheServesInvalidatesAndClearsOnPurge) {
  RowCache cache(16);
  SimTime now = Millis(10);
  Engine engine(EngineOptions(), [&now] { return now; });
  engine.set_row_cache(&cache, "t");

  engine.Apply("k", "c", Cell::Live("v1", 10));
  EXPECT_FALSE(cache.Contains("t", "k"));
  engine.GetRow("k");  // miss populates
  EXPECT_TRUE(cache.Contains("t", "k"));
  auto row = engine.GetRow("k");  // hit
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetValue("c").value_or(""), "v1");
  EXPECT_EQ(cache.hits(), 1u);

  // Every local apply invalidates, so a cached row can never mask a write.
  engine.Apply("k", "c", Cell::Live("v2", 20));
  EXPECT_FALSE(cache.Contains("t", "k"));
  EXPECT_EQ(engine.GetRow("k")->GetValue("c").value_or(""), "v2");
  // GetCell routes through the cached merged row and agrees with it.
  EXPECT_EQ(engine.GetCell("k", "c")->value, "v2");
  EXPECT_GE(cache.hits(), 2u);

  // A tombstone-purging compaction clears the cache — a cached copy of the
  // pre-purge row would otherwise resurface purged cells.
  now = Millis(30);
  engine.Apply("k", "c", Cell::Tombstone(30));  // applied locally at 30 ms
  engine.GetRow("k");  // re-cache the tombstoned row
  EXPECT_TRUE(cache.Contains("t", "k"));
  engine.Compact(/*now=*/Millis(30) + kTombstoneGcGrace + Millis(1));
  EXPECT_FALSE(cache.Contains("t", "k"));
  EXPECT_FALSE(engine.GetRow("k").has_value());

  // Crash path: volatile state includes the cache.
  engine.Apply("k2", "c", Cell::Live("v", 40));
  engine.GetRow("k2");
  EXPECT_TRUE(cache.Contains("t", "k2"));
  engine.LoseVolatileState();
  EXPECT_FALSE(cache.Contains("t", "k2"));
}

TEST(EngineTest, GetRowBypassingCacheLeavesTheCacheAlone) {
  RowCache cache(16);
  Engine engine;
  engine.set_row_cache(&cache, "t");
  engine.Apply("k", "c", Cell::Live("v1", 10));

  auto row = engine.GetRowBypassingCache("k");
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetValue("c").value_or(""), "v1");
  EXPECT_FALSE(engine.GetRowBypassingCache("absent").has_value());
  EXPECT_FALSE(cache.Contains("t", "k")) << "a bypassing read must not fill";
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);

  // A cached row stays cached and unbumped; the bypassing read still sees
  // the merged state, not the cache.
  engine.GetRow("k");
  const std::uint64_t hits = cache.hits();
  const std::uint64_t misses = cache.misses();
  EXPECT_EQ(engine.GetRowBypassingCache("k")->GetValue("c").value_or(""),
            "v1");
  EXPECT_TRUE(cache.Contains("t", "k"));
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
}

}  // namespace
}  // namespace mvstore::storage
