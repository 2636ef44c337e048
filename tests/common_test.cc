// Unit tests for src/common: Status/StatusOr, RNG and distributions,
// hashing, histograms, and string helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/str_util.h"

namespace mvstore {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("row 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "row 7");
  EXPECT_EQ(s.ToString(), "not_found: row 7");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Aborted("x"), Status::Aborted("x"));
  EXPECT_FALSE(Status::Aborted("x") == Status::Aborted("y"));
  EXPECT_FALSE(Status::Aborted("x") == Status::TimedOut("x"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "internal");
}

Status Fails() { return Status::TimedOut("deadline"); }
Status PropagatesError() {
  MVSTORE_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(PropagatesError().IsTimedOut());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
  EXPECT_EQ(v.value_or(7), 7);
}

StatusOr<int> MaybeInt(bool ok) {
  if (!ok) return Status::Aborted("no");
  return 5;
}
StatusOr<int> Doubled(bool ok) {
  MVSTORE_ASSIGN_OR_RETURN(int v, MaybeInt(ok));
  return v * 2;
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(true), 10);
  EXPECT_TRUE(Doubled(false).status().IsAborted());
}

/// Counts its copies; moves are free.
struct CopyCounter {
  static int copies;
  CopyCounter() = default;
  CopyCounter(const CopyCounter&) { ++copies; }
  CopyCounter(CopyCounter&&) = default;
  CopyCounter& operator=(const CopyCounter&) {
    ++copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&&) = default;
};
int CopyCounter::copies = 0;

TEST(StatusOrTest, DereferencingAnRvalueMovesTheValueOut) {
  StatusOr<CopyCounter> result = CopyCounter();
  CopyCounter::copies = 0;
  [[maybe_unused]] CopyCounter taken = *std::move(result);
  EXPECT_EQ(CopyCounter::copies, 0);
  StatusOr<CopyCounter> kept = CopyCounter();
  [[maybe_unused]] CopyCounter copied = *kept;
  EXPECT_EQ(CopyCounter::copies, 1);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(9);
  Rng fork = a.Fork();
  EXPECT_NE(a.Next(), fork.Next());
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(5);
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.Exponential(250.0);
  EXPECT_NEAR(sum / kN, 250.0, 10.0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfianTest, SkewFavorsLowRanks) {
  Rng rng(23);
  ZipfianGenerator zipf(1000, 0.99);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[zipf.Next(rng)]++;
  // Rank 0 should dominate any mid-pack rank by a wide margin.
  EXPECT_GT(counts[0], 1000);
  EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(ZipfianTest, ThetaZeroIsRoughlyUniform) {
  Rng rng(29);
  ZipfianGenerator zipf(10, 0.0);
  std::map<std::uint64_t, int> counts;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) counts[zipf.Next(rng)]++;
  for (const auto& [rank, count] : counts) {
    EXPECT_NEAR(count, kN / 10, kN / 40) << "rank " << rank;
  }
}

TEST(ZipfianTest, RanksInRange) {
  Rng rng(31);
  ZipfianGenerator zipf(7, 0.9);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf.Next(rng), 7u);
}

TEST(HashTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(Hash64("hello"), Hash64("hello"));
  EXPECT_NE(Hash64("hello"), Hash64("hello", 1));
  EXPECT_NE(Hash64("hello"), Hash64("hellp"));
}

TEST(HashTest, EmptyAndBinaryInputs) {
  EXPECT_EQ(Hash64(""), Hash64(""));
  std::string binary("\x00\x01\x02\xff", 4);
  EXPECT_EQ(Hash64(binary), Hash64(binary));
  EXPECT_NE(Hash64(binary), Hash64(""));
}

TEST(HashTest, AvalancheOnSingleBit) {
  // Flipping one input bit should flip roughly half the output bits.
  const std::uint64_t a = Hash64("key-000");
  const std::uint64_t b = Hash64("key-001");
  const int bits = __builtin_popcountll(a ^ b);
  EXPECT_GT(bits, 16);
  EXPECT_LT(bits, 48);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
}

TEST(HistogramTest, MeanAndExtremesExact) {
  Histogram h;
  for (int v : {10, 20, 30}) h.Record(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 30);
}

TEST(HistogramTest, PercentileApproximation) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  // Buckets grow by ~8%, so percentiles carry bounded relative error.
  EXPECT_NEAR(h.Percentile(50), 500, 50);
  EXPECT_NEAR(h.Percentile(99), 990, 90);
  EXPECT_EQ(h.Percentile(100), 1000);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(1);
  b.Record(100);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 1);
  EXPECT_EQ(a.max(), 100);
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.min(), 0);
}

TEST(StrUtilTest, PaddedInt) {
  EXPECT_EQ(PaddedInt(7, 4), "0007");
  EXPECT_EQ(PaddedInt(12345, 4), "12345");
  EXPECT_EQ(PaddedInt(0, 1), "0");
}

TEST(StrUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 4, "x"), "4-x");
  EXPECT_EQ(StrFormat("%6.2f", 3.14159), "  3.14");
}

TEST(StrUtilTest, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

}  // namespace
}  // namespace mvstore
