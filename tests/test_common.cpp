// Unit tests for src/common: units, ids, rng, stats, table.
#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/spec.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace lips {
namespace {

// ---------------------------------------------------------------- units ---

TEST(Units, BlockConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(blocks_to_mb(1.0), 64.0);
  EXPECT_DOUBLE_EQ(mb_to_blocks(64.0), 1.0);
  EXPECT_DOUBLE_EQ(mb_to_blocks(blocks_to_mb(7.25)), 7.25);
}

TEST(Units, PaperFootnote1PriceBreakdown) {
  // c1.medium: $0.17-0.23/hr at 5 ECU → 0.92-1.28 millicents/ECU-second.
  const double lo = hourly_dollars_to_millicents_per_ecu_second(0.17, 5.0);
  const double hi = hourly_dollars_to_millicents_per_ecu_second(0.23, 5.0);
  EXPECT_NEAR(lo, 0.944, 0.03);
  EXPECT_NEAR(hi, 1.278, 0.03);
  // The paper's m1.medium upper figure, 6.39 m¢, is $0.23/hr over 1 ECU of
  // deliverable capacity (1 virtual core).
  const double m1 = hourly_dollars_to_millicents_per_ecu_second(0.23, 1.0);
  EXPECT_NEAR(m1, 6.39, 0.05);
}

TEST(Units, TransferPriceMatchesPaper) {
  // "$0.01 per GB (62.5 millicent per 64MB block)"
  const double per_mb = dollars_per_gb_to_millicents_per_mb(0.01);
  EXPECT_NEAR(per_mb * kBlockSizeMB, 62.5, 1e-9);
}

TEST(Units, MillicentsToDollars) {
  EXPECT_DOUBLE_EQ(millicents_to_dollars(100000.0), 1.0);
  EXPECT_DOUBLE_EQ(millicents_to_dollars(62.5), 0.000625);
}

TEST(Units, AlmostEqual) {
  EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(almost_equal(1.0, 1.001));
  EXPECT_TRUE(almost_equal(1e9, 1e9 * (1 + 1e-12)));
  EXPECT_TRUE(almost_equal(0.0, 0.0));
}

// ------------------------------------------------------------------ ids ---

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<JobId, MachineId>);
  static_assert(!std::is_same_v<StoreId, DataId>);
  const JobId j{3};
  EXPECT_EQ(j.value(), 3u);
  EXPECT_EQ(static_cast<std::size_t>(j), 3u);
}

TEST(Ids, OrderingAndHash) {
  EXPECT_LT(JobId{1}, JobId{2});
  EXPECT_EQ(JobId{5}, JobId{5});
  std::unordered_set<MachineId> set;
  set.insert(MachineId{1});
  set.insert(MachineId{1});
  set.insert(MachineId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, StreamOutput) {
  std::ostringstream os;
  os << StoreId{42};
  EXPECT_EQ(os.str(), "42");
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBoundsAndCoverage) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanConverges) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(10.0, 20.0);
  EXPECT_NEAR(sum / n, 15.0, 0.05);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, NormalMomentsConverge) {
  Rng rng(17);
  double sum = 0.0, ss = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    ss += x * x;
  }
  const double mean = sum / n;
  const double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(23);
  Rng child = parent.split();
  // Child and parent should not produce the same sequence.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next() == child.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, PreconditionViolationsThrow) {
  Rng rng(29);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.uniform_int(5, 4), PreconditionError);
  EXPECT_THROW(rng.index(0), PreconditionError);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), PreconditionError);
}

// ---------------------------------------------------------------- stats ---

TEST(Stats, SummaryBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.29099, 1e-4);
}

TEST(Stats, SummaryEmptyAndSingleton) {
  EXPECT_EQ(summarize({}).count, 0u);
  const std::vector<double> one{42.0};
  const Summary s = summarize(one);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> xs{40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
}

TEST(Stats, MeanHelpers) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  const std::vector<double> xs{2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
}

// ---------------------------------------------------------------- table ---

TEST(TableTest, AlignedOutputContainsCells) {
  Table t("Demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", Table::num(1.5)});
  t.add_row({"beta", Table::pct(0.421)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42.1%"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(TableTest, ArityMismatchThrows) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(TableTest, HeaderAfterRowsThrows) {
  Table t;
  t.add_row({"x"});
  EXPECT_THROW(t.set_header({"a"}), PreconditionError);
}

// ------------------------------------------------------- SpecBinder ------

/// One binder with every destination kind, for the edge-case tests below.
struct SpecFixture {
  double num = -1.0;
  double prob = -1.0;
  std::size_t count = 0;
  std::uint64_t seed = 0;
  SpecBinder binder{"test spec"};
  SpecFixture() {
    binder.number("num", &num)
        .probability("prob", &prob)
        .count("count", &count)
        .seed("seed", &seed);
  }
};

TEST(SpecBinder, ParsesEveryBinderKind) {
  SpecFixture f;
  f.binder.parse("num=-2.5,prob=0.25,count=42,seed=7");
  EXPECT_EQ(f.num, -2.5);
  EXPECT_EQ(f.prob, 0.25);
  EXPECT_EQ(f.count, 42u);
  EXPECT_EQ(f.seed, 7u);
}

TEST(SpecBinder, OverflowValuesThrowBeforeTheCast) {
  // A finite integral double >= 2^64 would make the size_t/uint64_t cast
  // undefined behaviour; the binder must reject it, not truncate.
  SpecFixture f;
  EXPECT_THROW(f.binder.parse("count=1e20"), PreconditionError);
  EXPECT_THROW(f.binder.parse("seed=1e20"), PreconditionError);
  // Exact boundary: 2^64 itself must throw...
  EXPECT_THROW(f.binder.parse("count=18446744073709551616"),
               PreconditionError);
  EXPECT_THROW(f.binder.parse("seed=18446744073709551616"),
               PreconditionError);
  // ...while the largest double below 2^64 (2^64 - 2048) still parses.
  f.binder.parse("count=18446744073709549568,seed=18446744073709549568");
  EXPECT_EQ(f.count, 18446744073709549568ull);
  EXPECT_EQ(f.seed, 18446744073709549568ull);
  // Out-of-double-range literals overflow strtod to +Inf and fail the
  // finiteness contract of every kind, including plain number().
  EXPECT_THROW(f.binder.parse("num=1e999"), PreconditionError);
  EXPECT_THROW(f.binder.parse("count=1e999"), PreconditionError);
}

TEST(SpecBinder, SeedRequiresAnInteger) {
  SpecFixture f;
  EXPECT_THROW(f.binder.parse("seed=1.5"), PreconditionError);
  EXPECT_THROW(f.binder.parse("count=1.5"), PreconditionError);
}

TEST(SpecBinder, EmptyValueAfterEqualsThrows) {
  SpecFixture f;
  EXPECT_THROW(f.binder.parse("num="), PreconditionError);
  EXPECT_THROW(f.binder.parse("num=1,prob="), PreconditionError);
  // An empty key is not bound, and says so with the accepted key list.
  EXPECT_THROW(f.binder.parse("=1"), PreconditionError);
}

TEST(SpecBinder, DuplicateKeyDetectionIsPerParseCall) {
  SpecFixture f;
  // Within one spec a duplicate key is ambiguous → error.
  EXPECT_THROW(f.binder.parse("num=1,num=2"), PreconditionError);
  // Across separate parse() calls the same key is a deliberate override
  // (e.g. a preset spec refined by a later command-line flag): last wins.
  f.binder.parse("num=1,count=3");
  f.binder.parse("num=2");
  EXPECT_EQ(f.num, 2.0);
  EXPECT_EQ(f.count, 3u);  // untouched by the second call
}

TEST(SpecBinder, TrailingAndRepeatedSeparatorsAreSkipped) {
  SpecFixture f;
  f.binder.parse("num=1,");
  EXPECT_EQ(f.num, 1.0);
  f.binder.parse(",prob=0.5");
  EXPECT_EQ(f.prob, 0.5);
  f.binder.parse("count=2,,seed=9");
  EXPECT_EQ(f.count, 2u);
  EXPECT_EQ(f.seed, 9u);
  // Pure separators and the empty spec are no-ops.
  f.binder.parse(",");
  f.binder.parse("");
  EXPECT_EQ(f.num, 1.0);
}

TEST(SpecBinder, ApplyParsesOneFlagValueStrictly) {
  SpecFixture f;
  EXPECT_TRUE(f.binder.binds("count"));
  EXPECT_FALSE(f.binder.binds("nope"));
  f.binder.apply("count", "12");
  f.binder.apply("num", "0x1.8p+1");
  EXPECT_EQ(f.count, 12u);
  EXPECT_EQ(f.num, 3.0);
  // The spec rules, not atof/strtoul: no prefix reads, no silent zero.
  EXPECT_THROW(f.binder.apply("seed", "7x"), PreconditionError);
  EXPECT_THROW(f.binder.apply("count", "abc"), PreconditionError);
  EXPECT_THROW(f.binder.apply("prob", "2"), PreconditionError);
  EXPECT_THROW(f.binder.apply("count", ""), PreconditionError);
  EXPECT_THROW(f.binder.apply("nope", "1"), PreconditionError);
  // One value never sets a second key.
  EXPECT_THROW(f.binder.apply("count", "3,seed=4"), PreconditionError);
  EXPECT_EQ(f.count, 12u);
  EXPECT_EQ(f.seed, 0u);
}

}  // namespace
}  // namespace lips
