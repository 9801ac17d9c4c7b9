// Tests of the benchmark's own arithmetic on hand-made inputs: percentiles
// with their sample counts, fastest-pass selection, self time, sampled-call
// estimates, and ratios with their bases.
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesAndCarriesTheSampleCount) {
  // Sorted 1..10: rank q·(n−1); p50 sits halfway between 5 and 6.
  const std::vector<double> v = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
  const Stat p50 = quantile(v, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 5.5);
  EXPECT_EQ(p50.n, 10u);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9).value, 9.1);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0).value, 10.0);
}

TEST(Quantile, SingleSampleAndEmpty) {
  EXPECT_DOUBLE_EQ(quantile({4.25}, 0.99).value, 4.25);
  EXPECT_EQ(quantile({4.25}, 0.99).n, 1u);
  const Stat none = quantile({}, 0.5);
  EXPECT_EQ(none.n, 0u);
  EXPECT_DOUBLE_EQ(none.value, 0.0);
  EXPECT_EQ(mean_of({}).n, 0u);
  EXPECT_DOUBLE_EQ(mean_of({1, 2, 6}).value, 3.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median_of({0.7, 0.2, 0.4}).value, 0.4);
  EXPECT_DOUBLE_EQ(median_of({0.7, 0.2, 0.4, 0.3}).value, 0.35);
}

TEST(Fastest, PicksTheSmallestHostTimeEarliestOnTies) {
  EXPECT_EQ(fastest({0.9, 0.8, 1.3, 0.8}), 1u);
  EXPECT_EQ(fastest({2.0}), 0u);
}

TEST(Lowest, SkipsEmptyPassesAndKeepsTheWinnersCount) {
  const Stat best = lowest({{3.0, 200}, {0.0, 0}, {2.5, 190}, {2.7, 210}});
  EXPECT_DOUBLE_EQ(best.value, 2.5);
  EXPECT_EQ(best.n, 190u);
  EXPECT_EQ(lowest({{0.0, 0}}).n, 0u);
}

TEST(Stretches, SplitAPassAtItsMarks) {
  EXPECT_EQ(stretches({0.5, 1.25, 2.0}, 3.0),
            (std::vector<double>{0.5, 0.75, 0.75, 1.0}));
  EXPECT_EQ(stretches({}, 0.4), (std::vector<double>{0.4}));
}

TEST(KeepFastest, TakesEachStretchFromItsFastestPass) {
  // Pass 1 was disturbed in its second stretch, pass 2 in its first: the
  // composite is faster than either whole pass (6 and 5.5 against 4.5).
  std::vector<double> best;
  EXPECT_TRUE(keep_fastest(best, {1.0, 4.0, 1.0}));
  EXPECT_TRUE(keep_fastest(best, {3.0, 1.5, 1.0}));
  EXPECT_EQ(best, (std::vector<double>{1.0, 1.5, 1.0}));
  // A pass of another length is refused and leaves the composite alone.
  EXPECT_FALSE(keep_fastest(best, {0.1, 0.1}));
  EXPECT_EQ(best, (std::vector<double>{1.0, 1.5, 1.0}));
  // Percentiles of the composite carry its length as the sample count.
  EXPECT_EQ(quantile(best, 0.5).n, 3u);
  EXPECT_DOUBLE_EQ(quantile(best, 0.5).value, 1.0);
}

TEST(SelfTime, SubtractsCalleesWithoutClamping) {
  // sim.self_ms: a 430 ms pass with 300 ms in slot offers, 20 in hooks and
  // 60 in replans leaves 50 ms to the event loop.
  EXPECT_DOUBLE_EQ(self_time(430.0, {300.0, 20.0, 60.0}), 50.0);
  // core.replan_self_ms: replans minus their lp-solve spans.
  EXPECT_DOUBLE_EQ(self_time(12.5, {8.0, 4.0}), 0.5);
  // An overshooting callee estimate shows as a negative self time.
  EXPECT_DOUBLE_EQ(self_time(1.0, {1.5}), -0.5);
  EXPECT_DOUBLE_EQ(self_time(3.0, {}), 3.0);
}

TEST(Ratio, BaseZeroMeansNoAttempts) {
  // launch ratio: 27167 launches out of 4980000 offers.
  EXPECT_DOUBLE_EQ(ratio(27167, 4980000), 27167.0 / 4980000.0);
  // failure ratio: 0 of 0 attempted is not a failure.
  EXPECT_DOUBLE_EQ(ratio(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(3, 12), 0.25);
}

TEST(SampledCalls, TimesEveryNthCallStartingWithTheFirst) {
  SampledCalls calls(4);
  std::vector<int> timed;
  for (int i = 0; i < 10; ++i)
    if (calls.count()) timed.push_back(i);
  EXPECT_EQ(timed, (std::vector<int>{0, 4, 8}));
  EXPECT_EQ(calls.calls(), 10u);
}

TEST(SampledCalls, EstimatesTheTotalFromTheSampleMean) {
  SampledCalls calls(4);
  for (int i = 0; i < 10; ++i)
    if (calls.count()) calls.record(i == 0 ? 1.0 : 2.0);
  // Samples 1, 2, 2 → mean 5/3 over 10 calls.
  EXPECT_DOUBLE_EQ(calls.estimated_total(), 5.0 / 3.0 * 10.0);
  // Less the clock's own 0.5 per timed call.
  EXPECT_DOUBLE_EQ(calls.estimated_total(0.5), (5.0 / 3.0 - 0.5) * 10.0);
}

TEST(SampledCalls, ZeroCountsWithoutTiming) {
  SampledCalls calls(0);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(calls.count());
  EXPECT_EQ(calls.calls(), 5u);
  EXPECT_DOUBLE_EQ(calls.estimated_total(), 0.0);
}

}  // namespace
}  // namespace perfbench
