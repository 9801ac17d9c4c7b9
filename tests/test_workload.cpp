// Unit tests for src/workload: job/data accounting, Table-I profiles, the
// Table-IV job set, SWIM synthesis, and the random Fig-5 workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "workload/swim.hpp"
#include "workload/workload.hpp"

namespace lips::workload {
namespace {

cluster::Cluster small_cluster(std::size_t nodes = 4) {
  return cluster::make_ec2_cluster(nodes, 0.5, 2);
}

// ----------------------------------------------------------- accounting ---

TEST(WorkloadAccounting, JobCpuAndInput) {
  Workload w;
  const DataId d = w.add_data({"d", 640.0, StoreId{0}});
  Job j;
  j.name = "j";
  j.tcp_cpu_s_per_mb = 0.5;
  j.data = {d};
  j.num_tasks = 10;
  const JobId id = w.add_job(std::move(j));
  EXPECT_DOUBLE_EQ(w.job_input_mb(id), 640.0);
  EXPECT_DOUBLE_EQ(w.job_cpu_ecu_s(id), 320.0);
  EXPECT_DOUBLE_EQ(w.total_input_mb(), 640.0);
  EXPECT_EQ(w.total_tasks(), 10u);
}

TEST(WorkloadAccounting, InputFreeJob) {
  Workload w;
  Job j;
  j.name = "pi";
  j.cpu_fixed_ecu_s = 1000.0;
  j.num_tasks = 4;
  const JobId id = w.add_job(std::move(j));
  EXPECT_DOUBLE_EQ(w.job_input_mb(id), 0.0);
  EXPECT_DOUBLE_EQ(w.job_cpu_ecu_s(id), 1000.0);
}

TEST(WorkloadAccounting, MultiDataJob) {
  Workload w;
  const DataId d1 = w.add_data({"d1", 100.0, StoreId{0}});
  const DataId d2 = w.add_data({"d2", 200.0, StoreId{1}});
  Job j;
  j.name = "j";
  j.tcp_cpu_s_per_mb = 1.0;
  j.data = {d1, d2};
  j.num_tasks = 3;
  const JobId id = w.add_job(std::move(j));
  EXPECT_DOUBLE_EQ(w.job_input_mb(id), 300.0);
  EXPECT_DOUBLE_EQ(w.job_cpu_ecu_s(id), 300.0);
}

TEST(WorkloadAccounting, Validation) {
  Workload w;
  EXPECT_THROW(w.add_data({"zero", 0.0, StoreId{0}}), PreconditionError);
  Job bad;
  bad.name = "no-demand";
  EXPECT_THROW(w.add_job(bad), PreconditionError);
  Job dangling;
  dangling.name = "dangling";
  dangling.tcp_cpu_s_per_mb = 1.0;
  dangling.data = {DataId{5}};
  EXPECT_THROW(w.add_job(dangling), PreconditionError);
}

// -------------------------------------------------------------- Table I ---

TEST(JobProfiles, TableIValues) {
  EXPECT_DOUBLE_EQ(grep_profile().cpu_s_per_block, 20.0);
  EXPECT_DOUBLE_EQ(stress1_profile().cpu_s_per_block, 37.0);
  EXPECT_DOUBLE_EQ(stress2_profile().cpu_s_per_block, 75.0);
  EXPECT_DOUBLE_EQ(wordcount_profile().cpu_s_per_block, 90.0);
  EXPECT_TRUE(pi_profile().input_free());
  EXPECT_EQ(job_profiles().size(), 5u);
}

TEST(JobProfiles, TcpPerMb) {
  EXPECT_DOUBLE_EQ(grep_profile().tcp_cpu_s_per_mb(), 20.0 / 64.0);
  EXPECT_THROW((void)pi_profile().tcp_cpu_s_per_mb(), PreconditionError);
}

TEST(JobProfiles, IntensivenessOrdering) {
  // Table I orders Grep < Stress1 < Stress2 < WordCount < Pi(∞).
  EXPECT_LT(grep_profile().cpu_s_per_block, stress1_profile().cpu_s_per_block);
  EXPECT_LT(stress1_profile().cpu_s_per_block, stress2_profile().cpu_s_per_block);
  EXPECT_LT(stress2_profile().cpu_s_per_block,
            wordcount_profile().cpu_s_per_block);
}

// ------------------------------------------------------------- Table IV ---

TEST(Table4Workload, ShapeMatchesPaper) {
  const auto c = small_cluster();
  Rng rng(1);
  const Workload w = make_table4_workload(c, rng);
  EXPECT_EQ(w.job_count(), 9u);
  EXPECT_EQ(w.total_tasks(), 1608u);  // "more than 1608 map tasks"
  EXPECT_DOUBLE_EQ(w.total_input_mb(), 100.0 * kMBPerGB);  // 100 GB
  // J1-2 are the input-free Pi jobs.
  EXPECT_TRUE(w.job(JobId{0}).data.empty());
  EXPECT_TRUE(w.job(JobId{1}).data.empty());
  EXPECT_EQ(w.job(JobId{0}).num_tasks, 4u);
  // J5 is a 320-task Grep on 20 GB.
  EXPECT_EQ(w.job(JobId{4}).num_tasks, 320u);
  EXPECT_DOUBLE_EQ(w.job_input_mb(JobId{4}), 20.0 * kMBPerGB);
  EXPECT_DOUBLE_EQ(w.job(JobId{4}).tcp_cpu_s_per_mb, 20.0 / 64.0);
}

TEST(Table4Workload, OriginsWithinCluster) {
  const auto c = small_cluster(6);
  Rng rng(5);
  const Workload w = make_table4_workload(c, rng);
  for (const DataObject& d : w.data_objects())
    EXPECT_LT(d.origin.value(), c.store_count());
}

// ----------------------------------------------------------------- SWIM ---

TEST(SwimGenerator, JobCountAndArrivalsSorted) {
  const auto c = small_cluster(8);
  Rng rng(2);
  const SwimWorkload sw = make_swim_workload({}, c, rng);
  EXPECT_EQ(sw.workload.job_count(), 400u);
  EXPECT_EQ(sw.classes.size(), 400u);
  double prev = 0.0;
  for (const Job& j : sw.workload.jobs()) {
    EXPECT_GE(j.arrival_s, prev);
    EXPECT_LE(j.arrival_s, 24.0 * 3600.0);
    prev = j.arrival_s;
  }
}

TEST(SwimGenerator, ClassMixApproximatelyRespected) {
  const auto c = small_cluster(8);
  Rng rng(3);
  SwimParams p;
  const SwimWorkload sw = make_swim_workload(p, c, rng);
  std::size_t interactive = 0, medium = 0, large = 0;
  for (SwimClass cls : sw.classes) {
    if (cls == SwimClass::Interactive) ++interactive;
    else if (cls == SwimClass::Medium) ++medium;
    else ++large;
  }
  EXPECT_NEAR(static_cast<double>(interactive) / 400.0, 0.62, 0.08);
  EXPECT_NEAR(static_cast<double>(medium) / 400.0, 0.28, 0.08);
  EXPECT_GT(large, 0u);
}

TEST(SwimGenerator, HeavyTailedSizes) {
  const auto c = small_cluster(8);
  Rng rng(4);
  const SwimWorkload sw = make_swim_workload({}, c, rng);
  std::vector<double> sizes;
  for (std::size_t k = 0; k < sw.workload.job_count(); ++k)
    sizes.push_back(sw.workload.job_input_mb(JobId{k}));
  std::sort(sizes.begin(), sizes.end());
  const double median = sizes[sizes.size() / 2];
  const double p95 = sizes[static_cast<std::size_t>(0.95 * sizes.size())];
  // The tail must dominate the median by a large factor (heavy tail).
  EXPECT_GT(p95 / median, 10.0);
  // No job exceeds the configured cap.
  EXPECT_LE(sizes.back(), kSwimMaxInputMb + 1e-9);
}

TEST(SwimGenerator, TasksScaleWithBlocks) {
  const auto c = small_cluster(8);
  Rng rng(6);
  const SwimWorkload sw = make_swim_workload({}, c, rng);
  for (std::size_t k = 0; k < sw.workload.job_count(); ++k) {
    const Job& j = sw.workload.job(JobId{k});
    const double blocks = mb_to_blocks(sw.workload.job_input_mb(JobId{k}));
    EXPECT_EQ(j.num_tasks,
              std::max<std::size_t>(
                  1, static_cast<std::size_t>(std::ceil(blocks))));
  }
}

TEST(SwimGenerator, DeterministicForSeed) {
  const auto c = small_cluster(8);
  Rng r1(9), r2(9);
  const SwimWorkload a = make_swim_workload({}, c, r1);
  const SwimWorkload b = make_swim_workload({}, c, r2);
  ASSERT_EQ(a.workload.job_count(), b.workload.job_count());
  for (std::size_t k = 0; k < a.workload.job_count(); ++k) {
    EXPECT_DOUBLE_EQ(a.workload.job(JobId{k}).arrival_s,
                     b.workload.job(JobId{k}).arrival_s);
    EXPECT_DOUBLE_EQ(a.workload.job_input_mb(JobId{k}),
                     b.workload.job_input_mb(JobId{k}));
  }
}

// -------------------------------------------------------- trace loader ---

TEST(SwimLoader, ParsesCommentsBlanksAndFields) {
  const auto c = small_cluster(8);
  Rng rng(3);
  std::istringstream trace(
      "# synthetic replay\n"
      "\n"
      "   \t\n"
      "100.5 512\n"
      "50 4096 45\n"       // explicit CPU column: 45 ECU-s per block
      "# trailing comment\n"
      "7200 30000\n");
  const SwimWorkload sw = load_swim_trace(trace, c, rng);
  ASSERT_EQ(sw.workload.job_count(), 3u);
  // Jobs come back sorted by arrival.
  EXPECT_DOUBLE_EQ(sw.workload.job(JobId{0}).arrival_s, 50.0);
  EXPECT_DOUBLE_EQ(sw.workload.job(JobId{1}).arrival_s, 100.5);
  EXPECT_DOUBLE_EQ(sw.workload.job(JobId{2}).arrival_s, 7200.0);
  EXPECT_DOUBLE_EQ(sw.workload.job_input_mb(JobId{0}), 4096.0);
  // The explicit CPU column pins tcp exactly (per-MB = per-block / 64).
  EXPECT_DOUBLE_EQ(sw.workload.job(JobId{0}).tcp_cpu_s_per_mb,
                   45.0 / kBlockSizeMB);
  // Classes by size: 512 MB interactive, 4 GB medium, ~29 GB large.
  EXPECT_EQ(sw.classes[0], SwimClass::Medium);
  EXPECT_EQ(sw.classes[1], SwimClass::Interactive);
  EXPECT_EQ(sw.classes[2], SwimClass::Large);
  // Task counts scale with 64 MB blocks.
  EXPECT_EQ(sw.workload.job(JobId{1}).num_tasks, 8u);
  EXPECT_EQ(sw.workload.job(JobId{0}).num_tasks, 64u);
}

TEST(SwimLoader, MalformedLinesThrowWithLineNumber) {
  const auto c = small_cluster(4);
  const auto load = [&](const std::string& text) {
    Rng rng(1);
    std::istringstream in(text);
    return load_swim_trace(in, c, rng);
  };
  const auto expect_throw_mentioning = [&](const std::string& text,
                                           const std::string& needle) {
    try {
      (void)load(text);
      FAIL() << "expected PreconditionError for: " << text;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message '" << e.what() << "' lacks '" << needle << "'";
    }
  };
  expect_throw_mentioning("abc 100\n", "line 1");
  expect_throw_mentioning("10\n", "line 1");                 // missing size
  expect_throw_mentioning("0 100\n10 x\n", "line 2");        // bad size
  expect_throw_mentioning("10 100 5 9\n", "trailing");       // 4 fields
  expect_throw_mentioning("-1 100\n", "arrival");
  expect_throw_mentioning("10 0\n", "input MB");
  expect_throw_mentioning("10 100 0\n", "ECU");              // bad CPU column
}

TEST(SwimLoader, EmptyTraceThrows) {
  const auto c = small_cluster(4);
  Rng rng(1);
  std::istringstream empty("");
  EXPECT_THROW((void)load_swim_trace(empty, c, rng), PreconditionError);
  Rng rng2(1);
  std::istringstream comments_only("# header\n\n# more\n");
  EXPECT_THROW((void)load_swim_trace(comments_only, c, rng2),
               PreconditionError);
}

TEST(SwimLoader, DeterministicForSeed) {
  const auto c = small_cluster(8);
  const std::string text =
      "0 512\n100 2048\n200 512 30\n300 65536\n400 77\n";
  Rng r1(42), r2(42);
  std::istringstream in1(text), in2(text);
  const SwimWorkload a = load_swim_trace(in1, c, r1);
  const SwimWorkload b = load_swim_trace(in2, c, r2);
  ASSERT_EQ(a.workload.job_count(), b.workload.job_count());
  for (std::size_t k = 0; k < a.workload.job_count(); ++k) {
    EXPECT_DOUBLE_EQ(a.workload.job(JobId{k}).tcp_cpu_s_per_mb,
                     b.workload.job(JobId{k}).tcp_cpu_s_per_mb);
    EXPECT_EQ(a.workload.data(a.workload.job(JobId{k}).data[0]).origin,
              b.workload.data(b.workload.job(JobId{k}).data[0]).origin);
  }
  // A different seed scatters origins differently (sanity that the rng is
  // actually consulted).
  Rng r3(43);
  std::istringstream in3(text);
  const SwimWorkload c2 = load_swim_trace(in3, c, r3);
  bool any_diff = false;
  for (std::size_t k = 0; k < a.workload.job_count(); ++k)
    any_diff = any_diff ||
               a.workload.job(JobId{k}).tcp_cpu_s_per_mb !=
                   c2.workload.job(JobId{k}).tcp_cpu_s_per_mb ||
               a.workload.data(a.workload.job(JobId{k}).data[0]).origin !=
                   c2.workload.data(c2.workload.job(JobId{k}).data[0]).origin;
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------ random workload ---

TEST(RandomWorkload, TaskBudgetExact) {
  const auto c = small_cluster(4);
  Rng rng(12);
  RandomWorkloadParams p;
  p.n_tasks = 203;
  p.tasks_per_job = 10;
  const Workload w = make_random_workload(p, c, rng);
  EXPECT_EQ(w.total_tasks(), 203u);
  // 20 jobs of 10 plus one of 3.
  EXPECT_EQ(w.job_count(), 21u);
}

TEST(RandomWorkload, ParameterRangesRespected) {
  const auto c = small_cluster(4);
  Rng rng(13);
  RandomWorkloadParams p;
  p.n_tasks = 100;
  const Workload w = make_random_workload(p, c, rng);
  for (std::size_t k = 0; k < w.job_count(); ++k) {
    const double cpu = w.job_cpu_ecu_s(JobId{k});
    EXPECT_GE(cpu, 0.0);
    EXPECT_LE(cpu, p.cpu_hi_ecu_s + 1e-9);
    EXPECT_LE(w.job_input_mb(JobId{k}), p.input_hi_mb + 1e-9);
  }
}

}  // namespace
}  // namespace lips::workload
