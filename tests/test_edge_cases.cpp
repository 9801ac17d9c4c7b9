// Edge-case and failure-injection tests cutting across modules: degenerate
// clusters/workloads, boundary parameters, error paths, and stress-level
// cross-checks that don't fit the per-module suites.
#include <gtest/gtest.h>

#include "core/lips_policy.hpp"
#include "core/lp_models.hpp"
#include "core/rounding.hpp"
#include "lp/solver.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace lips {
namespace {

cluster::Cluster single_node(double price = 1.0, double tp = 1.0,
                             int slots = 1) {
  cluster::Cluster c;
  const ZoneId z = c.add_zone("only");
  cluster::Machine m;
  m.name = "solo";
  m.zone = z;
  m.cpu_price_mc = UsdPerCpuSec::mc_per_ecu_s(price);
  m.throughput_ecu = tp;
  m.map_slots = slots;
  m.uptime_s = 1e9;
  c.add_machine(std::move(m));
  cluster::DataStore s;
  s.name = "solo-store";
  s.zone = z;
  s.capacity_mb = 1e9;
  s.colocated_machine = 0;
  c.add_store(std::move(s));
  c.finalize();
  return c;
}

// ------------------------------------------------------ degenerate sizes ---

TEST(EdgeCases, SingleNodeSingleTask) {
  const cluster::Cluster c = single_node(2.0);
  workload::Workload w;
  const DataId d = w.add_data({"d", 64.0, StoreId{0}});
  workload::Job j;
  j.name = "one";
  j.tcp_cpu_s_per_mb = 1.0;
  j.data = {d};
  j.num_tasks = 1;
  w.add_job(std::move(j));
  // LP and simulator agree on the only possible schedule's cost.
  const core::LpSchedule s = core::solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective_mc.mc(), 128.0, 1e-9);
  sched::FifoLocalityScheduler fifo;
  const sim::SimResult r = sim::simulate(c, w, fifo);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.total_cost_mc.mc(), 128.0, 1e-9);
}

TEST(EdgeCases, ManyTasksOnOneSlotSerialize) {
  const cluster::Cluster c = single_node(1.0, 1.0, 1);
  workload::Workload w;
  const DataId d = w.add_data({"d", 10 * 64.0, StoreId{0}});
  workload::Job j;
  j.name = "serial";
  j.tcp_cpu_s_per_mb = 1.0;
  j.data = {d};
  j.num_tasks = 10;
  w.add_job(std::move(j));
  sched::FifoLocalityScheduler fifo;
  const sim::SimResult r = sim::simulate(c, w, fifo);
  ASSERT_TRUE(r.completed);
  // 10 sequential tasks of 64.8 s each.
  EXPECT_NEAR(r.makespan_s, 10 * 64.8, 1e-6);
}

TEST(EdgeCases, ZeroCpuPureReadJob) {
  // A job that only moves bytes (tcp = 0 would fail validation without
  // data; with data it is legal): duration is pure transfer.
  const cluster::Cluster c = single_node(5.0);
  workload::Workload w;
  const DataId d = w.add_data({"d", 160.0, StoreId{0}});
  workload::Job j;
  j.name = "reader";
  j.tcp_cpu_s_per_mb = 0.0;
  j.data = {d};
  j.num_tasks = 2;
  w.add_job(std::move(j));
  sched::FifoLocalityScheduler fifo;
  const sim::SimResult r = sim::simulate(c, w, fifo);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.execution_cost_mc.mc(), 0.0, 1e-12);
  EXPECT_NEAR(r.makespan_s, 2 * 80.0 / 80.0, 1e-9);  // 2 × (80 MB / 80 MB/s)
}

TEST(EdgeCases, EmptyWorkloadSimulatesToNothing) {
  const cluster::Cluster c = single_node();
  workload::Workload w;
  sched::FifoLocalityScheduler fifo;
  const sim::SimResult r = sim::simulate(c, w, fifo);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_completed, 0u);
  EXPECT_DOUBLE_EQ(r.total_cost_mc.mc(), 0.0);
  EXPECT_DOUBLE_EQ(r.makespan_s, 0.0);
}

TEST(EdgeCases, EmptyWorkloadLpIsTriviallyOptimal) {
  const cluster::Cluster c = single_node();
  workload::Workload w;
  const core::LpSchedule s = core::solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective_mc.mc(), 0.0);
  EXPECT_TRUE(s.portions.empty());
}

TEST(EdgeCases, LipsPolicyOnEmptyWorkload) {
  const cluster::Cluster c = single_node();
  workload::Workload w;
  core::LipsPolicyOptions lo;
  lo.epoch_s = 100.0;
  core::LipsPolicy lips(lo);
  const sim::SimResult r = sim::simulate(c, w, lips);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(lips.lp_solves(), 0u);  // nothing queued: no LP built
}

// ---------------------------------------------------------- LP stress ------

TEST(EdgeCases, SolversAgreeOnWideModels) {
  // Many more variables than rows (the shape of scheduling LPs). The
  // certificate proves each answer optimal for its model; all-zero is
  // feasible (every row is a <= with a positive rhs), so no optimum may
  // cost more than 0.
  Rng rng(909);
  for (int trial = 0; trial < 6; ++trial) {
    lp::LpModel m;
    const std::size_t n = 60;
    for (std::size_t j = 0; j < n; ++j)
      m.add_variable(0.0, 1.0, rng.uniform(-5, 5));
    for (int i = 0; i < 4; ++i) {
      std::vector<lp::Entry> es;
      for (std::size_t j = 0; j < n; ++j)
        if (rng.bernoulli(0.4)) es.push_back({j, rng.uniform(0.1, 2.0)});
      m.add_constraint(es, lp::Sense::LessEqual, rng.uniform(2.0, 8.0));
    }
    const lp::LpSolution b = lp::solve(m);
    ASSERT_TRUE(b.optimal());
    EXPECT_TRUE(lp::certify(m, b).ok()) << "trial " << trial;
    EXPECT_LE(b.objective, 0.0) << "trial " << trial;
  }
}

TEST(EdgeCases, TallModelsWithManyEqualities) {
  // More rows than columns; phase-1 heavy. x0 is feasible by construction,
  // so the certified optimum is no dearer than it.
  Rng rng(911);
  for (int trial = 0; trial < 6; ++trial) {
    lp::LpModel m;
    const std::size_t n = 5;
    std::vector<double> x0;
    for (std::size_t j = 0; j < n; ++j) {
      m.add_variable(0.0, 10.0, rng.uniform(-1, 1));
      x0.push_back(rng.uniform(0.0, 10.0));
    }
    for (int i = 0; i < 8; ++i) {
      std::vector<lp::Entry> es;
      double lhs = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double cf = rng.uniform(-1, 1);
        es.push_back({j, cf});
        lhs += cf * x0[j];
      }
      // Mix of equalities through x0 (feasible by construction) and slack
      // inequalities.
      if (i % 2 == 0) {
        m.add_constraint(es, lp::Sense::Equal, lhs);
      } else {
        m.add_constraint(es, lp::Sense::LessEqual, lhs + 1.0);
      }
    }
    const lp::LpSolution b = lp::solve(m);
    ASSERT_TRUE(b.optimal()) << "trial " << trial;
    EXPECT_TRUE(lp::certify(m, b).ok()) << "trial " << trial;
    EXPECT_LE(b.objective, m.objective_value(x0) + 1e-9) << "trial " << trial;
    EXPECT_LE(m.max_violation(b.values), 1e-5);
  }
}

TEST(EdgeCases, TinyCoefficientsStayStable) {
  lp::LpModel m;
  m.add_variable(0.0, 1e9, 1e-7);
  m.add_variable(0.0, 1e9, 2e-7);
  m.add_constraint(std::vector<lp::Entry>{{0, 1e-6}, {1, 1e-6}},
                   lp::Sense::GreaterEqual, 1e-3);
  const lp::LpSolution s = lp::solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_TRUE(lp::certify(m, s).ok());
  EXPECT_NEAR(s.values[0], 1000.0, 1e-3);  // cheapest variable does it all
}

// ----------------------------------------------------- rounding corners ----

TEST(EdgeCases, RoundingSingleTaskJobNeverSplits) {
  // A 1-task job whose LP solution splits 50/50 across machines must land
  // on exactly one machine after rounding.
  cluster::Cluster c;
  const ZoneId z = c.add_zone("z");
  for (int i = 0; i < 2; ++i) {
    cluster::Machine m;
    m.name = "m" + std::to_string(i);
    m.zone = z;
    m.cpu_price_mc = UsdPerCpuSec::mc_per_ecu_s(1.0);
    m.uptime_s = 32.0;  // each node fits exactly half the job
    const MachineId id = c.add_machine(std::move(m));
    cluster::DataStore s;
    s.name = "s" + std::to_string(i);
    s.zone = z;
    s.capacity_mb = 1e9;
    s.colocated_machine = id.value();
    c.add_store(std::move(s));
  }
  c.finalize();
  workload::Workload w;
  const DataId d = w.add_data({"d", 64.0, StoreId{0}});
  workload::Job j;
  j.name = "atom";
  j.tcp_cpu_s_per_mb = 1.0;  // 64 ECU-s total, 32 per machine max
  j.data = {d};
  j.num_tasks = 1;
  w.add_job(std::move(j));
  const core::LpSchedule s = core::solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  ASSERT_GE(s.portions.size(), 2u);  // LP genuinely split
  const core::RoundedSchedule r = core::round_schedule(c, w, s);
  ASSERT_EQ(r.bundles.size(), 1u);  // rounding may not split one task
  EXPECT_EQ(r.bundles[0].tasks, 1u);
}

TEST(EdgeCases, RoundingManyTinyPortions) {
  // 100 tasks over 5 machines: apportionment must hand out exactly 100.
  const cluster::Cluster c = cluster::make_ec2_cluster(5, 0.4, 2);
  workload::Workload w;
  const DataId d = w.add_data({"d", 100 * 64.0, StoreId{0}});
  workload::Job j;
  j.name = "wide";
  j.tcp_cpu_s_per_mb = 1.0;
  j.data = {d};
  j.num_tasks = 100;
  w.add_job(std::move(j));
  core::ModelOptions opt;
  opt.epoch_s = 500.0;  // forces splitting across machines
  opt.fake_node = true;
  const core::LpSchedule s = core::solve_co_scheduling(c, w, opt);
  ASSERT_TRUE(s.optimal());
  const core::RoundedSchedule r = core::round_schedule(c, w, s);
  std::size_t total = 0;
  for (const core::TaskBundle& b : r.bundles) total += b.tasks;
  const auto scheduled = static_cast<std::size_t>(
      std::llround((1.0 - s.deferred_fraction[0]) * 100.0));
  EXPECT_EQ(total, scheduled);
}

// ------------------------------------------------------ simulator extras ---

TEST(EdgeCases, HorizonCutsOffLongRuns) {
  const cluster::Cluster c = single_node(1.0, 0.001);  // glacial machine
  workload::Workload w;
  const DataId d = w.add_data({"d", 640.0, StoreId{0}});
  workload::Job j;
  j.name = "slow";
  j.tcp_cpu_s_per_mb = 100.0;
  j.data = {d};
  j.num_tasks = 10;
  w.add_job(std::move(j));
  sched::FifoLocalityScheduler fifo;
  // Each task needs 6.4e6 s, past the simulator's 60-day horizon.
  const sim::SimResult r = sim::simulate(c, w, fifo);
  EXPECT_FALSE(r.completed);
  EXPECT_LT(r.tasks_completed, 10u);
}

TEST(EdgeCases, ManySlotsRunWholeJobAtOnce) {
  const cluster::Cluster c = single_node(1.0, 1.0, /*slots=*/16);
  workload::Workload w;
  const DataId d = w.add_data({"d", 16 * 64.0, StoreId{0}});
  workload::Job j;
  j.name = "parallel";
  j.tcp_cpu_s_per_mb = 1.0;
  j.data = {d};
  j.num_tasks = 16;
  w.add_job(std::move(j));
  sched::FifoLocalityScheduler fifo;
  const sim::SimResult r = sim::simulate(c, w, fifo);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.makespan_s, 64.8, 1e-9);  // all 16 in one wave
}

TEST(EdgeCases, ReplicationOnSingleStoreClusterIsFree) {
  // With nowhere to replicate to, ingest replication is a no-op.
  const cluster::Cluster c = single_node();
  workload::Workload w;
  const DataId d = w.add_data({"d", 128.0, StoreId{0}});
  workload::Job j;
  j.name = "j";
  j.tcp_cpu_s_per_mb = 1.0;
  j.data = {d};
  j.num_tasks = 2;
  w.add_job(std::move(j));
  sched::FifoLocalityScheduler fifo;
  sim::SimConfig cfg;
  cfg.hdfs_replication = 3;
  const sim::SimResult r = sim::simulate(c, w, fifo, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.ingest_replication_cost_mc.mc(), 0.0);
}

TEST(EdgeCases, UnfinalizedClusterRejectedEverywhere) {
  cluster::Cluster c;
  const ZoneId z = c.add_zone("z");
  c.add_ec2_node(cluster::m1_medium(), z);
  workload::Workload w;
  workload::Job j;
  j.name = "pi";
  j.cpu_fixed_ecu_s = 1.0;
  w.add_job(std::move(j));
  sched::FifoLocalityScheduler fifo;
  EXPECT_THROW((void)sim::simulate(c, w, fifo), PreconditionError);
  EXPECT_THROW((void)core::solve_co_scheduling(c, w), PreconditionError);
}

TEST(EdgeCases, OnlineSubsetRemainderValidation) {
  const cluster::Cluster c = single_node();
  workload::Workload w;
  workload::Job j;
  j.name = "pi";
  j.cpu_fixed_ecu_s = 1.0;
  const JobId id = w.add_job(std::move(j));
  // remaining_fraction must parallel the subset and stay within [0, 1].
  EXPECT_THROW((void)core::solve_co_scheduling(c, w, {}, {id}, {0.5, 0.5}),
               PreconditionError);
  EXPECT_THROW((void)core::solve_co_scheduling(c, w, {}, {id}, {1.5}),
               PreconditionError);
  const core::LpSchedule s = core::solve_co_scheduling(c, w, {}, {id}, {0.5});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective_mc.mc(), 0.5, 1e-9);  // half the job at 1 m¢ × 1 ECU-s
}

}  // namespace
}  // namespace lips
