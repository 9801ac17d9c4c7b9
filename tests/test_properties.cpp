// Property-style invariants checked across parameterized sweeps:
//   * simulator conservation laws under every scheduler and random workloads,
//   * LP schedules satisfy every constraint of the paper's models
//     (verified by an independent checker, not the solver),
//   * the online pipeline never beats the offline LP lower bound,
//   * end-to-end determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>

#include "core/lips_policy.hpp"
#include "core/lp_models.hpp"
#include "sched/delay_scheduler.hpp"
#include "sched/fair_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sim/simulator.hpp"

namespace lips {
namespace {

// 64-bit so SweepParam below has no padding: gtest prints an unprintable
// param as its raw bytes in the test name, and uninitialized padding made
// the SimConservation names differ from run to run.
enum class Policy : std::uint64_t { Fifo, Delay, Fair, Lips };

std::unique_ptr<sched::Scheduler> make_policy(Policy p) {
  switch (p) {
    case Policy::Fifo:
      return std::make_unique<sched::FifoLocalityScheduler>();
    case Policy::Delay:
      return std::make_unique<sched::DelayScheduler>(15.0, 45.0);
    case Policy::Fair:
      return std::make_unique<sched::FairScheduler>();
    case Policy::Lips: {
      core::LipsPolicyOptions opt;
      opt.epoch_s = 500.0;
      return std::make_unique<core::LipsPolicy>(opt);
    }
  }
  return nullptr;
}

std::string policy_name(Policy p) {
  switch (p) {
    case Policy::Fifo:
      return "Fifo";
    case Policy::Delay:
      return "Delay";
    case Policy::Fair:
      return "Fair";
    case Policy::Lips:
      return "Lips";
  }
  return "?";
}

struct SweepParam {
  Policy policy;
  std::uint64_t seed;
};
static_assert(sizeof(SweepParam) == 2 * sizeof(std::uint64_t),
              "SweepParam must have no padding bytes");

class SimConservation : public ::testing::TestWithParam<SweepParam> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimConservation,
    ::testing::Values(SweepParam{Policy::Fifo, 1}, SweepParam{Policy::Fifo, 2},
                      SweepParam{Policy::Delay, 1}, SweepParam{Policy::Delay, 2},
                      SweepParam{Policy::Fair, 1}, SweepParam{Policy::Fair, 2},
                      SweepParam{Policy::Lips, 1}, SweepParam{Policy::Lips, 2}),
    [](const auto& info) {
      return policy_name(info.param.policy) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST_P(SimConservation, InvariantsHold) {
  const auto [policy_kind, seed] = GetParam();
  const cluster::Cluster c = cluster::make_ec2_cluster(8, 0.5, 3);
  Rng rng(seed);
  workload::RandomWorkloadParams wp;
  wp.n_tasks = 120;
  wp.tasks_per_job = 8;
  wp.cpu_lo_ecu_s = 50.0;
  wp.input_hi_mb = 2048.0;
  const workload::Workload w = workload::make_random_workload(wp, c, rng);

  auto policy = make_policy(policy_kind);
  sim::SimConfig cfg;
  cfg.hdfs_replication = policy_kind == Policy::Lips ? 1 : 3;
  const sim::SimResult r = sim::simulate(c, w, *policy, cfg);

  // 1. Everything completes (within the generous default horizon).
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_completed, w.total_tasks());

  // 2. Cost conservation: total = sum of components = sum over machines
  //    (+ store-to-store transfers, which no machine owns).
  EXPECT_NEAR(r.total_cost_mc.mc(),
              (r.execution_cost_mc + r.read_transfer_cost_mc +
               r.placement_transfer_cost_mc + r.ingest_replication_cost_mc)
                  .mc(),
              1e-6);
  Millicents per_machine = Millicents::zero();
  for (const sim::MachineMetrics& m : r.machines)
    per_machine += m.cpu_cost_mc + m.read_cost_mc;
  EXPECT_NEAR(per_machine.mc(),
              (r.execution_cost_mc + r.read_transfer_cost_mc).mc(),
              1e-6 * (1.0 + per_machine.mc()));

  // 3. Work conservation: useful ECU-seconds executed >= workload demand
  //    (speculation/timeouts can only add).
  double work = 0.0;
  for (const sim::MachineMetrics& m : r.machines) work += m.cpu_work_ecu_s;
  EXPECT_GE(work, w.total_cpu_ecu_s() - 1e-6);

  // 4. Every job has a finish time no earlier than its arrival.
  for (std::size_t k = 0; k < w.job_count(); ++k) {
    ASSERT_FALSE(std::isnan(r.job_finish_s[k])) << "job " << k;
    EXPECT_GE(r.job_finish_s[k], w.job(JobId{k}).arrival_s);
    EXPECT_LE(r.job_finish_s[k], r.makespan_s + 1e-9);
  }

  // 5. No machine is busy longer than slots x makespan.
  for (std::size_t m = 0; m < c.machine_count(); ++m) {
    EXPECT_LE(r.machines[m].busy_s,
              c.machine(MachineId{m}).map_slots * r.makespan_s + 1e-6);
  }

  // 6. Locality fraction is a valid probability.
  EXPECT_GE(r.data_local_fraction.value(), 0.0);
  EXPECT_LE(r.data_local_fraction.value(), 1.0);
}

TEST_P(SimConservation, Deterministic) {
  const auto [policy_kind, seed] = GetParam();
  const cluster::Cluster c = cluster::make_ec2_cluster(6, 0.5, 2);
  Rng rng(seed);
  workload::RandomWorkloadParams wp;
  wp.n_tasks = 60;
  const workload::Workload w = workload::make_random_workload(wp, c, rng);
  auto p1 = make_policy(policy_kind);
  auto p2 = make_policy(policy_kind);
  const sim::SimResult a = sim::simulate(c, w, *p1);
  const sim::SimResult b = sim::simulate(c, w, *p2);
  EXPECT_DOUBLE_EQ(a.total_cost_mc.mc(), b.total_cost_mc.mc());
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  for (std::size_t m = 0; m < a.machines.size(); ++m)
    EXPECT_DOUBLE_EQ(a.machines[m].busy_s, b.machines[m].busy_s);
}

// ---------------------------------------------------------------------------
// Independent verification of LP schedules against the paper's constraints.
// ---------------------------------------------------------------------------

class LpScheduleProperties : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, LpScheduleProperties,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST_P(LpScheduleProperties, DecodedScheduleSatisfiesPaperConstraints) {
  Rng rng(GetParam());
  cluster::RandomClusterParams cp;
  cp.n_machines = 8;
  cp.n_stores = 10;
  cp.store_capacity_mb = 4096.0;  // tight enough that (11) can bind
  Rng crng = rng.split();
  const cluster::Cluster c = make_random_cluster(cp, crng);
  workload::RandomWorkloadParams wp;
  wp.n_tasks = 50;
  wp.input_hi_mb = 2048.0;
  Rng wrng = rng.split();
  const workload::Workload w = workload::make_random_workload(wp, c, wrng);

  const core::LpSchedule s = core::solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());

  constexpr double kTol = 1e-6;

  // (9): every data object fully placed.
  std::vector<double> placed(w.data_count(), 0.0);
  std::vector<std::vector<double>> placed_at(
      w.data_count(), std::vector<double>(c.store_count(), 0.0));
  for (const core::DataPlacement& p : s.placements) {
    placed[p.data.value()] += p.fraction;
    placed_at[p.data.value()][p.store.value()] += p.fraction;
    EXPECT_GE(p.fraction, -kTol);
    EXPECT_LE(p.fraction, 1.0 + kTol);
  }
  for (std::size_t i = 0; i < w.data_count(); ++i)
    EXPECT_GE(placed[i], 1.0 - kTol) << "data " << i;

  // (10): every job fully scheduled.
  std::vector<double> scheduled(w.job_count(), 0.0);
  for (const core::TaskPortion& p : s.portions) {
    scheduled[p.job.value()] += p.fraction;
    EXPECT_GE(p.fraction, -kTol);
    EXPECT_LE(p.fraction, 1.0 + kTol);
  }
  for (std::size_t k = 0; k < w.job_count(); ++k)
    EXPECT_GE(scheduled[k], 1.0 - kTol) << "job " << k;

  // (11): store capacities respected.
  for (std::size_t j = 0; j < c.store_count(); ++j) {
    double used = 0.0;
    for (std::size_t i = 0; i < w.data_count(); ++i)
      used += placed_at[i][j] * w.data(DataId{i}).size_mb;
    EXPECT_LE(used, c.store(StoreId{j}).capacity_mb + kTol) << "store " << j;
  }

  // (12): machine CPU capacity respected.
  std::vector<double> load(c.machine_count(), 0.0);
  for (const core::TaskPortion& p : s.portions)
    load[p.machine.value()] += p.fraction * w.job_cpu_ecu_s(p.job);
  for (std::size_t l = 0; l < c.machine_count(); ++l) {
    const cluster::Machine& m = c.machine(MachineId{l});
    EXPECT_LE(load[l], m.throughput_ecu * m.uptime_s + kTol) << "machine " << l;
  }

  // (13): reads covered by placement.
  std::map<std::pair<std::size_t, std::size_t>, double> read;  // (job,store)
  for (const core::TaskPortion& p : s.portions)
    if (p.store) read[{p.job.value(), p.store->value()}] += p.fraction;
  for (const auto& [key, frac] : read) {
    const workload::Job& job = w.job(JobId{key.first});
    for (const DataId d : job.data) {
      EXPECT_LE(frac, placed_at[d.value()][key.second] + kTol)
          << "job " << key.first << " reads store " << key.second
          << " beyond data " << d << " presence";
    }
  }

  // Objective equals the decoded breakdown.
  EXPECT_NEAR(
      s.objective_mc.mc(),
      (s.placement_transfer_mc + s.execution_mc + s.runtime_transfer_mc).mc(),
      1e-5 * (1.0 + s.objective_mc.mc()));
}

TEST_P(LpScheduleProperties, OnlineNeverBeatsOfflineBound) {
  // The offline co-scheduling optimum is a lower bound for any executed
  // schedule under the same prices — including the simulated online LiPS
  // pipeline with rounding.
  Rng rng(GetParam() * 7919);
  const cluster::Cluster c = cluster::make_ec2_cluster(6, 0.5, 3);
  workload::RandomWorkloadParams wp;
  wp.n_tasks = 80;
  wp.tasks_per_job = 8;
  wp.cpu_lo_ecu_s = 100.0;
  wp.input_hi_mb = 1024.0;
  Rng wrng = rng.split();
  const workload::Workload w = workload::make_random_workload(wp, c, wrng);

  const core::LpSchedule offline = core::solve_co_scheduling(c, w);
  ASSERT_TRUE(offline.optimal());

  core::LipsPolicyOptions lo;
  lo.epoch_s = 400.0;
  core::LipsPolicy lips(lo);
  const sim::SimResult r = sim::simulate(c, w, lips);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.total_cost_mc.mc(), offline.objective_mc.mc() - 1e-6);
}

// ---------------------------------------------------------------------------
// Epoch sweep: LiPS online completes and meters costs sanely at every epoch.
// ---------------------------------------------------------------------------

class EpochSweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Epochs, EpochSweep,
                         ::testing::Values(100.0, 250.0, 500.0, 1000.0,
                                           2500.0));

TEST_P(EpochSweep, LipsCompletesAtEveryEpochLength) {
  const double epoch = GetParam();
  const cluster::Cluster c = cluster::make_ec2_cluster(6, 0.5, 3);
  Rng rng(777);
  workload::RandomWorkloadParams wp;
  wp.n_tasks = 80;
  wp.tasks_per_job = 8;
  wp.cpu_lo_ecu_s = 100.0;
  wp.input_hi_mb = 1024.0;
  const workload::Workload w = workload::make_random_workload(wp, c, rng);

  core::LipsPolicyOptions lo;
  lo.epoch_s = epoch;
  core::LipsPolicy lips(lo);
  const sim::SimResult r = sim::simulate(c, w, lips);
  ASSERT_TRUE(r.completed) << "epoch " << epoch;
  EXPECT_EQ(r.tasks_completed, w.total_tasks());
  EXPECT_EQ(lips.lp_failures(), 0u);
  EXPECT_GT(r.total_cost_mc.mc(), 0.0);
}

}  // namespace
}  // namespace lips
