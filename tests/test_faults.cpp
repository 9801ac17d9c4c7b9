// Fault-injection tests (src/sim/faults) — targeted failure scenarios plus
// a seeded chaos sweep checking the simulator's conservation laws under
// storms of crashes, revocations, and store losses. Registered under the
// `chaos` ctest label.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "core/lips_policy.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sim/simulator.hpp"

namespace lips::sim {
namespace {

using cluster::Cluster;
using workload::Workload;

// Two machines in separate zones with co-located stores (same shape as
// test_sim.cpp): store 0 belongs to machine 0, store 1 to machine 1.
Cluster two_nodes(double price0 = 1.0, double price1 = 1.0, int slots = 1,
                  double store_capacity_mb = 1e9) {
  Cluster c;
  const ZoneId za = c.add_zone("a");
  const ZoneId zb = c.add_zone("b");
  auto add = [&](ZoneId z, double price) {
    cluster::Machine m;
    m.name = "m" + std::to_string(c.machine_count());
    m.zone = z;
    m.cpu_price_mc = UsdPerCpuSec::mc_per_ecu_s(price);
    m.throughput_ecu = 1.0;
    m.map_slots = slots;
    m.uptime_s = 1e9;
    const MachineId id = c.add_machine(std::move(m));
    cluster::DataStore s;
    s.name = "s" + std::to_string(c.store_count());
    s.zone = z;
    s.capacity_mb = store_capacity_mb;
    s.colocated_machine = id.value();
    c.add_store(std::move(s));
  };
  add(za, price0);
  add(zb, price1);
  c.finalize();
  return c;
}

Workload one_job(double cpu_s_per_mb, double mb, std::size_t tasks,
                 StoreId origin = StoreId{0}) {
  Workload w;
  const DataId d = w.add_data({"d", mb, origin});
  workload::Job j;
  j.name = "job";
  j.tcp_cpu_s_per_mb = cpu_s_per_mb;
  j.data = {d};
  j.num_tasks = tasks;
  w.add_job(std::move(j));
  return w;
}

std::size_t count_kind(const SimResult& r, TraceEvent::Kind k) {
  std::size_t n = 0;
  for (const TraceEvent& e : r.trace)
    if (e.kind == k) n += 1;
  return n;
}

// --------------------------------------------------------- plan plumbing -

TEST(FaultPlan, StormIsDeterministicAndSorted) {
  FaultStormParams p;
  p.mtbf_s = 2000.0;
  p.mttr_s = 300.0;
  p.revoke_probability = 0.5;
  p.store_loss_rate = 1.0;
  p.degrade_rate = 1.0;
  p.seed = 42;
  const FaultPlan a = make_fault_storm(p, 4, 4);
  const FaultPlan b = make_fault_storm(p, 4, 4);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_DOUBLE_EQ(a.events[i].time_s, b.events[i].time_s);
    EXPECT_EQ(a.events[i].machine, b.events[i].machine);
    if (i > 0) {
      EXPECT_GE(a.events[i].time_s, a.events[i - 1].time_s);
    }
  }
  p.seed = 43;
  const FaultPlan other = make_fault_storm(p, 4, 4);
  bool differs = other.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i)
    differs = other.events[i].time_s != a.events[i].time_s;
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ValidateRejectsBadTargets) {
  FaultPlan plan;
  plan.crash(10.0, /*machine=*/7);
  EXPECT_THROW(plan.validate(/*machines=*/2, /*stores=*/2), PreconditionError);
  FaultPlan bad_factor;
  bad_factor.degrade_links(10.0, 0, /*factor=*/0.0, /*window_s=*/60.0);
  EXPECT_THROW(bad_factor.validate(2, 2), PreconditionError);
}

TEST(FaultSpec, ParsesKeysAndRejectsUnknown) {
  const FaultStormParams p =
      parse_fault_spec("mtbf=3600,mttr=600,revoke=0.1,warn=90,seed=7");
  EXPECT_DOUBLE_EQ(p.mtbf_s, 3600.0);
  EXPECT_DOUBLE_EQ(p.mttr_s, 600.0);
  EXPECT_DOUBLE_EQ(p.revoke_probability, 0.1);
  EXPECT_DOUBLE_EQ(p.spot_warning_s, 90.0);
  EXPECT_EQ(p.seed, 7u);
  EXPECT_THROW((void)parse_fault_spec("mtbf=notanumber"), PreconditionError);
  EXPECT_THROW((void)parse_fault_spec("bogus=1"), PreconditionError);
}

TEST(FaultSpec, RoundTripsEveryKey) {
  const FaultStormParams p = parse_fault_spec(
      "mtbf=1,mttr=2,permanent=0.5,revoke=0.25,warn=30,storeloss=0.75,"
      "degrade=1.5,degrade_factor=0.5,degrade_window=120,slowdown=2.5,"
      "slowdown_factor=8,slowdown_window=240,horizon=5000,seed=99");
  EXPECT_DOUBLE_EQ(p.mtbf_s, 1.0);
  EXPECT_DOUBLE_EQ(p.mttr_s, 2.0);
  EXPECT_DOUBLE_EQ(p.permanent_fraction, 0.5);
  EXPECT_DOUBLE_EQ(p.revoke_probability, 0.25);
  EXPECT_DOUBLE_EQ(p.spot_warning_s, 30.0);
  EXPECT_DOUBLE_EQ(p.store_loss_rate, 0.75);
  EXPECT_DOUBLE_EQ(p.degrade_rate, 1.5);
  EXPECT_DOUBLE_EQ(p.degrade_factor, 0.5);
  EXPECT_DOUBLE_EQ(p.degrade_window_s, 120.0);
  EXPECT_DOUBLE_EQ(p.slowdown_rate, 2.5);
  EXPECT_DOUBLE_EQ(p.slowdown_factor, 8.0);
  EXPECT_DOUBLE_EQ(p.slowdown_window_s, 240.0);
  EXPECT_DOUBLE_EQ(p.horizon_s, 5000.0);
  EXPECT_EQ(p.seed, 99u);
}

TEST(FaultSpec, RejectsDuplicateAndMalformedEntries) {
  EXPECT_THROW((void)parse_fault_spec("mtbf=1,mtbf=2"), PreconditionError);
  EXPECT_THROW((void)parse_fault_spec("slowdown=1,mttr=2,slowdown=1"),
               PreconditionError);
  EXPECT_THROW((void)parse_fault_spec("mtbf"), PreconditionError);
  EXPECT_THROW((void)parse_fault_spec("mtbf="), PreconditionError);
  EXPECT_THROW((void)parse_fault_spec("mtbf=12x"), PreconditionError);
  EXPECT_THROW((void)parse_fault_spec("=5"), PreconditionError);
}

TEST(FaultPlan, StormGeneratesSlowdownWindows) {
  FaultStormParams p;
  p.slowdown_rate = 3.0;
  p.slowdown_factor = 8.0;
  p.slowdown_window_s = 300.0;
  p.horizon_s = 10000.0;
  p.seed = 5;
  const FaultPlan plan = make_fault_storm(p, 4, 4);
  std::size_t slowdowns = 0;
  for (const FaultEvent& e : plan.events) {
    EXPECT_EQ(e.kind, FaultEvent::Kind::MachineSlowdown);
    EXPECT_DOUBLE_EQ(e.factor, 1.0 / 8.0);  // severity → rate multiplier
    EXPECT_DOUBLE_EQ(e.duration_s, 300.0);
    EXPECT_LT(e.machine, 4u);
    slowdowns += 1;
  }
  EXPECT_GE(slowdowns, 1u);
  plan.validate(4, 4);  // everything generated must be valid
  // Severity must be a slowdown multiple > 1 (1/factor is the rate).
  p.slowdown_factor = 1.0;
  EXPECT_THROW(make_fault_storm(p, 4, 4), PreconditionError);
}

TEST(FaultPlan, ValidateRejectsSlowdownRateAtOrAboveOne) {
  FaultPlan plan;
  plan.slow_machine(10.0, 0, /*factor=*/1.0, /*window_s=*/60.0);
  EXPECT_THROW(plan.validate(2, 2), PreconditionError);
  FaultPlan zero_window;
  zero_window.slow_machine(10.0, 0, 0.5, 0.0);
  EXPECT_THROW(zero_window.validate(2, 2), PreconditionError);
}

TEST(FaultPlan, EmptyPlanChangesNothing) {
  const Cluster c = two_nodes();
  const Workload w = one_job(1.0, 4 * 64.0, 4);
  sched::FifoLocalityScheduler f1, f2;
  SimConfig plain;
  SimConfig with_empty;
  with_empty.faults = FaultPlan{};
  const SimResult a = simulate(c, w, f1, plain);
  const SimResult b = simulate(c, w, f2, with_empty);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);  // bit-identical, not just close
  EXPECT_EQ(a.total_cost_mc, b.total_cost_mc);
  EXPECT_EQ(a.execution_cost_mc, b.execution_cost_mc);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.tasks_killed_by_faults, 0u);
  EXPECT_EQ(a.tasks_lost, 0u);
  EXPECT_EQ(a.machines_lost, 0u);
  EXPECT_EQ(a.wasted_cost_mc.mc(), 0.0);
  EXPECT_EQ(a.machines[0].downtime_s, 0.0);
  EXPECT_EQ(a.speculation_cost_mc.mc(), 0.0);
  EXPECT_EQ(a.machine_slowdowns, 0u);
  EXPECT_EQ(a.machines[0].slowed_s, 0.0);
  EXPECT_EQ(b.machines[0].slowed_s, 0.0);
}

// ------------------------------------------------------- failure handling -

TEST(MachineFaults, TransientCrashKillsRequeuesAndRestores) {
  const Cluster c = two_nodes();
  const Workload w = one_job(1.0, 4 * 64.0, 4);  // ~64.8 s per task
  sched::FifoLocalityScheduler fifo;
  SimConfig cfg;
  cfg.record_trace = true;
  cfg.faults.crash(/*time_s=*/30.0, /*machine=*/0, /*repair_s=*/200.0);
  const SimResult r = simulate(c, w, fifo, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_completed, 4u);
  EXPECT_EQ(r.machines_lost, 1u);
  EXPECT_EQ(r.machines_restored, 1u);
  EXPECT_GE(r.tasks_killed_by_faults, 1u);
  EXPECT_EQ(r.fault_retries, r.tasks_killed_by_faults);
  EXPECT_EQ(r.tasks_lost, 0u);
  EXPECT_GT(r.wasted_cost_mc.mc(), 0.0);  // 30 s of work died with the machine
  EXPECT_NEAR(r.machines[0].downtime_s, 200.0, 1e-9);
  EXPECT_EQ(count_kind(r, TraceEvent::Kind::MachineLost), 1u);
  EXPECT_EQ(count_kind(r, TraceEvent::Kind::MachineRestored), 1u);
  EXPECT_GE(count_kind(r, TraceEvent::Kind::TaskRequeued), 1u);
}

TEST(MachineFaults, PermanentCrashShiftsWorkToSurvivor) {
  const Cluster c = two_nodes();
  const Workload w = one_job(1.0, 4 * 64.0, 4);
  sched::FifoLocalityScheduler fifo;
  SimConfig cfg;
  cfg.faults.crash(30.0, 0);  // repair_s = 0: permanent
  const SimResult r = simulate(c, w, fifo, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.machines_lost, 1u);
  EXPECT_EQ(r.machines_restored, 0u);
  // Everything after the crash runs on machine 1.
  EXPECT_EQ(r.tasks_completed, 4u);
  EXPECT_GE(r.machines[1].tasks_run, 3u);
  EXPECT_GT(r.machines[0].downtime_s, 0.0);  // down through end of run
}

TEST(MachineFaults, RetryBudgetExhaustionAbandonsTheJob) {
  // One 6400 s task; both machines crash together every 1000 s and come
  // back a second later, so every crash kills the task wherever it runs.
  // The first 8 kills requeue it with a doubling backoff capped at 320 s;
  // the 9th exhausts the retry budget and the task is lost.
  const Cluster c = two_nodes();
  const Workload w = one_job(100.0, 64.0, 1);
  sched::FifoLocalityScheduler fifo;
  SimConfig cfg;
  cfg.record_trace = true;
  for (int k = 1; k <= 9; ++k) {
    cfg.faults.crash(1000.0 * k, 0, /*repair_s=*/1.0);
    cfg.faults.crash(1000.0 * k, 1, /*repair_s=*/1.0);
  }
  const SimResult r = simulate(c, w, fifo, cfg);
  std::vector<double> backoffs;
  for (const TraceEvent& e : r.trace)
    if (e.kind == TraceEvent::Kind::TaskRequeued) backoffs.push_back(e.amount);
  EXPECT_EQ(backoffs, (std::vector<double>{5.0, 10.0, 20.0, 40.0, 80.0, 160.0,
                                           320.0, 320.0}));
  EXPECT_EQ(r.tasks_killed_by_faults, 9u);
  EXPECT_EQ(r.fault_retries, 8u);
  EXPECT_EQ(r.tasks_lost, 1u);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(std::isnan(r.job_finish_s[0]));
}

TEST(MachineFaults, SpotRevocationWarnsThenKills) {
  const Cluster c = two_nodes();
  const Workload w = one_job(1.0, 4 * 64.0, 4);
  sched::FifoLocalityScheduler fifo;
  SimConfig cfg;
  cfg.record_trace = true;
  cfg.faults.revoke_spot(/*time_s=*/10.0, /*machine=*/0, /*warning_s=*/50.0);
  const SimResult r = simulate(c, w, fifo, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.spot_revocations, 1u);
  EXPECT_EQ(r.machines_lost, 1u);
  EXPECT_EQ(r.machines_restored, 0u);
  // Warning precedes the loss by exactly the notice period.
  double warn_t = -1.0, lost_t = -1.0;
  for (const TraceEvent& e : r.trace) {
    if (e.kind == TraceEvent::Kind::SpotRevocationWarning) warn_t = e.time_s;
    if (e.kind == TraceEvent::Kind::MachineLost) lost_t = e.time_s;
  }
  EXPECT_NEAR(warn_t, 10.0, 1e-9);
  EXPECT_NEAR(lost_t, 60.0, 1e-9);
}

TEST(StoreFaults, StoreLossRefetchesFromSurvivor) {
  const Cluster c = two_nodes();
  const Workload w = one_job(1.0, 4 * 64.0, 4, StoreId{0});
  sched::FifoLocalityScheduler fifo;
  SimConfig cfg;
  cfg.record_trace = true;
  cfg.faults.lose_store(/*time_s=*/30.0, /*store=*/0);
  const SimResult r = simulate(c, w, fifo, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.stores_lost, 1u);
  EXPECT_EQ(r.data_refetches, 1u);  // re-materialized at the surviving store
  EXPECT_EQ(r.tasks_completed, 4u);
  EXPECT_EQ(count_kind(r, TraceEvent::Kind::StoreLost), 1u);
  // In-flight readers of store 0 died with it.
  EXPECT_GE(r.tasks_killed_by_faults, 1u);
}

TEST(StoreFaults, LinkDegradeStretchesTransfers) {
  const Cluster c = two_nodes();
  // Transfer-dominated job arriving after the degradation window opens
  // (instances price their transfer at launch time).
  Workload w;
  const DataId d = w.add_data({"d", 2 * 640.0, StoreId{0}});
  workload::Job j;
  j.name = "job";
  j.tcp_cpu_s_per_mb = 0.1;
  j.data = {d};
  j.num_tasks = 2;
  j.arrival_s = 5.0;
  w.add_job(std::move(j));
  sched::FifoLocalityScheduler f1, f2;
  SimConfig slow;
  slow.faults.degrade_links(0.0, 0, /*factor=*/0.05, /*window_s=*/1e6)
      .degrade_links(0.0, 1, 0.05, 1e6);
  const SimResult degraded = simulate(c, w, f1, slow);
  const SimResult base = simulate(c, w, f2);
  ASSERT_TRUE(degraded.completed);
  ASSERT_TRUE(base.completed);
  EXPECT_GT(degraded.makespan_s, base.makespan_s * 1.5);
  // Bandwidth is time, not money: the bill is unchanged.
  EXPECT_NEAR(degraded.total_cost_mc.mc(), base.total_cost_mc.mc(), 1e-9);
}

// ------------------------------------------------------------ LiPS policy -

TEST(LipsFaults, ReplansOffCycleAfterMachineLoss) {
  const Cluster c = two_nodes(5.0, 1.0, /*slots=*/2);
  const Workload w = one_job(10.0, 10 * 64.0, 10);
  core::LipsPolicyOptions opt;
  opt.epoch_s = 2000.0;
  core::LipsPolicy lips(opt);
  SimConfig cfg;
  cfg.faults.crash(100.0, /*machine=*/1, /*repair_s=*/500.0);
  const SimResult r = simulate(c, w, lips, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_completed, 10u);
  EXPECT_GE(lips.off_cycle_resolves(), 2u);  // loss + restore
  EXPECT_EQ(r.tasks_lost, 0u);
}

TEST(LipsFaults, SpotWarningSteersWorkOffTheDoomedMachine) {
  // The cheap machine is revoked early; LiPS must finish on the dear one.
  const Cluster c = two_nodes(5.0, 1.0, /*slots=*/2);
  const Workload w = one_job(10.0, 6 * 64.0, 6);
  core::LipsPolicyOptions opt;
  opt.epoch_s = 2000.0;
  core::LipsPolicy lips(opt);
  SimConfig cfg;
  cfg.faults.revoke_spot(50.0, /*machine=*/1, /*warning_s=*/120.0);
  const SimResult r = simulate(c, w, lips, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.spot_revocations, 1u);
  EXPECT_EQ(r.tasks_completed, 6u);
  EXPECT_GE(lips.off_cycle_resolves(), 2u);  // warning + execution
}

TEST(LipsFaults, InfeasibleLpFallsBackToGreedyPlan) {
  // Stores far too small to hold the 640 MB object: the LP's placement
  // constraint (9)+(11) is infeasible even with the fake node, so the
  // policy must fall back to a greedy plan instead of stalling the epoch.
  const Cluster c = two_nodes(5.0, 1.0, /*slots=*/2, /*store_capacity_mb=*/1.0);
  const Workload w = one_job(1.0, 640.0, 4);
  core::LipsPolicyOptions opt;
  opt.epoch_s = 2000.0;
  core::LipsPolicy lips(opt);
  const SimResult r = simulate(c, w, lips);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(lips.lp_failures(), 1u);
  EXPECT_EQ(r.tasks_completed, 4u);
}

// ------------------------------------------------------------ chaos sweep -

// Conservation laws that must hold under any fault storm:
//  * the cost meter equals the sum of its components;
//  * per-machine cost accounting sums to the global meters;
//  * every task is completed, lost, or still in flight at the horizon;
//  * identical seeds give identical runs.
void check_invariants(const SimResult& r, std::size_t total_tasks) {
  EXPECT_NEAR(r.total_cost_mc.mc(),
              (r.execution_cost_mc + r.read_transfer_cost_mc +
               r.placement_transfer_cost_mc + r.ingest_replication_cost_mc)
                  .mc(),
              1e-6);
  Millicents machine_cpu = Millicents::zero();
  Millicents machine_read = Millicents::zero();
  for (const MachineMetrics& m : r.machines) {
    machine_cpu += m.cpu_cost_mc;
    machine_read += m.read_cost_mc;
  }
  EXPECT_NEAR(machine_cpu.mc(), r.execution_cost_mc.mc(), 1e-6);
  EXPECT_NEAR(machine_read.mc(), r.read_transfer_cost_mc.mc(), 1e-6);
  EXPECT_LE(r.tasks_completed + r.tasks_lost, total_tasks);
  if (r.completed) {
    EXPECT_EQ(r.tasks_completed, total_tasks);
    EXPECT_EQ(r.tasks_lost, 0u);
  }
  EXPECT_GE(r.wasted_cost_mc.mc(), 0.0);
  EXPECT_LE(r.wasted_cost_mc.mc(), r.total_cost_mc.mc() + 1e-6);
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_cost_mc, b.total_cost_mc);
  EXPECT_EQ(a.wasted_cost_mc, b.wasted_cost_mc);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.tasks_killed_by_faults, b.tasks_killed_by_faults);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.tasks_lost, b.tasks_lost);
}

TEST(ChaosSweep, FifoSurvives100SeededStorms) {
  const Cluster c = two_nodes(1.0, 2.0, /*slots=*/2);
  const Workload w = one_job(1.0, 8 * 64.0, 8);
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    FaultStormParams p;
    p.mtbf_s = 800.0;  // several crashes over the run
    p.mttr_s = 120.0;
    p.horizon_s = 4000.0;
    p.seed = seed;
    SimConfig cfg;
    cfg.faults = make_fault_storm(p, c.machine_count(), c.store_count());
    sched::FifoLocalityScheduler f1, f2;
    const SimResult a = simulate(c, w, f1, cfg);
    const SimResult b = simulate(c, w, f2, cfg);
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_invariants(a, w.total_tasks());
    expect_identical(a, b);
    // Transient-only storms lose nothing: all work eventually completes.
    EXPECT_TRUE(a.completed);
  }
}

TEST(ChaosSweep, LipsSurvivesStormsWithRevocationsAndStoreLoss) {
  const Cluster c = two_nodes(2.0, 1.0, /*slots=*/2);
  const Workload w = one_job(2.0, 6 * 64.0, 6);
  std::size_t storms_with_faults = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FaultStormParams p;
    p.mtbf_s = 1500.0;
    p.mttr_s = 200.0;
    p.store_loss_rate = 0.5;
    p.horizon_s = 3000.0;
    p.seed = seed;
    SimConfig cfg;
    cfg.faults = make_fault_storm(p, c.machine_count(), c.store_count());
    if (!cfg.faults.empty()) storms_with_faults += 1;
    core::LipsPolicyOptions opt;
    opt.epoch_s = 400.0;
    core::LipsPolicy lips(opt);
    const SimResult r = simulate(c, w, lips, cfg);
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_invariants(r, w.total_tasks());
    // Unless the storm wiped every store (data unrecoverable), nothing is
    // permanently lost and LiPS must finish all work.
    std::size_t store_losses = 0;
    for (const FaultEvent& e : cfg.faults.events)
      if (e.kind == FaultEvent::Kind::StoreLoss) store_losses += 1;
    if (store_losses < c.store_count()) {
      EXPECT_TRUE(r.completed);
      EXPECT_EQ(r.tasks_lost, 0u);
    }
  }
  EXPECT_GT(storms_with_faults, 10u);
}

}  // namespace
}  // namespace lips::sim
