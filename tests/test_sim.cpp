// Integration tests for the discrete-event simulator (src/sim) with the
// baseline schedulers (src/sched) and the LiPS policy (src/core).
#include <gtest/gtest.h>

#include <cmath>

#include "core/lips_policy.hpp"
#include "sched/delay_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sim/simulator.hpp"

namespace lips::sim {
namespace {

using cluster::Cluster;
using workload::Workload;

// Two machines in separate zones with co-located stores; configurable
// prices/throughputs. Store 0 belongs to machine 0, store 1 to machine 1.
Cluster two_nodes(double price0, double price1, double tp0 = 1.0,
                  double tp1 = 1.0, int slots = 1) {
  Cluster c;
  const ZoneId za = c.add_zone("a");
  const ZoneId zb = c.add_zone("b");
  auto add = [&](ZoneId z, double price, double tp) {
    cluster::Machine m;
    m.name = "m" + std::to_string(c.machine_count());
    m.zone = z;
    m.cpu_price_mc = UsdPerCpuSec::mc_per_ecu_s(price);
    m.throughput_ecu = tp;
    m.map_slots = slots;
    m.uptime_s = 1e9;
    const MachineId id = c.add_machine(std::move(m));
    cluster::DataStore s;
    s.name = "s" + std::to_string(c.store_count());
    s.zone = z;
    s.capacity_mb = 1e9;
    s.colocated_machine = id.value();
    c.add_store(std::move(s));
  };
  add(za, price0, tp0);
  add(zb, price1, tp1);
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

// ------------------------------------------------------------ mechanics ---

TEST(SimMechanics, SingleTaskTimingAndCostExact) {
  const Cluster c = two_nodes(2.0, 2.0);
  const Workload w = one_job(1.0, 64.0, 1);  // 64 ECU-s, 64 MB
  sched::FifoLocalityScheduler fifo;
  const SimResult r = simulate(c, w, fifo);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_completed, 1u);
  // FIFO picks the node-local machine 0 (machine order, locality level 0):
  // duration = 64 MB / 80 MB/s + 64 ECU-s / 1 ECU = 0.8 + 64 = 64.8 s.
  EXPECT_NEAR(r.makespan_s, 64.8, 1e-9);
  EXPECT_NEAR(r.execution_cost_mc.mc(), 128.0, 1e-9);     // 64 × 2
  EXPECT_NEAR(r.read_transfer_cost_mc.mc(), 0.0, 1e-12);  // local read free
  EXPECT_NEAR(r.total_cost_mc.mc(), 128.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.data_local_fraction.value(), 1.0);
  EXPECT_NEAR(r.machines[0].busy_s, 64.8, 1e-9);
  EXPECT_NEAR(r.machines[1].busy_s, 0.0, 1e-12);
}

TEST(SimMechanics, InputFreeJobRunsWithoutStores) {
  const Cluster c = two_nodes(1.0, 1.0);
  Workload w;
  workload::Job pi;
  pi.name = "pi";
  pi.cpu_fixed_ecu_s = 100.0;
  pi.num_tasks = 4;
  w.add_job(std::move(pi));
  sched::FifoLocalityScheduler fifo;
  const SimResult r = simulate(c, w, fifo);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_completed, 4u);
  EXPECT_NEAR(r.total_cost_mc.mc(), 100.0, 1e-9);
  // Input-free reads count as local by convention.
  EXPECT_DOUBLE_EQ(r.data_local_fraction.value(), 1.0);
}

TEST(SimMechanics, SlotsLimitParallelism) {
  // 8 equal tasks, 2 machines × 1 slot → 4 sequential waves on each.
  const Cluster c = two_nodes(1.0, 1.0);
  const Workload w = one_job(1.0, 8 * 64.0, 8);
  sched::FifoLocalityScheduler fifo;
  const SimResult r = simulate(c, w, fifo);
  ASSERT_TRUE(r.completed);
  // Per task: 64 ECU-s. Local: 64/80+64 = 64.8 s; remote (machine 1 reads
  // zone-crossing): 64/31.25 + 64 = 66.048 s. Four waves ≈ 264 s.
  EXPECT_GT(r.makespan_s, 3 * 64.8);
  EXPECT_LT(r.makespan_s, 5 * 66.1);
  EXPECT_EQ(r.machines[0].tasks_run + r.machines[1].tasks_run, 8u);
}

TEST(SimMechanics, ArrivalsDelayStart) {
  const Cluster c = two_nodes(1.0, 1.0);
  Workload w;
  const DataId d = w.add_data({"d", 64.0, StoreId{0}});
  workload::Job j;
  j.name = "late";
  j.tcp_cpu_s_per_mb = 1.0;
  j.data = {d};
  j.num_tasks = 1;
  j.arrival_s = 500.0;
  w.add_job(std::move(j));
  sched::FifoLocalityScheduler fifo;
  const SimResult r = simulate(c, w, fifo);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.makespan_s, 500.0 + 64.8, 1e-9);
  EXPECT_NEAR(r.sum_job_duration_s, 64.8, 1e-9);
}

TEST(SimMechanics, CostBreakdownSums) {
  const Cluster c = two_nodes(3.0, 1.0, 1.0, 2.0, 2);
  const Workload w = one_job(2.0, 640.0, 10);
  sched::FifoLocalityScheduler fifo;
  const SimResult r = simulate(c, w, fifo);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.total_cost_mc.mc(),
              (r.execution_cost_mc + r.read_transfer_cost_mc +
               r.placement_transfer_cost_mc)
                  .mc(),
              1e-9);
  Millicents machine_cost = Millicents::zero();
  for (const MachineMetrics& m : r.machines)
    machine_cost += m.cpu_cost_mc + m.read_cost_mc;
  EXPECT_NEAR(machine_cost.mc(),
              (r.execution_cost_mc + r.read_transfer_cost_mc).mc(), 1e-9);
}

TEST(SimMechanics, DeterministicAcrossRuns) {
  const Cluster c = two_nodes(3.0, 1.0, 1.0, 2.0, 2);
  const Workload w = one_job(2.0, 640.0, 10);
  sched::FifoLocalityScheduler f1, f2;
  const SimResult a = simulate(c, w, f1);
  const SimResult b = simulate(c, w, f2);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.total_cost_mc.mc(), b.total_cost_mc.mc());
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
}

// ----------------------------------------------------------- schedulers ---

TEST(FifoScheduler, PrefersNodeLocalSlot) {
  // Data local to machine 1 (the later-polled machine); machine 1 has 2
  // slots so locality should dominate even though machine 0 polls first.
  const Cluster c = two_nodes(1.0, 1.0, 1.0, 1.0, 2);
  const Workload w = one_job(1.0, 2 * 64.0, 2, StoreId{1});
  sched::FifoLocalityScheduler fifo;
  const SimResult r = simulate(c, w, fifo);
  ASSERT_TRUE(r.completed);
  // Machine 0 is offered a slot first and takes a remote task (Hadoop
  // default never idles a tracker); machine 1 runs the rest locally.
  EXPECT_GT(r.machines[1].tasks_run, 0u);
}

TEST(DelayScheduler, AchievesHigherLocalityThanDefault) {
  // Many small tasks with all data on machine 0's store: default floods
  // both machines (remote reads from machine 1), delay waits for local
  // slots and should reach (near-)full locality.
  const Cluster c = two_nodes(1.0, 1.0, 4.0, 4.0, 2);
  const Workload w = one_job(0.5, 40 * 64.0, 40);
  sched::FifoLocalityScheduler fifo;
  sched::DelayScheduler delay(1e6, 1e6);  // effectively infinite patience
  const SimResult rf = simulate(c, w, fifo);
  const SimResult rd = simulate(c, w, delay);
  ASSERT_TRUE(rf.completed);
  ASSERT_TRUE(rd.completed);
  EXPECT_GT(rd.data_local_fraction.value(), rf.data_local_fraction.value());
  EXPECT_DOUBLE_EQ(rd.data_local_fraction.value(), 1.0);
  // Locality avoids cross-zone read charges entirely.
  EXPECT_DOUBLE_EQ(rd.read_transfer_cost_mc.mc(), 0.0);
  EXPECT_GT(rf.read_transfer_cost_mc.mc(), 0.0);
}

TEST(DelayScheduler, FallsBackAfterWaiting) {
  // Finite patience: once the delay expires the job accepts remote slots,
  // so machine 1 eventually participates.
  const Cluster c = two_nodes(1.0, 1.0, 1.0, 1.0, 1);
  const Workload w = one_job(1.0, 20 * 64.0, 20);
  sched::DelayScheduler delay(10.0, 30.0);
  const SimResult r = simulate(c, w, delay);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.machines[1].tasks_run, 0u);
  EXPECT_LT(r.data_local_fraction.value(), 1.0);
}

TEST(Speculative, DuplicatesStragglerAndCutsMakespan) {
  // Machine 0 is 10× slower; the last wave on it is a straggler that the
  // fast machine should duplicate. Naive (Hadoop-classic) mode duplicates
  // on time alone — the cost-aware mode would decline here because both
  // machines charge the same price, so the duplicate saves no money.
  const Cluster c = two_nodes(1.0, 1.0, 0.1, 1.0, 1);
  const Workload w = one_job(1.0, 4 * 64.0, 4);
  sched::FifoLocalityScheduler f1, f2;
  SimConfig on;
  on.speculative_execution = true;
  on.speculation.mode = SpeculationConfig::Mode::Naive;
  const SimResult spec = simulate(c, w, f1, on);
  const SimResult base = simulate(c, w, f2);
  ASSERT_TRUE(spec.completed);
  ASSERT_TRUE(base.completed);
  EXPECT_GT(spec.speculative_launched, 0u);
  EXPECT_LT(spec.makespan_s, base.makespan_s);
  // Speculation is never free: duplicates burn money.
  EXPECT_GE(spec.total_cost_mc.mc(), base.total_cost_mc.mc() - 1e-9);
  // The duplicate's bill is metered, and the losing copies' spend is waste.
  EXPECT_GT(spec.speculation_cost_mc.mc(), 0.0);
  EXPECT_GT(spec.wasted_cost_mc.mc(), 0.0);
}

TEST(Speculative, NaiveModeIsDeterministic) {
  const Cluster c = two_nodes(1.0, 1.0, 0.1, 1.0, 1);
  const Workload w = one_job(1.0, 4 * 64.0, 4);
  sched::FifoLocalityScheduler f1, f2;
  SimConfig on;
  on.speculative_execution = true;
  on.speculation.mode = SpeculationConfig::Mode::Naive;
  const SimResult a = simulate(c, w, f1, on);
  const SimResult b = simulate(c, w, f2, on);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);  // bit-identical, not just close
  EXPECT_EQ(a.total_cost_mc, b.total_cost_mc);
  EXPECT_EQ(a.speculation_cost_mc, b.speculation_cost_mc);
  EXPECT_EQ(a.wasted_cost_mc, b.wasted_cost_mc);
  EXPECT_EQ(a.speculative_launched, b.speculative_launched);
  EXPECT_EQ(a.speculative_wasted, b.speculative_wasted);
  // Every cancelled loser was once launched, and its spend is metered.
  EXPECT_LE(a.speculative_wasted, a.speculative_launched);
  EXPECT_GT(a.speculative_launched, 0u);
  EXPECT_GT(a.wasted_cost_mc.mc(), 0.0);
  EXPECT_GT(a.speculation_cost_mc.mc(), 0.0);
}

TEST(Timeouts, SlowTaskIsKilledAndRetried) {
  Cluster c = two_nodes(1.0, 1.0);
  // Cross-zone link so slow that a remote read exceeds the timeout.
  const Workload w = one_job(0.01, 2 * 64.0, 2, StoreId{1});
  // Slow down machine 0's access to store 1 drastically.
  c.set_bandwidth_mb_s(MachineId{0}, StoreId{1}, BytesPerSec::mb_per_s(0.01));
  sched::FifoLocalityScheduler fifo;
  SimConfig cfg;
  cfg.task_timeout_s = 600.0;
  const SimResult r = simulate(c, w, fifo, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.timeout_kills, 0u);
  EXPECT_EQ(r.tasks_completed, 2u);
}

TEST(Timeouts, KillsExactlyRetryBudgetThenRunsToCompletion) {
  Cluster c = two_nodes(1.0, 1.0);
  // Every path to the data is far slower than the timeout: each launch is
  // killed until the retry budget runs out, then the livelock guard lets
  // the task run to completion.
  const Workload w = one_job(0.01, 64.0, 1, StoreId{1});
  c.set_bandwidth_mb_s(MachineId{0}, StoreId{1}, BytesPerSec::mb_per_s(0.01));
  c.set_bandwidth_mb_s(MachineId{1}, StoreId{1}, BytesPerSec::mb_per_s(0.01));
  sched::FifoLocalityScheduler fifo;
  SimConfig cfg;
  cfg.task_timeout_s = 600.0;
  cfg.record_trace = true;
  const SimResult r = simulate(c, w, fifo, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.timeout_kills, 3u);
  EXPECT_EQ(r.tasks_completed, 1u);
  std::size_t kill_events = 0;
  for (const TraceEvent& e : r.trace)
    if (e.kind == TraceEvent::Kind::TimeoutKill) kill_events += 1;
  EXPECT_EQ(kill_events, 3u);
  // 3 killed runs of 600 s each, then one full run (6400 s read + 0.64 s
  // CPU); each kill also re-polls the queue immediately.
  EXPECT_GT(r.makespan_s, 3 * 600.0 + 6400.0 - 1e-6);
}

// ------------------------------------------------------------ LiPS policy -

TEST(LipsPolicySim, CompletesAndBeatsDefaultOnCost) {
  // CPU-heavy work originating on the dear machine's store: LiPS must shift
  // work (and data) toward the cheap node and win on dollars.
  const Cluster c = two_nodes(5.0, 1.0, 1.0, 1.0, 2);
  const Workload w = one_job(10.0, 10 * 64.0, 10);
  core::LipsPolicyOptions opt;
  opt.epoch_s = 2000.0;
  core::LipsPolicy lips(opt);
  sched::FifoLocalityScheduler fifo;
  const SimResult rl = simulate(c, w, lips);
  const SimResult rf = simulate(c, w, fifo);
  ASSERT_TRUE(rl.completed);
  ASSERT_TRUE(rf.completed);
  EXPECT_LT(rl.total_cost_mc.mc(), rf.total_cost_mc.mc());
  EXPECT_GT(rl.machines[1].tasks_run, rl.machines[0].tasks_run);
  EXPECT_GE(lips.lp_solves(), 1u);
  EXPECT_EQ(lips.lp_failures(), 0u);
}

TEST(LipsPolicySim, SimulatedCostTracksLpPlan) {
  const Cluster c = two_nodes(5.0, 1.0, 1.0, 1.0, 2);
  const Workload w = one_job(10.0, 10 * 64.0, 10);
  core::LipsPolicyOptions opt;
  opt.epoch_s = 5000.0;  // one epoch fits everything
  core::LipsPolicy lips(opt);
  const SimResult r = simulate(c, w, lips);
  ASSERT_TRUE(r.completed);
  // The simulator's dollar meter should match the LP/rounded plan closely
  // (same prices, same assignments).
  EXPECT_NEAR(r.total_cost_mc.mc(), lips.planned_cost_mc().mc(),
              0.05 * lips.planned_cost_mc().mc());
}

TEST(LipsPolicySim, ShortEpochsDeferWorkAcrossEpochs) {
  const Cluster c = two_nodes(5.0, 1.0, 1.0, 1.0, 1);
  const Workload w = one_job(1.0, 10 * 64.0, 10);  // 640 ECU-s
  core::LipsPolicyOptions opt;
  opt.epoch_s = 100.0;  // 200 ECU-s capacity per epoch → several epochs
  core::LipsPolicy lips(opt);
  const SimResult r = simulate(c, w, lips);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.epochs, 3u);
  EXPECT_GE(lips.lp_solves(), 3u);
  EXPECT_EQ(r.tasks_completed, 10u);
}

TEST(LipsPolicySim, DataMovesArePaidAndGateTasks) {
  // All data on the dear node; CPU-heavy job; big enough gap that LiPS
  // moves the data to the cheap store before running there.
  const Cluster c = two_nodes(5.0, 0.2, 1.0, 1.0, 2);
  const Workload w = one_job(20.0, 4 * 64.0, 4);
  core::LipsPolicyOptions opt;
  opt.epoch_s = 10000.0;
  core::LipsPolicy lips(opt);
  const SimResult r = simulate(c, w, lips);
  ASSERT_TRUE(r.completed);
  // Either it moved data (placement cost) or read remotely (read cost);
  // for this gap the LP picks a placement move or remote read of equal
  // price — both register as transfer spend.
  EXPECT_GT((r.placement_transfer_cost_mc + r.read_transfer_cost_mc).mc(),
            0.0);
  // All work must land on the cheap machine.
  EXPECT_EQ(r.machines[0].tasks_run, 0u);
  EXPECT_EQ(r.machines[1].tasks_run, 4u);
}

TEST(LipsPolicySim, IdleEpochsAreHarmless) {
  const Cluster c = two_nodes(1.0, 1.0);
  Workload w;
  const DataId d = w.add_data({"d", 64.0, StoreId{0}});
  workload::Job j;
  j.name = "late";
  j.tcp_cpu_s_per_mb = 1.0;
  j.data = {d};
  j.num_tasks = 1;
  j.arrival_s = 950.0;  // several empty epochs first
  w.add_job(std::move(j));
  core::LipsPolicyOptions opt;
  opt.epoch_s = 100.0;
  core::LipsPolicy lips(opt);
  const SimResult r = simulate(c, w, lips);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_completed, 1u);
}

}  // namespace
}  // namespace lips::sim
