// Straggler-model tests (slowdown faults, cost-aware speculative execution,
// observed-throughput feedback) — deterministic scenarios with hand-computed
// expectations plus a seeded determinism sweep. Registered under the `chaos`
// ctest label.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/lips_policy.hpp"
#include "lp/solver_faults.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sim/simulator.hpp"

namespace lips::sim {
namespace {

using cluster::Cluster;
using workload::Workload;

// Two machines in separate zones with co-located stores (same shape as
// test_faults.cpp): store 0 belongs to machine 0, store 1 to machine 1.
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

// A 64 MB task at 1 CPU-s/MB on a 1-ECU machine with a local store:
// 0.8 s transfer (80 MB/s local link) + 64 s CPU = 64.8 s wall.
constexpr double kTaskS = 64.8;

// ---------------------------------------------------- slowdown mechanics -

TEST(Slowdown, StretchesInFlightWorkAndBillsWallTime) {
  const Cluster c = two_nodes();
  const Workload w = one_job(1.0, 64.0, 1);
  sched::FifoLocalityScheduler base_f, slow_f;
  SimConfig plain;
  SimConfig cfg;
  cfg.record_trace = true;
  // 4× slowdown (factor 0.25) opening at t=10 for 1000 s. The task has done
  // 10/64.8 of its work; the remaining 54.8 s of work takes 4× as long:
  //   finish = 10 + 54.8 / 0.25 = 229.2 s.
  cfg.faults.slow_machine(/*time_s=*/10.0, /*machine=*/0, /*factor=*/0.25,
                          /*window_s=*/1000.0);
  const SimResult base = simulate(c, w, base_f, plain);
  const SimResult r = simulate(c, w, slow_f, cfg);
  ASSERT_TRUE(base.completed);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_completed, 1u);  // the stale 64.8 s finish event is stale
  EXPECT_NEAR(base.makespan_s, kTaskS, 1e-9);
  EXPECT_NEAR(r.makespan_s, 229.2, 1e-9);
  // CPU is billed by wall-clock occupancy (reserved capacity), so the bill
  // stretches with the slowdown; the read moved the same bytes, so the
  // transfer bill is unchanged.
  EXPECT_NEAR(r.execution_cost_mc.mc(),
              base.execution_cost_mc.mc() * (229.2 / kTaskS), 1e-9);
  EXPECT_NEAR(r.read_transfer_cost_mc.mc(), base.read_transfer_cost_mc.mc(),
              1e-12);
  EXPECT_EQ(r.machine_slowdowns, 1u);
  EXPECT_NEAR(r.machines[0].slowed_s, 1000.0, 1e-9);  // full window elapsed
  EXPECT_EQ(count_kind(r, TraceEvent::Kind::MachineSlowed), 1u);
  EXPECT_EQ(count_kind(r, TraceEvent::Kind::MachineSpeedRestored), 1u);
}

TEST(Slowdown, RestoreMidFlightResumesFullSpeed) {
  const Cluster c = two_nodes();
  const Workload w = one_job(1.0, 64.0, 1);
  sched::FifoLocalityScheduler fifo;
  SimConfig cfg;
  // Half speed on [10, 30): work done = 10 + 20·0.5 = 20 of 64.8, and the
  // remaining 44.8 s of work runs at full speed: finish = 30 + 44.8 = 74.8.
  cfg.faults.slow_machine(10.0, 0, /*factor=*/0.5, /*window_s=*/20.0);
  const SimResult r = simulate(c, w, fifo, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.makespan_s, 74.8, 1e-9);
  EXPECT_NEAR(r.machines[0].slowed_s, 20.0, 1e-9);
  EXPECT_EQ(r.machine_slowdowns, 1u);
}

TEST(Slowdown, IdleMachineSlowdownChangesNothing) {
  const Cluster c = two_nodes();
  const Workload w = one_job(1.0, 64.0, 1);  // runs entirely on machine 0
  sched::FifoLocalityScheduler f1, f2;
  SimConfig plain;
  SimConfig cfg;
  cfg.faults.slow_machine(1.0, /*machine=*/1, 0.5, 50.0);
  const SimResult a = simulate(c, w, f1, plain);
  const SimResult b = simulate(c, w, f2, cfg);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);  // bit-identical, not just close
  EXPECT_EQ(a.total_cost_mc, b.total_cost_mc);
  EXPECT_EQ(a.execution_cost_mc, b.execution_cost_mc);
  EXPECT_EQ(b.machine_slowdowns, 1u);  // the window opened, but nothing ran
  EXPECT_NEAR(b.machines[1].slowed_s, 50.0, 1e-9);
  EXPECT_EQ(b.wasted_cost_mc.mc(), 0.0);
}

// --------------------------------------------- cost-aware speculation -----

TEST(CostAwareSpeculation, DuplicatesWhenTheDollarsSayYes) {
  // Equal prices: task 0 runs locally on machine 0, task 1 remotely on
  // machine 1. An 8× slowdown strands task 0 (finish ≈ 483 s); once task 1
  // completes, machine 1's idle slot can redo task 0 in ~70 s for the same
  // ECU price — the duplicate saves real money and must launch.
  const Cluster c = two_nodes(1.0, 1.0);
  const Workload w = one_job(1.0, 2 * 64.0, 2);
  SimConfig off;
  off.speculative_execution = false;
  off.faults.slow_machine(5.0, 0, /*factor=*/0.125, /*window_s=*/1e6);
  SimConfig on = off;
  on.speculative_execution = true;  // SpeculationConfig defaults: CostAware
  sched::FifoLocalityScheduler f_off, f_on;
  const SimResult nospec = simulate(c, w, f_off, off);
  const SimResult spec = simulate(c, w, f_on, on);
  ASSERT_TRUE(nospec.completed);
  ASSERT_TRUE(spec.completed);
  EXPECT_NEAR(nospec.makespan_s, 5.0 + 59.8 * 8.0, 1e-9);  // 483.4 s
  EXPECT_EQ(spec.speculative_launched, 1u);
  EXPECT_EQ(spec.speculative_wasted, 1u);  // the stranded original lost
  EXPECT_GT(spec.speculation_cost_mc.mc(), 0.0);
  EXPECT_GT(spec.wasted_cost_mc.mc(), 0.0);
  EXPECT_LT(spec.makespan_s, nospec.makespan_s / 2.0);
  EXPECT_LT(spec.total_cost_mc.mc(), nospec.total_cost_mc.mc());
}

TEST(CostAwareSpeculation, DeclinesWhenTheDuplicateIsDearer) {
  // Machine 1 charges 20× the ECU price. The stranded task on machine 0
  // would save ~103 m¢ of remaining slow-motion bill, but a duplicate on
  // machine 1 costs ≥ 64 ECU-s × 20 m¢ = 1280 m¢ — the detector must
  // decline, leaving the run bit-identical to speculation-off.
  const Cluster c = two_nodes(1.0, 20.0);
  const Workload w = one_job(1.0, 2 * 64.0, 2);
  SimConfig off;
  off.speculative_execution = false;
  off.faults.slow_machine(5.0, 0, /*factor=*/0.25, /*window_s=*/1e6);
  SimConfig on = off;
  on.speculative_execution = true;
  sched::FifoLocalityScheduler f_off, f_on;
  const SimResult nospec = simulate(c, w, f_off, off);
  const SimResult spec = simulate(c, w, f_on, on);
  ASSERT_TRUE(nospec.completed);
  ASSERT_TRUE(spec.completed);
  EXPECT_EQ(spec.speculative_launched, 0u);
  EXPECT_EQ(spec.speculation_cost_mc.mc(), 0.0);
  EXPECT_EQ(spec.makespan_s, nospec.makespan_s);
  EXPECT_EQ(spec.total_cost_mc, nospec.total_cost_mc);
  EXPECT_EQ(spec.execution_cost_mc, nospec.execution_cost_mc);
}

TEST(CostAwareSpeculation, StormRunsAreDeterministic) {
  const Cluster c = two_nodes(1.0, 2.0, /*slots=*/2);
  const Workload w = one_job(1.0, 8 * 64.0, 8);
  FaultStormParams p;
  p.mtbf_s = 1200.0;
  p.mttr_s = 150.0;
  p.slowdown_rate = 2.0;
  p.slowdown_factor = 4.0;
  p.slowdown_window_s = 400.0;
  p.horizon_s = 3000.0;
  p.seed = 11;
  SimConfig cfg;
  cfg.faults = make_fault_storm(p, c.machine_count(), c.store_count());
  cfg.speculative_execution = true;  // CostAware
  std::size_t slowdowns_in_plan = 0;
  for (const FaultEvent& e : cfg.faults.events)
    if (e.kind == FaultEvent::Kind::MachineSlowdown) slowdowns_in_plan += 1;
  ASSERT_GE(slowdowns_in_plan, 1u);
  sched::FifoLocalityScheduler f1, f2;
  const SimResult a = simulate(c, w, f1, cfg);
  const SimResult b = simulate(c, w, f2, cfg);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_cost_mc, b.total_cost_mc);
  EXPECT_EQ(a.wasted_cost_mc, b.wasted_cost_mc);
  EXPECT_EQ(a.speculation_cost_mc, b.speculation_cost_mc);
  EXPECT_EQ(a.speculative_launched, b.speculative_launched);
  EXPECT_EQ(a.speculative_wasted, b.speculative_wasted);
  EXPECT_EQ(a.machine_slowdowns, b.machine_slowdowns);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.machines[0].slowed_s, b.machines[0].slowed_s);
  EXPECT_EQ(a.machines[1].slowed_s, b.machines[1].slowed_s);
}

// ------------------------------------------------- observed throughput ----

// Launches every task on machine 0 only and records machine 0's observed
// throughput after each completion.
class PinZeroPolicy : public sched::Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "pin0"; }
  [[nodiscard]] std::optional<sched::LaunchDecision> on_slot_available(
      MachineId machine, const sched::ClusterState& state) override {
    if (machine.value() != 0) return std::nullopt;
    if (state.pending().empty()) return std::nullopt;
    return sched::LaunchDecision{state.pending().front(), StoreId{0}};
  }
  void on_task_complete(std::size_t task, MachineId machine,
                        const sched::ClusterState& state) override {
    (void)task;
    (void)machine;
    observed.push_back(state.observed_throughput(MachineId{0}));
  }
  std::vector<double> observed;
};

TEST(ObservedThroughput, EwmaDropsUnderSlowdownAndRecovers) {
  const Cluster c = two_nodes();
  const Workload w = one_job(1.0, 4 * 64.0, 4);
  PinZeroPolicy pin;
  SimConfig cfg;
  // Half speed on [0, 200): task 1 runs fully slowed (129.6 s wall, sample
  // 0.5), task 2 straddles the restore (100 s wall, sample 0.648), tasks
  // 3–4 run at full speed (sample 1.0). EWMA with α = 0.4 starting at 1.0:
  //   0.8, 0.7392, 0.84352, 0.906112.
  cfg.faults.slow_machine(0.0, 0, 0.5, 200.0);
  const SimResult r = simulate(c, w, pin, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.makespan_s, 129.6 + 100.0 + 2 * kTaskS, 1e-9);
  ASSERT_EQ(pin.observed.size(), 4u);
  EXPECT_NEAR(pin.observed[0], 0.8, 1e-9);
  EXPECT_NEAR(pin.observed[1], 0.7392, 1e-9);
  EXPECT_NEAR(pin.observed[2], 0.84352, 1e-9);
  EXPECT_NEAR(pin.observed[3], 0.906112, 1e-9);
  EXPECT_GT(pin.observed[3], pin.observed[1]);  // recovery is visible
}

TEST(ObservedThroughput, HealthyMachineReadsExactlyOne) {
  const Cluster c = two_nodes();
  const Workload w = one_job(1.0, 2 * 64.0, 2);
  PinZeroPolicy pin;
  const SimResult r = simulate(c, w, pin);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(pin.observed.size(), 2u);
  EXPECT_EQ(pin.observed[0], 1.0);  // exactly, not approximately
  EXPECT_EQ(pin.observed[1], 1.0);
}

// ------------------------------------------------------- LiPS feedback ----

TEST(LipsFeedback, QuarantinesPersistentlySlowMachineAndProbes) {
  // Machine 0 is the cheap one (the LP's natural favorite) but runs at 10%
  // speed for the whole run. Once its EWMA falls below 0.4 (0.64, 0.424,
  // 0.2944 after its first three tasks) the policy must quarantine it, shift
  // the queue to the dear-but-fast machine 1, and probe the quarantined
  // machine every 4th replan.
  const Cluster c = two_nodes(1.0, 2.0);
  const Workload w = one_job(1.0, 32 * 64.0, 32);
  core::LipsPolicyOptions lo;
  lo.epoch_s = 200.0;
  core::LipsPolicy lips(lo);
  SimConfig cfg;
  cfg.faults.slow_machine(0.0, 0, /*factor=*/0.1, /*window_s=*/1e6);
  const SimResult r = simulate(c, w, lips, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_completed, 32u);
  EXPECT_GE(lips.quarantine_exclusions(), 1u);
  EXPECT_GE(lips.quarantine_probes(), 1u);
  EXPECT_GT(r.machines[1].tasks_run, r.machines[0].tasks_run);
}

TEST(LipsFeedback, IterationStarvedLpFallsBackToGreedyPlan) {
  // A simplex budget starved to one iteration makes every epoch LP come
  // back IterationLimit; the policy must take its greedy fallback each time
  // and still drain the queue.
  const Cluster c = two_nodes(5.0, 1.0, /*slots=*/2);
  const Workload w = one_job(10.0, 10 * 64.0, 10);
  lp::SolverFaultConfig starve;
  starve.budget_starvation_probability = 1.0;
  starve.starved_iterations = 1;
  lp::SolverFaultInjector injector(starve);
  core::LipsPolicyOptions lo;
  lo.epoch_s = 2000.0;
  lo.model.fault_injector = &injector;
  core::LipsPolicy lips(lo);
  const SimResult r = simulate(c, w, lips);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_completed, 10u);
  EXPECT_GE(lips.lp_failures(), 1u);
}

}  // namespace
}  // namespace lips::sim
