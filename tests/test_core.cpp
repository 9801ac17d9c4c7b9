// Tests for the LiPS core: break-even analysis, the three LP scheduling
// models (paper Figs. 2–4), candidate pruning, rounding, and the analytic
// baselines. Small instances are verified against hand-computed optima;
// properties (constraint satisfaction, lower-bound dominance) are checked on
// randomized instances.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/baseline_cost.hpp"
#include "core/breakeven.hpp"
#include "core/epoch_lp_context.hpp"
#include "core/lp_models.hpp"
#include "core/rounding.hpp"
#include "workload/workload.hpp"

namespace lips::core {
namespace {

using cluster::Cluster;
using workload::Workload;

// Two machines in separate zones: src (expensive CPU) and dst (cheap CPU),
// each with a co-located store. Cross-zone transfers are billed.
Cluster two_node_cluster(UsdPerCpuSec src_price_mc, UsdPerCpuSec dst_price_mc,
                         double src_tp = 1.0, double dst_tp = 1.0,
                         double uptime_s = 1.0e9) {
  Cluster c;
  const ZoneId za = c.add_zone("a");
  const ZoneId zb = c.add_zone("b");
  auto add = [&](ZoneId z, UsdPerCpuSec price, double tp) {
    cluster::Machine m;
    m.name = "m" + std::to_string(c.machine_count());
    m.zone = z;
    m.cpu_price_mc = price;
    m.throughput_ecu = tp;
    m.uptime_s = uptime_s;
    const MachineId id = c.add_machine(std::move(m));
    cluster::DataStore s;
    s.name = "s" + std::to_string(c.store_count());
    s.zone = z;
    s.capacity_mb = 1.0e9;
    s.colocated_machine = id.value();
    c.add_store(std::move(s));
  };
  add(za, src_price_mc, src_tp);
  add(zb, dst_price_mc, dst_tp);
  c.finalize();
  return c;
}

// One job with `cpu_s_per_mb` intensity over a data object of `mb` MB that
// originates on store 0 (the expensive node's store).
Workload one_job_workload(double cpu_s_per_mb, double mb,
                          std::size_t tasks = 10) {
  Workload w;
  const DataId d = w.add_data({"d", mb, StoreId{0}});
  workload::Job j;
  j.name = "job";
  j.tcp_cpu_s_per_mb = cpu_s_per_mb;
  j.data = {d};
  j.num_tasks = tasks;
  w.add_job(std::move(j));
  return w;
}

// ------------------------------------------------------------ breakeven ---

TEST(BreakEven, PaperRule) {
  // c*a > c*b + d → move.
  BreakEvenInput in;
  in.cpu_s_per_mb = CpuSecPerMb::ecu_s_per_mb(2.0);
  in.src_price_mc = UsdPerCpuSec::mc_per_ecu_s(5.0);
  in.dst_price_mc = UsdPerCpuSec::mc_per_ecu_s(1.0);
  in.transfer_cost_mc_per_mb = McPerMb::mc_per_mb(7.0);
  EXPECT_DOUBLE_EQ(move_savings_mc_per_mb(in).mc_per_mb(),
                   2.0 * 5 - (2.0 * 1 + 7));  // 1
  EXPECT_TRUE(should_move_data(in));
  in.transfer_cost_mc_per_mb = McPerMb::mc_per_mb(9.0);
  EXPECT_FALSE(should_move_data(in));
}

TEST(BreakEven, RatioBelowOneIffMovePays) {
  BreakEvenInput in;
  in.cpu_s_per_mb = CpuSecPerMb::ecu_s_per_mb(1.4);
  in.src_price_mc = UsdPerCpuSec::mc_per_ecu_s(6.0);
  in.dst_price_mc = UsdPerCpuSec::mc_per_ecu_s(1.0);
  for (double d = 0.0; d < 14.0; d += 0.5) {
    in.transfer_cost_mc_per_mb = McPerMb::mc_per_mb(d);
    EXPECT_EQ(should_move_data(in), transfer_to_savings_ratio(in) < 1.0)
        << "d=" << d;
  }
}

TEST(BreakEven, NoCpuSavingsMeansNeverMove) {
  BreakEvenInput in;
  in.cpu_s_per_mb = CpuSecPerMb::ecu_s_per_mb(100.0);
  in.src_price_mc = UsdPerCpuSec::mc_per_ecu_s(1.0);
  in.dst_price_mc = UsdPerCpuSec::mc_per_ecu_s(1.0);  // no savings
  in.transfer_cost_mc_per_mb = McPerMb::mc_per_mb(0.001);
  EXPECT_FALSE(should_move_data(in));
  EXPECT_TRUE(std::isinf(transfer_to_savings_ratio(in)));
}

TEST(BreakEven, CpuIntensiveJobsMoveIoBoundStay) {
  // The Fig-1 insight with real numbers: m1.medium → c1.medium, inter-zone
  // transfer at 62.5/64 m¢/MB. Pi (infinite intensity) always moves;
  // Grep (20 s/block) stays put at that price gap only when the transfer
  // outweighs 20/64 s/MB × ~4.5 m¢ of savings — check both regimes.
  const UsdPerCpuSec src = cluster::m1_medium().cpu_price_mid_mc();  // ~5.4
  const UsdPerCpuSec dst = cluster::c1_medium().cpu_price_mid_mc();  // ~1.1
  BreakEvenInput grep{CpuSecPerMb::ecu_s_per_mb(20.0 / 64.0), src, dst,
                      Cluster::kInterZoneCostMcPerMB};
  BreakEvenInput wordcount{CpuSecPerMb::ecu_s_per_mb(90.0 / 64.0), src, dst,
                           Cluster::kInterZoneCostMcPerMB};
  // WordCount's savings per MB exceed Grep's ~4.5×.
  EXPECT_GT(move_savings_mc_per_mb(wordcount), move_savings_mc_per_mb(grep));
  EXPECT_TRUE(should_move_data(wordcount));
  EXPECT_TRUE(should_move_data(grep));  // at ~1 m¢/MB transfer, even Grep moves
  // Raise the transfer price 4× (to ~3.9 m¢/MB): Grep's ~1.3 m¢/MB of CPU
  // savings no longer cover it, WordCount's ~6.1 m¢/MB still do.
  grep.transfer_cost_mc_per_mb *= 4;
  wordcount.transfer_cost_mc_per_mb *= 4;
  EXPECT_FALSE(should_move_data(grep));
  EXPECT_TRUE(should_move_data(wordcount));
}

// ----------------------------------------------- offline simple (Fig 2) ---

FixedPlacement all_at_origin(const Workload& w) {
  FixedPlacement p(w.data_count());
  for (std::size_t i = 0; i < w.data_count(); ++i)
    p[i].push_back({DataId{i}, w.data(DataId{i}).origin, 1.0});
  return p;
}

TEST(OfflineSimple, RunsLocallyWhenTransferTooDear) {
  // I/O-bound job (low cpu/MB): reading remotely costs more than the CPU
  // gap saves → stay on the expensive source node.
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));
  const Workload w = one_job_workload(0.1, 640.0);  // 64 ECU-s total
  const LpSchedule s = solve_offline_simple(c, w, all_at_origin(w));
  ASSERT_TRUE(s.optimal());
  // local: 64 ECU-s × 5 = 320 m¢. remote: 64 × 1 + 640 MB × 0.9766 = 689.
  EXPECT_NEAR(s.objective_mc.mc(), 320.0, 1e-6);
  ASSERT_EQ(s.portions.size(), 1u);
  EXPECT_EQ(s.portions[0].machine, MachineId{0});
  EXPECT_NEAR(s.portions[0].fraction, 1.0, 1e-9);
}

TEST(OfflineSimple, ReadsRemotelyWhenCpuGapDominates) {
  // CPU-bound job: 10 ECU-s/MB × 640 MB = 6400 ECU-s.
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));
  const Workload w = one_job_workload(10.0, 640.0);
  const LpSchedule s = solve_offline_simple(c, w, all_at_origin(w));
  ASSERT_TRUE(s.optimal());
  // local: 6400×5 = 32000. remote read: 6400×1 + 640×62.5/64 = 7025.
  EXPECT_NEAR(s.objective_mc.mc(),
              6400.0 + 640.0 * Cluster::kInterZoneCostMcPerMB.mc_per_mb(),
              1e-6);
  ASSERT_EQ(s.portions.size(), 1u);
  EXPECT_EQ(s.portions[0].machine, MachineId{1});
  EXPECT_EQ(*s.portions[0].store, StoreId{0});
}

TEST(OfflineSimple, CapacityForcesSplit) {
  // Cheap machine can only fit half the job in its uptime → the LP must
  // split 50/50 (greedy "all on cheapest" would be infeasible).
  Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0), 1.0, 1.0, /*uptime=*/320.0);
  const Workload w = one_job_workload(1.0, 640.0);  // 640 ECU-s
  const LpSchedule s = solve_offline_simple(c, w, all_at_origin(w));
  ASSERT_TRUE(s.optimal());
  double on_cheap = 0.0, on_dear = 0.0;
  for (const TaskPortion& p : s.portions) {
    if (p.machine == MachineId{1}) on_cheap += p.fraction;
    else on_dear += p.fraction;
  }
  EXPECT_NEAR(on_cheap, 0.5, 1e-6);
  EXPECT_NEAR(on_dear, 0.5, 1e-6);
}

TEST(OfflineSimple, InfeasibleWhenClusterTooSmall) {
  Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0), 1.0, 1.0, /*uptime=*/10.0);
  const Workload w = one_job_workload(1.0, 640.0);  // needs 640 ECU-s
  const LpSchedule s = solve_offline_simple(c, w, all_at_origin(w));
  EXPECT_EQ(s.status, lp::SolveStatus::Infeasible);
}

TEST(OfflineSimple, SplitPlacementBoundsReads) {
  // Data is 30% on store 0, 70% on store 1; constraint (3) caps the portion
  // of the job reading from each store accordingly.
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(1.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));  // equal prices
  const Workload w = one_job_workload(1.0, 100.0);
  FixedPlacement p(1);
  p[0].push_back({DataId{0}, StoreId{0}, 0.3});
  p[0].push_back({DataId{0}, StoreId{1}, 0.7});
  const LpSchedule s = solve_offline_simple(c, w, p);
  ASSERT_TRUE(s.optimal());
  std::map<std::size_t, double> read_from;
  for (const TaskPortion& tp : s.portions)
    read_from[tp.store->value()] += tp.fraction;
  EXPECT_LE(read_from[0], 0.3 + 1e-6);
  EXPECT_LE(read_from[1], 0.7 + 1e-6);
  // Cheapest schedule reads each share locally → zero transfer cost.
  EXPECT_NEAR(s.objective_mc.mc(), 100.0 * 1.0, 1e-6);
}

// --------------------------------------------- co-scheduling (Fig 3) ------

TEST(CoScheduling, MovesDataForCpuIntensiveJob) {
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));
  const Workload w = one_job_workload(10.0, 640.0);
  const LpSchedule s = solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  // Best: move data to store 1 (640 MB × 0.9766 = 625 m¢), run locally on
  // the cheap node (6400 × 1). Total 7025 — same as remote read here, but
  // the model may pick either; objective must equal 7025.
  EXPECT_NEAR(s.objective_mc.mc(), 7025.0, 1e-6);
}

TEST(CoScheduling, KeepsDataForIoBoundJob) {
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));
  const Workload w = one_job_workload(0.1, 640.0);
  const LpSchedule s = solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective_mc.mc(), 320.0, 1e-6);  // stay local on source
  // Data remains fully at its origin.
  double at_origin = 0.0;
  for (const DataPlacement& p : s.placements)
    if (p.store == StoreId{0}) at_origin += p.fraction;
  EXPECT_NEAR(at_origin, 1.0, 1e-6);
  EXPECT_NEAR(s.placement_transfer_mc.mc(), 0.0, 1e-9);
}

TEST(CoScheduling, NeverWorseThanFixedPlacement) {
  // Joint optimization dominates the Fig-2 model with data pinned at the
  // origin — on any instance.
  Rng rng(555);
  for (int trial = 0; trial < 10; ++trial) {
    const Cluster c =
        two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(rng.uniform(1, 10)),
                         UsdPerCpuSec::mc_per_ecu_s(rng.uniform(0.1, 5)));
    const Workload w =
        one_job_workload(rng.uniform(0.05, 20), rng.uniform(64, 2048));
    const LpSchedule fixed = solve_offline_simple(c, w, all_at_origin(w));
    const LpSchedule joint = solve_co_scheduling(c, w);
    ASSERT_TRUE(fixed.optimal());
    ASSERT_TRUE(joint.optimal());
    EXPECT_LE(joint.objective_mc.mc(), fixed.objective_mc.mc() + 1e-6)
        << "trial " << trial;
  }
}

TEST(CoScheduling, StoreCapacityRespected) {
  // Cheap node's store too small to hold the data → placement must stay at
  // the origin even though the job prefers cheap CPU.
  Cluster c;
  const ZoneId za = c.add_zone("a");
  const ZoneId zb = c.add_zone("b");
  cluster::Machine m0;
  m0.name = "dear";
  m0.zone = za;
  m0.cpu_price_mc = UsdPerCpuSec::mc_per_ecu_s(5.0);
  m0.uptime_s = 1e9;
  c.add_machine(m0);
  cluster::Machine m1;
  m1.name = "cheap";
  m1.zone = zb;
  m1.cpu_price_mc = UsdPerCpuSec::mc_per_ecu_s(1.0);
  m1.uptime_s = 1e9;
  c.add_machine(m1);
  c.add_store({"s0", za, 1.0e9, 0});
  c.add_store({"s1-small", zb, 100.0, 1});  // cannot hold 640 MB
  c.finalize();
  const Workload w = one_job_workload(10.0, 640.0);
  const LpSchedule s = solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  for (const DataPlacement& p : s.placements) {
    if (p.store == StoreId{1}) {
      EXPECT_LE(p.fraction * 640.0, 100.0 + 1e-6);
    }
  }
  // Verify the decoded schedule satisfies the linking constraint: reads
  // from a store never exceed the fraction placed there.
  std::map<std::size_t, double> placed, read;
  for (const DataPlacement& p : s.placements) placed[p.store.value()] += p.fraction;
  for (const TaskPortion& tp : s.portions) read[tp.store->value()] += tp.fraction;
  for (const auto& [store, f] : read)
    EXPECT_LE(f, placed[store] + 1e-6) << "store " << store;
}

TEST(CoScheduling, EveryDataPlacedEveryJobScheduled) {
  const Cluster c = cluster::make_ec2_cluster(6, 0.5, 3);
  Rng rng(77);
  workload::RandomWorkloadParams p;
  p.n_tasks = 60;
  const Workload w = workload::make_random_workload(p, c, rng);
  const LpSchedule s = solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  std::vector<double> placed(w.data_count(), 0.0);
  for (const DataPlacement& dp : s.placements) placed[dp.data.value()] += dp.fraction;
  for (std::size_t i = 0; i < w.data_count(); ++i)
    EXPECT_GE(placed[i], 1.0 - 1e-6) << "data " << i;
  std::vector<double> sched(w.job_count(), 0.0);
  for (const TaskPortion& tp : s.portions) sched[tp.job.value()] += tp.fraction;
  for (std::size_t k = 0; k < w.job_count(); ++k)
    EXPECT_GE(sched[k], 1.0 - 1e-6) << "job " << k;
}

TEST(CoScheduling, SolversAgree) {
  const Cluster c = cluster::make_ec2_cluster(5, 0.4, 2);
  Rng rng(88);
  workload::RandomWorkloadParams p;
  p.n_tasks = 40;
  const Workload w = workload::make_random_workload(p, c, rng);
  // One solver: each answer proves itself optimal for its model
  // (lp::certify, read back as LpSchedule::certified) on the one-shot path
  // and on the incremental one, and the two agree on the optimal cost.
  const LpSchedule a = solve_co_scheduling(c, w);
  EpochLpContext ctx;
  const LpSchedule b = ctx.solve(c, w, ModelOptions{});
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_TRUE(a.certified);
  EXPECT_TRUE(b.certified);
  EXPECT_NEAR(a.objective_mc.mc(), b.objective_mc.mc(),
              1e-4 * (1.0 + a.objective_mc.mc()));
}

TEST(CoScheduling, CostBreakdownSumsToObjective) {
  const Cluster c = cluster::make_ec2_cluster(6, 0.5, 3);
  Rng rng(99);
  workload::RandomWorkloadParams p;
  p.n_tasks = 50;
  const Workload w = workload::make_random_workload(p, c, rng);
  const LpSchedule s = solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(
      (s.placement_transfer_mc + s.execution_mc + s.runtime_transfer_mc).mc(),
      s.objective_mc.mc(), 1e-4 * (1.0 + s.objective_mc.mc()));
}

TEST(CoScheduling, InputFreeJobRunsOnCheapestMachine) {
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));
  Workload w;
  workload::Job pi;
  pi.name = "pi";
  pi.cpu_fixed_ecu_s = 1000.0;
  pi.num_tasks = 4;
  w.add_job(std::move(pi));
  const LpSchedule s = solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective_mc.mc(), 1000.0, 1e-6);  // all on the 1 m¢ machine
  ASSERT_EQ(s.portions.size(), 1u);
  EXPECT_EQ(s.portions[0].machine, MachineId{1});
  EXPECT_FALSE(s.portions[0].store.has_value());
}

TEST(CoScheduling, PruningPreservesOptimumWhenGenerous) {
  const Cluster c = cluster::make_ec2_cluster(8, 0.5, 3);
  Rng rng(111);
  workload::RandomWorkloadParams wp;
  wp.n_tasks = 40;
  const Workload w = workload::make_random_workload(wp, c, rng);
  const LpSchedule exact = solve_co_scheduling(c, w);
  ModelOptions pruned;
  pruned.max_candidate_machines = 8;  // = all machines
  pruned.max_candidate_stores = 8;    // = all stores
  const LpSchedule same = solve_co_scheduling(c, w, pruned);
  ASSERT_TRUE(exact.optimal());
  ASSERT_TRUE(same.optimal());
  EXPECT_NEAR(exact.objective_mc.mc(), same.objective_mc.mc(),
              1e-5 * (1.0 + exact.objective_mc.mc()));
}

TEST(CoScheduling, PruningGivesUpperBound) {
  const Cluster c = cluster::make_ec2_cluster(10, 0.5, 3);
  Rng rng(222);
  workload::RandomWorkloadParams wp;
  wp.n_tasks = 60;
  const Workload w = workload::make_random_workload(wp, c, rng);
  const LpSchedule exact = solve_co_scheduling(c, w);
  ModelOptions pruned;
  pruned.max_candidate_machines = 2;
  pruned.max_candidate_stores = 2;
  const LpSchedule approx = solve_co_scheduling(c, w, pruned);
  ASSERT_TRUE(exact.optimal());
  ASSERT_TRUE(approx.optimal());
  EXPECT_GE(approx.objective_mc.mc(), exact.objective_mc.mc() - 1e-6);
  // Pruned model must be dramatically smaller.
  EXPECT_LT(approx.lp_variables, exact.lp_variables);
}

// ------------------------------------------------ online model (Fig 4) ----

TEST(OnlineModel, FakeNodeDefersOverflow) {
  // Epoch capacity: 2 machines × 1 ECU × 100 s = 200 ECU-s; job needs 640.
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));
  const Workload w = one_job_workload(1.0, 640.0);
  ModelOptions opt;
  opt.epoch_s = 100.0;
  opt.fake_node = true;
  const LpSchedule s = solve_co_scheduling(c, w, opt);
  ASSERT_TRUE(s.optimal());
  ASSERT_EQ(s.deferred_fraction.size(), 1u);
  // At most 200/640 of the job fits this epoch.
  EXPECT_NEAR(s.deferred_fraction[0], 1.0 - 200.0 / 640.0, 1e-6);
}

TEST(OnlineModel, WithoutFakeNodeOverflowIsInfeasible) {
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));
  const Workload w = one_job_workload(1.0, 640.0);
  ModelOptions opt;
  opt.epoch_s = 100.0;
  opt.fake_node = false;
  EXPECT_EQ(solve_co_scheduling(c, w, opt).status,
            lp::SolveStatus::Infeasible);
}

TEST(OnlineModel, NoDeferralWhenEpochSuffices) {
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));
  const Workload w = one_job_workload(1.0, 640.0);
  ModelOptions opt;
  opt.epoch_s = 10000.0;
  opt.fake_node = true;
  const LpSchedule s = solve_co_scheduling(c, w, opt);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.deferred_fraction[0], 0.0, 1e-6);
}

TEST(OnlineModel, BandwidthRowLimitsDataHeavyAssignment) {
  // Constraint (21): a machine whose link can only move 10 MB in the epoch
  // cannot be assigned a portion requiring more transfer.
  Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));
  // Slow down every link to 0.1 MB/s.
  for (std::size_t l = 0; l < c.machine_count(); ++l)
    for (std::size_t s = 0; s < c.store_count(); ++s)
      c.set_bandwidth_mb_s(MachineId{l}, StoreId{s}, BytesPerSec::mb_per_s(0.1));
  const Workload w = one_job_workload(10.0, 640.0);
  ModelOptions opt;
  opt.epoch_s = 320.0;  // plenty of CPU but only 32 MB per link-epoch
  opt.fake_node = true;
  const LpSchedule s = solve_co_scheduling(c, w, opt);
  ASSERT_TRUE(s.optimal());
  // Each (job, machine) pair can transfer at most 32 MB = 5% of 640 MB;
  // two machines → at most 10% scheduled, rest deferred.
  EXPECT_GE(s.deferred_fraction[0], 0.9 - 1e-6);
}

TEST(OnlineModel, EpochCapsCapacityTighterThanUptime) {
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(2.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));  // uptime 1e9 s
  const Workload w = one_job_workload(1.0, 640.0);
  ModelOptions offline;
  const LpSchedule off = solve_co_scheduling(c, w, offline);
  ModelOptions online;
  online.epoch_s = 400.0;  // 400 ECU-s per machine < 640 total demand
  online.fake_node = true;
  const LpSchedule on = solve_co_scheduling(c, w, online);
  ASSERT_TRUE(off.optimal());
  ASSERT_TRUE(on.optimal());
  // Offline puts everything on the cheap node; online must split (spill to
  // the dear node) or defer — cost per scheduled unit can only rise.
  EXPECT_NEAR(off.objective_mc.mc(), 640.0 + 625.0,
              1.0);  // move data + cheap CPU
  double scheduled = 0.0;
  for (const TaskPortion& p : on.portions) scheduled += p.fraction;
  EXPECT_GT(scheduled, 0.0);
}

// ----------------------------------------------------------- rounding -----

TEST(Rounding, PreservesTaskTotals) {
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0), 1.0, 1.0, /*uptime=*/320.0);
  const Workload w = one_job_workload(1.0, 640.0, /*tasks=*/10);
  const LpSchedule s = solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  const RoundedSchedule r = round_schedule(c, w, s);
  std::size_t total = 0;
  for (const TaskBundle& b : r.bundles) total += b.tasks;
  EXPECT_EQ(total, 10u);
}

TEST(Rounding, CostIsAboveLpLowerBound) {
  const Cluster c = cluster::make_ec2_cluster(6, 0.5, 3);
  Rng rng(333);
  workload::RandomWorkloadParams p;
  p.n_tasks = 50;
  p.tasks_per_job = 7;
  const Workload w = workload::make_random_workload(p, c, rng);
  const LpSchedule s = solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  const RoundedSchedule r = round_schedule(c, w, s);
  EXPECT_GE(r.cost_mc.mc(), r.lp_lower_bound_mc.mc() - 1e-6);
  // The gap should be small relative to total cost (jobs are 7-10 tasks).
  EXPECT_LT(r.rounding_gap_mc().mc(), 0.5 * r.lp_lower_bound_mc.mc() + 1e-6);
}

TEST(Rounding, BundleAccountingConsistent) {
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(3.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0), 1.0, 1.0, /*uptime=*/500.0);
  const Workload w = one_job_workload(1.0, 640.0, /*tasks=*/8);
  const LpSchedule s = solve_co_scheduling(c, w);
  ASSERT_TRUE(s.optimal());
  const RoundedSchedule r = round_schedule(c, w, s);
  for (const TaskBundle& b : r.bundles) {
    EXPECT_NEAR(b.fraction, static_cast<double>(b.tasks) / 8.0, 1e-9);
    EXPECT_NEAR(b.input_mb, b.fraction * 640.0, 1e-6);
    EXPECT_NEAR(b.cpu_ecu_s, b.fraction * 640.0, 1e-6);
  }
}

TEST(Rounding, RejectsNonOptimalSchedule) {
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(1.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));
  const Workload w = one_job_workload(1.0, 64.0);
  LpSchedule bad;
  bad.status = lp::SolveStatus::Infeasible;
  EXPECT_THROW(round_schedule(c, w, bad), PreconditionError);
}

TEST(Rounding, DeferredWorkGetsFewerTasks) {
  const Cluster c = two_node_cluster(UsdPerCpuSec::mc_per_ecu_s(5.0),
                                     UsdPerCpuSec::mc_per_ecu_s(1.0));
  const Workload w = one_job_workload(1.0, 640.0, /*tasks=*/16);
  ModelOptions opt;
  opt.epoch_s = 100.0;  // fits 200/640
  opt.fake_node = true;
  const LpSchedule s = solve_co_scheduling(c, w, opt);
  ASSERT_TRUE(s.optimal());
  const RoundedSchedule r = round_schedule(c, w, s);
  std::size_t total = 0;
  for (const TaskBundle& b : r.bundles) total += b.tasks;
  EXPECT_EQ(total, 5u);  // round(16 × 200/640) = 5
}

// ----------------------------------------------------------- baselines ----

TEST(BaselineCost, IdealLocalityMatchesExpectedPrice) {
  // With many tasks, the random-host cost converges to
  // total_cpu × mean(machine price).
  const Cluster c = cluster::make_ec2_cluster(10, 0.5, 2);
  Workload w;
  const DataId d = w.add_data({"d", 64000.0, StoreId{0}});
  workload::Job j;
  j.name = "big";
  j.tcp_cpu_s_per_mb = 1.0;
  j.data = {d};
  j.num_tasks = 1000;
  w.add_job(std::move(j));
  Rng rng(4242);
  const double cost = ideal_locality_cost_mc(c, w, rng).mc();
  const double expected = average_price_cost_mc(c, w).mc();
  EXPECT_NEAR(cost / expected, 1.0, 0.05);
}

TEST(BaselineCost, LipsBeatsIdealLocalityOnAverage) {
  // The Fig-5 methodology compares the LP optimum against the idealized
  // 100%-local schedule over *random* block placement. Individual draws can
  // go either way (a lucky shuffle may land every block on the cheapest
  // node), but on average LiPS must come out cheaper — that average saving
  // is the paper's Fig-5 y-axis.
  Rng rng(515);
  double lips_total = 0.0, baseline_total = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    Rng crng = rng.split();
    cluster::RandomClusterParams cp;
    cp.n_machines = 6;
    cp.n_stores = 6;
    const Cluster c = make_random_cluster(cp, crng);
    workload::RandomWorkloadParams wp;
    wp.n_tasks = 40;
    Rng wrng = rng.split();
    const Workload w = make_random_workload(wp, c, wrng);
    const LpSchedule s = solve_co_scheduling(c, w);
    ASSERT_TRUE(s.optimal()) << "trial " << trial;
    Rng brng = rng.split();
    lips_total += s.objective_mc.mc();
    baseline_total += ideal_locality_cost_mc(c, w, brng).mc();
  }
  EXPECT_LT(lips_total, baseline_total);
}

}  // namespace
}  // namespace lips::core
