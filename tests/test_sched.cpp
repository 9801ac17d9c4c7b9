// Scheduler-policy tests: locality classification, FIFO head-of-line
// semantics, delay-scheduler patience, and fair-scheduler sharing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "farm/recipe.hpp"
#include "farm/scenario.hpp"
#include "sched/delay_scheduler.hpp"
#include "sched/fair_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sim/simulator.hpp"

namespace lips::sched {
namespace {

using cluster::Cluster;
using workload::Workload;

Cluster grid_cluster(std::size_t nodes, std::size_t zones, double price = 1.0,
                     int slots = 1) {
  Cluster c;
  for (std::size_t z = 0; z < zones; ++z) c.add_zone("z" + std::to_string(z));
  for (std::size_t i = 0; i < nodes; ++i) {
    cluster::Machine m;
    m.name = "m" + std::to_string(i);
    m.zone = ZoneId{i % zones};
    m.cpu_price_mc = UsdPerCpuSec::mc_per_ecu_s(price);
    m.throughput_ecu = 1.0;
    m.map_slots = slots;
    m.uptime_s = 1e9;
    const MachineId id = c.add_machine(std::move(m));
    cluster::DataStore s;
    s.name = "s" + std::to_string(i);
    s.zone = ZoneId{i % zones};
    s.capacity_mb = 1e9;
    s.colocated_machine = id.value();
    c.add_store(std::move(s));
  }
  c.finalize();
  return c;
}

// Two jobs with data on different nodes.
Workload two_jobs(std::size_t tasks_each, StoreId origin_a, StoreId origin_b,
                  double arrival_b = 0.0) {
  Workload w;
  const DataId da = w.add_data({"a", tasks_each * 64.0, origin_a});
  const DataId db = w.add_data({"b", tasks_each * 64.0, origin_b});
  workload::Job ja;
  ja.name = "A";
  ja.tcp_cpu_s_per_mb = 1.0;
  ja.data = {da};
  ja.num_tasks = tasks_each;
  w.add_job(std::move(ja));
  workload::Job jb;
  jb.name = "B";
  jb.tcp_cpu_s_per_mb = 1.0;
  jb.data = {db};
  jb.num_tasks = tasks_each;
  jb.arrival_s = arrival_b;
  w.add_job(std::move(jb));
  return w;
}

// ----------------------------------------------------------------- FIFO ---

TEST(FifoPolicy, HeadOfLineJobMonopolizesSlots) {
  // Job A (arrived first) must be fully scheduled before B starts, even
  // though B's data is local to the second machine.
  const Cluster c = grid_cluster(2, 2);
  const Workload w = two_jobs(6, StoreId{0}, StoreId{1}, /*arrival_b=*/0.0);
  FifoLocalityScheduler fifo;
  const sim::SimResult r = sim::simulate(c, w, fifo);
  ASSERT_TRUE(r.completed);
  // A finishes no later than B (B only gets leftovers while A has pending
  // tasks).
  EXPECT_LE(r.job_finish_s[0], r.job_finish_s[1]);
}

TEST(FifoPolicy, ReadsFromNearestReplica) {
  // Data replicated on stores 0 (co-located) and 2 (remote zone): the
  // single task on machine 0 must read locally → zero read cost.
  Cluster c = grid_cluster(3, 3);
  Workload w;
  const DataId d = w.add_data({"d", 64.0, StoreId{0}});
  workload::Job j;
  j.name = "j";
  j.tcp_cpu_s_per_mb = 1.0;
  j.data = {d};
  j.num_tasks = 1;
  w.add_job(std::move(j));
  FifoLocalityScheduler fifo;
  sim::SimConfig cfg;
  cfg.hdfs_replication = 3;
  const sim::SimResult r = sim::simulate(c, w, fifo, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.read_transfer_cost_mc.mc(), 0.0);
  EXPECT_DOUBLE_EQ(r.data_local_fraction.value(), 1.0);
}

TEST(FifoPolicy, ReplicationCostChargedAtIngest) {
  const Cluster c = grid_cluster(6, 3);
  Workload w;
  w.add_data({"d", 640.0, StoreId{0}});
  workload::Job j;
  j.name = "j";
  j.tcp_cpu_s_per_mb = 0.1;
  j.data = {DataId{0}};
  j.num_tasks = 10;
  w.add_job(std::move(j));
  FifoLocalityScheduler fifo;
  sim::SimConfig with_repl;
  with_repl.hdfs_replication = 3;
  const sim::SimResult r3 = sim::simulate(c, w, fifo, with_repl);
  FifoLocalityScheduler fifo1;
  const sim::SimResult r1 = sim::simulate(c, w, fifo1);
  // The default replica pipeline puts the 2nd copy off-zone → paid.
  EXPECT_GT(r3.ingest_replication_cost_mc.mc(), 0.0);
  EXPECT_DOUBLE_EQ(r1.ingest_replication_cost_mc.mc(), 0.0);
}

// ---------------------------------------------------------------- delay ---

TEST(DelayPolicy, YieldsToYoungerJobWithLocalTask) {
  // A's data is on node 0 only; B's on node 1 only. Delay scheduling lets B
  // run on node 1 while A waits for node 0 — the defining behavior.
  const Cluster c = grid_cluster(2, 2);
  const Workload w = two_jobs(4, StoreId{0}, StoreId{1});
  DelayScheduler delay(1e9, 1e9);  // infinite patience
  const sim::SimResult r = sim::simulate(c, w, delay);
  ASSERT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.data_local_fraction.value(), 1.0);
  // Both machines worked (B did not starve behind A).
  EXPECT_GT(r.machines[0].tasks_run, 0u);
  EXPECT_GT(r.machines[1].tasks_run, 0u);
}

TEST(DelayPolicy, InvalidDelaysRejected) {
  EXPECT_THROW(DelayScheduler(-1.0, 5.0), PreconditionError);
  EXPECT_THROW(DelayScheduler(10.0, 5.0), PreconditionError);
}

// ----------------------------------------------------------------- fair ---

TEST(FairPolicy, SharesSlotsAcrossJobs) {
  // Under FIFO, job A monopolizes the cluster and finishes early while B
  // waits; under fair (per-job pools) the two progress in lock-step: A
  // finishes later than under FIFO and the two finish times are close.
  const Cluster c = grid_cluster(4, 1, 1.0, 1);
  const Workload w = two_jobs(8, StoreId{0}, StoreId{1});
  FifoLocalityScheduler fifo;
  const sim::SimResult rf = sim::simulate(c, w, fifo);
  FairScheduler fair;
  const sim::SimResult rr = sim::simulate(c, w, fair);
  ASSERT_TRUE(rf.completed);
  ASSERT_TRUE(rr.completed);
  EXPECT_GT(rr.job_finish_s[0], rf.job_finish_s[0]);  // A shares, slows down
  const double gap_fair = std::fabs(rr.job_finish_s[0] - rr.job_finish_s[1]);
  const double gap_fifo = std::fabs(rf.job_finish_s[0] - rf.job_finish_s[1]);
  EXPECT_LT(gap_fair, gap_fifo);  // lock-step progress under fairness
}

TEST(FairPolicy, WeightedPoolsGetProportionalService) {
  // Pool "heavy" (weight 3) should run ~3 tasks for each "light" task when
  // both have abundant pending work.
  const Cluster c = grid_cluster(4, 1, 1.0, 1);
  Workload w;
  const DataId da = w.add_data({"a", 40 * 64.0, StoreId{0}});
  const DataId db = w.add_data({"b", 40 * 64.0, StoreId{1}});
  workload::Job ja;
  ja.name = "A";
  ja.tcp_cpu_s_per_mb = 1.0;
  ja.data = {da};
  ja.num_tasks = 40;
  const JobId a = w.add_job(std::move(ja));
  workload::Job jb;
  jb.name = "B";
  jb.tcp_cpu_s_per_mb = 1.0;
  jb.data = {db};
  jb.num_tasks = 40;
  const JobId b = w.add_job(std::move(jb));
  FairScheduler fair;
  fair.assign_pool(a, "heavy", 3.0);
  fair.assign_pool(b, "light", 1.0);
  const sim::SimResult r = sim::simulate(c, w, fair);
  ASSERT_TRUE(r.completed);
  // The heavy pool should drain first by a clear margin.
  EXPECT_LT(r.job_finish_s[a.value()], r.job_finish_s[b.value()]);
}

TEST(FairPolicy, PoolValidation) {
  FairScheduler fair;
  EXPECT_THROW(fair.assign_pool(JobId{0}, "p", 0.0), PreconditionError);
  EXPECT_THROW(fair.assign_pool(JobId{0}, "p", -1.0), PreconditionError);
}

TEST(FairPolicy, NoStarvationUnderContinuousShortJobs) {
  // A long job plus a stream of short jobs: with fair sharing the long job
  // still completes.
  const Cluster c = grid_cluster(2, 1, 1.0, 1);
  Workload w;
  const DataId dl = w.add_data({"long", 20 * 64.0, StoreId{0}});
  workload::Job lj;
  lj.name = "long";
  lj.tcp_cpu_s_per_mb = 1.0;
  lj.data = {dl};
  lj.num_tasks = 20;
  w.add_job(std::move(lj));
  for (int i = 0; i < 6; ++i) {
    const DataId ds =
        w.add_data({"s" + std::to_string(i), 64.0, StoreId{1}});
    workload::Job sj;
    sj.name = "short" + std::to_string(i);
    sj.tcp_cpu_s_per_mb = 1.0;
    sj.data = {ds};
    sj.num_tasks = 1;
    sj.arrival_s = i * 120.0;
    w.add_job(std::move(sj));
  }
  FairScheduler fair;
  const sim::SimResult r = sim::simulate(c, w, fair);
  ASSERT_TRUE(r.completed);
  EXPECT_FALSE(std::isnan(r.job_finish_s[0]));
}

// ------------------------------------------------------- holders query ---

/// FIFO that records, at every offer and store loss, holders(d) next to
/// the stores a full stored_fraction scan finds.
class HoldersProbe final : public FifoLocalityScheduler {
 public:
  explicit HoldersProbe(DataId d) : d_(d) {}

  std::optional<LaunchDecision> on_slot_available(
      MachineId machine, const ClusterState& state) override {
    record(state);
    return FifoLocalityScheduler::on_slot_available(machine, state);
  }
  void on_store_lost(StoreId store, const ClusterState& state) override {
    (void)store;
    record(state);
    after_loss = seen.back();
  }

  std::vector<std::vector<StoreId>> seen;
  std::vector<std::vector<StoreId>> scanned;
  std::vector<StoreId> after_loss;

 private:
  void record(const ClusterState& state) {
    std::vector<StoreId> h{StoreId{99}};  // stale contents are replaced
    state.holders(d_, h);
    seen.push_back(h);
    std::vector<StoreId> scan;
    for (std::size_t s = 0; s < state.cluster().store_count(); ++s)
      if (state.stored_fraction(d_, StoreId{s}) > 0.0)
        scan.push_back(StoreId{s});
    scanned.push_back(scan);
  }

  DataId d_;
};

TEST(HoldersQuery, SimulatorListsReplicasInIdOrderAndDropsALostStore) {
  // Six nodes in three zones: HDFS places the origin, one replica off-zone
  // and one beside it, so the object has three holders until store 4 (the
  // origin) is lost mid-run.
  const Cluster c = grid_cluster(6, 3);
  Workload w;
  const DataId d = w.add_data({"d", 8 * 64.0, StoreId{4}});
  workload::Job j;
  j.name = "J";
  j.tcp_cpu_s_per_mb = 1.0;
  j.data = {d};
  j.num_tasks = 8;
  w.add_job(std::move(j));
  HoldersProbe probe(d);
  sim::SimConfig cfg;
  cfg.hdfs_replication = 3;
  cfg.replication_seed = 5;
  cfg.faults.lose_store(/*time_s=*/30.0, /*store=*/4);
  const sim::SimResult r = sim::simulate(c, w, probe, cfg);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.stores_lost, 1u);
  ASSERT_FALSE(probe.seen.empty());

  const std::vector<StoreId>& before = probe.seen.front();
  ASSERT_EQ(before.size(), 3u);
  EXPECT_TRUE(std::is_sorted(before.begin(), before.end()));
  EXPECT_EQ(std::adjacent_find(before.begin(), before.end()), before.end());
  EXPECT_TRUE(std::ranges::find(before, StoreId{4}) != before.end());
  std::vector<StoreId> want = before;
  std::erase(want, StoreId{4});
  EXPECT_EQ(probe.after_loss, want);
  // Every reading agrees with the scan: no store without a copy listed.
  EXPECT_EQ(probe.seen, probe.scanned);
}

// ---------------------------------------------------- FIFO-family pins ---
//
// Schedule digests and total-cost bits of default, delay and fair, recorded
// when every slot offer still scanned the pending tasks one by one. An offer
// now visits one task per job; these pins say it launches exactly what the
// task-by-task scan launched, on the benchmark's world, a Table IV world and
// three fault storms (requeues, revocations, store loss) under each
// speculation mode.

struct PinnedRun {
  const char* policy;  ///< default | delay | fair | fair-weighted
  const char* speculation;
  std::uint64_t digest;
  std::uint64_t cost_bits;
};

/// Run one pinned policy on the world `spec` builds from `seed`, on the
/// recipe's substrate with replicas placed from `seed`. "fair-weighted"
/// splits the jobs over two pools of weights 2 and 1.
sim::SimResult run_pinned(const farm::ScenarioSpec& spec,
                          const farm::RunInputs& in, std::uint64_t seed,
                          const PinnedRun& pin) {
  const std::string policy = pin.policy;
  farm::SchedulerSpec ss;
  ss.name = policy == "fair-weighted" ? "fair" : policy;
  ss.speculation = pin.speculation;
  std::unique_ptr<Scheduler> p = farm::make_policy(spec, ss);
  if (policy == "fair-weighted") {
    auto fair = std::make_unique<FairScheduler>();
    for (std::size_t j = 0; j < in.workload.job_count(); ++j) {
      const bool even = j % 2 == 0;
      fair->assign_pool(JobId{j}, even ? "even" : "odd", even ? 2.0 : 1.0);
    }
    p = std::move(fair);
  }
  sim::SimConfig cfg = farm::make_sim_config(spec, ss, seed);
  cfg.faults = in.faults;
  return sim::simulate(in.cluster, in.workload, *p, cfg);
}

/// Check every pin of one world; returns the runs for the callers' own
/// checks that the world exercises what it is meant to.
std::vector<sim::SimResult> expect_pinned(const char* world,
                                          std::uint64_t seed,
                                          std::span<const PinnedRun> pins) {
  const farm::ScenarioSpec spec = farm::parse_scenario_spec(world);
  const farm::RunInputs in = farm::make_run_inputs(spec, seed);
  std::vector<sim::SimResult> runs;
  for (const PinnedRun& pin : pins) {
    runs.push_back(run_pinned(spec, in, seed, pin));
    const sim::SimResult& r = runs.back();
    const auto cost_bits = std::bit_cast<std::uint64_t>(r.total_cost_mc.mc());
    char got[160];
    std::snprintf(got, sizeof got,
                  "{\"%s\", \"%s\", 0x%016llxull, 0x%016llxull}", pin.policy,
                  pin.speculation,
                  static_cast<unsigned long long>(r.schedule_digest),
                  static_cast<unsigned long long>(cost_bits));
    EXPECT_TRUE(r.schedule_digest == pin.digest && cost_bits == pin.cost_bits)
        << world << " seed " << seed << ": got " << got;
  }
  return runs;
}

TEST(FifoFamilyPins, SwimExactDay) {
  // The swim-exact benchmark world: 30 nodes, a 150-job SWIM day.
  static constexpr PinnedRun kPins[] = {
      {"default", "auto", 0xa0f5606a2dd8a93eull, 0x41455733e8dec8e2ull},
      {"delay", "auto", 0x87d8853be3932af7ull, 0x4143e46e7865820cull},
      {"fair", "auto", 0x5b745d8b0724130dull, 0x4145507a549922aaull},
      {"fair-weighted", "auto", 0x20effb2bc28073efull, 0x41454cc6d4517f24ull},
  };
  expect_pinned("nodes=30,jobs=150", 2013, kPins);
}

TEST(FifoFamilyPins, TableIv) {
  static constexpr PinnedRun kPins[] = {
      {"default", "auto", 0x6776e37199bd379eull, 0x4116aabc95bf4048ull},
      {"delay", "auto", 0x7d45b20d1fb8a731ull, 0x4114d571b3333352ull},
      {"fair", "auto", 0xe96bef92746ade3eull, 0x411661e2b3333338ull},
      {"fair-weighted", "auto", 0x6593da86e7131548ull, 0x4114e11a33333335ull},
  };
  expect_pinned("workload=table4,nodes=20", 1, kPins);
}

TEST(FifoFamilyPins, CrashAndSlowdownStorm) {
  static constexpr PinnedRun kPins[] = {
      {"default", "auto", 0xf72eafdc49fd8d08ull, 0x410bb3831b075acdull},
      {"delay", "auto", 0x5b03e8af2e711395ull, 0x4107a6740716cdecull},
      {"fair", "auto", 0x67e33bdbdba4a333ull, 0x410bdbf7a2fe7cdcull},
      {"fair-weighted", "auto", 0x67e33bdbdba4a333ull, 0x410bdbf7a2fe7cdcull},
      {"default", "cost", 0xaf614d3db0a80becull, 0x410b8bdb44575943ull},
      {"delay", "cost", 0x5cbf381697fbd22aull, 0x4107a9d803cf0bfeull},
      {"fair", "cost", 0xaf614d3db0a80becull, 0x410b8bdb44575943ull},
      {"fair-weighted", "cost", 0xaf614d3db0a80becull, 0x410b8bdb44575943ull},
      {"default", "off", 0x67e33bdbdba4a333ull, 0x410bdbf7a2fe7cdcull},
      {"delay", "off", 0x9dd4abd4808aa358ull, 0x4108004ce2a5237aull},
      {"fair", "off", 0x67e33bdbdba4a333ull, 0x410bdbf7a2fe7cdcull},
      {"fair-weighted", "off", 0x67e33bdbdba4a333ull, 0x410bdbf7a2fe7cdcull},
  };
  const std::vector<sim::SimResult> runs = expect_pinned(
      "nodes=10,jobs=40,mtbf=2000,mttr=300,slowdown=2,slowdown_factor=4", 7,
      kPins);
  for (const sim::SimResult& r : runs) {
    EXPECT_GT(r.fault_retries, 0u);  // killed tasks were requeued
    EXPECT_GT(r.machine_slowdowns, 0u);
  }
}

TEST(FifoFamilyPins, RevocationAndStoreLossStorm) {
  static constexpr PinnedRun kPins[] = {
      {"default", "auto", 0x4c8ccc9ce3eba60bull, 0x412446ff48e65197ull},
      {"delay", "auto", 0x6aee9e170b3f690dull, 0x41238f3e688a1616ull},
      {"fair", "auto", 0x08826a427eac73aeull, 0x412439d3636b44b8ull},
      {"fair-weighted", "auto", 0x49540fd7de16ac78ull, 0x41243a90cd11a76full},
      {"default", "cost", 0xedbb10b8806d0a46ull, 0x412430a2fd07a956ull},
      {"delay", "cost", 0x551ae75e0ab9365bull, 0x412392d5f94629dcull},
      {"fair", "cost", 0xa632bb927160db6eull, 0x4124309f760789fdull},
      {"fair-weighted", "cost", 0x860523ef653d8968ull, 0x41243104c068251full},
      {"default", "off", 0xad9be7cd2add41ceull, 0x41243a2f09b12ba6ull},
      {"delay", "off", 0x39fc3c088c2b851cull, 0x4123a4dbcc71f4d2ull},
      {"fair", "off", 0x08826a427eac73aeull, 0x412439d3636b44b8ull},
      {"fair-weighted", "off", 0x49540fd7de16ac78ull, 0x41243a90cd11a76full},
  };
  const std::vector<sim::SimResult> runs = expect_pinned(
      "nodes=16,jobs=60,mtbf=1500,revoke=0.2,storeloss=0.0005,degrade=0.001",
      2, kPins);
  for (const sim::SimResult& r : runs) EXPECT_GT(r.spot_revocations, 0u);
}

TEST(FifoFamilyPins, StoreLossStorm) {
  // The storm above expects 0.008 store losses per run; this one loses
  // about one store in two, so replicas vanish and objects are refetched.
  static constexpr PinnedRun kPins[] = {
      {"default", "auto", 0xf13f70ade08cc88full, 0x41262d62ad9c4cf1ull},
      {"delay", "auto", 0xed2c3131e5d46b17ull, 0x4128acab5e3c861eull},
      {"fair", "auto", 0x3e5ce0c888ac4c91ull, 0x41262828514327baull},
      {"fair-weighted", "auto", 0x856aa1e43ba9e1acull, 0x41261f6af89dc22aull},
      {"default", "cost", 0x291550017cfb82cfull, 0x412616ba73fdba5full},
      {"delay", "cost", 0x7cf20cc27fe9969dull, 0x4128adcf9b87fcfcull},
      {"fair", "cost", 0xd57dc97a10123c56ull, 0x41261dd30f111743ull},
      {"fair-weighted", "cost", 0x1a29b044b88923e5ull, 0x4126156d594aab90ull},
      {"default", "off", 0xe28fafb4f46f43a2ull, 0x4126212080c42d24ull},
      {"delay", "off", 0x2b21c636a6fafd24ull, 0x4128b489b6795b4full},
      {"fair", "off", 0x3e5ce0c888ac4c91ull, 0x41262828514327baull},
      {"fair-weighted", "off", 0x856aa1e43ba9e1acull, 0x41261f6af89dc22aull},
  };
  const std::vector<sim::SimResult> runs = expect_pinned(
      "nodes=12,jobs=40,storeloss=0.5,mtbf=3000,mttr=600", 1, kPins);
  for (const sim::SimResult& r : runs) EXPECT_GT(r.stores_lost, 0u);
}

}  // namespace
}  // namespace lips::sched
