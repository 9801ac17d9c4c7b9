// Kill -9 chaos suite for checkpoint/restore (DESIGN.md §11, ctest label
// `chaos`): a child process runs a real simulation with per-epoch
// checkpointing and is SIGKILLed mid-run — no destructors, no flushes, the
// honest crash. The parent then recovers from whatever the dead process
// left on disk and must finish with *exactly* the uninterrupted run's
// schedule digest, cost ledger, and event trace, across many seeds and with
// cluster fault storms plus LP solver fault injection active. Any
// divergence is written out as a human-readable report (the CI sanitize
// lane uploads it as an artifact).
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "ckpt/divergence.hpp"
#include "ckpt/snapshot.hpp"
#include "ckpt/store.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/lips_policy.hpp"
#include "lp/solver_faults.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "workload/swim.hpp"

namespace lips {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& tag) {
  const fs::path p = fs::path(::testing::TempDir()) / ("lips_chaos_" + tag);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

/// Where divergence reports land; the CI sanitize lane uploads this directory.
std::string divergence_report_path(const std::string& tag) {
  const char* env = std::getenv("LIPS_DIVERGENCE_DIR");
  const fs::path dir = env != nullptr ? fs::path(env) : fs::path("ckpt-divergence");
  fs::create_directories(dir);
  return (dir / (tag + ".txt")).string();
}

/// The LiPS policy's LP counts.
struct LpCounts {
  std::size_t solves = 0;
  std::size_t warm_solves = 0;
  std::size_t model_reuses = 0;
  std::size_t pivots = 0;
  std::size_t repair_pivots = 0;
};

struct RunArtifacts {
  sim::SimResult result;
  std::vector<std::string> trace_lines;
  bool ledger_ok = false;
  LpCounts lp;
};

/// One seeded chaos scenario: 8-node cluster, SWIM jobs, LiPS policy with
/// the LP solver under fault injection, and a storm of machine crashes,
/// CPU slowdowns, and store losses. Everything derives from `seed`.
RunArtifacts run_scenario(std::uint64_t seed,
                          const ckpt::CheckpointDir* checkpoint_dir,
                          const ckpt::Snapshot* restore_from) {
  const cluster::Cluster c = cluster::make_ec2_cluster(8, 0.5, 2);
  Rng rng(seed);
  workload::SwimParams sp;
  sp.n_jobs = 10;
  sp.duration_s = 2500.0;
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);

  sim::FaultStormParams fp;
  fp.mtbf_s = 4000.0;
  fp.mttr_s = 400.0;
  fp.slowdown_rate = 1.5;
  fp.slowdown_factor = 4.0;
  fp.slowdown_window_s = 600.0;
  fp.store_loss_rate = 0.3;
  fp.horizon_s = 5000.0;
  fp.seed = seed;

  lp::SolverFaultConfig sfc;
  sfc.nan_probability = 0.15;
  sfc.basis_corruption_probability = 0.15;
  sfc.seed = seed;
  lp::SolverFaultInjector injector(sfc);

  core::LipsPolicyOptions lo;
  lo.epoch_s = 300.0;
  lo.model.fault_injector = &injector;
  core::LipsPolicy policy(lo);

  obs::CostLedger ledger;
  sim::SimConfig cfg;
  cfg.hdfs_replication = 1;
  cfg.task_timeout_s = 1200.0;
  cfg.record_trace = true;
  cfg.faults = sim::make_fault_storm(fp, c.machine_count(), c.store_count());
  cfg.obs.ledger = &ledger;
  cfg.checkpoint_dir = checkpoint_dir;
  cfg.checkpoint_every_epochs = 1;
  cfg.checkpoint_label = "chaos:seed=" + std::to_string(seed);
  cfg.restore_from = restore_from;

  RunArtifacts out;
  out.result = sim::simulate(c, sw.workload, policy, cfg);
  out.trace_lines = sim::render_trace_lines(out.result);
  out.ledger_ok = ledger.reconcile(sim::billed_totals(out.result)).ok;
  out.lp = {policy.lp_solves(), policy.lp_warm_solves(),
            policy.lp_model_reuses(), policy.total_lp_iterations(),
            policy.lp_repair_iterations()};
  return out;
}

/// Fork a child that runs the scenario with checkpointing and SIGKILL it
/// once `kill_after_snapshots` files exist (or let it finish if it is
/// faster). Returns true if the child was actually killed mid-run.
bool run_and_kill_child(std::uint64_t seed, const std::string& dir_path,
                        std::size_t kill_after_snapshots) {
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: the run that "crashes". Raw _exit on completion — gtest
    // teardown must not run twice.
    const ckpt::CheckpointDir dir(dir_path);
    (void)run_scenario(seed, &dir, nullptr);
    _exit(0);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  const ckpt::CheckpointDir watcher(dir_path);
  bool killed = false;
  for (;;) {
    int status = 0;
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) break;  // finished before we pulled the trigger
    if (watcher.list().size() >= kill_after_snapshots) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return killed;
}

void expect_bit_identical(std::uint64_t seed, const RunArtifacts& baseline,
                          const RunArtifacts& resumed) {
  EXPECT_EQ(resumed.result.schedule_digest, baseline.result.schedule_digest)
      << "seed " << seed;
  EXPECT_EQ(resumed.result.total_cost_mc, baseline.result.total_cost_mc)
      << "seed " << seed;
  EXPECT_EQ(resumed.result.makespan_s, baseline.result.makespan_s)
      << "seed " << seed;
  EXPECT_EQ(resumed.result.tasks_completed, baseline.result.tasks_completed)
      << "seed " << seed;
  EXPECT_EQ(resumed.result.tasks_lost, baseline.result.tasks_lost)
      << "seed " << seed;
  EXPECT_TRUE(resumed.ledger_ok) << "seed " << seed;
  EXPECT_EQ(resumed.lp.solves, baseline.lp.solves) << "seed " << seed;
  EXPECT_EQ(resumed.lp.warm_solves, baseline.lp.warm_solves)
      << "seed " << seed;
  EXPECT_EQ(resumed.lp.model_reuses, baseline.lp.model_reuses)
      << "seed " << seed;
  EXPECT_EQ(resumed.lp.pivots, baseline.lp.pivots) << "seed " << seed;
  EXPECT_EQ(resumed.lp.repair_pivots, baseline.lp.repair_pivots)
      << "seed " << seed;
  const ckpt::DivergenceReport rep =
      ckpt::diff_event_logs(baseline.trace_lines, resumed.trace_lines);
  if (!rep.identical) {
    const std::string path =
        divergence_report_path("seed" + std::to_string(seed));
    std::ofstream out(path);
    ckpt::write_divergence_report(rep, out);
    ADD_FAILURE() << "seed " << seed << ": trace diverged at event "
                  << rep.first_mismatch << "; report written to " << path;
  }
}

TEST(CkptChaos, KillNineThenResumeIsBitIdenticalAcrossSeedStorms) {
  std::size_t killed_mid_run = 0;
  std::size_t resumed_runs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    // Uninterrupted ground truth (no checkpointing side effects needed —
    // snapshot writes must never affect behaviour anyway, which the
    // in-process suite already pins).
    const RunArtifacts baseline = run_scenario(seed, nullptr, nullptr);
    ASSERT_TRUE(baseline.ledger_ok) << "seed " << seed;

    const std::string dir_path =
        scratch_dir("kill9_seed" + std::to_string(seed));
    // Vary the kill point with the seed so early, mid, and late crashes
    // all occur across the sweep.
    const bool killed =
        run_and_kill_child(seed, dir_path, /*kill_after=*/1 + seed % 4);
    killed_mid_run += killed ? 1 : 0;

    // Recover exactly as an operator restart would: newest good snapshot
    // wins; a crash must never leave a torn `ckpt-*.lips` (atomic rename),
    // so nothing may be skipped.
    const ckpt::CheckpointDir dir(dir_path);
    std::vector<ckpt::CheckpointDir::Skipped> skipped;
    const std::optional<ckpt::Snapshot> snap = dir.load_latest(&skipped);
    EXPECT_TRUE(skipped.empty())
        << "seed " << seed << ": SIGKILL left a torn snapshot: "
        << (skipped.empty() ? "" : skipped[0].reason);
    ASSERT_TRUE(snap.has_value()) << "seed " << seed << ": no snapshot";

    const RunArtifacts resumed = run_scenario(seed, nullptr, &*snap);
    EXPECT_TRUE(resumed.result.restored);
    resumed_runs += resumed.result.restored ? 1 : 0;
    expect_bit_identical(seed, baseline, resumed);
  }
  EXPECT_EQ(resumed_runs, 10u);
  // Not asserted (scheduling-dependent), but the sweep is only interesting
  // if most children actually died mid-run.
  std::cout << "[ckpt-chaos] " << killed_mid_run
            << "/10 children SIGKILLed mid-run, " << resumed_runs
            << "/10 resumed bit-identically\n";
}

TEST(CkptChaos, RepeatedCrashResumeCrashConverges) {
  // Crash → resume → crash again → resume again: sequence numbers continue,
  // retention prunes, and the final resume still matches ground truth.
  const std::uint64_t seed = 21;
  const RunArtifacts baseline = run_scenario(seed, nullptr, nullptr);
  const std::string dir_path = scratch_dir("double_crash");

  (void)run_and_kill_child(seed, dir_path, 1);
  const ckpt::CheckpointDir dir(dir_path);
  const std::optional<ckpt::Snapshot> first = dir.load_latest();
  ASSERT_TRUE(first.has_value());

  // Second leg: resume from the first crash, checkpoint onward, and kill
  // again once it has written past the first crash's sequence.
  const std::uint64_t resume_seq = first->meta.sequence;
  const pid_t pid = fork();
  if (pid == 0) {
    const ckpt::CheckpointDir child_dir(dir_path);
    const std::optional<ckpt::Snapshot> snap = child_dir.load_latest();
    if (!snap.has_value()) _exit(3);
    (void)run_scenario(seed, &child_dir, &*snap);
    _exit(0);
  }
  ASSERT_GT(pid, 0);
  for (;;) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) break;
    const std::optional<std::uint64_t> latest = dir.latest_sequence();
    if (latest.has_value() && *latest > resume_seq) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<ckpt::CheckpointDir::Skipped> skipped;
  const std::optional<ckpt::Snapshot> snap = dir.load_latest(&skipped);
  EXPECT_TRUE(skipped.empty());
  ASSERT_TRUE(snap.has_value());
  EXPECT_GT(snap->meta.sequence, resume_seq)
      << "second leg never advanced the snapshot sequence";
  const RunArtifacts resumed = run_scenario(seed, nullptr, &*snap);
  EXPECT_TRUE(resumed.result.restored);
  expect_bit_identical(seed, baseline, resumed);
}

}  // namespace
}  // namespace lips
