// Shared helpers for the per-figure/per-table benchmark harness binaries.
//
// Each binary in bench/ regenerates one table or figure of the paper's
// evaluation (see DESIGN.md §5) by running the relevant experiment through
// the simulator (or the analytic LP path), printing the rows the paper
// reports, and then running google-benchmark timings for the pieces whose
// wall-clock cost the paper itself discusses (the LiPS LP overhead, §VI-A).
#pragma once

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/build_info.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/lips_policy.hpp"
#include "farm/recipe.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace lips::bench {

/// Results of running one workload under the three schedulers the paper
/// compares: Hadoop default (FIFO + locality + speculation + 3× HDFS
/// replication), delay scheduling (same substrate), and LiPS (epoch LP,
/// no speculation, self-managed placement).
struct ThreeWayResult {
  sim::SimResult hadoop_default;
  sim::SimResult delay;
  sim::SimResult lips;
  Millicents lips_planned_cost_mc = Millicents::zero();
  std::size_t lips_lp_solves = 0;
  std::size_t lips_lp_pivots = 0;
  // Wall-clock per scheduler run, for the BENCH_*.json artifacts (bench/ is
  // exempt from the nondet-time lint rule: benchmarks measure wall time by
  // design).
  double default_wall_ms = 0.0;
  double delay_wall_ms = 0.0;
  double lips_wall_ms = 0.0;
};

/// One row of the canonical benchmark artifact. Every bench binary that
/// produces headline numbers appends its runs to a `BENCH_<name>.json` file
/// so CI (and humans diffing two commits) consume one schema instead of
/// scraping stdout: bench name, scenario, seed, cost, wall-ms, pivots, and
/// for farm-driven benches the aggregation shape (seeds per cell, worker
/// threads, whole-sweep wall time).
struct BenchRecord {
  std::string scenario;
  std::uint64_t seed = 0;
  double cost_usd = 0.0;
  double wall_ms = 0.0;
  std::size_t pivots = 0;
  /// Seeds aggregated into this row (1 = a single-run row; >1 = the row
  /// reports a distribution across n_seeds Monte Carlo runs).
  std::size_t n_seeds = 1;
  /// Worker threads used to produce the row (farm sweeps; 1 = serial).
  std::size_t threads = 1;
  /// Wall-clock seconds for the whole sweep/run that produced the row.
  double wall_time_s = 0.0;
};

/// Artifact directory: $LIPS_BENCH_DIR, defaulting to ./bench-results.
[[nodiscard]] inline std::string bench_result_dir() {
  const char* env = std::getenv("LIPS_BENCH_DIR");
  return env == nullptr ? std::string("bench-results") : std::string(env);
}

/// Write `<dir>/BENCH_<bench>.json` with one object per record. Missing
/// parent directories are created (obs::open_output). A `build` object
/// (git sha, compiler, build type — common/build_info.hpp) is embedded so
/// two artifacts can be compared knowing exactly what produced each; a
/// Debug-vs-Release wall-ms diff is noise, not a regression.
inline void write_bench_records(const std::string& bench,
                                const std::vector<BenchRecord>& records) {
  std::ofstream out =
      obs::open_output(bench_result_dir() + "/BENCH_" + bench + ".json");
  out.precision(12);
  const BuildInfo& b = build_info();
  out << "{\n  \"bench\": \"" << bench << "\",\n  \"build\": {\"git_sha\": \""
      << b.git_sha << "\", \"compiler\": \"" << b.compiler
      << "\", \"build_type\": \"" << b.build_type << "\"},\n  \"records\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << (i == 0 ? "" : ",") << "\n    {\"scenario\": \"" << r.scenario
        << "\", \"seed\": " << r.seed << ", \"cost_usd\": " << r.cost_usd
        << ", \"wall_ms\": " << r.wall_ms << ", \"pivots\": " << r.pivots
        << ", \"n_seeds\": " << r.n_seeds << ", \"threads\": " << r.threads
        << ", \"wall_time_s\": " << r.wall_time_s << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "bench records written to " << bench_result_dir() << "/BENCH_"
            << bench << ".json (" << records.size() << " rows)\n";
}

/// Wall-clock helper for the records above.
[[nodiscard]] inline double wall_ms_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Write one run's cost ledger to `<base>.<sched>.json`.
inline void dump_ledger(const std::string& base, const std::string& sched,
                        const obs::CostLedger& ledger) {
  std::ofstream out = obs::open_output(base + "." + sched + ".json");
  obs::write_ledger_json(ledger, out);
}

/// The Fig. 6 testbed the single-setting benches share: 20 nodes over 3
/// zones, `c1_fraction` of them c1.medium, the Table-IV job set (build it
/// with farm::make_run_inputs(spec, 2013)), and LiPS epoch `epoch_s`.
[[nodiscard]] inline farm::ScenarioSpec fig6_spec(double c1_fraction = 0.5,
                                                  double epoch_s = 600.0) {
  farm::ScenarioSpec spec;
  spec.c1_fraction = c1_fraction;
  spec.workload = "table4";
  spec.epoch_s = epoch_s;
  return spec;
}

/// Run the three schedulers on the same cluster/workload, each configured by
/// the farm recipe from `spec` (epoch, pruning, replication, timeouts) with
/// replica seed 1. `LIPS_LEDGER_OUT=<base>` dumps each run's cost ledger to
/// `<base>.<sched>.json` (schedulers `default`/`delay`/`lips`), creating
/// missing parent directories (obs::open_output).
inline ThreeWayResult run_three_way(const cluster::Cluster& cluster,
                                    const workload::Workload& workload,
                                    const farm::ScenarioSpec& spec) {
  const char* ledger_env = std::getenv("LIPS_LEDGER_OUT");
  const std::string ledger_out = ledger_env == nullptr ? "" : ledger_env;
  const auto run = [&](sched::Scheduler& policy, const farm::SchedulerSpec& ss,
                       double& wall_ms) {
    // A fresh ledger per run: posts fold in billing order, so a ledger
    // shared across runs would reconcile against neither run's totals.
    obs::CostLedger ledger;
    sim::SimConfig cfg = farm::make_sim_config(spec, ss, 1);
    if (!ledger_out.empty()) cfg.obs.ledger = &ledger;
    const auto t0 = std::chrono::steady_clock::now();
    sim::SimResult r = sim::simulate(cluster, workload, policy, cfg);
    wall_ms = wall_ms_since(t0);
    if (!ledger_out.empty()) dump_ledger(ledger_out, ss.name, ledger);
    return r;
  };
  ThreeWayResult out;
  farm::SchedulerSpec ss;
  ss.name = "default";
  out.hadoop_default =
      run(*farm::make_policy(spec, ss), ss, out.default_wall_ms);
  ss.name = "delay";
  out.delay = run(*farm::make_policy(spec, ss), ss, out.delay_wall_ms);
  ss.name = "lips";
  core::LipsPolicy lips(farm::make_lips_options(spec, ss));
  out.lips = run(lips, ss, out.lips_wall_ms);
  out.lips_planned_cost_mc = lips.planned_cost_mc();
  out.lips_lp_solves = lips.lp_solves();
  out.lips_lp_pivots = lips.total_lp_iterations();
  return out;
}

/// "saves X% compared with Y" — the paper's headline metric.
[[nodiscard]] inline double cost_reduction(Millicents lips, Millicents other) {
  return other.mc() <= 0 ? 0.0 : 1.0 - lips.mc() / other.mc();
}

/// Format millicents as dollars for human-readable rows.
[[nodiscard]] inline std::string dollars(double mc) {
  return "$" + Table::num(millicents_to_dollars(mc), 2);
}
[[nodiscard]] inline std::string dollars(Millicents m) { return dollars(m.mc()); }

/// Standard banner for each bench binary.
inline void banner(const std::string& what) {
  std::cout << "\n=== LiPS reproduction: " << what << " ===\n";
}

}  // namespace lips::bench
