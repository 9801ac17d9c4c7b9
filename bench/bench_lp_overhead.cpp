// Reproduces the paper's §VI-A scheduler-overhead claim: "for problems
// involving thousands of tasks, [the LP] execution time was almost
// negligible (10s of ms), especially when compared to job durations (10s of
// mins)."
//
// google-benchmark timings of the full epoch pipeline (model build + solve
// + decode) across problem sizes, cold and warm-started.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/epoch_lp_context.hpp"
#include "core/lp_models.hpp"

namespace {

using namespace lips;

/// Set when the warm-vs-cold verification pass finds a status/objective
/// divergence (or the warm path loses its pivot advantage); main() turns it
/// into a nonzero exit so the CI perf-smoke step fails on regressions.
bool g_solver_regression = false;

struct Instance {
  cluster::Cluster cluster;
  workload::Workload workload;
};

// The paper's LP is indexed by *jobs*, machines, and stores — its
// "thousands of tasks" workload (Table IV) is only 9 jobs, which is why
// GLPK solved it in tens of milliseconds. We therefore scale task count via
// tasks-per-job at a realistic job count, plus a separate series that
// scales the job count itself.
Instance make_instance(std::size_t tasks, std::size_t jobs,
                       std::size_t machines, std::size_t stores) {
  Rng rng(99);
  cluster::RandomClusterParams cp;
  cp.n_machines = machines;
  cp.n_stores = stores;
  Instance inst{make_random_cluster(cp, rng), {}};
  workload::RandomWorkloadParams wp;
  wp.n_tasks = tasks;
  wp.tasks_per_job = std::max<std::size_t>(1, tasks / jobs);
  inst.workload = make_random_workload(wp, inst.cluster, rng);
  return inst;
}

void BM_EpochLpSolve(benchmark::State& state) {
  // 20 jobs on a 20x20 cluster; the task count (= Table-IV scale and
  // beyond) only affects rounding, exactly as in the paper's deployment.
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(tasks, 20, 20, 20);
  core::ModelOptions opt;
  opt.epoch_s = 600.0;
  opt.fake_node = true;
  std::size_t vars = 0, rows = 0;
  for (auto _ : state) {
    const core::LpSchedule s =
        core::solve_co_scheduling(inst.cluster, inst.workload, opt);
    benchmark::DoNotOptimize(s.objective_mc);
    vars = s.lp_variables;
    rows = s.lp_constraints;
  }
  state.counters["lp_vars"] = static_cast<double>(vars);
  state.counters["lp_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_EpochLpSolve)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1608)  // the Table-IV scale
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// Scaling the *job* count (the quantity the LP actually grows with).
void BM_EpochLpSolveJobs(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(jobs * 10, jobs, 20, 20);
  core::ModelOptions opt;
  opt.epoch_s = 600.0;
  opt.fake_node = true;
  for (auto _ : state) {
    const core::LpSchedule s =
        core::solve_co_scheduling(inst.cluster, inst.workload, opt);
    benchmark::DoNotOptimize(s.objective_mc);
  }
}
BENCHMARK(BM_EpochLpSolveJobs)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_EpochLpSolvePruned(benchmark::State& state) {
  // The production configuration for 100-node clusters: pruned candidates.
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(tasks, 40, 100, 100);
  core::ModelOptions opt;
  opt.epoch_s = 600.0;
  opt.fake_node = true;
  opt.max_candidate_machines = 12;
  opt.max_candidate_stores = 8;
  for (auto _ : state) {
    const core::LpSchedule s =
        core::solve_co_scheduling(inst.cluster, inst.workload, opt);
    benchmark::DoNotOptimize(s.objective_mc);
  }
}
BENCHMARK(BM_EpochLpSolvePruned)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// ---- Incremental (warm-started) epoch re-solves -----------------------------
//
// A deterministic multi-epoch drift at the Table-IV scale: spot prices move
// with the epoch clock, machines report varying observed throughput, and
// jobs complete work so their remaining fractions shrink. Exactly the deltas
// LipsPolicy feeds the LP between replans.

constexpr std::size_t kResolveEpochs = 8;

core::ModelOptions resolve_options(const Instance& inst, std::size_t epoch) {
  core::ModelOptions opt;
  opt.epoch_s = 600.0;
  opt.fake_node = true;
  opt.price_time = 600.0 * static_cast<double>(epoch);
  std::vector<double> factors(inst.cluster.machine_count());
  for (std::size_t m = 0; m < factors.size(); ++m)
    factors[m] = 1.0 - 0.03 * static_cast<double>((epoch + m) % 4);
  opt.machine_throughput_factor = std::move(factors);
  return opt;
}

std::vector<double> resolve_remaining(const Instance& inst,
                                      std::size_t epoch) {
  std::vector<double> remaining(inst.workload.job_count());
  for (std::size_t k = 0; k < remaining.size(); ++k)
    remaining[k] = std::max(
        0.05, 1.0 - 0.08 * static_cast<double>(epoch) *
                        static_cast<double>(k % 5 + 1) / 5.0);
  return remaining;
}

void BM_EpochLpResolveCold(benchmark::State& state) {
  const Instance inst = make_instance(1608, 20, 20, 20);
  std::size_t pivots = 0, solves = 0;
  for (auto _ : state) {
    for (std::size_t e = 0; e < kResolveEpochs; ++e) {
      const core::LpSchedule s = core::solve_co_scheduling(
          inst.cluster, inst.workload, resolve_options(inst, e), {},
          resolve_remaining(inst, e));
      benchmark::DoNotOptimize(s.objective_mc);
      pivots += s.lp_iterations;
      solves += 1;
    }
  }
  state.counters["pivots_per_solve"] =
      static_cast<double>(pivots) / static_cast<double>(solves);
}
BENCHMARK(BM_EpochLpResolveCold)->Unit(benchmark::kMillisecond);

void BM_EpochLpResolveWarm(benchmark::State& state) {
  const Instance inst = make_instance(1608, 20, 20, 20);
  std::size_t pivots = 0, resolves = 0, warm = 0, reused = 0, fallbacks = 0;
  for (auto _ : state) {
    core::EpochLpContext ctx;  // epoch 0 is cold; 1..N-1 are re-solves
    for (std::size_t e = 0; e < kResolveEpochs; ++e) {
      const core::LpSchedule s =
          ctx.solve(inst.cluster, inst.workload, resolve_options(inst, e), {},
                    resolve_remaining(inst, e));
      benchmark::DoNotOptimize(s.objective_mc);
      if (e == 0) continue;  // count re-solves only, like the cold baseline
      pivots += s.lp_iterations;
      resolves += 1;
      warm += s.warm_start_used ? 1 : 0;
      reused += s.model_reused ? 1 : 0;
      fallbacks += s.cold_fallback ? 1 : 0;
    }
  }
  state.counters["pivots_per_resolve"] =
      static_cast<double>(pivots) / static_cast<double>(resolves);
  state.counters["warm_frac"] =
      static_cast<double>(warm) / static_cast<double>(resolves);
  state.counters["model_reuse_frac"] =
      static_cast<double>(reused) / static_cast<double>(resolves);
  state.counters["cold_fallbacks"] = static_cast<double>(fallbacks);
}
BENCHMARK(BM_EpochLpResolveWarm)->Unit(benchmark::kMillisecond);

/// Warm-vs-cold agreement check over the same epoch series the benchmarks
/// time, run kRepetitions times. Any status/objective divergence, the warm
/// path needing more than half the cold pivots, or a repetition whose
/// pivots or objective bits differ from the first flips the regression
/// flag. Epoch 0 is cold on both sides, so its solve is recorded apart from
/// the re-solves of epochs 1..N-1, which each side times and counts alike.
/// Each record's wall_ms is the median over the repetitions: single
/// samples moved by a third between back-to-back runs.
void verify_warm_matches_cold() {
  constexpr std::size_t kRepetitions = 3;
  const Instance inst = make_instance(1608, 20, 20, 20);
  const std::string resolves =
      "table4-1608tasks-" + std::to_string(kResolveEpochs - 1) + "resolves-";
  std::vector<lips::bench::BenchRecord> records;  // epoch 0, cold, warm
  std::vector<std::vector<double>> wall_ms(3);    // per record, per rep
  std::vector<std::uint64_t> first_solves;  // pivots, objective bits
  for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
    lips::bench::BenchRecord first{"table4-1608tasks-epoch0", 99};
    lips::bench::BenchRecord cold_rec{resolves + "cold", 99};
    lips::bench::BenchRecord warm_rec{resolves + "warm", 99};
    std::vector<std::uint64_t> solves;
    core::EpochLpContext ctx;
    for (std::size_t e = 0; e < kResolveEpochs; ++e) {
      const core::ModelOptions opt = resolve_options(inst, e);
      const std::vector<double> remaining = resolve_remaining(inst, e);
      const auto t_cold = std::chrono::steady_clock::now();
      const core::LpSchedule cold = core::solve_co_scheduling(
          inst.cluster, inst.workload, opt, {}, remaining);
      const double cold_ms = lips::bench::wall_ms_since(t_cold);
      const auto t_warm = std::chrono::steady_clock::now();
      const core::LpSchedule warm =
          ctx.solve(inst.cluster, inst.workload, opt, {}, remaining);
      const double warm_ms = lips::bench::wall_ms_since(t_warm);
      for (const core::LpSchedule* s : {&cold, &warm}) {
        solves.push_back(s->lp_iterations);
        solves.push_back(std::bit_cast<std::uint64_t>(s->objective_mc.mc()));
      }
      if (e == 0) {
        first.wall_ms = warm_ms;
        first.pivots = warm.lp_iterations;
        first.cost_usd = millicents_to_dollars(warm.objective_mc.mc());
      } else {
        cold_rec.wall_ms += cold_ms;
        cold_rec.pivots += cold.lp_iterations;
        cold_rec.cost_usd += millicents_to_dollars(cold.objective_mc.mc());
        warm_rec.wall_ms += warm_ms;
        warm_rec.pivots += warm.lp_iterations;
        warm_rec.cost_usd += millicents_to_dollars(warm.objective_mc.mc());
      }
      if (warm.status != cold.status) {
        std::cout << "REGRESSION: epoch " << e << " warm status "
                  << lp::to_string(warm.status) << " != cold "
                  << lp::to_string(cold.status) << "\n";
        g_solver_regression = true;
        continue;
      }
      if (cold.optimal()) {
        const double co = cold.objective_mc.mc();
        const double wo = warm.objective_mc.mc();
        if (std::fabs(co - wo) > 1e-4 + 1e-6 * std::fabs(co)) {
          std::cout << "REGRESSION: epoch " << e << " warm objective " << wo
                    << " != cold " << co << "\n";
          g_solver_regression = true;
        }
      }
    }
    if (rep == 0) {
      records = {first, cold_rec, warm_rec};
      first_solves = solves;
    } else if (solves != first_solves) {
      std::cout << "REGRESSION: repetition " << rep
                << " differs from the first in pivots or objective bits\n";
      g_solver_regression = true;
    }
    wall_ms[0].push_back(first.wall_ms);
    wall_ms[1].push_back(cold_rec.wall_ms);
    wall_ms[2].push_back(warm_rec.wall_ms);
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::vector<double>& w = wall_ms[i];
    std::nth_element(w.begin(), w.begin() + kRepetitions / 2, w.end());
    records[i].wall_ms = w[kRepetitions / 2];
  }
  const lips::bench::BenchRecord& cold_rec = records[1];
  const lips::bench::BenchRecord& warm_rec = records[2];
  std::cout << "median of " << kRepetitions << " identical runs: epoch 0: "
            << records[0].pivots << " pivots in " << records[0].wall_ms
            << " ms; re-solves of epochs 1.." << kResolveEpochs - 1
            << ": warm " << warm_rec.pivots << " pivots in "
            << warm_rec.wall_ms << " ms vs cold " << cold_rec.pivots
            << " pivots in " << cold_rec.wall_ms << " ms ("
            << (cold_rec.pivots > 0
                    ? 100.0 * static_cast<double>(warm_rec.pivots) /
                          static_cast<double>(cold_rec.pivots)
                    : 0.0)
            << "% of the pivots)\n";
  if (warm_rec.pivots * 2 > cold_rec.pivots) {
    std::cout << "REGRESSION: warm re-solves exceed 50% of cold pivots\n";
    g_solver_regression = true;
  }
  lips::bench::write_bench_records("lp_overhead", records);
}

}  // namespace

int main(int argc, char** argv) {
  lips::bench::banner(
      "§VI-A — LiPS scheduler overhead (LP build+solve+decode)");
  std::cout << "Paper: 10s of milliseconds for problems of thousands of"
               " tasks.\n";
  verify_warm_matches_cold();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return g_solver_regression ? 1 : 0;
}
