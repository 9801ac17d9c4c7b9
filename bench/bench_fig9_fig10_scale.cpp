// Reproduces paper Fig. 9 (total dollar cost) and Fig. 10 (total job
// execution time) — the 100-node experiment: three instance types
// (m1.small, m1.medium, c1.medium) across three availability zones, running
// a 400-job day-long SWIM-synthesized Facebook workload.
//
// Paper's reported shape: LiPS costs 68–69% less than both the default and
// the delay scheduler (Fig. 9) while its execution time runs 40–100% longer
// than delay's and close to the default's (Fig. 10).
// Extra mode for CI (no figures, no google-benchmark):
//   bench_fig9_fig10_scale --check-obs-overhead
// asserts that attaching a *disabled* tracer to the simulator costs ≤2%
// wall clock versus no observer at all (exit 1 on regression).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "obs/trace.hpp"
#include "sched/fifo_scheduler.hpp"
#include "workload/swim.hpp"

namespace {

using namespace lips;

struct ScaleResult {
  bench::ThreeWayResult r;
  std::size_t jobs = 0;
  std::size_t tasks = 0;
  double input_gb = 0.0;
};

ScaleResult run_scale(std::size_t n_jobs) {
  // 100 nodes: ~1/3 of each instance type, spread over 3 zones (paper VI-B).
  farm::ScenarioSpec spec;
  spec.nodes = 100;
  spec.c1_fraction = 0.34;
  spec.small_fraction = 0.33;
  spec.jobs = n_jobs;
  spec.epoch_s = 400.0;
  // 100-node epochs need candidate pruning to keep LP solves sub-second;
  // the ablation bench quantifies the (negligible) optimality loss.
  spec.prune_machines = 12;
  spec.prune_stores = 8;
  const farm::RunInputs world = farm::make_run_inputs(spec, 2013);
  const workload::Workload& w = world.workload;

  ScaleResult out;
  out.r = bench::run_three_way(world.cluster, w, spec);
  out.jobs = w.job_count();
  out.tasks = w.total_tasks();
  out.input_gb = w.total_input_mb() / kMBPerGB;
  return out;
}

void print_tables(const ScaleResult& s) {
  bench::banner("Fig. 9 & Fig. 10 — 100-node cluster, SWIM Facebook day");
  std::cout << "workload: " << s.jobs << " jobs, " << s.tasks << " map tasks, "
            << Table::num(s.input_gb, 1) << " GB input\n";

  Table fig9("Fig. 9 — total dollar cost");
  fig9.set_header({"scheduler", "cost", "LiPS saves"});
  fig9.add_row({"hadoop-default", bench::dollars(s.r.hadoop_default.total_cost_mc),
                Table::pct(bench::cost_reduction(
                    s.r.lips.total_cost_mc, s.r.hadoop_default.total_cost_mc))});
  fig9.add_row({"delay", bench::dollars(s.r.delay.total_cost_mc),
                Table::pct(bench::cost_reduction(s.r.lips.total_cost_mc,
                                                 s.r.delay.total_cost_mc))});
  fig9.add_row({"LiPS", bench::dollars(s.r.lips.total_cost_mc), "-"});
  fig9.print(std::cout);

  Table fig10("Fig. 10 — total job execution time");
  fig10.set_header(
      {"scheduler", "makespan (s)", "sum job duration (s)", "vs delay"});
  auto row = [&](const char* name, const sim::SimResult& r) {
    fig10.add_row({name, Table::num(r.makespan_s, 0),
                   Table::num(r.sum_job_duration_s, 0),
                   name == std::string("LiPS")
                       ? "+" + Table::pct(r.sum_job_duration_s /
                                              s.r.delay.sum_job_duration_s -
                                          1.0)
                       : "-"});
  };
  row("hadoop-default", s.r.hadoop_default);
  row("delay", s.r.delay);
  row("LiPS", s.r.lips);
  fig10.print(std::cout);

  std::cout << "LiPS: " << s.r.lips_lp_solves << " epoch LP solves; modeled"
            << " plan cost " << bench::dollars(s.r.lips_planned_cost_mc)
            << "; completed=" << s.r.lips.completed << "\n";
  std::cout << "Paper: LiPS saves 68-69% vs both; execution 40-100% longer"
               " than delay, similar to default.\n";
}

void BM_SwimEpochSolve(benchmark::State& state) {
  const cluster::Cluster c = cluster::make_ec2_cluster(100, 0.34, 3, 0.33);
  Rng rng(5);
  workload::SwimParams sp;
  sp.n_jobs = static_cast<std::size_t>(state.range(0));
  sp.duration_s = 1.0;  // all jobs in queue at once: one big epoch solve
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);
  core::ModelOptions opt;
  opt.epoch_s = 400.0;
  opt.fake_node = true;
  opt.max_candidate_machines = 12;
  opt.max_candidate_stores = 8;
  for (auto _ : state) {
    const core::LpSchedule s = core::solve_co_scheduling(c, sw.workload, opt);
    benchmark::DoNotOptimize(s.objective_mc);
  }
}
BENCHMARK(BM_SwimEpochSolve)->Arg(10)->Arg(25)->Unit(benchmark::kMillisecond);

// CI perf smoke: a disabled tracer must be free (one branch per emission
// site). Interleaved baseline/disabled timings of the same seeded run absorb
// machine drift; medians absorb outliers; a small absolute floor absorbs
// timer noise when the run is fast.
int check_obs_overhead() {
  const cluster::Cluster c = cluster::make_ec2_cluster(30, 0.34, 3, 0.33);
  Rng rng(2013);
  workload::SwimParams sp;
  sp.n_jobs = 2000;  // long enough (~0.5 s/run) that timer noise is < 2%
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);

  farm::SchedulerSpec fifo_spec;
  fifo_spec.name = "default";
  const sim::SimConfig fifo_cfg =
      farm::make_sim_config(farm::ScenarioSpec{}, fifo_spec, 1);
  const auto run_once = [&](obs::Tracer* tracer) {
    sched::FifoLocalityScheduler fifo;
    sim::SimConfig cfg = fifo_cfg;
    cfg.obs.tracer = tracer;
    const auto t0 = std::chrono::steady_clock::now();
    const sim::SimResult r = sim::simulate(c, sw.workload, fifo, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(r.total_cost_mc);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  obs::Tracer tracer;
  tracer.set_enabled(false);
  constexpr int kRounds = 7;
  std::vector<double> base_ms, disabled_ms;
  run_once(nullptr);  // warm-up (page cache, allocator)
  for (int i = 0; i < kRounds; ++i) {
    base_ms.push_back(run_once(nullptr));
    disabled_ms.push_back(run_once(&tracer));
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double base = median(base_ms);
  const double disabled = median(disabled_ms);
  const double overhead = disabled / base - 1.0;
  const double budget_ms = base * 0.02 + 1.0;  // 2% + timer-noise floor
  const bool ok = disabled <= base + budget_ms;
  std::cout << "obs-overhead check: baseline " << Table::num(base, 2)
            << " ms, disabled tracer " << Table::num(disabled, 2) << " ms ("
            << Table::pct(overhead) << " overhead, budget 2%) — "
            << (ok ? "OK" : "FAIL") << "\n";
  if (tracer.size() != 0) {
    std::cout << "obs-overhead check: disabled tracer recorded "
              << tracer.size() << " events (expected none)\n";
    return 1;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Strict argv: the only flags this binary owns are --check-*; everything
  // starting with --benchmark_ is passed through to the benchmark library.
  // An unknown flag (e.g. a typo'd --check-obs-overhed) is a hard error —
  // silently running the full suite instead would mask the mistake.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-obs-overhead") == 0)
      return check_obs_overhead();
    if (std::strncmp(argv[i], "--benchmark_", 12) != 0) {
      std::cerr << "bench_fig9_fig10_scale: unknown flag: " << argv[i]
                << "\nusage: bench_fig9_fig10_scale [--check-obs-overhead]"
                   " [--benchmark_*...]\n";
      return 64;  // EX_USAGE
    }
  }
  const ScaleResult s = run_scale(400);
  print_tables(s);
  bench::write_bench_records(
      "fig9_fig10_scale",
      {{"swim400-100nodes-default", 2013,
        millicents_to_dollars(s.r.hadoop_default.total_cost_mc),
        s.r.default_wall_ms, 0},
       {"swim400-100nodes-delay", 2013,
        millicents_to_dollars(s.r.delay.total_cost_mc), s.r.delay_wall_ms, 0},
       {"swim400-100nodes-lips", 2013,
        millicents_to_dollars(s.r.lips.total_cost_mc), s.r.lips_wall_ms,
        s.r.lips_lp_pivots}});
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
