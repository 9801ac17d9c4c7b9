// Ablation (extension) — stragglers: slowdown storms, speculation policy,
// and LP throughput feedback.
//
// The paper runs on real EC2 where "a slow node" is a fact of life (it is
// why Hadoop ships speculative execution, §VI-A), but the evaluation never
// varies straggler severity. This bench injects seeded CPU-slowdown storms
// (sim/faults.hpp, MachineSlowdown) identically into every run and sweeps
// the mitigation stack:
//
//   * speculation off / naive (Hadoop-classic, time-only) / cost-aware
//     (LATE-style detector that duplicates only when the expected dollar
//     saving is positive) on the FIFO baseline, and
//   * LiPS with and without observed-throughput feedback (the epoch LP
//     budgets slowed machines at their observed TP(M)·e and quarantines
//     persistently slow ones), optionally adding cost-aware speculation on
//     top — the full straggler defense.
//
// Driven by the simulation farm (src/farm): each severity is one sweep cell
// whose six scheduler configurations run per seed on the identical cluster,
// workload and storm. The cell statistic is the savings of the full defense
// over no-mitigation LiPS, so the headline claim now comes with a 95% CI:
// under a 4× slowdown storm, cost-aware speculation + throughput feedback
// must beat the no-mitigation configuration on total dollars, not just on
// one lucky seed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>

#include "bench_util.hpp"
#include "farm/farm.hpp"
#include "sched/fifo_scheduler.hpp"
#include "workload/swim.hpp"

namespace {

using namespace lips;

farm::SchedulerSpec variant(const std::string& name, const std::string& label,
                            const std::string& speculation, bool feedback) {
  farm::SchedulerSpec s;
  s.name = name;
  s.label = label;
  s.speculation = speculation;
  s.feedback = feedback;
  return s;
}

farm::ScenarioSpec cell(double slowdown_multiple) {
  farm::ScenarioSpec sc;
  sc.name = slowdown_multiple <= 1.0
                ? "slowdown-none"
                : "slowdown-" + Table::num(slowdown_multiple, 0) + "x";
  sc.nodes = 20;
  sc.jobs = 60;
  sc.epoch_s = 400.0;
  if (slowdown_multiple > 1.0) {
    sc.storm.slowdown_rate = 3.0;  // expected windows/machine over horizon
    sc.storm.slowdown_factor = slowdown_multiple;
    sc.storm.slowdown_window_s = 1800.0;
    sc.storm.horizon_s = 24.0 * 3600.0;
  }
  sc.schedulers = {
      variant("default", "fifo-nospec", "off", true),
      variant("default", "fifo-naive", "naive", true),
      variant("default", "fifo-costspec", "cost", true),
      variant("lips", "lips-plain", "off", /*feedback=*/false),
      variant("lips", "lips-feedback", "off", /*feedback=*/true),
      variant("lips", "lips-defense", "cost", /*feedback=*/true),
  };
  // Cell statistic: savings of the full defense over no-mitigation LiPS.
  sc.stat_scheduler = "lips-defense";
  sc.savings_vs = "lips-plain";
  return sc;
}

void print_table() {
  bench::banner(
      "Ablation — stragglers (20 nodes, SWIM), slowdown-severity sweep,"
      " multi-seed");

  farm::SweepConfig cfg;
  const double severities[] = {0.0, 2.0, 4.0, 8.0};
  for (const double sev : severities) cfg.cells.push_back(cell(sev));
  cfg.seed = 2013;
  cfg.threads = std::max<unsigned>(1, std::thread::hardware_concurrency());
  cfg.stop.min_seeds = 5;
  cfg.stop.max_seeds = 10;
  cfg.stop.batch_seeds = 5;
  cfg.stop.target_half_width = 0.03;

  const auto t0 = std::chrono::steady_clock::now();
  const farm::SweepResult sweep = farm::run_sweep(cfg);
  const double wall_s = bench::wall_ms_since(t0) / 1000.0;

  Table t;
  t.set_header({"slowdown", "configuration", "mean cost", "makespan",
                "wasted", "spec cost", "dups", "seeds"});
  for (const farm::CellResult& c : sweep.cells) {
    const std::string label = c.spec.name.substr(9);  // strip "slowdown-"
    for (const farm::SchedulerSpec& s : c.spec.resolved_schedulers()) {
      const std::string& name = s.display();
      const double makespan =
          c.mean_of(name, [](const farm::SchedulerRunResult& r) {
            return r.makespan_s;
          });
      const double wasted =
          c.mean_of(name, [](const farm::SchedulerRunResult& r) {
            return r.wasted_cost_mc.mc();
          });
      const double mean_spec =
          c.mean_of(name, [](const farm::SchedulerRunResult& r) {
            return r.speculation_cost_mc.mc();
          });
      const double dups =
          c.mean_of(name, [](const farm::SchedulerRunResult& r) {
            return static_cast<double>(r.speculative_launched);
          });
      t.add_row({label, name, "$" + Table::num(c.mean_dollars(name), 2),
                 Table::num(makespan, 0) + " s", bench::dollars(wasted),
                 bench::dollars(mean_spec), Table::num(dups, 1),
                 std::to_string(c.stats.n)});
    }
  }
  t.print(std::cout);

  // The headline, now with an interval: defense-vs-plain savings per cell.
  for (const farm::CellResult& c : sweep.cells) {
    std::cout << c.spec.name << ": full defense saves "
              << Table::pct(c.stats.mean) << " ±"
              << Table::pct(c.stats.half_width) << " (95% CI, n="
              << c.stats.n << ") vs no-mitigation LiPS\n";
  }
  std::cout << "Naive speculation duplicates on time alone and can pay more"
               " than it saves; the cost-aware rule only spends when the"
               " dollars come back. " << sweep.total_runs
            << " seeded runs on " << sweep.threads << " thread(s) in "
            << Table::num(wall_s, 1) << " s.\n";

  std::vector<bench::BenchRecord> records;
  for (const farm::CellResult& c : sweep.cells) {
    bench::BenchRecord r;
    r.scenario = c.spec.name;
    r.seed = cfg.seed;
    r.cost_usd = c.mean_dollars("lips-defense");
    r.n_seeds = c.stats.n;
    r.threads = sweep.threads;
    r.wall_time_s = wall_s;
    records.push_back(r);
  }
  bench::write_bench_records("ablation_stragglers", records);
}

void BM_SlowdownStormRunFifo(benchmark::State& state) {
  // Simulator throughput under a retime-heavy storm (every slowdown window
  // re-times the whole machine's in-flight work).
  const cluster::Cluster c = cluster::make_ec2_cluster(10, 0.5, 3);
  Rng rng(3);
  workload::SwimParams sp;
  sp.n_jobs = 20;
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);
  sim::FaultStormParams p;
  p.slowdown_rate = 3.0;
  p.slowdown_factor = 4.0;
  p.slowdown_window_s = 1800.0;
  p.horizon_s = 24.0 * 3600.0;
  p.seed = 99;
  sim::SimConfig cfg;
  cfg.faults = sim::make_fault_storm(p, c.machine_count(), c.store_count());
  cfg.speculative_execution = true;  // cost-aware
  for (auto _ : state) {
    sched::FifoLocalityScheduler fifo;
    const sim::SimResult r = sim::simulate(c, sw.workload, fifo, cfg);
    benchmark::DoNotOptimize(r.total_cost_mc);
  }
}
BENCHMARK(BM_SlowdownStormRunFifo)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
