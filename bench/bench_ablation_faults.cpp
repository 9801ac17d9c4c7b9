// Ablation (extension) — cost under failures, now as distributions.
//
// The paper's EC2 runs inevitably absorbed node flakiness, but the
// evaluation never varies the failure rate. This bench injects seeded fault
// storms (sim/faults.hpp) — machine crashes at a sweep of MTBFs plus a
// sprinkle of spot revocations — identically into every scheduler's run and
// reports how the dollar bill degrades as the cluster gets less reliable.
// LiPS re-solves its LP off-cycle on every loss (excluding dead machines)
// while the Hadoop baselines rely on kill-and-requeue alone.
//
// Driven by the simulation farm (src/farm): each MTBF is one sweep cell
// evaluated across many seeds (workload AND storm redrawn per seed), so the
// table reports mean cost and the 95% CI half-width of the savings instead
// of a single-seed point estimate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>

#include "bench_util.hpp"
#include "farm/farm.hpp"
#include "sched/fifo_scheduler.hpp"
#include "workload/swim.hpp"

namespace {

using namespace lips;

farm::ScenarioSpec cell(double mtbf_s) {
  farm::ScenarioSpec sc;
  sc.name = mtbf_s <= 0.0 ? "mtbf-none" : "mtbf-" + Table::num(mtbf_s, 0) + "s";
  sc.nodes = 20;
  sc.jobs = 60;
  sc.epoch_s = 400.0;
  if (mtbf_s > 0.0) {
    sc.storm.mtbf_s = mtbf_s;
    sc.storm.mttr_s = 900.0;
    sc.storm.revoke_probability = 0.05;
    sc.storm.horizon_s = 24.0 * 3600.0;
  }
  farm::SchedulerSpec def;
  def.name = "default";
  def.label = "hadoop-default";
  farm::SchedulerSpec delay;
  delay.name = "delay";
  farm::SchedulerSpec lips_s;
  lips_s.name = "lips";
  sc.schedulers = {def, delay, lips_s};
  return sc;
}

void print_table() {
  bench::banner(
      "Ablation — fault storms (20 nodes, SWIM), MTBF sweep, multi-seed");

  farm::SweepConfig cfg;
  // 0 = fault-free baseline, then increasingly hostile clusters.
  const double mtbfs[] = {0.0, 4.0 * 3600.0, 3600.0, 1200.0};
  for (const double mtbf : mtbfs) cfg.cells.push_back(cell(mtbf));
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
  t.set_header({"mtbf", "scheduler", "mean cost", "mean wasted", "killed",
                "lost", "seeds", "LiPS saves vs delay (95% CI)"});
  for (const farm::CellResult& c : sweep.cells) {
    const std::string label = c.spec.name.substr(5);  // strip "mtbf-"
    const std::string saves = Table::pct(c.stats.mean) + " ±" +
                              Table::pct(c.stats.half_width);
    const std::vector<farm::SchedulerSpec> scheds =
        c.spec.resolved_schedulers();
    for (const farm::SchedulerSpec& s : scheds) {
      const std::string& name = s.display();
      const double killed = c.mean_of(name, [](const farm::SchedulerRunResult& r) {
        return static_cast<double>(r.tasks_killed_by_faults);
      });
      const double lost = c.mean_of(name, [](const farm::SchedulerRunResult& r) {
        return static_cast<double>(r.tasks_lost);
      });
      const double wasted = c.mean_of(name, [](const farm::SchedulerRunResult& r) {
        return r.wasted_cost_mc.mc();
      });
      t.add_row({label, name, "$" + Table::num(c.mean_dollars(name), 2),
                 bench::dollars(wasted), Table::num(killed, 1),
                 Table::num(lost, 1), std::to_string(c.stats.n),
                 s.name == "lips" ? saves : ""});
    }
  }
  t.print(std::cout);
  std::cout << "Shrinking MTBF raises every scheduler's bill (killed work is"
               " re-run and billed as waste); LiPS's off-cycle re-solve keeps"
               " its placement advantage under fire. " << sweep.total_runs
            << " seeded runs on " << sweep.threads << " thread(s) in "
            << Table::num(wall_s, 1) << " s.\n";

  std::vector<bench::BenchRecord> records;
  for (const farm::CellResult& c : sweep.cells) {
    bench::BenchRecord r;
    r.scenario = c.spec.name;
    r.seed = cfg.seed;
    r.cost_usd = c.mean_dollars("lips");
    r.n_seeds = c.stats.n;
    r.threads = sweep.threads;
    r.wall_time_s = wall_s;
    records.push_back(r);
  }
  bench::write_bench_records("ablation_faults", records);
}

void BM_FaultStormGeneration(benchmark::State& state) {
  sim::FaultStormParams p;
  p.mtbf_s = 1800.0;
  p.mttr_s = 600.0;
  p.revoke_probability = 0.1;
  p.store_loss_rate = 0.5;
  const auto machines = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const sim::FaultPlan plan = sim::make_fault_storm(p, machines, machines);
    benchmark::DoNotOptimize(plan.events.size());
  }
}
BENCHMARK(BM_FaultStormGeneration)->Arg(20)->Arg(100);

void BM_ChaosRunFifo(benchmark::State& state) {
  const cluster::Cluster c = cluster::make_ec2_cluster(10, 0.5, 3);
  Rng rng(3);
  workload::SwimParams sp;
  sp.n_jobs = 20;
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);
  sim::FaultStormParams p;
  p.mtbf_s = 1800.0;
  p.mttr_s = 600.0;
  sim::SimConfig cfg;
  cfg.faults = sim::make_fault_storm(p, c.machine_count(), c.store_count());
  for (auto _ : state) {
    sched::FifoLocalityScheduler fifo;
    const sim::SimResult r = sim::simulate(c, sw.workload, fifo, cfg);
    benchmark::DoNotOptimize(r.total_cost_mc);
  }
}
BENCHMARK(BM_ChaosRunFifo)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
