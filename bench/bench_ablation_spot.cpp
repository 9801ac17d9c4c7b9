// Ablation (extension) — spot-market price dynamics.
//
// The paper motivates LiPS with heterogeneity "between different nodes and
// times" (§III) but evaluates static prices only. This bench gives every
// node a diurnal price swing (cheap off-peak, dear on-peak, phase-shifted
// per zone) and replays a SWIM-style day: the epoch LP re-prices machines
// every epoch, so LiPS surfs the troughs while the price-blind baselines
// pay the going rate.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.hpp"
#include "workload/swim.hpp"

namespace {

using namespace lips;

// Diurnal step schedule: price = base × (peak ? 2.5 : 0.4), alternating
// every 4 hours, phase-shifted by zone so some zone is always off-peak.
void add_diurnal_prices(cluster::Cluster& c) {
  constexpr double kPhase = 4.0 * 3600.0;
  for (std::size_t l = 0; l < c.machine_count(); ++l) {
    const MachineId m{l};
    const UsdPerCpuSec base = c.machine(m).cpu_price_mc;
    const double offset = static_cast<double>(c.machine(m).zone.value()) *
                          kPhase / 3.0;
    std::vector<cluster::PricePoint> schedule;
    for (int step = 0; step < 12; ++step) {
      const double t = offset + step * kPhase;
      const bool peak = (step % 2) == 0;
      schedule.push_back({t, base * (peak ? 2.5 : 0.4)});  // scalar scale
    }
    c.set_price_schedule(m, std::move(schedule));
  }
}

void print_table() {
  bench::banner("Ablation — diurnal spot prices (30 nodes, SWIM day)");
  cluster::Cluster c = cluster::make_ec2_cluster(30, 0.34, 3, 0.33);
  add_diurnal_prices(c);
  Rng rng(321);
  workload::SwimParams sp;
  sp.n_jobs = 150;
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);

  farm::ScenarioSpec spec;
  spec.epoch_s = 400.0;
  spec.prune_machines = 12;
  spec.prune_stores = 8;
  const bench::ThreeWayResult r = bench::run_three_way(c, sw.workload, spec);

  Table t;
  t.set_header({"scheduler", "total cost", "sum job duration (s)", "completed"});
  auto row = [&](const char* name, const sim::SimResult& sr) {
    t.add_row({name, bench::dollars(sr.total_cost_mc),
               Table::num(sr.sum_job_duration_s, 0),
               sr.completed ? "yes" : "NO"});
  };
  row("hadoop-default", r.hadoop_default);
  row("delay", r.delay);
  row("LiPS", r.lips);
  t.print(std::cout);
  std::cout << "LiPS saves "
            << Table::pct(bench::cost_reduction(
                   r.lips.total_cost_mc, r.hadoop_default.total_cost_mc))
            << " vs default and "
            << Table::pct(bench::cost_reduction(r.lips.total_cost_mc,
                                                r.delay.total_cost_mc))
            << " vs delay under diurnal spot prices — re-pricing each epoch"
               " lets the LP ride the off-peak zones.\n";
}

void BM_SpotEpochSolve(benchmark::State& state) {
  cluster::Cluster c = cluster::make_ec2_cluster(30, 0.34, 3, 0.33);
  add_diurnal_prices(c);
  Rng rng(5);
  workload::SwimParams sp;
  sp.n_jobs = 20;
  sp.duration_s = 1.0;
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);
  core::ModelOptions opt;
  opt.epoch_s = 400.0;
  opt.fake_node = true;
  opt.max_candidate_machines = 12;
  opt.max_candidate_stores = 8;
  opt.price_time = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const core::LpSchedule s = core::solve_co_scheduling(c, sw.workload, opt);
    benchmark::DoNotOptimize(s.objective_mc);
  }
}
BENCHMARK(BM_SpotEpochSolve)->Arg(0)->Arg(14400)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
