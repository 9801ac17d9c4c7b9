// Reproduces paper Fig. 11 — accumulated CPU time breakdown per node for
// epoch lengths 400 s and 600 s: "Shorter epoch length results in higher
// parallelism and faster job executions (but also higher cost)."
//
// We print each node's accumulated busy time and summarize the spread with
// the number of materially-used nodes and the coefficient of variation —
// shorter epochs should use more nodes more evenly.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.hpp"
#include "common/stats.hpp"

namespace {

using namespace lips;

sim::SimResult run_epoch(double epoch_s) {
  const farm::ScenarioSpec spec = bench::fig6_spec(0.5, epoch_s);
  const farm::RunInputs world = farm::make_run_inputs(spec, 2013);
  const farm::SchedulerSpec lips_spec;  // "lips"
  core::LipsPolicyOptions lo = farm::make_lips_options(spec, lips_spec);
  // Paper-literal fake node: the epoch length then determines how far work
  // spreads beyond the cheapest nodes (the Fig-11 parallelism effect).
  lo.model.fake_node_pricing =
      core::ModelOptions::FakeNodePricing::ProhibitiveMax;
  lo.model.fake_node_price_factor = 1000.0;
  core::LipsPolicy lips(lo);
  return sim::simulate(world.cluster, world.workload, lips,
                       farm::make_sim_config(spec, lips_spec, 1));
}

void print_tables() {
  bench::banner("Fig. 11 — per-node accumulated CPU time, epoch 400 vs 600 s");
  const sim::SimResult r400 = run_epoch(400.0);
  const sim::SimResult r600 = run_epoch(600.0);

  Table t;
  t.set_header({"node", "busy s (e=400)", "busy s (e=600)"});
  for (std::size_t m = 0; m < r400.machines.size(); ++m) {
    t.add_row({"node-" + std::to_string(m),
               Table::num(r400.machines[m].busy_s, 0),
               Table::num(r600.machines[m].busy_s, 0)});
  }
  t.print(std::cout);

  auto summarize_run = [](const sim::SimResult& r, double epoch) {
    std::vector<double> busy;
    double total = 0.0;
    std::size_t used = 0;
    for (const sim::MachineMetrics& m : r.machines) {
      busy.push_back(m.busy_s);
      total += m.busy_s;
    }
    for (double b : busy)
      if (b > 0.05 * total / static_cast<double>(busy.size())) ++used;
    const Summary s = summarize(busy);
    std::cout << "epoch " << epoch << "s: nodes used " << used << "/"
              << busy.size() << ", busy-time CV "
              << Table::num(s.mean > 0 ? s.stddev / s.mean : 0.0, 2)
              << ", makespan " << Table::num(r.makespan_s, 0) << "s, cost "
              << bench::dollars(r.total_cost_mc) << "\n";
    return used;
  };
  const std::size_t used400 = summarize_run(r400, 400.0);
  const std::size_t used600 = summarize_run(r600, 600.0);
  std::cout << "Paper Fig. 11: the 400 s epoch spreads CPU time over more"
               " nodes (higher parallelism, faster, dearer) than 600 s.\n";
  if (used400 < used600)
    std::cout << "NOTE: parallelism ordering differs from the paper on this"
                 " seed — see EXPERIMENTS.md.\n";
}

void BM_Fig11Run(benchmark::State& state) {
  for (auto _ : state) {
    const sim::SimResult r = run_epoch(static_cast<double>(state.range(0)));
    benchmark::DoNotOptimize(r.total_cost_mc);
  }
}
BENCHMARK(BM_Fig11Run)->Arg(400)->Arg(600)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
