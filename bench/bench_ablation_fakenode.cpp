// Ablation (DESIGN.md §4) — fake-node pricing. The paper's literal fake
// node F is "extremely high cost" (pure feasibility: overflow spills to any
// real machine first). The PatienceMin variant prices F per job just above
// its cheapest real option, realizing the §V-B "non-greedy patience": work
// waits for cheap capacity instead of buying dear cycles. This bench
// quantifies the cost/makespan trade-off between the two on the Fig-6
// setting (iii) testbed, sweeping the patience factor.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace lips;

struct Run {
  std::string label;
  sim::SimResult result;
};

Run run_mode(core::ModelOptions::FakeNodePricing pricing, double factor,
             const std::string& label) {
  const farm::ScenarioSpec spec = bench::fig6_spec();
  const farm::RunInputs world = farm::make_run_inputs(spec, 2013);
  const farm::SchedulerSpec lips_spec;  // "lips"
  core::LipsPolicyOptions lo = farm::make_lips_options(spec, lips_spec);
  lo.model.fake_node_pricing = pricing;
  lo.model.fake_node_price_factor = factor;
  core::LipsPolicy lips(lo);
  return {label, sim::simulate(world.cluster, world.workload, lips,
                               farm::make_sim_config(spec, lips_spec, 1))};
}

void print_table() {
  bench::banner("Ablation — fake-node pricing (Fig-6 setting iii testbed)");
  Table t;
  t.set_header({"F pricing", "total cost", "makespan (s)", "completed"});
  const std::vector<Run> runs = {
      run_mode(core::ModelOptions::FakeNodePricing::ProhibitiveMax, 1000.0,
               "prohibitive x1000 (paper-literal)"),
      run_mode(core::ModelOptions::FakeNodePricing::PatienceMin, 1.05,
               "patience x1.05"),
      run_mode(core::ModelOptions::FakeNodePricing::PatienceMin, 1.25,
               "patience x1.25 (default)"),
      run_mode(core::ModelOptions::FakeNodePricing::PatienceMin, 2.0,
               "patience x2.0"),
      run_mode(core::ModelOptions::FakeNodePricing::PatienceMin, 5.0,
               "patience x5.0"),
  };
  for (const Run& r : runs) {
    t.add_row({r.label, bench::dollars(r.result.total_cost_mc),
               Table::num(r.result.makespan_s, 0),
               r.result.completed ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "Lower patience factors wait harder for cheap capacity:"
               " lower dollars, longer makespans. The prohibitive mode is"
               " fastest and dearest — the paper's Fig-8 trade-off through"
               " a different knob.\n";
}

void BM_PatienceRun(benchmark::State& state) {
  for (auto _ : state) {
    const Run r = run_mode(core::ModelOptions::FakeNodePricing::PatienceMin,
                           static_cast<double>(state.range(0)) / 100.0,
                           "bench");
    benchmark::DoNotOptimize(r.result.total_cost_mc);
  }
}
BENCHMARK(BM_PatienceRun)->Arg(125)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
