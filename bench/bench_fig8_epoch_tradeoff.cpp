// Reproduces paper Fig. 8 — the epoch-length knob: "As we increase the
// epoch length the cost decreases, at the expense of higher execution
// time." Same testbed as Fig. 6 setting (iii): 20 nodes, 50% c1.medium,
// three zones, Table-IV jobs.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace lips;

struct EpochRun {
  double epoch_s;
  sim::SimResult result;
  std::size_t lp_solves;
};

EpochRun run_epoch(double epoch_s,
                   core::ModelOptions::FakeNodePricing pricing =
                       core::ModelOptions::FakeNodePricing::ProhibitiveMax) {
  const farm::ScenarioSpec spec = bench::fig6_spec(0.5, epoch_s);
  const farm::RunInputs world = farm::make_run_inputs(spec, 2013);
  const farm::SchedulerSpec lips_spec;  // "lips"
  core::LipsPolicyOptions lo = farm::make_lips_options(spec, lips_spec);
  // The epoch knob expresses the paper's cost/performance trade-off under
  // the paper-literal prohibitive fake node: short epochs leave less cheap
  // capacity per round, spilling work onto dear-but-idle machines (fast,
  // expensive); long epochs pack everything onto the cheapest nodes (slow,
  // cheap). (The PatienceMin extension flattens this curve by always
  // waiting for cheap capacity — shown in the second table.)
  lo.model.fake_node_pricing = pricing;
  if (pricing == core::ModelOptions::FakeNodePricing::ProhibitiveMax)
    lo.model.fake_node_price_factor = 1000.0;
  core::LipsPolicy lips(lo);
  EpochRun out{epoch_s,
               sim::simulate(world.cluster, world.workload, lips,
                             farm::make_sim_config(spec, lips_spec, 1)),
               0};
  out.lp_solves = lips.lp_solves();
  return out;
}

void print_table() {
  bench::banner(
      "Fig. 8 — cost/performance trade-off vs epoch length (setting iii)");
  Table t;
  t.set_header({"epoch (s)", "(a) total exec time (s)", "(b) total cost",
                "LP solves", "epochs"});
  for (double e : {200.0, 400.0, 600.0, 800.0, 1000.0, 1500.0}) {
    const EpochRun r = run_epoch(e);
    LIPS_REQUIRE(r.result.completed, "Fig-8 run must complete");
    t.add_row({Table::num(e, 0), Table::num(r.result.makespan_s, 0),
               bench::dollars(r.result.total_cost_mc),
               std::to_string(r.lp_solves), std::to_string(r.result.epochs)});
  }
  t.print(std::cout);
  std::cout << "Paper Fig. 8: longer epochs -> lower cost, longer execution"
               " (shorter epochs spread work over more parallel slots).\n";

  Table p("Extension — PatienceMin fake node flattens the trade-off");
  p.set_header({"epoch (s)", "total exec time (s)", "total cost"});
  for (double e : {200.0, 600.0, 1500.0}) {
    const EpochRun r =
        run_epoch(e, core::ModelOptions::FakeNodePricing::PatienceMin);
    p.add_row({Table::num(e, 0), Table::num(r.result.makespan_s, 0),
               bench::dollars(r.result.total_cost_mc)});
  }
  p.print(std::cout);
  std::cout << "With per-job patience pricing the scheduler reaches the"
               " cheap-node cost floor at every epoch length.\n";
}

void BM_EpochRun(benchmark::State& state) {
  const double epoch = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const EpochRun r = run_epoch(epoch);
    benchmark::DoNotOptimize(r.result.total_cost_mc);
  }
}
BENCHMARK(BM_EpochRun)->Arg(200)->Arg(600)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
