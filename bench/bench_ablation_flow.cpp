// Ablation (extension) — task-centric min-cost-flow scheduling (Quincy,
// paper §II) versus LiPS' joint data-and-task LP.
//
// Both optimize the same dollar objective per round; the flow scheduler
// assigns tasks to their cheapest feasible (machine, store) pairs but never
// moves data and only sees free slots. The gap to LiPS isolates the value
// of the paper's thesis: making data placement a first-class scheduling
// decision. Runs the Fig-6 setting (iii) testbed.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.hpp"
#include "sched/flow_scheduler.hpp"

namespace {

using namespace lips;

void print_table() {
  bench::banner("Ablation — Quincy-style flow scheduling vs LiPS (setting iii)");
  const farm::ScenarioSpec spec = bench::fig6_spec();
  const farm::RunInputs world = farm::make_run_inputs(spec, 2013);

  Table t;
  t.set_header({"scheduler", "total cost", "makespan (s)", "reads+moves"});
  // Runs scheduler `name` under its recipe SimConfig; `policy` replaces the
  // recipe's policy with a variant of the same scheduler.
  auto row = [&](const char* label, const char* name,
                 std::unique_ptr<sched::Scheduler> policy = nullptr) {
    farm::SchedulerSpec ss;
    ss.name = name;
    if (policy == nullptr) policy = farm::make_policy(spec, ss);
    const sim::SimResult r =
        sim::simulate(world.cluster, world.workload, *policy,
                      farm::make_sim_config(spec, ss, 1));
    t.add_row({label, bench::dollars(r.total_cost_mc),
               Table::num(r.makespan_s, 0),
               bench::dollars(r.read_transfer_cost_mc +
                              r.placement_transfer_cost_mc +
                              r.ingest_replication_cost_mc)});
  };

  row("hadoop-default", "default");
  // Quincy inherits the same HDFS substrate as the default scheduler
  // (replication gives it locality options) but optimizes dollars. The
  // default defer penalty (10x) keeps it work-conserving: it fills dear
  // slots rather than queue.
  row("quincy-flow (eager)", "quincy");
  // A patient variant: queuing costs only 1.5x the cheapest assignment,
  // so tasks wait for cheap slots — the flow-model analogue of LiPS'
  // PatienceMin fake node.
  sched::QuincyFlowScheduler::Options qo;
  qo.defer_penalty_factor = 1.5;
  row("quincy-flow (patient)", "quincy",
      std::make_unique<sched::QuincyFlowScheduler>(qo));
  row("LiPS", "lips");
  t.print(std::cout);
  std::cout << "Quincy closes part of the gap by routing tasks to cheap\n"
               "machines, but without moving data it keeps paying for\n"
               "cross-zone reads (or expensive local CPU) that LiPS' joint\n"
               "placement eliminates.\n";
}

void BM_FlowRound(benchmark::State& state) {
  const farm::ScenarioSpec spec = bench::fig6_spec();
  const farm::RunInputs world = farm::make_run_inputs(spec, 2013);
  farm::SchedulerSpec quincy_spec;
  quincy_spec.name = "quincy";
  const sim::SimConfig cfg = farm::make_sim_config(spec, quincy_spec, 1);
  for (auto _ : state) {
    sched::QuincyFlowScheduler quincy;
    const sim::SimResult r =
        sim::simulate(world.cluster, world.workload, quincy, cfg);
    benchmark::DoNotOptimize(r.total_cost_mc);
  }
}
BENCHMARK(BM_FlowRound)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
