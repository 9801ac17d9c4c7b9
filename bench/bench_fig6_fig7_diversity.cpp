// Reproduces paper Fig. 6 (dollar cost) and Fig. 7 (total job execution
// time) — the 20-node EC2 experiment running the Table-IV job set (J1–J9,
// 1608 map tasks, 100 GB) under three cluster compositions:
//   (i)   all m1.medium,
//   (ii)  25% c1.medium,
//   (iii) 50% c1.medium,
// comparing the Hadoop default scheduler, the delay scheduler, and LiPS.
//
// Paper's reported shape: LiPS saves 62% (i) rising to 79–81% (iii) of the
// dollar cost versus both baselines, at the price of 40–100% longer total
// execution time than the delay scheduler (Figs. 6–7, §VI-B "Node
// diversity"). Table III's instance economics are printed first.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "cluster/instance_types.hpp"

namespace {

using namespace lips;

struct SettingResult {
  std::string label;
  bench::ThreeWayResult r;
};

SettingResult run_setting(const std::string& label, double c1_fraction) {
  const farm::ScenarioSpec spec = bench::fig6_spec(c1_fraction);
  const farm::RunInputs world = farm::make_run_inputs(spec, 2013);
  return {label, bench::run_three_way(world.cluster, world.workload, spec)};
}

void print_tables() {
  bench::banner("Fig. 6 & Fig. 7 — node diversity on the 20-node cluster");

  {
    Table t("Table III — EC2 instance economics (per-ECU-second millicents)");
    t.set_header({"instance", "vcores", "ECU", "price $/hr", "m¢/ECU-s"});
    for (const auto& it : cluster::instance_catalog()) {
      t.add_row({std::string(it.name), Table::num(it.vcores, 0),
                 Table::num(it.ecu, 0),
                 Table::num(it.price_low_usd_hr, 2) + "-" +
                     Table::num(it.price_high_usd_hr, 2),
                 Table::num(it.cpu_price_low_mc.mc_per_ecu_s(), 2) + "-" +
                     Table::num(it.cpu_price_high_mc.mc_per_ecu_s(), 2)});
    }
    t.print(std::cout);
  }

  Table fig6("Fig. 6 — total dollar cost (J1-J9, 1608 maps, 100 GB)");
  fig6.set_header({"setting", "default", "delay", "LiPS", "saves vs default",
                   "saves vs delay"});
  Table fig7("Fig. 7 — total job execution time (seconds)");
  fig7.set_header({"setting", "default", "delay", "LiPS", "LiPS vs delay"});

  for (const auto& [label, fraction] :
       std::initializer_list<std::pair<const char*, double>>{
           {"(i)   0% c1.medium", 0.0},
           {"(ii)  25% c1.medium", 0.25},
           {"(iii) 50% c1.medium", 0.50}}) {
    const SettingResult s = run_setting(label, fraction);
    const auto& r = s.r;
    fig6.add_row(
        {s.label, bench::dollars(r.hadoop_default.total_cost_mc),
         bench::dollars(r.delay.total_cost_mc),
         bench::dollars(r.lips.total_cost_mc),
         Table::pct(bench::cost_reduction(r.lips.total_cost_mc,
                                          r.hadoop_default.total_cost_mc)),
         Table::pct(bench::cost_reduction(r.lips.total_cost_mc,
                                          r.delay.total_cost_mc))});
    fig7.add_row({s.label, Table::num(r.hadoop_default.makespan_s, 0),
                  Table::num(r.delay.makespan_s, 0),
                  Table::num(r.lips.makespan_s, 0),
                  "+" + Table::pct(r.lips.makespan_s / r.delay.makespan_s - 1.0)});
  }
  fig6.print(std::cout);
  fig7.print(std::cout);
  std::cout << "Paper: LiPS saves 62% (i) -> 79-81% (iii) vs both baselines;"
               " LiPS runs 40%-100% longer than delay.\n";
}

// google-benchmark: one Fig-6 setting end to end (the paper's experiment as
// a unit of work).
void BM_Fig6Setting(benchmark::State& state) {
  const farm::ScenarioSpec spec =
      bench::fig6_spec(static_cast<double>(state.range(0)) / 100.0);
  const farm::SchedulerSpec lips_spec;  // "lips"
  for (auto _ : state) {
    const farm::RunInputs world = farm::make_run_inputs(spec, 2013);
    core::LipsPolicy lips(farm::make_lips_options(spec, lips_spec));
    const sim::SimResult r =
        sim::simulate(world.cluster, world.workload, lips,
                      farm::make_sim_config(spec, lips_spec, 1));
    benchmark::DoNotOptimize(r.total_cost_mc);
  }
}
BENCHMARK(BM_Fig6Setting)->Arg(0)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
