// Scenario: "how much money does LiPS save my cluster?"
//
// Runs the paper's Table-IV analytics mix (Grep/WordCount/Stress/Pi over
// 100 GB) on a 20-node, three-zone EC2 cluster and compares the bill under
// the Hadoop default scheduler, the delay scheduler, and LiPS — the
// experiment behind the paper's Figs. 6–7, as a readable program.
//
// Build & run:  ./examples/ec2_cost_savings [c1_fraction=0.5]
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "core/lips_policy.hpp"
#include "sched/delay_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

int main(int argc, char** argv) {
  using namespace lips;

  const double c1_fraction = argc > 1 ? std::atof(argv[1]) : 0.5;
  std::cout << "cluster: 20 nodes, " << c1_fraction * 100
            << "% c1.medium, 3 availability zones\n";
  const cluster::Cluster c = cluster::make_ec2_cluster(20, c1_fraction, 3);
  Rng rng(7);
  const workload::Workload w = workload::make_table4_workload(c, rng);
  std::cout << "workload: " << w.job_count() << " jobs, " << w.total_tasks()
            << " map tasks, " << w.total_input_mb() / kMBPerGB
            << " GB input, " << w.total_cpu_ecu_s() << " ECU-seconds\n\n";

  struct Row {
    std::string name;
    sim::SimResult r;
  };
  std::vector<Row> rows;

  // Hadoop default: FIFO + greedy locality, 3x replication, and Hadoop's
  // time-only speculation.
  {
    sim::SimConfig cfg;
    cfg.hdfs_replication = 3;
    cfg.speculative_execution = true;
    cfg.speculation.mode = sim::SpeculationConfig::Mode::Naive;
    cfg.task_timeout_s = 600.0;
    sched::FifoLocalityScheduler fifo;
    rows.push_back({"hadoop-default", sim::simulate(c, w, fifo, cfg)});
  }
  // Delay scheduling: same substrate, waits for data-local slots.
  {
    sim::SimConfig cfg;
    cfg.hdfs_replication = 3;
    cfg.speculative_execution = true;
    cfg.speculation.mode = sim::SpeculationConfig::Mode::Naive;
    cfg.task_timeout_s = 600.0;
    sched::DelayScheduler delay(15.0, 45.0);
    rows.push_back({"delay", sim::simulate(c, w, delay, cfg)});
  }
  // LiPS: epoch LP, own data placement, no speculation, long timeout.
  {
    core::LipsPolicyOptions lo;
    lo.epoch_s = 600.0;
    core::LipsPolicy lips(lo);
    sim::SimConfig cfg;
    cfg.task_timeout_s = 1200.0;
    rows.push_back({"LiPS", sim::simulate(c, w, lips, cfg)});
  }

  Table t("dollars and minutes");
  t.set_header({"scheduler", "total bill", "cpu", "reads", "placement+repl",
                "makespan (min)", "locality"});
  for (const Row& row : rows) {
    t.add_row({row.name,
               "$" + Table::num(millicents_to_dollars(row.r.total_cost_mc), 2),
               "$" + Table::num(millicents_to_dollars(row.r.execution_cost_mc), 2),
               "$" + Table::num(
                         millicents_to_dollars(row.r.read_transfer_cost_mc), 2),
               "$" + Table::num(millicents_to_dollars(
                                    row.r.placement_transfer_cost_mc +
                                    row.r.ingest_replication_cost_mc),
                                2),
               Table::num(row.r.makespan_s / 60.0, 1),
               Table::pct(row.r.data_local_fraction.value())});
  }
  t.print(std::cout);

  const Millicents lips = rows.back().r.total_cost_mc;
  std::cout << "\nLiPS saves "
            << Table::pct(1.0 - lips / rows[0].r.total_cost_mc)
            << " vs the default scheduler and "
            << Table::pct(1.0 - lips / rows[1].r.total_cost_mc)
            << " vs delay scheduling, trading "
            << Table::num(rows.back().r.makespan_s / rows[1].r.makespan_s, 2)
            << "x the makespan — deploy it when deadlines are flexible"
               " (paper, conclusion).\n";
  return 0;
}
