#include "farm/recipe.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/delay_scheduler.hpp"
#include "sched/fair_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/flow_scheduler.hpp"
#include "workload/swim.hpp"

namespace lips::farm {

namespace {

workload::Workload make_workload(const ScenarioSpec& sc,
                                 const cluster::Cluster& c, Rng& rng) {
  if (sc.workload == "swim") {
    workload::SwimParams sp;
    sp.n_jobs = sc.jobs;
    return workload::make_swim_workload(sp, c, rng).workload;
  }
  if (sc.workload == "table4") return workload::make_table4_workload(c, rng);
  workload::RandomWorkloadParams wp;
  wp.n_tasks = sc.tasks;
  return workload::make_random_workload(wp, c, rng);
}

}  // namespace

RunInputs make_run_inputs(const ScenarioSpec& spec, std::uint64_t seed) {
  validate_scenario(spec);
  cluster::Cluster c = cluster::make_ec2_cluster(
      spec.nodes, spec.c1_fraction, spec.zones, spec.small_fraction);
  Rng rng(seed);
  workload::Workload w = make_workload(spec, c, rng);
  sim::FaultPlan plan;
  if (spec.has_storm()) {
    sim::FaultStormParams p = spec.storm;
    p.seed = rng.next();  // storm varies per seed — a Monte Carlo axis
    plan = sim::make_fault_storm(p, c.machine_count(), c.store_count());
  }
  return RunInputs{std::move(c), std::move(w), std::move(plan)};
}

core::LipsPolicyOptions make_lips_options(const ScenarioSpec& spec,
                                          const SchedulerSpec& ss) {
  core::LipsPolicyOptions lo;
  lo.epoch_s = spec.epoch_s;
  lo.model.max_candidate_machines = spec.prune_machines;
  lo.model.max_candidate_stores = spec.prune_stores;
  lo.throughput_feedback = ss.feedback;
  if (!ss.feedback) lo.quarantine_below = 0.0;
  return lo;
}

void apply_lips_sim_config(const ScenarioSpec& spec, std::uint64_t seed,
                           sim::SimConfig& cfg) {
  cfg.hdfs_replication = 1;  // LiPS manages placement itself
  cfg.speculative_execution = false;
  cfg.task_timeout_s = spec.lips_timeout_s;
  cfg.replication_seed = seed;
}

std::unique_ptr<sched::Scheduler> make_policy(const ScenarioSpec& spec,
                                              const SchedulerSpec& ss) {
  if (ss.name == "default")
    return std::make_unique<sched::FifoLocalityScheduler>();
  if (ss.name == "delay") return std::make_unique<sched::DelayScheduler>();
  if (ss.name == "fair") return std::make_unique<sched::FairScheduler>();
  if (ss.name == "quincy")
    return std::make_unique<sched::QuincyFlowScheduler>();
  LIPS_REQUIRE(ss.name == "lips",
               "farm: unknown scheduler '" + ss.name + "'");
  return std::make_unique<core::LipsPolicy>(make_lips_options(spec, ss));
}

sim::SimConfig make_sim_config(const ScenarioSpec& spec,
                               const SchedulerSpec& ss,
                               std::uint64_t replication_seed) {
  sim::SimConfig cfg;
  if (ss.name == "lips") {
    apply_lips_sim_config(spec, replication_seed, cfg);
  } else {
    cfg.replication_seed = replication_seed;
    cfg.hdfs_replication = spec.replication;
    cfg.task_timeout_s = spec.baseline_timeout_s;
    // Classic Hadoop speculation is time-only (paper §VI-A).
    if (ss.name == "default" || ss.name == "delay") {
      cfg.speculative_execution = true;
      cfg.speculation.mode = sim::SpeculationConfig::Mode::Naive;
    }
  }
  if (ss.speculation == "off") {
    cfg.speculative_execution = false;
  } else if (ss.speculation == "naive") {
    cfg.speculative_execution = true;
    cfg.speculation.mode = sim::SpeculationConfig::Mode::Naive;
  } else if (ss.speculation == "cost") {
    cfg.speculative_execution = true;
    cfg.speculation.mode = sim::SpeculationConfig::Mode::CostAware;
  }
  return cfg;
}

}  // namespace lips::farm
