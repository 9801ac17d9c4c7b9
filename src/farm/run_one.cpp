#include "farm/run_one.hpp"

#include <memory>

#include "cluster/cluster.hpp"
#include "farm/recipe.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace lips::farm {

const SchedulerRunResult* RunResult::find(const std::string& label) const {
  for (const SchedulerRunResult& r : runs) {
    if (r.label == label) return &r;
  }
  return nullptr;
}

RunResult run_one(const ScenarioSpec& spec, std::size_t cell,
                  std::size_t seed_index, std::uint64_t seed) {
  validate_scenario(spec);
  RunResult out;
  out.cell = cell;
  out.seed_index = seed_index;
  out.seed = seed;

  // Every ingredient below is local to this call: the cluster is rebuilt
  // (cheap, deterministic in its parameters), the workload and storm are
  // drawn from this run's own Rng stream, and each scheduler run gets a
  // fresh ledger + registry, so nothing is shared across concurrent calls.
  // The recipe is shared with lipsd (farm/recipe.hpp): a service session
  // and a replaying client rebuild this exact world from (spec, seed).
  const RunInputs inputs = make_run_inputs(spec, seed);
  const cluster::Cluster& c = inputs.cluster;
  const workload::Workload& w = inputs.workload;
  const sim::FaultPlan& plan = inputs.faults;

  out.ledgers_reconcile = true;
  for (const SchedulerSpec& ss : spec.resolved_schedulers()) {
    const std::unique_ptr<sched::Scheduler> policy = make_policy(spec, ss);
    sim::SimConfig cfg = make_sim_config(spec, ss, seed);
    cfg.faults = plan;
    obs::MetricRegistry metrics;
    obs::CostLedger ledger;
    cfg.obs = obs::Observer{&metrics, nullptr, &ledger};
    const sim::SimResult r = sim::simulate(c, w, *policy, cfg);

    SchedulerRunResult srr;
    srr.label = ss.display();
    srr.completed = r.completed;
    srr.makespan_s = r.makespan_s;
    srr.total_cost_mc = r.total_cost_mc;
    srr.wasted_cost_mc = r.wasted_cost_mc;
    srr.speculation_cost_mc = r.speculation_cost_mc;
    srr.tasks_completed = r.tasks_completed;
    srr.tasks_killed_by_faults = r.tasks_killed_by_faults;
    srr.tasks_lost = r.tasks_lost;
    srr.speculative_launched = r.speculative_launched;
    srr.schedule_digest = r.schedule_digest;
    srr.ledger = sim::billed_totals(r);
    srr.ledger_reconciles = ledger.reconcile(srr.ledger).ok;
    srr.metrics = obs::deterministic_samples(metrics.snapshot());
    out.ledgers_reconcile = out.ledgers_reconcile && srr.ledger_reconciles;
    out.runs.push_back(std::move(srr));
  }

  // Cell statistic: headline savings when both labels resolve, dollars of
  // the stat scheduler (or the first run) otherwise.
  const SchedulerRunResult* stat_run = out.find(spec.stat_scheduler);
  if (stat_run == nullptr) stat_run = &out.runs.front();
  const SchedulerRunResult* vs = out.find(spec.savings_vs);
  if (vs != nullptr && vs != stat_run && vs->total_cost_mc.mc() > 0.0) {
    out.stat = 1.0 - stat_run->total_cost_mc.mc() / vs->total_cost_mc.mc();
  } else {
    out.stat = millicents_to_dollars(stat_run->total_cost_mc);
  }
  return out;
}

}  // namespace lips::farm
