#include "sched/fair_scheduler.hpp"

namespace lips::sched {

void FairScheduler::assign_pool(JobId job, std::string pool, double weight) {
  LIPS_REQUIRE(weight > 0, "pool weight must be positive");
  pool_weight_[pool] = weight;
  pool_assignment_[job.value()] = std::move(pool);
}

void FairScheduler::pool_of(JobId job, std::string& out) const {
  const auto it = pool_assignment_.find(job.value());
  if (it != pool_assignment_.end()) {
    out = it->second;
  } else {
    out = "job-";  // default: per-job pool
    out += std::to_string(job.value());
  }
}

std::optional<LaunchDecision> FairScheduler::on_slot_available(
    MachineId machine, const ClusterState& state) {
  // Gather the pending jobs in FIFO order, one run of pending tasks each,
  // with their pools' deficits (running / weight).
  const std::span<const std::size_t> pending = state.pending();
  std::size_t jobs = 0;
  for (std::size_t i = 0; i < pending.size();
       i = job_run_end(pending, i, state)) {
    if (jobs == runs_.size()) runs_.emplace_back();
    JobRun& run = runs_[jobs++];
    run.first = i;
    pool_of(state.task(pending[i]).job, run.pool);
    const auto rit = running_.find(run.pool);
    const double running =
        rit == running_.end() ? 0.0 : static_cast<double>(rit->second);
    const auto wit = pool_weight_.find(run.pool);
    const double weight = wit == pool_weight_.end() ? 1.0 : wit->second;
    run.deficit = running / weight;
  }
  if (jobs == 0) return std::nullopt;

  // Most-starved pool first (ties: lexicographic pool name, deterministic).
  const JobRun* starved = &runs_[0];
  for (std::size_t k = 1; k < jobs; ++k) {
    const JobRun& run = runs_[k];
    if (run.deficit < starved->deficit ||
        (run.deficit == starved->deficit && run.pool < starved->pool))
      starved = &run;
  }

  // Within the pool: FIFO job order, greedy locality (same as default).
  // Every task of a job reads one object, so its first task stands for all.
  std::optional<LaunchDecision> best;
  int best_level = 4;
  for (std::size_t k = 0; k < jobs; ++k) {
    if (runs_[k].pool != starved->pool) continue;
    const std::size_t id = pending[runs_[k].first];
    const SimTask& t = state.task(id);
    if (!t.data) {
      best = LaunchDecision{id, std::nullopt};
      break;
    }
    const Locality loc = best_locality(machine, *t.data, state);
    if (loc.level < best_level && loc.store) {
      best_level = loc.level;
      best = LaunchDecision{id, loc.store};
      if (best_level == 0) break;
    }
  }
  if (best) {
    running_[starved->pool] += 1;
    task_pool_[best->task] = starved->pool;
  }
  return best;
}

void FairScheduler::on_task_complete(std::size_t task, MachineId machine,
                                     const ClusterState& state) {
  (void)machine;
  (void)state;
  const auto it = task_pool_.find(task);
  if (it == task_pool_.end()) return;
  auto rit = running_.find(it->second);
  if (rit != running_.end() && rit->second > 0) rit->second -= 1;
  task_pool_.erase(it);
}

}  // namespace lips::sched
