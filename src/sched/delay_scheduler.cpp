#include "sched/delay_scheduler.hpp"

namespace lips::sched {

int DelayScheduler::allowed_level(std::size_t job, double now) const {
  const auto it = wait_since_.find(job);
  if (it == wait_since_.end()) return 0;  // hasn't waited yet: insist on local
  const double waited = now - it->second;
  if (waited >= zone_delay_s_) return 2;
  if (waited >= node_delay_s_) return 1;
  return 0;
}

std::optional<LaunchDecision> DelayScheduler::on_slot_available(
    MachineId machine, const ClusterState& state) {
  const double now = state.now();
  // Scan jobs in FIFO order, one pending run per job: every task of a job
  // reads the same object, so the run's first task stands for all of them.
  // Unlike the default scheduler, a job that cannot launch within its
  // allowed locality level is *skipped*, not served remotely.
  const std::span<const std::size_t> pending = state.pending();
  for (std::size_t i = 0; i < pending.size();
       i = job_run_end(pending, i, state)) {
    const std::size_t id = pending[i];
    const SimTask& t = state.task(id);
    if (!t.data) {
      return LaunchDecision{id, std::nullopt};  // input-free: always "local"
    }
    const std::size_t job = t.job.value();
    const Locality loc = best_locality(machine, *t.data, state);
    if (loc.store && loc.level <= allowed_level(job, now)) {
      if (loc.level == 0) {
        wait_since_.erase(job);  // locality achieved: reset the clock
      }
      return LaunchDecision{id, loc.store};
    }
    // Job yields; start (or continue) its wait clock.
    wait_since_.try_emplace(job, now);
  }
  return std::nullopt;
}

}  // namespace lips::sched
