#include "sched/fifo_scheduler.hpp"

#include <algorithm>

namespace lips::sched {

FifoLocalityScheduler::Locality FifoLocalityScheduler::best_locality(
    MachineId machine, DataId d, const ClusterState& state) {
  const cluster::Cluster& c = state.cluster();
  Locality best;
  state.holders(d, holders_);
  for (const StoreId store : holders_) {
    const cluster::DataStore& ds = c.store(store);
    int level = 2;
    if (ds.colocated_machine == machine.value()) {
      level = 0;
    } else if (ds.zone == c.machine(machine).zone) {
      level = 1;
    }
    if (level < best.level) {
      best.level = level;
      best.store = store;
      if (level == 0) break;  // cannot do better than node-local
    }
  }
  return best;
}

std::size_t FifoLocalityScheduler::job_run_end(
    std::span<const std::size_t> pending, std::size_t begin,
    const ClusterState& state) {
  const JobId job = state.task(pending[begin]).job;
  const auto in_run = [&](std::size_t i) {
    return state.task(pending[i]).job == job;
  };
  // Invariant: pending[lo] is in the run; hi is past it or the end.
  std::size_t lo = begin;
  std::size_t hi = begin + 1;
  for (std::size_t step = 1; hi < pending.size() && in_run(hi); step *= 2) {
    lo = hi;
    hi = begin + 2 * step;
  }
  hi = std::min(hi, pending.size());
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (in_run(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

std::optional<LaunchDecision> FifoLocalityScheduler::on_slot_available(
    MachineId machine, const ClusterState& state) {
  // Hadoop default serves the FIFO-head job and does not skip ahead to
  // younger jobs while it has pending tasks. All of the head job's tasks
  // read one object, so its first pending task is as good as any.
  const std::span<const std::size_t> pending = state.pending();
  if (pending.empty()) return std::nullopt;
  const std::size_t id = pending.front();
  const SimTask& t = state.task(id);
  if (!t.data) {
    // Input-free task: runnable anywhere, "locality" is trivially local.
    return LaunchDecision{id, std::nullopt};
  }
  const Locality loc = best_locality(machine, *t.data, state);
  if (!loc.store) return std::nullopt;
  return LaunchDecision{id, loc.store};
}

}  // namespace lips::sched
