// The Hadoop default scheduler (paper §II "Locality-aware MapReduce task
// scheduling"): FIFO job order; for an idle TaskTracker the JobTracker
// greedily picks the task with data closest to it — on the same node if
// possible, otherwise the same rack/zone, and finally remote. Dollar cost
// plays no role in its decisions.
#pragma once

#include <span>
#include <vector>

#include "sched/scheduler.hpp"

namespace lips::sched {

class FifoLocalityScheduler : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "hadoop-default"; }

  [[nodiscard]] std::optional<LaunchDecision> on_slot_available(
      MachineId machine, const ClusterState& state) override;

 protected:
  /// Locality level of reading `d` on `machine` from the best store holding
  /// it: 0 = node-local, 1 = same zone, 2 = remote, 3 = nowhere (no copy).
  /// Returns the chosen store alongside (ties: the lowest store id).
  struct Locality {
    int level = 3;
    std::optional<StoreId> store;
  };
  [[nodiscard]] Locality best_locality(MachineId machine, DataId d,
                                       const ClusterState& state);

  /// End (exclusive) of the job run that starts at `pending[begin]`. Each
  /// job's pending tasks are contiguous and read one object (ClusterState
  /// contracts), so a run's first task stands for the whole job; galloping
  /// then bisecting on task(id).job finds the next job in O(log run).
  [[nodiscard]] static std::size_t job_run_end(
      std::span<const std::size_t> pending, std::size_t begin,
      const ClusterState& state);

 private:
  std::vector<StoreId> holders_;  ///< best_locality scratch, reused per offer
};

}  // namespace lips::sched
