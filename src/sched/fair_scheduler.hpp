// Pool-based fair scheduling (paper §II, "Developed at Facebook,
// FairScheduler defines job pools such that every pool gets a fair share of
// the cluster capacity over time. ... short jobs can finish faster while
// longer jobs do not starve.")
//
// Implementation: each job is mapped to a pool (default: its own pool, i.e.
// per-job fairness). On every free slot the scheduler offers the slot to
// the pool with the fewest currently-running tasks relative to its weight
// (max-min fairness on running-task counts, the FairScheduler's slot-level
// allocation rule); within a pool, jobs run FIFO with the same greedy
// locality preference as the default scheduler.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "sched/fifo_scheduler.hpp"

namespace lips::sched {

class FairScheduler : public FifoLocalityScheduler {
 public:
  FairScheduler() = default;

  [[nodiscard]] std::string name() const override { return "fair"; }

  /// Assign a job to a pool (call before the run; unassigned jobs get a
  /// pool of their own). `weight` scales the pool's fair share.
  void assign_pool(JobId job, std::string pool, double weight = 1.0);

  [[nodiscard]] std::optional<LaunchDecision> on_slot_available(
      MachineId machine, const ClusterState& state) override;

  void on_task_complete(std::size_t task, MachineId machine,
                        const ClusterState& state) override;

  // Checkpoint hooks (DESIGN.md §11): pool bookkeeping is decision state.
  void save_state(ckpt::Writer& w) const override { fields(w, *this); }
  void load_state(ckpt::Reader& r) override { fields(r, *this); }

 private:
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self) {
    ar(ckpt::sorted(self.pool_assignment_), ckpt::sorted(self.pool_weight_),
       ckpt::sorted(self.running_), ckpt::sorted(self.task_pool_));
  }

  /// Write `job`'s pool name into `out` (reusing its buffer).
  void pool_of(JobId job, std::string& out) const;

  /// One pending job as an offer sees it.
  struct JobRun {
    std::size_t first = 0;  ///< pending() index of the job's first task
    std::string pool;
    double deficit = 0.0;  ///< the pool's running tasks / weight
  };
  /// Offer scratch, reused so an offer allocates nothing in steady state
  /// (not decision state: rebuilt by every offer).
  std::vector<JobRun> runs_;

  std::unordered_map<std::size_t, std::string> pool_assignment_;
  std::unordered_map<std::string, double> pool_weight_;
  /// Running task count per pool (maintained via launch/complete callbacks).
  std::unordered_map<std::string, std::size_t> running_;
  /// Tasks we launched, so completions decrement the right pool.
  std::unordered_map<std::size_t, std::string> task_pool_;
};

}  // namespace lips::sched
