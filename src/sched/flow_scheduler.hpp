// Quincy-style min-cost-flow scheduler (paper §II related work).
//
// Quincy maps each scheduling round onto a min-cost flow network whose edge
// weights encode the competing placement preferences; the flow solution is
// a globally cost-minimal *task assignment* for the round. Our variant uses
// dollar costs — the same per-task execution + read prices LiPS optimizes —
// so the comparison against LiPS isolates exactly what the paper claims is
// missing from task-centric schedulers: joint data placement. The flow
// scheduler can route every task to its cheapest (machine, store) pair, but
// it never *moves* data, and each round only sees currently free slots.
//
// Network, per scheduling round:
//
//   source ──(pending_k)──▶ job_k ──(1, cost_{k,l})──▶ machine_l ──(slots_l)──▶ sink
//                              └───(∞, defer_penalty)──▶ queue ──(∞)──▶ sink
//
// cost_{k,l} = per-task CPU price on l plus the cheapest feasible read.
// Rounds run on the epoch tick (a short epoch approximates Quincy's
// continuous re-solving).
#pragma once

#include <deque>

#include "sched/scheduler.hpp"

namespace lips::sched {

class QuincyFlowScheduler : public Scheduler {
 public:
  struct Options {
    double round_s = 30.0;  ///< re-solve period (Quincy re-solves often)
    /// Cost of leaving a task queued this round, relative to its cheapest
    /// real assignment (must exceed 1 so work prefers running to waiting;
    /// large values approximate "always place if any slot is free").
    double defer_penalty_factor = 10.0;
  };

  QuincyFlowScheduler() : QuincyFlowScheduler(Options{}) {}
  explicit QuincyFlowScheduler(Options options);

  [[nodiscard]] std::string name() const override { return "quincy-flow"; }
  [[nodiscard]] double epoch_s() const override { return options_.round_s; }

  void on_epoch(const ClusterState& state) override;

  [[nodiscard]] std::optional<LaunchDecision> on_slot_available(
      MachineId machine, const ClusterState& state) override;

  [[nodiscard]] std::size_t rounds() const { return rounds_; }
  [[nodiscard]] Millicents planned_cost_mc() const { return planned_cost_mc_; }

  // Checkpoint hooks (DESIGN.md §11): the per-machine pin queues and the
  // planned-cost accumulator are decision state.
  void save_state(ckpt::Writer& w) const override { fields(w, *this); }
  void load_state(ckpt::Reader& r) override { fields(r, *this); }

 private:
  struct Pinned {
    std::size_t task;
    std::optional<StoreId> store;
  };

  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self) {
    const auto pinned = [](auto& a, auto& p) { a(p.task, p.store); };
    ar(ckpt::seq(self.plan_,
                 [&pinned](auto& a, auto& queue) {
                   a(ckpt::seq(queue, pinned));
                 }),
       self.rounds_, self.planned_cost_mc_);
  }

  Options options_;
  std::vector<std::deque<Pinned>> plan_;  // per machine
  std::size_t rounds_ = 0;
  Millicents planned_cost_mc_ = Millicents::zero();
};

}  // namespace lips::sched
