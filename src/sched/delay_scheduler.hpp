// Delay scheduling (Zaharia et al., EuroSys'10; paper §II).
//
// "When the job that should be scheduled next according to fairness cannot
// launch a data-local task, it yields shortly to other jobs launching their
// corresponding tasks instead." With short tasks and fast slot turnover this
// achieves near-100% data locality — the paper calls it "the best example of
// 'move computation' schedulers" and uses it as the performant baseline.
//
// Implementation: two-level delay. A job whose head-of-line turn cannot be
// served node-locally is skipped (in favor of later jobs) until it has
// waited `node_delay_s`; after that it accepts same-zone ("rack") placement;
// after `zone_delay_s` total it accepts an arbitrary remote slot.
#pragma once

#include <unordered_map>

#include "sched/fifo_scheduler.hpp"

namespace lips::sched {

class DelayScheduler : public FifoLocalityScheduler {
 public:
  explicit DelayScheduler(double node_delay_s = 15.0, double zone_delay_s = 45.0)
      : node_delay_s_(node_delay_s), zone_delay_s_(zone_delay_s) {
    LIPS_REQUIRE(node_delay_s >= 0 && zone_delay_s >= node_delay_s,
                 "delays must satisfy 0 <= node <= zone");
  }

  [[nodiscard]] std::string name() const override { return "delay"; }

  [[nodiscard]] std::optional<LaunchDecision> on_slot_available(
      MachineId machine, const ClusterState& state) override;

  // Checkpoint hooks (DESIGN.md §11): the wait clocks are decision state.
  void save_state(ckpt::Writer& w) const override { fields(w, *this); }
  void load_state(ckpt::Reader& r) override { fields(r, *this); }

 private:
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self) {
    ar(ckpt::sorted(self.wait_since_));
  }

  /// Max locality level job `j` currently accepts (0 node, 1 zone, 2 any).
  [[nodiscard]] int allowed_level(std::size_t job, double now) const;

  double node_delay_s_;
  double zone_delay_s_;
  /// When each job started waiting for a local slot (reset on local launch).
  std::unordered_map<std::size_t, double> wait_since_;
};

}  // namespace lips::sched
