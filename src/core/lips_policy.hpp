// LiPS as a simulator scheduling policy.
//
// Mirrors the paper's Hadoop integration (§VI-A): LiPS is a TaskScheduler
// plugin that, each epoch, solves the online co-scheduling LP (paper Fig. 4)
// over the queued jobs, plus a ReplicationTargetChooser that moves data to
// the stores the LP selected. Concretely, every epoch this policy:
//
//   1. collects jobs with pending tasks and their remaining fractions,
//   2. solves the online LP (with the fake node F, so overflow work is
//      deferred rather than infeasible),
//   3. rounds the fractional solution to whole tasks (core/rounding),
//   4. pins each rounded bundle's tasks to its machine, gated on the
//      assigned store holding the required fraction of the data,
//   5. emits DataMove directives for whatever is missing.
//
// Between epochs, on_slot_available serves only the pinned queue of that
// machine — LiPS pre-determines where each task runs (which is also why the
// paper disables Hadoop's speculative execution for LiPS runs).
#pragma once

#include <array>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "core/epoch_lp_context.hpp"
#include "core/lp_models.hpp"
#include "core/rounding.hpp"
#include "sched/scheduler.hpp"

namespace lips::core {

/// Tuning for the LiPS policy.
struct LipsPolicyOptions {
  double epoch_s = 400.0;  ///< scheduling epoch (the Fig-8 knob)
  /// LP model options; epoch_s/fake_node are overwritten by the policy.
  /// The policy defaults the fake node to PatienceMin pricing (defer work
  /// rather than buy cycles >25% dearer than the job's cheapest option) —
  /// the behavior the paper reports; switch to ProhibitiveMax for the
  /// paper-literal feasibility-only fake node (ablation bench compares).
  ModelOptions model = [] {
    ModelOptions m;
    m.fake_node_pricing = ModelOptions::FakeNodePricing::PatienceMin;
    m.fake_node_price_factor = 1.25;
    return m;
  }();

  /// Straggler feedback: budget each machine's epoch-LP capacity row at its
  /// *observed* throughput (ClusterState::observed_throughput) instead of
  /// its nameplate TP(M). On a healthy cluster every factor is exactly 1.0
  /// and the model is bit-identical to the feedback-free one. With feedback
  /// on, a live machine whose observed throughput sits below 0.4 is also
  /// quarantined: excluded from plans outright (its cheap nameplate price is
  /// a trap at a fraction of the speed), except on every 4th consecutive
  /// quarantined replan, when it is let back in as a probe so fresh task
  /// samples can lift its EWMA once the slowdown clears.
  bool throughput_feedback = true;
};

class LipsPolicy : public sched::Scheduler {
 public:
  /// Rungs of the graceful-degradation ladder (DESIGN.md §10). Each replan
  /// walks the rungs in order until one produces a schedule that solves,
  /// is certified AND passes validation. Both LP rungs are one
  /// EpochLpContext::solve. Every rung entered is counted; escalations
  /// (rungs > Primary) are also counted in the MetricRegistry as
  /// `lips_degradation_total{rung=...}`.
  enum class DegradationRung : unsigned char {
    Primary = 0,         ///< incremental warm epoch solve (healthy path)
    ColdRebuild = 1,     ///< drop cached model + basis, rebuild, solve cold
    GreedyFallback = 2,  ///< greedy fallback_plan, no LP
    ReuseLastPlan = 3,   ///< greedy produced nothing runnable: restore the
                         ///< last validated plan's pins and gates
  };
  static constexpr std::size_t kNumDegradationRungs = 4;

  explicit LipsPolicy(LipsPolicyOptions options = {});

  [[nodiscard]] std::string name() const override { return "lips"; }
  [[nodiscard]] double epoch_s() const override { return options_.epoch_s; }

  void on_epoch(const sched::ClusterState& state) override;
  [[nodiscard]] std::vector<sched::DataMove> take_data_moves() override;

  [[nodiscard]] std::optional<sched::LaunchDecision> on_slot_available(
      MachineId machine, const sched::ClusterState& state) override;

  // Failure awareness: every fault invalidates the current plan (pinned
  // queues may target a dead machine, gates may wait on a wiped store), so
  // the policy re-solves immediately rather than waiting out the epoch.
  // Spot-warned machines are excluded from plans ahead of their death.
  void on_machine_lost(MachineId machine,
                       const sched::ClusterState& state) override;
  void on_machine_restored(MachineId machine,
                           const sched::ClusterState& state) override;
  void on_store_lost(StoreId store, const sched::ClusterState& state) override;
  void on_spot_warning(MachineId machine, double revoke_time_s,
                       const sched::ClusterState& state) override;

  // Checkpoint hooks (DESIGN.md §11): full serialization of the plan and
  // gates, the doomed set and quarantine ages (sorted — they live in
  // unordered containers), the degradation-ladder state, every cost
  // accumulator and counter, and the incremental LP context (structure key,
  // column and row identities, basis). When a solver fault injector is
  // installed its RNG position rides along; a restored policy must be
  // constructed with the same options (and the same injector wiring) as the
  // one that saved. A load throws ckpt::SnapshotError when a pin names a
  // gate that does not exist.
  void save_state(ckpt::Writer& writer) const override;
  void load_state(ckpt::Reader& reader) override;

  // --- introspection (for tests and reports) ------------------------------
  /// Replans that reached the solve stage (rung Primary entered).
  [[nodiscard]] std::size_t lp_solves() const {
    return degradations(DegradationRung::Primary);
  }
  /// Replans where *every* LP rung of the ladder failed and the greedy
  /// fallback was taken. Per-attempt failures are visible through
  /// degradations() instead.
  [[nodiscard]] std::size_t lp_failures() const {
    return degradations(DegradationRung::GreedyFallback);
  }
  /// Times the given ladder rung was entered. Primary counts replans that
  /// reached the solve stage; every other rung counts escalations (all zero
  /// on a healthy run).
  [[nodiscard]] std::size_t degradations(DegradationRung rung) const {
    return rung_counts_[static_cast<std::size_t>(rung)];
  }
  /// Σ escalations across rungs > Primary.
  [[nodiscard]] std::size_t total_degradations() const {
    std::size_t total = 0;
    for (std::size_t r = 1; r < kNumDegradationRungs; ++r)
      total += rung_counts_[r];
    return total;
  }
  /// Validation gate traffic: schedules checked / schedules rejected.
  [[nodiscard]] std::size_t schedules_validated() const {
    return schedules_validated_;
  }
  [[nodiscard]] std::size_t validation_failures() const {
    return validation_failures_;
  }
  /// Optimal LP answers that failed their KKT certificate (lp::certify).
  /// Each one sent the replan to the next rung, like a validation failure.
  [[nodiscard]] std::size_t certificate_failures() const {
    return certificate_failures_;
  }
  /// Solver-layer exceptions swallowed by the ladder (a daemon degrades
  /// instead of dying on a pivot blow-up under a corrupted model).
  [[nodiscard]] std::size_t solver_exceptions() const {
    return solver_exceptions_;
  }
  [[nodiscard]] std::size_t off_cycle_resolves() const {
    return off_cycle_resolves_;
  }
  [[nodiscard]] Millicents planned_cost_mc() const { return planned_cost_mc_; }
  /// Σ fake-node contributions to the epoch-LP objectives: modeled cost of
  /// the work each plan deferred to a later epoch rather than placed. Folded
  /// replan by replan in the same order the cost ledger sees its
  /// FakeNodeCarry posts, so the two agree bit for bit.
  [[nodiscard]] Millicents fake_node_carry_mc() const {
    return fake_node_carry_mc_;
  }
  /// Σ simplex pivots across every LP attempt.
  [[nodiscard]] std::size_t total_lp_iterations() const {
    return lp_context_.stats().pivots;
  }
  /// LP attempts solved from the previous plan's simplex basis (warm starts).
  [[nodiscard]] std::size_t lp_warm_solves() const {
    return lp_context_.stats().warm_solves;
  }
  /// LP attempts that updated the cached model in place (no rebuild).
  [[nodiscard]] std::size_t lp_model_reuses() const {
    return lp_context_.stats().model_reuses;
  }
  /// Σ dual-simplex repair pivots across warm-started LP attempts.
  [[nodiscard]] std::size_t lp_repair_iterations() const {
    return lp_context_.stats().repair_pivots;
  }
  /// Machine×replan exclusions due to low observed throughput.
  [[nodiscard]] std::size_t quarantine_exclusions() const {
    return quarantine_exclusions_;
  }
  /// Replans where a quarantined machine was readmitted as a probe.
  [[nodiscard]] std::size_t quarantine_probes() const {
    return quarantine_probes_;
  }

 private:
  struct PinnedTask {
    std::size_t task;                 ///< simulator task id
    std::optional<StoreId> store;     ///< store to read from
    std::vector<std::size_t> gates;   ///< indices into gates_ (one per data
                                      ///< object still in flight)
  };
  struct Gate {
    DataId data;
    StoreId store;
    double required_fraction = 0.0;  ///< presence threshold to open
  };

  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self);

  /// Rebuild the plan from the current queue (epoch tick or fault).
  void replan(const sched::ClusterState& state);
  /// Fill model.machine_throughput_factor from observed throughput and mark
  /// persistently slow machines excluded (quarantine with periodic probes).
  void apply_throughput_feedback(const sched::ClusterState& state,
                                 ModelOptions& model,
                                 std::vector<char>& excluded);
  /// Corrective action when the LP fails (e.g. Infeasible because the
  /// surviving stores cannot hold the queue's data): pin each pending task
  /// greedily to its cheapest live option so work still drains. A machine
  /// the LP `excluded` (one flag per machine) for low observed throughput
  /// takes a pin only when no other live machine is left.
  void fallback_plan(const sched::ClusterState& state,
                     const std::vector<char>& excluded);
  /// Record entering a ladder rung: per-rung counter and (for escalations)
  /// the lips_degradation_total metric + a trace instant.
  void enter_rung(DegradationRung rung);
  /// Register the degradation, validation and LP-certificate metric series
  /// (at zero when new) so a fault-free run still exports them (CI greps for
  /// the name). Idempotent; every replan calls it, so a policy restored into
  /// a fresh registry exports them too.
  void register_resilience_metrics();

  LipsPolicyOptions options_;
  /// Per-machine queue of pinned tasks for the current epoch.
  std::vector<std::deque<PinnedTask>> plan_;
  std::vector<Gate> gates_;
  std::vector<sched::DataMove> moves_;
  /// Machines with a pending spot-revocation notice: still up, but no new
  /// work is planned onto them.
  std::unordered_set<std::size_t> doomed_;
  /// Consecutive replans each machine has spent under the quarantine
  /// threshold (drives the probe cadence; erased on recovery).
  std::unordered_map<std::size_t, std::size_t> quarantine_age_;

  /// Incremental solve pipeline: caches the built LP model and last basis
  /// between replans (epoch ticks *and* off-cycle fault re-solves). Every LP
  /// attempt goes through it, so its stats() are the policy's LP counts.
  EpochLpContext lp_context_;

  std::size_t off_cycle_resolves_ = 0;
  std::size_t quarantine_exclusions_ = 0;
  std::size_t quarantine_probes_ = 0;
  /// Σ epoch-LP objectives (modeled cost).
  Millicents planned_cost_mc_ = Millicents::zero();
  Millicents fake_node_carry_mc_ = Millicents::zero();

  // --- resilience ladder state (DESIGN.md §10) ----------------------------
  std::array<std::size_t, kNumDegradationRungs> rung_counts_{};
  std::size_t schedules_validated_ = 0;
  std::size_t validation_failures_ = 0;
  std::size_t certificate_failures_ = 0;
  std::size_t solver_exceptions_ = 0;
  /// Snapshot of the pins/gates of the last plan that passed validation,
  /// for rung ReuseLastPlan. Stale pins are dropped at launch time by
  /// the is_pending check in on_slot_available.
  std::vector<std::deque<PinnedTask>> last_good_plan_;
  std::vector<Gate> last_good_gates_;
};

}  // namespace lips::core
