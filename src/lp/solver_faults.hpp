// Seeded, deterministic fault injection for the LP solving layer — the
// adversary that proves the scheduler-side resilience ladder works.
//
// A SolverFaultInjector is installed on a solve path by passing it to
// lp::solve, or by pointing core::ModelOptions::fault_injector at it (the
// one-shot model builder and core::EpochLpContext both hand that pointer to
// lp::solve unchanged, so one injector covers cold solves and warm epoch
// re-solves alike). The revised simplex engine then consults it at four
// seams, mirroring the ways a real long-running planner corrupts itself:
//
//   * objective corruption  — a NaN or huge (1e100) entry lands in the
//     engine's computational cost vector after model ingest, the analogue of
//     a stale price feed or an uninitialized read;
//   * RHS corruption        — a NaN/Inf entry lands in a constraint
//     right-hand side, which can drive phase 1 to a bogus "Optimal" whose
//     decoded schedule is garbage, or leave it unbounded (reported as
//     Infeasible: the artificials cannot reach zero);
//   * warm-basis corruption — imported bases get a few entries rewritten
//     before import, the analogue of reusing a basis across an epoch whose
//     structure silently changed;
//   * refactorization failure and budget starvation — the engine is forced
//     to treat the basis matrix as singular once per solve, or capped to a
//     handful of pivots, the analogue of numerical breakdown and epoch
//     deadline pressure. Starvation is the one way to hold a solve below
//     its automatic budget (lp::automatic_iteration_budget), so it is also
//     how tests reach SolveStatus::IterationLimit.
//
// Determinism: all randomness flows through one seeded lips::Rng. Each
// begin_solve() draws a fixed number of uniforms regardless of which faults
// fire, so the fault sequence for solve N does not depend on the
// probabilities chosen for solves 1..N-1 beyond their fire/no-fire bits.
// Two runs with the same spec and the same solve sequence inject
// identically. The injector is not thread-safe; install one per run.
//
// An injected objective or RHS corruption makes the engine solve a model
// other than the caller's, so its "optimal" answer can fail lp::certify;
// that is the one case in which an uncertified answer is not a solver bug.
// The certificate catches it before the schedule validation gate does, and
// core::LipsPolicy takes its ladder's next rung instead of acting on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "common/rng.hpp"
#include "lp/solver.hpp"

namespace lips::lp {

/// Tuning for one injector. All probabilities are per-solve in [0, 1].
struct SolverFaultConfig {
  /// Probability a solve gets one NaN written into the computational form;
  /// the target alternates pseudo-randomly between an objective entry and a
  /// constraint RHS entry.
  double nan_probability = 0.0;
  /// Probability a solve gets one +Inf written into a constraint RHS.
  double inf_probability = 0.0;
  /// Probability a solve gets one objective entry replaced with 1e100 —
  /// finite, so it sails past finiteness checks, but poisonous to pricing.
  double huge_probability = 0.0;
  /// Probability an imported warm basis has 1–3 entries rewritten first.
  double basis_corruption_probability = 0.0;
  /// Probability every refactorization in a solve reports "singular" —
  /// failing the warm import and the final cleanup factorization.
  double refactor_failure_probability = 0.0;
  /// Probability the solve's iteration budget is capped at
  /// starved_iterations pivots (forcing SolveStatus::IterationLimit).
  double budget_starvation_probability = 0.0;
  /// Pivot cap applied when budget starvation fires.
  std::size_t starved_iterations = 3;
  /// Seed for the injector's private lips::Rng.
  std::uint64_t seed = 1;
};

/// Parse a `--solver-faults` spec: comma-separated key=value pairs.
///
///   nan=P inf=P huge=P basis=P refactor=P budget=P starve_iters=N seed=N
///
/// e.g. "nan=0.3,basis=0.5,budget=0.2,starve_iters=3,seed=7". Unknown or
/// duplicate keys and out-of-range probabilities throw PreconditionError
/// (same contract as sim::parse_fault_spec).
[[nodiscard]] SolverFaultConfig parse_solver_fault_spec(
    const std::string& spec);

class SolverFaultInjector {
 public:
  /// Counters of faults actually applied (not merely armed). A fault armed
  /// by begin_solve() is not counted until the engine reaches the seam it
  /// perturbs, so e.g. an empty model (no constraint rows) records nothing.
  struct Stats {
    std::size_t solves_seen = 0;
    std::size_t objective_nans = 0;
    std::size_t rhs_nans = 0;
    std::size_t rhs_infs = 0;
    std::size_t objective_huges = 0;
    std::size_t bases_corrupted = 0;
    std::size_t refactor_failures = 0;
    std::size_t budgets_starved = 0;
    [[nodiscard]] std::size_t total_injected() const {
      return objective_nans + rhs_nans + rhs_infs + objective_huges +
             bases_corrupted + refactor_failures + budgets_starved;
    }
  };

  explicit SolverFaultInjector(const SolverFaultConfig& config);

  /// Roll this solve's fate. Called by the engine once per solve() before
  /// any other hook; draws a fixed number of uniforms for determinism.
  void begin_solve();

  /// Perturb the engine's computational objective vector (user columns and
  /// slacks, pre-artificials) in place.
  void corrupt_costs(std::vector<double>& cost);

  /// Perturb the engine's right-hand-side vector in place.
  void corrupt_rhs(std::vector<double>& rhs);

  /// True when this solve should corrupt an imported warm basis; the engine
  /// copies the caller's basis and passes the copy to corrupt_basis so the
  /// caller's state is never mutated.
  [[nodiscard]] bool basis_corruption_armed() const { return arm_basis_; }

  /// Rewrite 1–3 entries of the basis with pseudo-random statuses.
  void corrupt_basis(Basis& basis);

  /// True when the engine must treat the current basis as singular. Fires
  /// for every refactorization attempt within an armed solve.
  [[nodiscard]] bool fail_refactorize();

  /// Cap an iteration budget: returns min(budget, done + starved) when
  /// starvation is armed, else budget unchanged. Counted once per solve
  /// even though warm and cold phases both consult it.
  [[nodiscard]] std::size_t cap_budget(std::size_t iterations_done,
                                       std::size_t budget);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const SolverFaultConfig& config() const { return config_; }

  /// Checkpoint hooks (DESIGN.md §11): the RNG stream position, per-solve
  /// armed flags, and counters are run state — a resumed run must draw the
  /// exact fault sequence the uninterrupted run would have drawn. The
  /// config is not serialized; the caller reconstructs the injector from
  /// the same spec and restores into it.
  void save_state(ckpt::Writer& writer) const;
  void load_state(ckpt::Reader& reader);

 private:
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self);

  SolverFaultConfig config_;
  Rng rng_;
  Stats stats_;
  // Per-solve armed faults, re-rolled by begin_solve().
  bool arm_nan_ = false;
  bool nan_targets_cost_ = false;
  bool arm_inf_ = false;
  bool arm_huge_ = false;
  bool arm_basis_ = false;
  bool arm_refactor_ = false;
  bool arm_budget_ = false;
  bool budget_counted_ = false;
};

}  // namespace lips::lp
