// The LP solver's interface: one function, `lp::solve`, backed by the
// bounded-variable revised simplex (lp/revised_simplex.cpp), and `certify`,
// which proves each optimal answer against its model (DESIGN.md §2, §8).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace lips::lp {

/// Outcome of a solve. `Optimal` is the only status with meaningful values.
enum class SolveStatus {
  Optimal,         ///< an optimal basic feasible solution was found
  Infeasible,      ///< the constraint set is empty
  Unbounded,       ///< the objective is unbounded below
  IterationLimit,  ///< the iteration budget was exhausted
};

[[nodiscard]] std::string to_string(SolveStatus status);

/// Where one column sits in a simplex basis snapshot.
enum class BasisStatus : unsigned char {
  Basic,    ///< in the basis
  AtLower,  ///< nonbasic at its lower bound
  AtUpper,  ///< nonbasic at its upper bound
  Free,     ///< nonbasic free column (value 0)
};

/// Exportable simplex basis: one status per model variable plus one per
/// constraint row (the row's slack/surplus column). A solve that finishes
/// at `Optimal` records its final basis here; a later solve of a same-shaped
/// model can start from it (the `start` of `lp::solve`) and repair the few
/// infeasibilities a small model delta introduced instead of cold-starting
/// from an all-artificial basis.
///
/// The snapshot may carry fewer than `num_constraints` Basic marks (a cold
/// solve of a model with redundant rows can finish with an artificial still
/// basic at zero; artificials have no representation here). Importers
/// complete such a short basis with slack columns.
struct Basis {
  std::vector<BasisStatus> variables;  ///< one per model variable
  std::vector<BasisStatus> slacks;     ///< one per constraint row
  [[nodiscard]] bool empty() const {
    return variables.empty() && slacks.empty();
  }
  bool operator==(const Basis&) const = default;
};

/// Solution returned by lp::solve.
struct LpSolution {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0.0;            ///< objective at `values` (if Optimal)
  std::vector<double> values;        ///< one value per model variable
  std::size_t iterations = 0;        ///< simplex pivots performed (all phases)

  /// Dual value (simplex multiplier) per constraint, and reduced cost per
  /// variable, at the optimum. Sign convention for a minimization:
  ///   <= rows have duals <= 0, >= rows have duals >= 0, = rows are free;
  ///   reduced costs are >= 0 for variables at their lower bound and <= 0
  ///   at their upper bound (complementary slackness).
  std::vector<double> duals;
  std::vector<double> reduced_costs;

  /// Final basis at `Optimal` (empty otherwise). Pass it as the `start` of
  /// the next same-shaped model's solve to warm-start.
  Basis basis;

  /// Warm-start telemetry. `warm_start_attempted` is set whenever a starting
  /// basis was supplied and structurally importable; `warm_start_used` only
  /// when the returned solution was actually reached from it (a warm attempt
  /// that fell back to a cold solve leaves it false). `repair_iterations`
  /// counts the dual-simplex pivots spent restoring primal feasibility.
  bool warm_start_attempted = false;
  bool warm_start_used = false;
  std::size_t repair_iterations = 0;

  [[nodiscard]] bool optimal() const { return status == SolveStatus::Optimal; }
};

class SolverFaultInjector;  // lp/solver_faults.hpp

/// Feasibility and reduced-cost tolerance of the solver, and the relative
/// tolerance of its certificate.
inline constexpr double kTolerance = 1e-7;

/// Options of a solve: its pivot budget, the degradation ladder's
/// re-sanitized retry and the chaos hook.
struct SolverOptions {
  std::size_t max_iterations = 0;   ///< 0 = automatic (see
                                    ///< automatic_iteration_budget)
  /// Re-derive the engine's computational objective/RHS arrays from the
  /// (finiteness-guarded) LpModel right before pivoting, healing NaN/Inf
  /// and |c| >= 1e50 entries that crept in after ingest. This is the
  /// degradation ladder's "re-sanitized retry" rung; off by default because
  /// a healthy pipeline never needs it.
  bool sanitize_model = false;
  /// Deterministic chaos hook (lp/solver_faults.hpp); not owned, may be
  /// null. The engine consults it at its corruption seams.
  SolverFaultInjector* fault_injector = nullptr;
};

/// The pivot budget used when `SolverOptions::max_iterations == 0`.
///
/// Cold solves scale with model size (`rows + columns`, columns counting
/// slacks and artificials). Warm-started solves scale with the observed
/// *delta* instead — the number of primal-infeasible basics plus
/// dual-infeasible nonbasics right after basis import — because a good basis
/// needs pivots proportional to what changed, not to how big the model is;
/// the warm budget is capped by the cold one. A warm solve that exhausts an
/// automatic budget falls back to a cold solve with a fresh cold budget (an
/// *explicit* `max_iterations` is never silently extended this way).
[[nodiscard]] std::size_t automatic_iteration_budget(
    std::size_t num_rows, std::size_t num_columns,
    std::optional<std::size_t> warm_delta = std::nullopt);

/// Solve `model` (a minimization). A non-null, nonempty `start` is a basis
/// exported by an earlier solve of a same-shaped model: the engine imports
/// and repairs it instead of starting from an all-artificial basis, and
/// abandons it for a cold solve when it cannot, so the answer is always as
/// correct as a cold one. Never throws for infeasible or unbounded models —
/// those are reported through the status.
[[nodiscard]] LpSolution solve(const LpModel& model,
                               const SolverOptions& options = {},
                               const Basis* start = nullptr);

/// The Karush–Kuhn–Tucker conditions of an optimal solution, checked
/// against the model it claims to solve. Each field is the worst residual
/// of one condition, relative to the magnitude of the terms it compares:
/// row and bound violations to the row's (or bound's) own size, dual signs
/// to the terms of each reduced cost, and complementarity and the gap to
/// the objective's terms. A solution is certified when all four are within
/// `kTolerance`; a NaN anywhere fails.
struct Certificate {
  /// The conditions, in the order `failure()` reports them.
  enum class Check {
    PrimalFeasibility,  ///< rows and bounds hold at `values`
    DualFeasibility,    ///< duals and reduced costs have the signs of
                        ///< LpSolution's convention
    Complementarity,    ///< a nonzero dual needs a tight row, a nonzero
                        ///< reduced cost a variable on that bound
    DualityGap,         ///< `objective` equals the dual objective
  };

  double primal = 0.0;
  double dual = 0.0;
  double complementarity = 0.0;
  double gap = 0.0;

  /// The first condition outside the tolerance; nullopt when all hold.
  [[nodiscard]] std::optional<Check> failure() const;
  [[nodiscard]] bool ok() const { return !failure().has_value(); }
};

/// Certify an `Optimal` `solution` of `model` in O(nnz). It reads only
/// `values`, `duals` and `objective`: reduced costs are recomputed as
/// c − Aᵀy, never taken from `reduced_costs`, so the certificate does not
/// trust the engine that produced them. The dual objective is
/// bᵀy + Σ_j d_j·(the bound d_j's sign selects).
[[nodiscard]] Certificate certify(const LpModel& model,
                                  const LpSolution& solution);

}  // namespace lips::lp
