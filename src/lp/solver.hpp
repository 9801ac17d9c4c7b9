// Solver interface shared by the two simplex implementations.
#pragma once

#include <cstddef>
#include <memory>
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
/// constraint row (the row's slack/surplus column). A solver that finishes
/// at `Optimal` records its final basis here; a later solve of a same-shaped
/// model can start from it (`LpSolver::solve_with_basis`) and repair the few
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

/// Solution returned by LpSolver::solve.
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

  /// Final basis at `Optimal` (empty otherwise, and empty for solvers that
  /// do not support export). Feed it to `solve_with_basis` on the next
  /// same-shaped model to warm-start.
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

/// Pricing rule for the revised simplex.
enum class PricingRule {
  Devex,    ///< devex reference weights + partial pricing (default)
  Dantzig,  ///< most-negative reduced cost, full pricing
};

class SolverFaultInjector;  // lp/solver_faults.hpp

/// Feasibility and reduced-cost tolerance of both solvers.
inline constexpr double kTolerance = 1e-7;

/// Budget and pricing options common to both solvers.
struct SolverOptions {
  std::size_t max_iterations = 0;   ///< 0 = automatic (see
                                    ///< automatic_iteration_budget)
  PricingRule pricing = PricingRule::Devex;  ///< revised simplex only
  /// Re-derive the engine's computational objective/RHS arrays from the
  /// (finiteness-guarded) LpModel right before pivoting, healing NaN/Inf
  /// and |c| >= 1e50 entries that crept in after ingest. This is the
  /// degradation ladder's "re-sanitized retry" rung; off by default because
  /// a healthy pipeline never needs it.
  bool sanitize_model = false;
  /// Deterministic chaos hook (lp/solver_faults.hpp); not owned, may be
  /// null. The revised simplex consults it at its corruption seams; the
  /// dense solver ignores it.
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

/// Abstract LP solver.
class LpSolver {
 public:
  virtual ~LpSolver() = default;

  /// Solve `model` (a minimization). Never throws for infeasible/unbounded
  /// inputs — those are reported via the status.
  [[nodiscard]] virtual LpSolution solve(const LpModel& model) const = 0;

  /// Solve `model` starting from `start` (a basis exported by a previous
  /// solve of a same-shaped model). Solvers without warm-start support
  /// ignore the hint and solve cold; the result is always as correct as
  /// `solve` — an unusable basis is repaired or abandoned internally.
  [[nodiscard]] virtual LpSolution solve_with_basis(const LpModel& model,
                                                    const Basis& start) const {
    (void)start;
    return solve(model);
  }
};

/// Which implementation to instantiate.
enum class SolverKind {
  DenseSimplex,    ///< two-phase tableau simplex; best for small models
  RevisedSimplex,  ///< bounded-variable revised simplex; scales further
};

/// Factory for the built-in solvers.
[[nodiscard]] std::unique_ptr<LpSolver> make_solver(
    SolverKind kind, const SolverOptions& options = {});

}  // namespace lips::lp
