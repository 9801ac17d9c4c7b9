#include "lp/solver.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace lips::lp {

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal:
      return "optimal";
    case SolveStatus::Infeasible:
      return "infeasible";
    case SolveStatus::Unbounded:
      return "unbounded";
    case SolveStatus::IterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

std::size_t automatic_iteration_budget(std::size_t num_rows,
                                       std::size_t num_columns,
                                       std::optional<std::size_t> warm_delta) {
  const std::size_t cold = 500 + 60 * (num_rows + num_columns);
  if (!warm_delta) return cold;
  const std::size_t warm = 200 + 10 * num_rows + 50 * *warm_delta;
  return std::min(warm, cold);
}

std::optional<Certificate::Check> Certificate::failure() const {
  // Written as !(r <= tol) so that a NaN residual fails.
  if (!(primal <= kTolerance)) return Check::PrimalFeasibility;
  if (!(dual <= kTolerance)) return Check::DualFeasibility;
  if (!(complementarity <= kTolerance)) return Check::Complementarity;
  if (!(gap <= kTolerance)) return Check::DualityGap;
  return std::nullopt;
}

Certificate certify(const LpModel& model, const LpSolution& solution) {
  LIPS_REQUIRE(solution.optimal(), "only an optimal solution is certified");
  const std::size_t n = model.num_variables();
  LIPS_REQUIRE(solution.values.size() == n &&
                   solution.duals.size() == model.num_constraints(),
               "solution must have one value per variable and one dual per "
               "row");
  // raise() keeps a NaN once it has seen one: NaN <= x is false.
  const auto raise = [](double& worst, double v) {
    if (!(v <= worst)) worst = v;
  };
  Certificate cert;
  double complementarity = 0.0;  // worst |product|, in objective units
  double dual_objective = 0.0;
  double objective_scale = 1.0;  // 1 + Σ|terms of both objectives|

  // One pass over the rows: primal residuals, the dual signs (a row's slack
  // has cost 0 and column e_i, so its reduced cost is −y_i), row
  // complementarity, and d = c − Aᵀy with the magnitude of its terms.
  std::vector<double> d(n);
  std::vector<double> d_scale(n);
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = model.variable(j).objective;
    d_scale[j] = 1.0 + std::fabs(d[j]);
  }
  for (std::size_t i = 0; i < model.num_constraints(); ++i) {
    const Constraint& row = model.constraint(i);
    const double y = solution.duals[i];
    double lhs = 0.0;
    double magnitude = 1.0 + std::fabs(row.rhs);
    for (const Entry& e : row.entries) {
      const double term = e.coeff * solution.values[e.var];
      lhs += term;
      magnitude += std::fabs(term);
      d[e.var] -= e.coeff * y;
      d_scale[e.var] += std::fabs(e.coeff * y);
    }
    const double residual = lhs - row.rhs;
    double violation = 0.0;
    double wrong_sign = 0.0;
    switch (row.sense) {
      case Sense::LessEqual:
        violation = std::max(residual, 0.0);
        wrong_sign = std::max(y, 0.0);
        break;
      case Sense::GreaterEqual:
        violation = std::max(-residual, 0.0);
        wrong_sign = std::max(-y, 0.0);
        break;
      case Sense::Equal:
        violation = std::fabs(residual);
        break;
    }
    raise(cert.primal, violation / magnitude);
    raise(cert.dual, wrong_sign / (1.0 + std::fabs(y)));
    raise(complementarity, std::fabs(y * residual));
    dual_objective += row.rhs * y;
    objective_scale += std::fabs(row.rhs * y);
  }

  // One pass over the variables: bounds, reduced-cost signs, bound
  // complementarity and the bound terms of the dual objective. A reduced
  // cost pointing at an infinite bound is dual infeasible; its term in the
  // dual objective falls back to d_j·x_j, which is all complementarity
  // can ask of it.
  for (std::size_t j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    const double x = solution.values[j];
    raise(cert.primal,
          std::max({v.lower - x, x - v.upper, 0.0}) / (1.0 + std::fabs(x)));
    const double dj = d[j];
    double wrong_sign = 0.0;
    if (v.lower == -kInf) wrong_sign += std::max(dj, 0.0);
    if (v.upper == kInf) wrong_sign += std::max(-dj, 0.0);
    raise(cert.dual, wrong_sign / d_scale[j]);
    double bound = x;
    if (dj > 0.0 && v.lower > -kInf) {
      bound = v.lower;
    } else if (dj < 0.0 && v.upper < kInf) {
      bound = v.upper;
    }
    raise(complementarity, std::fabs(dj * (x - bound)));
    dual_objective += dj * bound;
    objective_scale += std::fabs(dj * bound) + std::fabs(v.objective * x);
  }
  cert.complementarity = complementarity / objective_scale;
  cert.gap = std::fabs(solution.objective - dual_objective) / objective_scale;
  return cert;
}

}  // namespace lips::lp
