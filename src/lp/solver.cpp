#include "lp/solver.hpp"

#include "lp/dense_simplex.hpp"
#include "lp/revised_simplex.hpp"

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

std::unique_ptr<LpSolver> make_solver(SolverKind kind,
                                      const SolverOptions& options) {
  switch (kind) {
    case SolverKind::DenseSimplex:
      return std::make_unique<DenseSimplexSolver>(options);
    case SolverKind::RevisedSimplex:
      // make_unique is not a friend of the private constructor.
      return std::unique_ptr<LpSolver>(new RevisedSimplexSolver(options));
  }
  LIPS_ASSERT(false, "unknown solver kind");
}

}  // namespace lips::lp
