// Bounded-variable revised primal simplex with warm starting.
//
// This is the production solver used by the LiPS scheduler: it keeps the
// constraint matrix sparse (the scheduling LPs have ~3 nonzeros per column),
// handles the 0 <= x <= 1 bounds of the paper's models natively via the
// upper-bounded simplex technique (bound flips instead of explicit rows),
// and maintains an explicit dense basis inverse that is eta-updated per
// pivot and periodically refactorized for numerical hygiene.
//
// Pricing is devex (reference weights, partial pricing over column buckets)
// by default; SolverOptions::pricing selects classic Dantzig.
//
// Warm starts: `solve_with_basis` refactorizes an imported basis, restores
// dual feasibility with bound flips on boxed columns, repairs the remaining
// primal infeasibility with a bounded-variable dual simplex phase, then
// polishes with the primal phase — no Phase-1-from-artificials. Any basis
// the repair path cannot certify (singular after import, a dual ray, a
// stalled repair) falls back to the cold two-phase solve, so the result is
// always as trustworthy as `solve`. See DESIGN.md §8.
//
// It is deliberately an independent implementation from DenseSimplexSolver;
// the test suite cross-checks the two on randomized models.
//
// Only lp::make_solver constructs it (the constructor is private), so every
// solver in the tree comes from the one factory; epoch re-solves go through
// core::EpochLpContext, which keeps warm-start basis reuse and iteration
// budgets in one place. tests/compile_fail/direct_solver_ctor.cpp proves a
// direct construction does not compile.
#pragma once

#include "lp/solver.hpp"

namespace lips::lp {

class RevisedSimplexSolver final : public LpSolver {
 public:
  [[nodiscard]] LpSolution solve(const LpModel& model) const override;
  [[nodiscard]] LpSolution solve_with_basis(const LpModel& model,
                                            const Basis& start) const override;

 private:
  friend std::unique_ptr<LpSolver> make_solver(SolverKind kind,
                                               const SolverOptions& options);
  explicit RevisedSimplexSolver(const SolverOptions& options)
      : options_(options) {}

  [[nodiscard]] LpSolution solve_impl(const LpModel& model,
                                      const Basis* start) const;

  SolverOptions options_;
};

}  // namespace lips::lp
