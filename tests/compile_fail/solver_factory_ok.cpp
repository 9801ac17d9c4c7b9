// Control for direct_solver_ctor.cpp: the same headers, the solver built
// through lp::make_solver. It must compile, so the negative check fails on
// the private constructor and not on the headers or a missing symbol (the
// checks compile only and never link).
#include "lp/revised_simplex.hpp"

int main() {
  const auto solver = lips::lp::make_solver(
      lips::lp::SolverKind::RevisedSimplex, lips::lp::SolverOptions{});
  return solver != nullptr ? 0 : 1;
}
