// MUST NOT COMPILE: the revised simplex solver is constructed only by
// lp::make_solver (its constructor is private). Verified, compile-only, by
// the negative check in tests/CMakeLists.txt; solver_factory_ok.cpp is the
// control that compiles the same headers through the factory.
#include "lp/revised_simplex.hpp"

int main() {
  const lips::lp::RevisedSimplexSolver solver(lips::lp::SolverOptions{});
  (void)solver;
  return 0;
}
