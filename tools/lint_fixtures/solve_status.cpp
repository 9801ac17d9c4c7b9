// Fixture for the unchecked-solve-status rule. Never compiled — only
// scanned by `lips_lint --self-test`, which demands that every finding
// matches a `lint-expect(<rule>)` marker on its line and that every marker
// fires. Positives use a solution's values without ever inspecting its
// status; negatives check .status or .optimal() first and must stay clean.
#include "lp/solver.hpp"

namespace fixture {

double bad_objective_unchecked(const lips::lp::LpModel& m) {
  lips::lp::LpSolution sol = lips::lp::solve(m);
  return sol.objective;  // lint-expect(unchecked-solve-status)
}

double bad_values_unchecked(const lips::lp::LpModel& m) {
  lips::lp::LpSolution raw = lips::lp::solve(m);
  return raw.values[0];  // lint-expect(unchecked-solve-status)
}

double good_status_compared(const lips::lp::LpModel& m) {
  lips::lp::LpSolution checked = lips::lp::solve(m);
  if (checked.status != lips::lp::SolveStatus::Optimal) return 0.0;
  return checked.objective;  // clean: .status inspected above
}

double good_optimal_called(const lips::lp::LpModel& m) {
  lips::lp::LpSolution guarded = lips::lp::solve(m);
  if (!guarded.optimal()) return 0.0;
  return guarded.values[0] + guarded.objective;  // clean: .optimal() guards
}

}  // namespace fixture
