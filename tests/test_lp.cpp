// Unit and property tests for the LP substrate (src/lp).
//
// Every optimal answer of lp::solve is proved against its own model with
// lp::certify (the KKT conditions); small models are also checked against
// optima solved by hand, and random ones against points known feasible by
// construction. The certificate itself is tested on a hand-solved LP and
// on deliberately broken solutions, each of which must fail its own check.
//
// Every solve also carries a pivot-path pin (tests/pivot_pin.hpp): its
// pivot counts and a digest of the bits of its answer, recorded from the
// engine with dense pivot rows and dense inverse rows. An engine change
// meant to keep every pivot must leave each pin as it is.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "lp/model.hpp"
#include "lp/solver.hpp"
#include "lp/solver_faults.hpp"
#include "pivot_pin.hpp"

namespace lips::lp {
namespace {

using pins::ChainPin;
using pins::pin_of;
using pins::PivotPin;

std::vector<Entry> row(std::initializer_list<Entry> es) { return {es}; }

// -------------------------------------------------------------- builder ---

TEST(LpModel, AddVariableValidation) {
  LpModel m;
  EXPECT_EQ(m.add_variable(0, 1, 2.0), 0u);
  EXPECT_EQ(m.add_variable(-kInf, kInf, 0.0), 1u);
  EXPECT_EQ(m.num_variables(), 2u);
  EXPECT_THROW(m.add_variable(2, 1, 0.0), PreconditionError);
  EXPECT_THROW(m.add_variable(0, 1, kInf), PreconditionError);
  EXPECT_THROW(m.add_variable(kInf, kInf, 0.0), PreconditionError);
}

TEST(LpModel, ConstraintNormalization) {
  LpModel m;
  m.add_variable(0, kInf, 1.0);
  m.add_variable(0, kInf, 1.0);
  // Duplicated variable entries are merged; zero coefficients dropped.
  const auto es =
      row({{1, 2.0}, {0, 1.0}, {1, 3.0}, {0, -1.0}});
  m.add_constraint(es, Sense::LessEqual, 4.0);
  const Constraint& c = m.constraint(0);
  ASSERT_EQ(c.entries.size(), 1u);  // var 0 merged to 0 and dropped
  EXPECT_EQ(c.entries[0].var, 1u);
  EXPECT_DOUBLE_EQ(c.entries[0].coeff, 5.0);
}

TEST(LpModel, ConstraintValidation) {
  LpModel m;
  m.add_variable(0, 1, 0.0);
  const auto bad_var = row({{5, 1.0}});
  EXPECT_THROW(m.add_constraint(bad_var, Sense::Equal, 0.0), PreconditionError);
  const auto ok = row({{0, 1.0}});
  EXPECT_THROW(m.add_constraint(ok, Sense::Equal, kInf), PreconditionError);
}

TEST(LpModel, ObjectiveAndViolation) {
  LpModel m;
  m.add_variable(0, 10, 2.0);
  m.add_variable(0, 10, -1.0);
  m.add_constraint(row({{0, 1.0}, {1, 1.0}}), Sense::LessEqual, 5.0);
  const std::vector<double> x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(m.objective_value(x), 2.0);
  EXPECT_DOUBLE_EQ(m.max_violation(x), 2.0);  // 7 <= 5 violated by 2
  const std::vector<double> y{1.0, 2.0};
  EXPECT_DOUBLE_EQ(m.max_violation(y), 0.0);
}

// --------------------------------------------------- solver correctness ---

/// Passes when `s` is not optimal or its certificate holds; otherwise names
/// the failed check and prints every residual.
::testing::AssertionResult certified(const LpModel& m, const LpSolution& s) {
  if (!s.optimal()) return ::testing::AssertionSuccess();
  const Certificate cert = certify(m, s);
  if (cert.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "certificate failed: primal " << cert.primal << ", dual "
         << cert.dual << ", complementarity " << cert.complementarity
         << ", gap " << cert.gap;
}

/// lp::solve, with the certificate asserted on every optimal answer.
LpSolution solve_certified(const LpModel& m) {
  LpSolution s = solve(m);
  EXPECT_TRUE(certified(m, s));
  return s;
}

/// An injector that caps every solve's budget at one pivot.
SolverFaultInjector one_pivot_budget() {
  SolverFaultConfig cfg;
  cfg.budget_starvation_probability = 1.0;
  cfg.starved_iterations = 1;
  return SolverFaultInjector(cfg);
}

TEST(LpSolve, TextbookTwoVariable) {
  // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  → minimize negation.
  // Optimum x=2, y=6, objective -36.
  LpModel m;
  m.add_variable(0, kInf, -3.0, "x");
  m.add_variable(0, kInf, -5.0, "y");
  m.add_constraint(row({{0, 1.0}}), Sense::LessEqual, 4.0);
  m.add_constraint(row({{1, 2.0}}), Sense::LessEqual, 12.0);
  m.add_constraint(row({{0, 3.0}, {1, 2.0}}), Sense::LessEqual, 18.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{3, 0, false, 0x26a453063d7594b4ULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -36.0, 1e-6);
  EXPECT_NEAR(s.values[0], 2.0, 1e-6);
  EXPECT_NEAR(s.values[1], 6.0, 1e-6);
}

TEST(LpSolve, IterationBudgetExhaustionReturnsIterationLimit) {
  // The textbook model needs at least two pivots (both variables enter the
  // basis at the optimum). A budget starved to one iteration must come back
  // as IterationLimit cleanly — no hang, no assert — and the identical model
  // must still solve to optimality under the automatic budget.
  LpModel m;
  m.add_variable(0, kInf, -3.0, "x");
  m.add_variable(0, kInf, -5.0, "y");
  m.add_constraint(row({{0, 1.0}}), Sense::LessEqual, 4.0);
  m.add_constraint(row({{1, 2.0}}), Sense::LessEqual, 12.0);
  m.add_constraint(row({{0, 3.0}, {1, 2.0}}), Sense::LessEqual, 18.0);
  SolverFaultInjector starve = one_pivot_budget();
  const LpSolution limited = solve(m, nullptr, &starve);
  EXPECT_EQ(limited.status, SolveStatus::IterationLimit);
  EXPECT_FALSE(limited.optimal());
  EXPECT_EQ(pin_of(limited), (PivotPin{1, 0, false, 0x681157f59a650b24ULL}));
  const LpSolution full = solve_certified(m);
  ASSERT_TRUE(full.optimal());
  EXPECT_NEAR(full.objective, -36.0, 1e-6);
  EXPECT_EQ(pin_of(full), (PivotPin{3, 0, false, 0x26a453063d7594b4ULL}));
}

TEST(LpSolve, EqualityConstraints) {
  // min x+2y  s.t. x+y = 10, x-y = 2 → x=6, y=4, obj 14.
  LpModel m;
  m.add_variable(0, kInf, 1.0);
  m.add_variable(0, kInf, 2.0);
  m.add_constraint(row({{0, 1.0}, {1, 1.0}}), Sense::Equal, 10.0);
  m.add_constraint(row({{0, 1.0}, {1, -1.0}}), Sense::Equal, 2.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{2, 0, false, 0x3f8089e12e5f788bULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 14.0, 1e-6);
  EXPECT_NEAR(s.values[0], 6.0, 1e-6);
  EXPECT_NEAR(s.values[1], 4.0, 1e-6);
}

TEST(LpSolve, GreaterEqualConstraints) {
  // Diet-style: min 2x+3y s.t. x+y >= 4, x+3y >= 6 → x=3,y=1, obj 9.
  LpModel m;
  m.add_variable(0, kInf, 2.0);
  m.add_variable(0, kInf, 3.0);
  m.add_constraint(row({{0, 1.0}, {1, 1.0}}), Sense::GreaterEqual, 4.0);
  m.add_constraint(row({{0, 1.0}, {1, 3.0}}), Sense::GreaterEqual, 6.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{2, 0, false, 0xfac6799c7e480a8ULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 9.0, 1e-6);
}

TEST(LpSolve, UpperBoundedVariables) {
  // min -x-y s.t. x+y <= 1.5, 0<=x<=1, 0<=y<=1 → obj -1.5.
  LpModel m;
  m.add_variable(0, 1, -1.0);
  m.add_variable(0, 1, -1.0);
  m.add_constraint(row({{0, 1.0}, {1, 1.0}}), Sense::LessEqual, 1.5);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{2, 0, false, 0x9ca10bbce693b288ULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -1.5, 1e-6);
  EXPECT_LE(m.max_violation(s.values), 1e-6);
}

TEST(LpSolve, NonzeroLowerBounds) {
  // min x+y s.t. x+y >= 1, x >= 2, y >= 3 via bounds → obj 5.
  LpModel m;
  m.add_variable(2, kInf, 1.0);
  m.add_variable(3, kInf, 1.0);
  m.add_constraint(row({{0, 1.0}, {1, 1.0}}), Sense::GreaterEqual, 1.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{1, 0, false, 0xe454a3834a5c6f68ULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 5.0, 1e-6);
}

TEST(LpSolve, NegativeLowerBounds) {
  // min x s.t. x >= -5 (bound), x + y = 0, y <= 3 → x=-3 at optimum.
  LpModel m;
  m.add_variable(-5, kInf, 1.0);
  m.add_variable(-kInf, 3, 0.0);
  m.add_constraint(row({{0, 1.0}, {1, 1.0}}), Sense::Equal, 0.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{1, 0, false, 0x485c748b4d21c700ULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -3.0, 1e-6);
}

TEST(LpSolve, FreeVariable) {
  // min x + 2y, y free, x in [0,10], x + y >= 4, y >= x - 2 rewritten:
  //   -x + y >= -2. Optimum: y as small as possible on the segment...
  // Solve by hand: minimize x+2y over {x+y>=4, y>=x-2, 0<=x<=10}.
  // Corner candidates: intersection x+y=4 & y=x-2 → x=3,y=1 → obj 5.
  // x=10,y=-2+... check x=10: y>=8? from x+y>=4 y>=-6; from y>=x-2 y>=8 →
  // obj 10+16=26. x=0: y>=4 → obj 8. So optimum 5.
  LpModel m;
  m.add_variable(0, 10, 1.0);
  m.add_variable(-kInf, kInf, 2.0);
  m.add_constraint(row({{0, 1.0}, {1, 1.0}}), Sense::GreaterEqual, 4.0);
  m.add_constraint(row({{0, -1.0}, {1, 1.0}}), Sense::GreaterEqual, -2.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{2, 0, false, 0x3d83fb824c15904aULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 5.0, 1e-6);
}

TEST(LpSolve, InfeasibleDetected) {
  LpModel m;
  m.add_variable(0, 1, 1.0);
  m.add_constraint(row({{0, 1.0}}), Sense::GreaterEqual, 2.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
  EXPECT_EQ(pin_of(s), (PivotPin{1, 0, false, 0x5cfc9ca56ba79ea5ULL}));
}

TEST(LpSolve, InfeasibleEqualitySystem) {
  LpModel m;
  m.add_variable(0, kInf, 0.0);
  m.add_variable(0, kInf, 0.0);
  m.add_constraint(row({{0, 1.0}, {1, 1.0}}), Sense::Equal, 1.0);
  m.add_constraint(row({{0, 1.0}, {1, 1.0}}), Sense::Equal, 2.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
  EXPECT_EQ(pin_of(s), (PivotPin{1, 0, false, 0xad70efb85554bfe6ULL}));
}

TEST(LpSolve, UnboundedDetected) {
  LpModel m;
  m.add_variable(0, kInf, -1.0);
  m.add_constraint(row({{0, -1.0}}), Sense::LessEqual, 0.0);  // x >= 0, vacuous
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(s.status, SolveStatus::Unbounded);
  EXPECT_EQ(pin_of(s), (PivotPin{1, 0, false, 0x2d3836aa223187e6ULL}));
}

TEST(LpSolve, BoundsOnlyModel) {
  LpModel m;
  m.add_variable(1, 5, 3.0);   // wants lower → 1
  m.add_variable(1, 5, -2.0);  // wants upper → 5
  m.add_variable(-4, 9, 0.0);  // indifferent
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{0, 0, false, 0x641ca78a318e7cccULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[0], 1.0, 1e-9);
  EXPECT_NEAR(s.values[1], 5.0, 1e-9);
  EXPECT_NEAR(s.objective, -7.0, 1e-9);
}

TEST(LpSolve, BoundsOnlyUnbounded) {
  LpModel m;
  m.add_variable(0, kInf, -1.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(s.status, SolveStatus::Unbounded);
  EXPECT_EQ(pin_of(s), (PivotPin{0, 0, false, 0x2d3836aa223187e6ULL}));
}

TEST(LpSolve, DegenerateModelDoesNotCycle) {
  // Classic Beale cycling example (minimization form); anti-cycling must
  // terminate with the optimum -0.05.
  LpModel m;
  m.add_variable(0, kInf, -0.75);
  m.add_variable(0, kInf, 150.0);
  m.add_variable(0, kInf, -0.02);
  m.add_variable(0, kInf, 6.0);
  m.add_constraint(row({{0, 0.25}, {1, -60.0}, {2, -0.04}, {3, 9.0}}),
                   Sense::LessEqual, 0.0);
  m.add_constraint(row({{0, 0.5}, {1, -90.0}, {2, -0.02}, {3, 3.0}}),
                   Sense::LessEqual, 0.0);
  m.add_constraint(row({{2, 1.0}}), Sense::LessEqual, 1.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{5, 0, false, 0x64fe522066356cbULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -0.05, 1e-6);
}

TEST(LpSolve, RedundantConstraintsHandled) {
  LpModel m;
  m.add_variable(0, kInf, 1.0);
  m.add_variable(0, kInf, 1.0);
  // Same equality twice — phase 1 leaves a redundant basic artificial.
  m.add_constraint(row({{0, 1.0}, {1, 1.0}}), Sense::Equal, 4.0);
  m.add_constraint(row({{0, 1.0}, {1, 1.0}}), Sense::Equal, 4.0);
  m.add_constraint(row({{0, 2.0}, {1, 2.0}}), Sense::Equal, 8.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{1, 0, false, 0x540606bb4c17ad1bULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-6);
}

TEST(LpSolve, NegativeRhsRows) {
  // min x+y s.t. -x - y <= -4  (i.e. x+y >= 4).
  LpModel m;
  m.add_variable(0, kInf, 1.0);
  m.add_variable(0, kInf, 1.0);
  m.add_constraint(row({{0, -1.0}, {1, -1.0}}), Sense::LessEqual, -4.0);
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{1, 0, false, 0x8fca591b34a00b75ULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-6);
}

TEST(LpSolve, TransportationProblem) {
  // 2 supplies (10, 15) × 3 demands (8, 7, 10); costs:
  //   s0: 4 6 9 / s1: 5 3 8  → known optimum 4*8+6*2+3*7+8*8 = 32+12+21+64=129?
  // Checked below by feasibility, the certificate, and a known feasible
  // plan.
  LpModel m;
  const double cost[2][3] = {{4, 6, 9}, {5, 3, 8}};
  const double supply[2] = {10, 15};
  const double demand[3] = {8, 7, 10};
  std::size_t v[2][3];
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j) v[i][j] = m.add_variable(0, kInf, cost[i][j]);
  for (int i = 0; i < 2; ++i) {
    std::vector<Entry> es;
    for (int j = 0; j < 3; ++j) es.push_back({v[i][j], 1.0});
    m.add_constraint(es, Sense::LessEqual, supply[i]);
  }
  for (int j = 0; j < 3; ++j) {
    std::vector<Entry> es;
    for (int i = 0; i < 2; ++i) es.push_back({v[i][j], 1.0});
    m.add_constraint(es, Sense::GreaterEqual, demand[j]);
  }
  const LpSolution s = solve_certified(m);
  EXPECT_EQ(pin_of(s), (PivotPin{8, 0, false, 0x26adadbba6d45427ULL}));
  ASSERT_TRUE(s.optimal());
  EXPECT_LE(m.max_violation(s.values), 1e-6);
  // Feasible reference plan: x00=8, x02=2, x11=7, x12=8 → 32+18+21+64=135.
  EXPECT_LE(s.objective, 135.0 + 1e-6);
  // That plan is optimal: supply duals u = (0, −1) and demand duals
  // v = (4, 4, 9) leave both unused routes a reduced cost of 2 (6 − 0 − 4
  // and 5 + 1 − 4).
  EXPECT_NEAR(s.objective, 135.0, 1e-6);
}

// ------------------------------------------------------- property tests ---

// Random dense-ish LPs constructed to be feasible by design: pick a random
// point x0 in the box, then set each row's rhs so x0 satisfies it with
// slack. Every solve must be optimal, certified, and no worse than x0.
TEST(LpCrossCheck, RandomFeasibleBoundedModels) {
  Rng rng(2024);
  ChainPin chain;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.index(6);
    const std::size_t k = 1 + rng.index(6);
    LpModel m;
    std::vector<double> x0;
    for (std::size_t j = 0; j < n; ++j) {
      const double lo = rng.uniform(-5, 5);
      const double hi = lo + rng.uniform(0.1, 10);
      m.add_variable(lo, hi, rng.uniform(-3, 3));
      x0.push_back(rng.uniform(lo, hi));
    }
    for (std::size_t i = 0; i < k; ++i) {
      std::vector<Entry> es;
      double lhs = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.bernoulli(0.7)) {
          const double c = rng.uniform(-2, 2);
          es.push_back({j, c});
          lhs += c * x0[j];
        }
      }
      if (es.empty()) continue;
      const int sense = static_cast<int>(rng.index(3));
      if (sense == 0) {
        m.add_constraint(es, Sense::LessEqual, lhs + rng.uniform(0, 2));
      } else if (sense == 1) {
        m.add_constraint(es, Sense::GreaterEqual, lhs - rng.uniform(0, 2));
      } else {
        m.add_constraint(es, Sense::Equal, lhs);
      }
    }
    const LpSolution b = solve(m);
    ASSERT_TRUE(b.optimal()) << "trial " << trial;
    EXPECT_TRUE(certified(m, b)) << "trial " << trial;
    EXPECT_LE(b.objective, m.objective_value(x0) + 1e-9) << "trial " << trial;
    EXPECT_LE(m.max_violation(b.values), 1e-6) << "trial " << trial;
    chain.add(pin_of(b));
  }
  EXPECT_EQ(chain, (ChainPin{40, 210, 0, 0, 0xc9706b1e0e33d198ULL}));
}

// Models infeasible by construction are reported Infeasible.
TEST(LpCrossCheck, RandomInfeasibleModels) {
  Rng rng(777);
  ChainPin chain;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.index(4);
    LpModel m;
    for (std::size_t j = 0; j < n; ++j) m.add_variable(0, 1, rng.uniform(-1, 1));
    // Sum of all vars >= n + 1 is impossible within [0,1]^n.
    std::vector<Entry> es;
    for (std::size_t j = 0; j < n; ++j) es.push_back({j, 1.0});
    m.add_constraint(es, Sense::GreaterEqual, static_cast<double>(n) + 1.0);
    const LpSolution s = solve(m);
    EXPECT_EQ(s.status, SolveStatus::Infeasible);
    chain.add(pin_of(s));
  }
  EXPECT_EQ(chain, (ChainPin{20, 51, 0, 0, 0x1e1ce62688e31554ULL}));
}

// Weak-duality-style sanity: the optimum of a minimization can never exceed
// the objective at any feasible point we know (x0 from construction).
TEST(LpCrossCheck, OptimumDominatesKnownFeasiblePoint) {
  Rng rng(31337);
  ChainPin chain;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.index(8);
    LpModel m;
    std::vector<double> x0;
    for (std::size_t j = 0; j < n; ++j) {
      m.add_variable(0, 1, rng.uniform(-5, 5));
      x0.push_back(rng.uniform01());
    }
    for (std::size_t i = 0; i < 4; ++i) {
      std::vector<Entry> es;
      double lhs = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double c = rng.uniform(0, 2);
        es.push_back({j, c});
        lhs += c * x0[j];
      }
      m.add_constraint(es, Sense::LessEqual, lhs);
    }
    const LpSolution s = solve_certified(m);
    ASSERT_TRUE(s.optimal());
    EXPECT_LE(s.objective, m.objective_value(x0) + 1e-6);
    chain.add(pin_of(s));
  }
  EXPECT_EQ(chain, (ChainPin{30, 335, 0, 0, 0x7e080389428c80bcULL}));
}

// Scaling invariance: multiplying the objective by a positive scalar scales
// the optimum and preserves an optimal solution set member's feasibility.
TEST(LpCrossCheck, ObjectiveScalingInvariance) {
  Rng rng(99);
  LpModel m;
  LpModel m_scaled;
  const std::size_t n = 6;
  for (std::size_t j = 0; j < n; ++j) {
    const double c = rng.uniform(-2, 2);
    m.add_variable(0, 1, c);
    m_scaled.add_variable(0, 1, 7.5 * c);
  }
  std::vector<Entry> es;
  for (std::size_t j = 0; j < n; ++j) es.push_back({j, 1.0});
  m.add_constraint(es, Sense::LessEqual, 2.5);
  m_scaled.add_constraint(es, Sense::LessEqual, 2.5);
  const LpSolution a = solve_certified(m);
  const LpSolution b = solve_certified(m_scaled);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_NEAR(b.objective, 7.5 * a.objective, 1e-6);
  EXPECT_EQ(pin_of(a), (PivotPin{6, 0, false, 0x7429d9561cb7dfd9ULL}));
  EXPECT_EQ(pin_of(b), (PivotPin{6, 0, false, 0x34cf751dc632324bULL}));
}

// A cold solve long enough to cross the engine's periodic refactorization
// (every 1,024 iterations, bound flips included) more than once: boxed
// columns with mostly negative costs over budget rows that afford about
// half of them, so phase 2 mixes bound flips with real pivots. The pin
// covers the inverses rebuilt mid-solve and the duals read after them.
TEST(LpPivotPins, ColdSolveCrossesPeriodicRefactorization) {
  Rng rng(1024);
  const std::size_t n = 1500;
  const std::size_t k = 60;
  LpModel m;
  std::vector<std::vector<Entry>> rows(k);
  for (std::size_t j = 0; j < n; ++j) {
    m.add_variable(0, 1, rng.uniform(-3, 1));
    for (int t = 0; t < 3; ++t)
      rows[rng.index(k)].push_back({j, rng.uniform(0.5, 2)});
  }
  for (std::size_t i = 0; i < k; ++i) {
    double sum = 0.0;
    for (const Entry& e : rows[i]) sum += e.coeff;
    const bool floor_row = i % 4 == 0;
    m.add_constraint(rows[i], floor_row ? Sense::GreaterEqual : Sense::LessEqual,
                     (floor_row ? 0.2 : 0.5) * sum);
  }
  const LpSolution s = solve_certified(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_GT(s.iterations, 2048u);
  EXPECT_EQ(pin_of(s), (PivotPin{2976, 0, false, 0xfff5832dffd3485cULL}));
}

// Iteration-limit status is reported rather than looping forever.
TEST(LpSolve, IterationLimitReported) {
  SolverFaultInjector starve = one_pivot_budget();
  LpModel m;
  for (int j = 0; j < 10; ++j) m.add_variable(0, kInf, -1.0 - j);
  for (int i = 0; i < 10; ++i) {
    std::vector<Entry> es;
    for (int j = 0; j < 10; ++j)
      es.push_back({static_cast<std::size_t>(j), 1.0 + ((i + j) % 3)});
    m.add_constraint(es, Sense::LessEqual, 50.0);
  }
  EXPECT_EQ(solve(m, nullptr, &starve).status, SolveStatus::IterationLimit);
}

TEST(LpSolve, StatusNamesAreStable) {
  EXPECT_EQ(to_string(SolveStatus::Optimal), "optimal");
  EXPECT_EQ(to_string(SolveStatus::Infeasible), "infeasible");
  EXPECT_EQ(to_string(SolveStatus::Unbounded), "unbounded");
  EXPECT_EQ(to_string(SolveStatus::IterationLimit), "iteration-limit");
}

}  // namespace
}  // namespace lips::lp
// NOTE: appended duality tests live in their own namespace block below.

namespace lips::lp {
namespace {

// Strong duality and complementary slackness on random feasible models,
// read from the solver's own duals and reduced costs (the certificate
// recomputes the latter instead). For a bounded-variable LP,
//   c'x* = y'b + Σ_j d_j x*_j   (d_j the reduced cost; zero on basics),
// every nonzero dual implies a tight row, and every nonzero reduced cost
// implies the variable sits on the matching bound.
TEST(LpDuality, StrongDualityAndComplementarySlackness) {
  Rng rng(20260707);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 2 + rng.index(6);
    const std::size_t k = 1 + rng.index(5);
    LpModel m;
    std::vector<double> x0;
    for (std::size_t j = 0; j < n; ++j) {
      const double lo = rng.uniform(-4, 4);
      const double hi = lo + rng.uniform(0.5, 8);
      m.add_variable(lo, hi, rng.uniform(-3, 3));
      x0.push_back(rng.uniform(lo, hi));
    }
    for (std::size_t i = 0; i < k; ++i) {
      std::vector<Entry> es;
      double lhs = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double c = rng.uniform(-2, 2);
        es.push_back({j, c});
        lhs += c * x0[j];
      }
      const int sense = static_cast<int>(rng.index(3));
      if (sense == 0) {
        m.add_constraint(es, Sense::LessEqual, lhs + rng.uniform(0, 3));
      } else if (sense == 1) {
        m.add_constraint(es, Sense::GreaterEqual, lhs - rng.uniform(0, 3));
      } else {
        m.add_constraint(es, Sense::Equal, lhs);
      }
    }
    const LpSolution s = solve(m);
    ASSERT_TRUE(s.optimal()) << "trial " << trial;
    EXPECT_TRUE(certified(m, s)) << "trial " << trial;
    ASSERT_EQ(s.duals.size(), m.num_constraints());
    ASSERT_EQ(s.reduced_costs.size(), m.num_variables());

    // Strong duality identity.
    double dual_obj = 0.0;
    for (std::size_t i = 0; i < m.num_constraints(); ++i)
      dual_obj += s.duals[i] * m.constraint(i).rhs;
    for (std::size_t j = 0; j < n; ++j)
      dual_obj += s.reduced_costs[j] * s.values[j];
    EXPECT_NEAR(dual_obj, s.objective, 1e-5 * (1.0 + std::fabs(s.objective)))
        << "trial " << trial;

    // Dual sign conventions + slackness on rows.
    for (std::size_t i = 0; i < m.num_constraints(); ++i) {
      const Constraint& row = m.constraint(i);
      double lhs = 0.0;
      for (const Entry& e : row.entries) lhs += e.coeff * s.values[e.var];
      const double slack = row.rhs - lhs;
      if (row.sense == Sense::LessEqual) {
        EXPECT_LE(s.duals[i], 1e-6) << "trial " << trial << " row " << i;
        if (s.duals[i] < -1e-5) {
          EXPECT_NEAR(slack, 0.0, 1e-5) << "trial " << trial << " row " << i;
        }
      } else if (row.sense == Sense::GreaterEqual) {
        EXPECT_GE(s.duals[i], -1e-6) << "trial " << trial << " row " << i;
        if (s.duals[i] > 1e-5) {
          EXPECT_NEAR(slack, 0.0, 1e-5) << "trial " << trial << " row " << i;
        }
      }
    }

    // Reduced-cost slackness on variable bounds.
    for (std::size_t j = 0; j < n; ++j) {
      const Variable& v = m.variable(j);
      if (s.reduced_costs[j] > 1e-5) {
        EXPECT_NEAR(s.values[j], v.lower, 1e-5)
            << "trial " << trial << " var " << j;
      }
      if (s.reduced_costs[j] < -1e-5) {
        EXPECT_NEAR(s.values[j], v.upper, 1e-5)
            << "trial " << trial << " var " << j;
      }
    }
  }
}

// The shadow price of a machine-capacity row predicts the objective change
// of relaxing it — the textbook sensitivity use of duals, exercised on a
// tiny scheduling-shaped LP.
TEST(LpDuality, ShadowPricePredictsRelaxation) {
  // min 1·x0 + 5·x1  s.t. x0 + x1 >= 10 (demand), x0 <= 4 (cheap capacity).
  LpModel m;
  m.add_variable(0, kInf, 1.0);
  m.add_variable(0, kInf, 5.0);
  m.add_constraint(std::vector<Entry>{{0, 1.0}, {1, 1.0}},
                   Sense::GreaterEqual, 10.0);
  m.add_constraint(std::vector<Entry>{{0, 1.0}}, Sense::LessEqual, 4.0);
  const LpSolution s = solve_certified(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0 * 1 + 6.0 * 5, 1e-6);
  // Nondegenerate optimum, solved by hand: both variables are basic, so
  // their reduced costs vanish and y solves yᵀB = c_B: y0 + y1 = 1 and
  // y0 = 5. The demand row's dual is the marginal (dear) source's price, 5;
  // the capacity row's is −4: one more cheap unit saves 5 − 1.
  EXPECT_NEAR(s.duals[0], 5.0, 1e-6);
  EXPECT_NEAR(s.duals[1], -4.0, 1e-6);
  EXPECT_NEAR(s.reduced_costs[0], 0.0, 1e-6);
  EXPECT_NEAR(s.reduced_costs[1], 0.0, 1e-6);

  LpModel relaxed;
  relaxed.add_variable(0, kInf, 1.0);
  relaxed.add_variable(0, kInf, 5.0);
  relaxed.add_constraint(std::vector<Entry>{{0, 1.0}, {1, 1.0}},
                         Sense::GreaterEqual, 10.0);
  relaxed.add_constraint(std::vector<Entry>{{0, 1.0}}, Sense::LessEqual, 5.0);
  const LpSolution r = solve_certified(relaxed);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, s.objective + s.duals[1], 1e-6);
}

// ------------------------------------------------------- the certificate ---

/// The two-row LP of LpDuality.ShadowPricePredictsRelaxation,
///   min x0 + 5·x1  s.t.  x0 + x1 >= 10,  x0 <= 4,  x >= 0,
/// and, with `third_source`, a dearer third source x2 (cost 7) in the
/// demand row that the optimum leaves at its lower bound.
LpModel shadow_price_lp(bool third_source) {
  LpModel m;
  m.add_variable(0, kInf, 1.0);
  m.add_variable(0, kInf, 5.0);
  std::vector<Entry> demand{{0, 1.0}, {1, 1.0}};
  if (third_source) {
    m.add_variable(0, kInf, 7.0);
    demand.push_back({2, 1.0});
  }
  m.add_constraint(demand, Sense::GreaterEqual, 10.0);
  m.add_constraint(std::vector<Entry>{{0, 1.0}}, Sense::LessEqual, 4.0);
  return m;
}

/// Its optimum, solved by hand: x = (4, 6[, 0]), y = (5, −4), so
/// d = c − Aᵀy = (0, 0[, 2]) and cᵀx = 34 = bᵀy = 10·5 + 4·(−4).
LpSolution shadow_price_optimum(bool third_source) {
  LpSolution s;
  s.status = SolveStatus::Optimal;
  s.values = {4.0, 6.0};
  if (third_source) s.values.push_back(0.0);
  s.duals = {5.0, -4.0};
  s.objective = 34.0;
  return s;
}

TEST(LpCertificate, HandSolvedLpCertifies) {
  for (const bool third : {false, true}) {
    const LpModel m = shadow_price_lp(third);
    const Certificate cert = certify(m, shadow_price_optimum(third));
    EXPECT_TRUE(cert.ok()) << "third source " << third;
    // Small integers: every residual is exactly zero.
    EXPECT_EQ(cert.primal, 0.0);
    EXPECT_EQ(cert.dual, 0.0);
    EXPECT_EQ(cert.complementarity, 0.0);
    EXPECT_EQ(cert.gap, 0.0);
    // And the solver's own answer certifies.
    const LpSolution s = solve(m);
    ASSERT_TRUE(s.optimal());
    EXPECT_TRUE(certified(m, s));
    EXPECT_NEAR(s.objective, 34.0, 1e-9);
  }
}

TEST(LpCertificate, WrongSignDualFailsDualFeasibility) {
  // The capacity row is <=, so its dual must be <= 0.
  LpSolution s = shadow_price_optimum(true);
  s.duals[1] = 4.0;
  const Certificate cert = certify(shadow_price_lp(true), s);
  EXPECT_EQ(cert.failure(), Certificate::Check::DualFeasibility);
  EXPECT_LE(cert.primal, kTolerance);
}

TEST(LpCertificate, OffBoundValueWithNonzeroReducedCostFailsComplementarity) {
  // x2 (reduced cost 2) leaves its lower bound; x1 gives way so the demand
  // row stays tight and every other condition still holds.
  LpSolution s = shadow_price_optimum(true);
  s.values[2] = 0.5;
  s.values[1] = 5.5;
  const Certificate cert = certify(shadow_price_lp(true), s);
  EXPECT_EQ(cert.failure(), Certificate::Check::Complementarity);
  EXPECT_LE(cert.primal, kTolerance);
  EXPECT_LE(cert.dual, kTolerance);
  EXPECT_LE(cert.gap, kTolerance);
}

TEST(LpCertificate, RowViolatedByOneThousandthFailsPrimalFeasibility) {
  LpSolution s = shadow_price_optimum(true);
  s.values[1] -= 1e-3;  // x0 + x1 + x2 = 9.999 < 10
  const Certificate cert = certify(shadow_price_lp(true), s);
  EXPECT_EQ(cert.failure(), Certificate::Check::PrimalFeasibility);
}

TEST(LpCertificate, ShiftedObjectiveFailsDualityGap) {
  LpSolution s = shadow_price_optimum(true);
  s.objective += 1.0;
  const Certificate cert = certify(shadow_price_lp(true), s);
  EXPECT_EQ(cert.failure(), Certificate::Check::DualityGap);
  EXPECT_LE(cert.primal, kTolerance);
  EXPECT_LE(cert.dual, kTolerance);
  EXPECT_LE(cert.complementarity, kTolerance);
}

TEST(LpCertificate, NonFiniteValueFails) {
  LpSolution s = shadow_price_optimum(true);
  s.values[0] = std::nan("");
  EXPECT_FALSE(certify(shadow_price_lp(true), s).ok());
  s = shadow_price_optimum(true);
  s.duals[0] = std::nan("");
  EXPECT_FALSE(certify(shadow_price_lp(true), s).ok());
}

}  // namespace
}  // namespace lips::lp
