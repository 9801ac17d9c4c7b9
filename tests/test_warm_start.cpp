// Warm-started incremental LP solving (DESIGN.md §8).
//
// Three layers under test:
//   * the automatic iteration budget formula (solver.hpp),
//   * lp::solve's basis export / import (round-trip determinism and
//     warm-vs-cold agreement under randomized model perturbations, including
//     Infeasible and explicit IterationLimit outcomes),
//   * core::EpochLpContext (in-place model deltas, structure-change rebuild
//     with basis remap, invalidation, and infeasibility handling).
//
// Pivot-path pins (tests/pivot_pin.hpp) cover warm chains under a seeded
// solver-fault storm and a drifting Table IV epoch sequence.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/epoch_lp_context.hpp"
#include "core/lp_models.hpp"
#include "lp/model.hpp"
#include "lp/solver.hpp"
#include "lp/solver_faults.hpp"
#include "pivot_pin.hpp"
#include "workload/workload.hpp"

namespace lips::lp {
namespace {

using pins::ChainPin;
using pins::pin_of;

// ------------------------------------------- automatic iteration budget ---

// Satellite fix for `max_iterations == 0`: the budget scales with model size
// cold and with the observed infeasibility delta warm. Pins the formula:
//   cold(m, n)        = 500 + 60 * (m + n)
//   warm(m, n, delta) = min(200 + 10 * m + 50 * delta, cold(m, n))
TEST(AutomaticIterationBudget, PinsFormula) {
  EXPECT_EQ(automatic_iteration_budget(0, 0), 500u);
  EXPECT_EQ(automatic_iteration_budget(10, 30), 500u + 60u * 40u);
  EXPECT_EQ(automatic_iteration_budget(100, 400), 500u + 60u * 500u);

  // Warm budgets grow with the delta, not the model.
  EXPECT_EQ(automatic_iteration_budget(10, 30, 0u), 200u + 10u * 10u);
  EXPECT_EQ(automatic_iteration_budget(10, 30, 4u),
            200u + 10u * 10u + 50u * 4u);
  EXPECT_EQ(automatic_iteration_budget(1000, 30, 7u),
            200u + 10u * 1000u + 50u * 7u);

  // ... but are always capped by the cold budget.
  EXPECT_EQ(automatic_iteration_budget(10, 30, 1000000u),
            automatic_iteration_budget(10, 30));
  for (std::size_t delta = 0; delta < 200; delta += 13)
    EXPECT_LE(automatic_iteration_budget(5, 5, delta),
              automatic_iteration_budget(5, 5));
}

// -------------------------------------------------- basis import/export ---

/// Random feasible-by-construction boxed model (the test_lp idiom): pick x0
/// inside the box, then give every row enough slack to hold x0.
LpModel random_feasible_model(Rng& rng, std::size_t n, std::size_t k) {
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
      if (!rng.bernoulli(0.8)) continue;
      const double c = rng.uniform(-2, 2);
      es.push_back({j, c});
      lhs += c * x0[j];
    }
    if (es.empty()) es.push_back({0, 1.0}), lhs = x0[0];
    const int sense = static_cast<int>(rng.index(3));
    if (sense == 0) {
      m.add_constraint(es, Sense::LessEqual, lhs + rng.uniform(0, 3));
    } else if (sense == 1) {
      m.add_constraint(es, Sense::GreaterEqual, lhs - rng.uniform(0, 3));
    } else {
      m.add_constraint(es, Sense::Equal, lhs);
    }
  }
  return m;
}

// An exported basis fed straight back into the same model must (a) be
// accepted, (b) need zero repair pivots, and (c) export bit-identically —
// and the whole export is deterministic across repeated cold solves.
TEST(BasisRoundTrip, BitIdenticalAndDeterministic) {
  Rng rng(460901);
  for (int trial = 0; trial < 20; ++trial) {
    const LpModel m =
        random_feasible_model(rng, 3 + rng.index(6), 2 + rng.index(5));
    const LpSolution cold = solve(m);
    ASSERT_TRUE(cold.optimal()) << "trial " << trial;
    ASSERT_EQ(cold.basis.variables.size(), m.num_variables());
    ASSERT_EQ(cold.basis.slacks.size(), m.num_constraints());

    // Determinism: an identical cold solve exports an identical basis.
    const LpSolution again = solve(m);
    EXPECT_EQ(again.basis, cold.basis) << "trial " << trial;

    // Round trip: warm solve from the optimal basis is a no-op.
    const LpSolution warm = solve(m, {}, &cold.basis);
    ASSERT_TRUE(warm.optimal()) << "trial " << trial;
    EXPECT_TRUE(warm.warm_start_attempted);
    EXPECT_TRUE(warm.warm_start_used) << "trial " << trial;
    EXPECT_EQ(warm.repair_iterations, 0u) << "trial " << trial;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-9 * (1.0 + std::fabs(cold.objective)));
    EXPECT_EQ(warm.basis, cold.basis) << "trial " << trial;
  }
}

// Randomized epoch-style perturbations: RHS drift, objective drift, bound
// tightening. The warm solve (old basis) must agree with a cold solve of the
// perturbed model in status — Optimal *and* Infeasible — and in objective.
TEST(WarmStart, MatchesColdUnderRandomPerturbation) {
  Rng rng(20260805);
  int optimal_seen = 0, infeasible_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    LpModel m =
        random_feasible_model(rng, 3 + rng.index(6), 2 + rng.index(5));
    const LpSolution base = solve(m);
    ASSERT_TRUE(base.optimal()) << "trial " << trial;

    // Perturb in place — exactly the delta kinds EpochLpContext applies.
    for (std::size_t i = 0; i < m.num_constraints(); ++i) {
      if (!rng.bernoulli(0.5)) continue;
      m.set_rhs(i, m.constraint(i).rhs + rng.uniform(-1.5, 1.5));
    }
    for (std::size_t j = 0; j < m.num_variables(); ++j) {
      if (rng.bernoulli(0.4))
        m.set_objective(j, m.variable(j).objective + rng.uniform(-1, 1));
      if (rng.bernoulli(0.25)) {
        const Variable& v = m.variable(j);
        const double mid = 0.5 * (v.lower + v.upper);
        m.set_bounds(j, v.lower + rng.uniform01() * (mid - v.lower),
                     v.upper - rng.uniform01() * (v.upper - mid));
      }
    }

    const LpSolution cold = solve(m);
    const LpSolution warm = solve(m, {}, &base.basis);
    EXPECT_TRUE(warm.warm_start_attempted) << "trial " << trial;
    ASSERT_EQ(warm.status, cold.status)
        << "trial " << trial << ": warm " << to_string(warm.status)
        << " vs cold " << to_string(cold.status);
    if (cold.optimal()) {
      ++optimal_seen;
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-6 * (1.0 + std::fabs(cold.objective)))
          << "trial " << trial;
      EXPECT_LE(m.max_violation(warm.values), 1e-6) << "trial " << trial;
    } else {
      ++infeasible_seen;
      EXPECT_EQ(cold.status, SolveStatus::Infeasible) << "trial " << trial;
    }
  }
  // The suite must actually exercise both outcomes.
  EXPECT_GE(optimal_seen, 10);
  EXPECT_GE(infeasible_seen, 5);
}

// A perturbation that makes the model infeasible by construction: the warm
// solve must report Infeasible, not repair its way into nonsense.
TEST(WarmStart, ReportsInfeasibilityFromStaleBasis) {
  LpModel m;
  for (int j = 0; j < 4; ++j) m.add_variable(0.0, 1.0, 1.0 + j);
  std::vector<Entry> es;
  for (std::size_t j = 0; j < 4; ++j) es.push_back({j, 1.0});
  m.add_constraint(es, Sense::GreaterEqual, 2.0);
  const LpSolution base = solve(m);
  ASSERT_TRUE(base.optimal());

  m.set_rhs(0, 5.0);  // sum of four [0,1] vars can never reach 5
  const LpSolution cold = solve(m);
  const LpSolution warm = solve(m, {}, &base.basis);
  EXPECT_EQ(cold.status, SolveStatus::Infeasible);
  EXPECT_EQ(warm.status, SolveStatus::Infeasible);
}

// An *explicit* iteration budget is honored on the warm path — the solver
// must report IterationLimit rather than silently granting itself the cold
// budget (which only the automatic mode may do).
TEST(WarmStart, ExplicitIterationLimitHonored) {
  LpModel m;
  const std::size_t n = 8;
  for (std::size_t j = 0; j < n; ++j) m.add_variable(0.0, 1.0, -1.0);
  std::vector<Entry> es;
  for (std::size_t j = 0; j < n; ++j) es.push_back({j, 1.0});
  m.add_constraint(es, Sense::LessEqual, static_cast<double>(n) - 1.0);
  const LpSolution base = solve(m);
  ASSERT_TRUE(base.optimal());

  // Collapse the capacity so every at-upper column must be walked back.
  m.set_rhs(0, 0.5);
  SolverOptions tight;
  tight.max_iterations = 1;
  const LpSolution warm = solve(m, tight, &base.basis);
  EXPECT_EQ(warm.status, SolveStatus::IterationLimit);
  // With an automatic budget the same warm solve completes.
  const LpSolution ok = solve(m, {}, &base.basis);
  ASSERT_TRUE(ok.optimal());
  EXPECT_NEAR(ok.objective, solve(m).objective, 1e-9);
}

// Pivot-path pins under a seeded solver-fault storm: chains of warm-started
// re-solves of drifting models, with NaN costs and right-hand sides,
// refactorizations forced to fail (the warm import and the final refresh)
// and corrupted warm bases. A NaN cost on a basic column must still poison
// every dual, as the dense y = c_B·B⁻¹ does. A NaN right-hand side can
// also trip the engine's phase-1 invariant (the degradation ladder catches
// that throw); the chain pins where it happens.
TEST(LpPivotPins, WarmChainsUnderSolverFaultStorm) {
  SolverFaultConfig cfg;
  cfg.nan_probability = 0.3;
  cfg.refactor_failure_probability = 0.2;
  cfg.basis_corruption_probability = 0.4;
  cfg.seed = 24;
  SolverFaultInjector chaos(cfg);
  SolverOptions options;
  options.fault_injector = &chaos;
  Rng rng(240601);
  ChainPin chain;
  std::size_t throws = 0;
  for (int trial = 0; trial < 25; ++trial) {
    LpModel m =
        random_feasible_model(rng, 4 + rng.index(10), 3 + rng.index(7));
    Basis basis;
    for (int epoch = 0; epoch < 4; ++epoch) {
      try {
        const LpSolution s =
            solve(m, options, basis.empty() ? nullptr : &basis);
        chain.add(pin_of(s));
        if (s.optimal()) basis = s.basis;
      } catch (const InternalError&) {
        chain.add(pins::PivotPin{});
        ++throws;
      }
      for (std::size_t i = 0; i < m.num_constraints(); ++i) {
        if (rng.bernoulli(0.5))
          m.set_rhs(i, m.constraint(i).rhs + rng.uniform(-1, 1));
      }
      for (std::size_t j = 0; j < m.num_variables(); ++j) {
        if (rng.bernoulli(0.4))
          m.set_objective(j, m.variable(j).objective + rng.uniform(-1, 1));
      }
    }
  }
  const SolverFaultInjector::Stats& st = chaos.stats();
  EXPECT_GT(st.objective_nans, 0u);
  EXPECT_GT(st.rhs_nans, 0u);
  EXPECT_GT(st.refactor_failures, 0u);
  EXPECT_GT(st.bases_corrupted, 0u);
  EXPECT_EQ(throws, 2u);
  EXPECT_EQ(chain, (ChainPin{100, 659, 27, 43, 0xfca4a1930531dc9bULL}));
}

}  // namespace
}  // namespace lips::lp

// =================================================== core::EpochLpContext ==

namespace lips::core {
namespace {

struct Scenario {
  cluster::Cluster cluster;
  workload::Workload workload;
};

Scenario make_scenario(unsigned seed, std::size_t tasks = 60) {
  Scenario s{cluster::make_ec2_cluster(6, 0.5, 3), {}};
  Rng rng(seed);
  workload::RandomWorkloadParams p;
  p.n_tasks = tasks;
  s.workload = workload::make_random_workload(p, s.cluster, rng);
  return s;
}

/// The online options the policy uses: epoch horizon + fake node.
ModelOptions online_options(const Scenario& s, std::size_t epoch) {
  ModelOptions opt;
  opt.epoch_s = 600.0;
  opt.fake_node = true;
  opt.price_time = 600.0 * static_cast<double>(epoch);
  std::vector<double> factors(s.cluster.machine_count());
  for (std::size_t m = 0; m < factors.size(); ++m)
    factors[m] = 1.0 - 0.05 * static_cast<double>((epoch + m) % 3);
  opt.machine_throughput_factor = std::move(factors);
  return opt;
}

std::vector<double> remaining_at(const Scenario& s, std::size_t epoch) {
  std::vector<double> remaining(s.workload.job_count());
  for (std::size_t k = 0; k < remaining.size(); ++k)
    remaining[k] =
        std::max(0.1, 1.0 - 0.15 * static_cast<double>(epoch * (k % 3 + 1)));
  return remaining;
}

// The delta path (in-place numeric update + warm basis) must reproduce the
// one-shot solve_co_scheduling result across a multi-epoch drift.
TEST(EpochLpContext, DeltaPathMatchesColdAcrossEpochs) {
  const Scenario s = make_scenario(31);
  EpochLpContext ctx;
  for (std::size_t epoch = 0; epoch < 5; ++epoch) {
    const ModelOptions opt = online_options(s, epoch);
    const std::vector<double> remaining = remaining_at(s, epoch);
    const LpSchedule cold =
        solve_co_scheduling(s.cluster, s.workload, opt, {}, remaining);
    const LpSchedule inc = ctx.solve(s.cluster, s.workload, opt, {}, remaining);
    ASSERT_EQ(inc.status, cold.status) << "epoch " << epoch;
    ASSERT_TRUE(inc.optimal()) << "epoch " << epoch;
    EXPECT_NEAR(inc.objective_mc.mc(), cold.objective_mc.mc(),
                1e-5 * (1.0 + cold.objective_mc.mc()))
        << "epoch " << epoch;
    if (epoch == 0) {
      EXPECT_FALSE(inc.model_reused);
      EXPECT_FALSE(inc.warm_start_used);
    } else {
      EXPECT_TRUE(inc.model_reused) << "epoch " << epoch;
      EXPECT_TRUE(inc.warm_start_used) << "epoch " << epoch;
      // A warm re-solve needs far fewer pivots than the cold reference.
      EXPECT_LE(inc.lp_iterations, cold.lp_iterations) << "epoch " << epoch;
    }
  }
  const EpochLpContext::Stats& st = ctx.stats();
  EXPECT_EQ(st.solves, 5u);
  EXPECT_EQ(st.builds, 1u);
  EXPECT_EQ(st.model_reuses, 4u);
  EXPECT_EQ(st.warm_solves, 4u);
  EXPECT_EQ(st.cold_fallbacks, 0u);
}

// Changing the job subset changes the model structure: the context must
// rebuild (not corrupt the cached model) and still produce the cold answer,
// warm-starting from the remapped basis where possible.
TEST(EpochLpContext, StructureChangeRebuildsAndRemaps) {
  const Scenario s = make_scenario(32);
  ASSERT_GE(s.workload.job_count(), 3u);
  JobSubset all;
  for (std::size_t k = 0; k < s.workload.job_count(); ++k)
    all.push_back(JobId{k});
  JobSubset fewer(all.begin(), all.end() - 1);  // one job "completes"

  EpochLpContext ctx;
  const ModelOptions opt = online_options(s, 1);
  const LpSchedule a = ctx.solve(s.cluster, s.workload, opt, all);
  ASSERT_TRUE(a.optimal());
  const LpSchedule b = ctx.solve(s.cluster, s.workload, opt, fewer);
  ASSERT_TRUE(b.optimal());
  const LpSchedule cold = solve_co_scheduling(s.cluster, s.workload, opt, fewer);
  EXPECT_NEAR(b.objective_mc.mc(), cold.objective_mc.mc(),
              1e-5 * (1.0 + cold.objective_mc.mc()));
  EXPECT_FALSE(b.model_reused);  // structure changed → rebuilt
  EXPECT_EQ(ctx.stats().builds, 2u);
  // The remapped basis keeps the surviving jobs' columns, so the re-solve
  // still warm-starts.
  EXPECT_TRUE(b.warm_start_used);

  // And the job coming *back* is another structure change, not a crash.
  const LpSchedule c = ctx.solve(s.cluster, s.workload, opt, all);
  ASSERT_TRUE(c.optimal());
  EXPECT_NEAR(c.objective_mc.mc(), a.objective_mc.mc(),
              1e-5 * (1.0 + a.objective_mc.mc()));
}

// Infeasible epochs (every machine excluded, no fake node to defer onto)
// must come back Infeasible and must not poison the cached basis: the next
// feasible epoch solves fine.
TEST(EpochLpContext, InfeasibleEpochDoesNotPoisonContext) {
  const Scenario s = make_scenario(33);
  EpochLpContext ctx;
  ModelOptions opt;
  opt.epoch_s = 600.0;
  opt.fake_node = false;

  const LpSchedule ok = ctx.solve(s.cluster, s.workload, opt);
  ASSERT_TRUE(ok.optimal());

  ModelOptions dead = opt;
  for (std::size_t m = 0; m < s.cluster.machine_count(); ++m)
    dead.excluded_machines.push_back(m);
  const LpSchedule bad = ctx.solve(s.cluster, s.workload, dead);
  EXPECT_EQ(bad.status, lp::SolveStatus::Infeasible);

  const LpSchedule ok2 = ctx.solve(s.cluster, s.workload, opt);
  ASSERT_TRUE(ok2.optimal());
  EXPECT_NEAR(ok2.objective_mc.mc(), ok.objective_mc.mc(),
              1e-5 * (1.0 + ok.objective_mc.mc()));
}

// Pivot-path pins of a warm-started epoch sequence on the Table IV world:
// spot prices step every epoch, machines report drifting throughput, jobs
// complete work, and the last job arrives at epoch 3 (a rebuild whose basis
// is remapped). Every epoch is pinned, the cold epoch 0 included.
TEST(EpochLpContext, PivotPinsAcrossDriftingTableFourEpochs) {
  cluster::Cluster c = cluster::make_ec2_cluster(6, 0.5, 1);
  for (std::size_t l = 0; l < c.machine_count(); ++l) {
    std::vector<cluster::PricePoint> schedule;
    for (std::size_t e = 1; e < 6; ++e)
      schedule.push_back({600.0 * static_cast<double>(e),
                          UsdPerCpuSec::mc_per_ecu_s(
                              0.5 + 0.25 * static_cast<double>((l + e) % 4))});
    c.set_price_schedule(MachineId{l}, std::move(schedule));
  }
  Rng rng(4);
  const workload::Workload w = workload::make_table4_workload(c, rng);
  const Scenario s{c, w};
  JobSubset all;
  for (std::size_t k = 0; k < w.job_count(); ++k) all.push_back(JobId{k});
  const JobSubset early(all.begin(), all.end() - 1);

  EpochLpContext ctx;
  pins::ChainPin chain;
  for (std::size_t epoch = 0; epoch < 6; ++epoch) {
    const JobSubset& jobs = epoch < 3 ? early : all;
    std::vector<double> remaining = remaining_at(s, epoch);
    remaining.resize(jobs.size());  // the subsets are prefixes of the jobs
    const LpSchedule plan =
        ctx.solve(c, w, online_options(s, epoch), jobs, remaining);
    ASSERT_TRUE(plan.optimal()) << "epoch " << epoch;
    EXPECT_TRUE(plan.certified) << "epoch " << epoch;
    chain.add(pins::pin_of(plan));
  }
  EXPECT_EQ(ctx.stats().builds, 2u);
  EXPECT_EQ(ctx.stats().warm_solves, 4u);
  EXPECT_EQ(chain, (pins::ChainPin{6, 449, 22, 4, 0x195546646dfde9c6ULL}));
}

// invalidate() forgets the cached model and basis.
TEST(EpochLpContext, InvalidateForcesColdRebuild) {
  const Scenario s = make_scenario(34);
  EpochLpContext ctx;
  const ModelOptions opt = online_options(s, 0);
  ASSERT_TRUE(ctx.solve(s.cluster, s.workload, opt).optimal());
  ctx.invalidate();
  const LpSchedule again = ctx.solve(s.cluster, s.workload, opt);
  ASSERT_TRUE(again.optimal());
  EXPECT_FALSE(again.model_reused);
  EXPECT_FALSE(again.warm_start_used);
  EXPECT_EQ(ctx.stats().builds, 2u);
}

// Candidate pruning makes the column set depend on prices/origins, so the
// delta path must refuse to reuse the cached skeleton (correctness first).
TEST(EpochLpContext, PrunedModelsNeverReuseSkeleton) {
  const Scenario s = make_scenario(35);
  EpochLpContext ctx;
  for (std::size_t epoch = 0; epoch < 3; ++epoch) {
    ModelOptions opt = online_options(s, epoch);
    opt.max_candidate_machines = 3;
    opt.max_candidate_stores = 3;
    const LpSchedule inc =
        ctx.solve(s.cluster, s.workload, opt, {}, remaining_at(s, epoch));
    const LpSchedule cold = solve_co_scheduling(s.cluster, s.workload, opt, {},
                                                remaining_at(s, epoch));
    ASSERT_EQ(inc.status, cold.status) << "epoch " << epoch;
    EXPECT_FALSE(inc.model_reused) << "epoch " << epoch;
    if (inc.optimal() && cold.optimal()) {
      EXPECT_NEAR(inc.objective_mc.mc(), cold.objective_mc.mc(),
                  1e-5 * (1.0 + cold.objective_mc.mc()))
          << "epoch " << epoch;
    }
  }
  EXPECT_EQ(ctx.stats().model_reuses, 0u);
}

}  // namespace
}  // namespace lips::core
