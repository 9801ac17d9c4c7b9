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
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/digest.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/epoch_lp_context.hpp"
#include "core/lp_models.hpp"
#include "lp/model.hpp"
#include "lp/solver.hpp"
#include "lp/solver_faults.hpp"
#include "pivot_pin.hpp"
#include "workload/swim.hpp"
#include "workload/workload.hpp"

namespace lips::lp {
namespace {

using pins::ChainPin;
using pins::pin_of;

// ------------------------------------------- automatic iteration budget ---

// The budget of every solve scales with model size cold and with the
// observed infeasibility delta warm. Pins the formula:
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
    const LpSolution warm = solve(m, &cold.basis);
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
    const LpSolution warm = solve(m, &base.basis);
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
  const LpSolution warm = solve(m, &base.basis);
  EXPECT_EQ(cold.status, SolveStatus::Infeasible);
  EXPECT_EQ(warm.status, SolveStatus::Infeasible);
}

// Pivot-path pins under a seeded solver-fault storm: chains of warm-started
// re-solves of drifting models, with NaN costs and right-hand sides,
// refactorizations forced to fail (the warm import and the final refresh)
// and corrupted warm bases. A NaN cost on a basic column must still poison
// every dual, as the dense y = c_B·B⁻¹ does. A NaN right-hand side that
// leaves phase 1 unbounded ends the solve Infeasible, never in a throw.
TEST(LpPivotPins, WarmChainsUnderSolverFaultStorm) {
  SolverFaultConfig cfg;
  cfg.nan_probability = 0.3;
  cfg.refactor_failure_probability = 0.2;
  cfg.basis_corruption_probability = 0.4;
  cfg.seed = 24;
  SolverFaultInjector chaos(cfg);
  Rng rng(240601);
  ChainPin chain;
  for (int trial = 0; trial < 25; ++trial) {
    LpModel m =
        random_feasible_model(rng, 4 + rng.index(10), 3 + rng.index(7));
    Basis basis;
    for (int epoch = 0; epoch < 4; ++epoch) {
      const LpSolution s = solve(m, basis.empty() ? nullptr : &basis, &chaos);
      chain.add(pin_of(s));
      if (s.optimal()) basis = s.basis;
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
  EXPECT_EQ(chain, (ChainPin{100, 679, 27, 43, 0x8dc4de0e13c4ba68ULL}));
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
}

/// `model`'s bytes: every bound, cost, coefficient, sense, rhs and name, in
/// the layout the pins below were recorded in.
std::vector<std::uint8_t> model_bytes(const lp::LpModel& model) {
  ckpt::Writer w;
  w.size(model.num_variables());
  for (const lp::Variable& v : model.variables())
    w(v.lower, v.upper, v.objective, v.name);
  w.size(model.num_constraints());
  for (const lp::Constraint& row : model.constraints()) {
    w.size(row.entries.size());
    for (const lp::Entry& e : row.entries) w(e.var, e.coeff);
    w.u8(static_cast<std::uint8_t>(row.sense));
    w(row.rhs, row.name);
  }
  return w.take();
}

// The delta path's premise: updating the cached model in place gives the
// very model a cold build of that epoch gives, byte for byte, under both
// fake-node pricings. Prices, throughput factors and remaining fractions
// drift every epoch.
TEST(EpochLpContext, InPlaceUpdateIsTheColdBuild) {
  using Pricing = ModelOptions::FakeNodePricing;
  for (unsigned seed = 31; seed <= 35; ++seed) {
    const Scenario s = make_scenario(seed);
    for (const Pricing pricing :
         {Pricing::ProhibitiveMax, Pricing::PatienceMin}) {
      const auto options_at = [&](std::size_t epoch) {
        ModelOptions opt = online_options(s, epoch);
        opt.fake_node_pricing = pricing;
        if (pricing == Pricing::PatienceMin)
          opt.fake_node_price_factor = 1.25;  // LipsPolicy's default
        return opt;
      };
      lp::LpModel cached;
      detail::ModelLayout layout;
      detail::ModelBuilder(s.cluster, s.workload, options_at(0), {},
                           remaining_at(s, 0))
          .build(nullptr, cached, layout);
      for (std::size_t epoch = 1; epoch <= 5; ++epoch) {
        const detail::ModelBuilder builder(s.cluster, s.workload,
                                           options_at(epoch), {},
                                           remaining_at(s, epoch));
        builder.apply_numeric(cached, layout);
        lp::LpModel cold;
        detail::ModelLayout cold_layout;
        builder.build(nullptr, cold, cold_layout);
        EXPECT_EQ(model_bytes(cached), model_bytes(cold))
            << "seed " << seed << ", epoch " << epoch << ", pricing "
            << static_cast<int>(pricing);
      }
    }
  }
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

// A context restored from a snapshot has no model, so its first solve
// builds one. Where the live context updates its model in place, the
// restored one must reach the same answer from the same basis and count a
// model reuse; where the structure changed, both remap and count a build.
TEST(EpochLpContext, RestoredContextSolvesAndCountsAsTheLiveOne) {
  const Scenario s = make_scenario(36);
  JobSubset all;
  for (std::size_t k = 0; k < s.workload.job_count(); ++k)
    all.push_back(JobId{k});
  const JobSubset fewer(all.begin(), all.end() - 1);
  for (const bool job_leaves : {false, true}) {
    const JobSubset& next = job_leaves ? fewer : all;
    EpochLpContext live;
    for (std::size_t epoch = 0; epoch < 2; ++epoch)
      ASSERT_TRUE(live.solve(s.cluster, s.workload, online_options(s, epoch),
                             all, remaining_at(s, epoch))
                      .optimal());
    ckpt::Writer w;
    live.save_state(w);
    EpochLpContext restored;
    ckpt::Reader r(w.buffer());
    restored.load_state(r);
    for (std::size_t epoch = 2; epoch < 4; ++epoch) {
      const ModelOptions opt = online_options(s, epoch);
      std::vector<double> remaining = remaining_at(s, epoch);
      remaining.resize(next.size());  // the subsets are prefixes of the jobs
      const LpSchedule a =
          live.solve(s.cluster, s.workload, opt, next, remaining);
      const LpSchedule b =
          restored.solve(s.cluster, s.workload, opt, next, remaining);
      ASSERT_TRUE(a.optimal()) << "epoch " << epoch;
      EXPECT_EQ(pins::pin_of(b), pins::pin_of(a)) << "epoch " << epoch;
      EXPECT_EQ(a.model_reused, !job_leaves || epoch == 3) << "epoch " << epoch;
      EXPECT_EQ(b.model_reused, a.model_reused) << "epoch " << epoch;
    }
    const EpochLpContext::Stats& want = live.stats();
    const EpochLpContext::Stats& got = restored.stats();
    EXPECT_EQ(got.solves, want.solves);
    EXPECT_EQ(got.builds, want.builds);
    EXPECT_EQ(got.model_reuses, want.model_reuses);
    EXPECT_EQ(got.warm_solves, want.warm_solves);
    EXPECT_EQ(got.pivots, want.pivots);
    EXPECT_EQ(got.repair_pivots, want.repair_pivots);
  }
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


// ------------------------------------------- model build and remap pins ---

/// Digest of a built model: its model_bytes, then every column and row
/// identity its layout records. Equal digests mean the same model, column
/// for column and row for row.
std::uint64_t build_digest(const lp::LpModel& model,
                           const detail::ModelLayout& layout) {
  ckpt::Fnv1a64 h;
  const std::vector<std::uint8_t> bytes = model_bytes(model);
  h.u64(bytes.size());
  h.bytes(bytes.data(), bytes.size());
  h.u64(layout.dvars.size());
  for (const detail::DataVar& dv : layout.dvars) {
    h.u64(dv.lp_var);
    h.u64(dv.data.value());
    h.u64(dv.store.value());
  }
  h.u64(layout.tvars.size());
  for (const detail::TaskVar& tv : layout.tvars) {
    h.u64(tv.lp_var);
    h.u64(tv.job.value());
    h.u64(tv.machine);
    h.u64(tv.store ? tv.store->value() + 1 : 0);
  }
  h.u64(layout.tvars_of_job.size());
  for (const std::vector<std::size_t>& ids : layout.tvars_of_job) {
    h.u64(ids.size());
    for (const std::size_t t : ids) h.u64(t);
  }
  h.u64(layout.rows.size());
  for (const detail::RowKey& rk : layout.rows) {
    h.u64(static_cast<std::uint64_t>(rk.kind));
    h.u64(rk.a);
    h.u64(rk.b);
    h.u64(rk.c);
  }
  h.u64(layout.num_variables);
  return h.digest();
}

std::uint64_t build_digest_of(const detail::ModelBuilder& builder,
                              const FixedPlacement* fixed = nullptr) {
  lp::LpModel model;
  detail::ModelLayout layout;
  builder.build(fixed, model, layout);
  return build_digest(model, layout);
}

/// Gives every machine a spot-price schedule that steps every 600 s.
void add_spot_prices(cluster::Cluster& c) {
  for (std::size_t l = 0; l < c.machine_count(); ++l) {
    std::vector<cluster::PricePoint> schedule;
    for (std::size_t e = 1; e < 6; ++e)
      schedule.push_back({600.0 * static_cast<double>(e),
                          UsdPerCpuSec::mc_per_ecu_s(
                              0.5 + 0.25 * static_cast<double>((l + e) % 4))});
    c.set_price_schedule(MachineId{l}, std::move(schedule));
  }
}

/// A world whose jobs read one, two or three objects, some partially, plus
/// an input-free job: every row kind, and linking rows per (store, object).
Scenario make_multi_object_world() {
  Scenario s{cluster::make_ec2_cluster(6, 0.5, 3), {}};
  add_spot_prices(s.cluster);
  workload::Workload& w = s.workload;
  std::vector<DataId> d;
  for (std::size_t i = 0; i < 5; ++i)
    d.push_back(w.add_data({"d" + std::to_string(i),
                            512.0 * static_cast<double>(i + 1),
                            StoreId{(2 * i) % s.cluster.store_count()}}));
  const auto job = [&](std::vector<DataId> data, std::vector<double> fractions,
                       double tcp, double fixed) {
    workload::Job j;
    j.name = "j" + std::to_string(w.job_count());
    j.tcp_cpu_s_per_mb = tcp;
    j.cpu_fixed_ecu_s = fixed;
    j.data = std::move(data);
    j.data_fractions = std::move(fractions);
    j.num_tasks = 8;
    w.add_job(std::move(j));
  };
  job({d[0]}, {}, 0.5, 0.0);
  job({d[1], d[2]}, {}, 0.2, 0.0);
  job({d[2], d[3], d[4]}, {1.0, 0.5, 0.25}, 0.05, 0.0);
  job({}, {}, 0.0, 900.0);
  job({d[4], d[0]}, {0.75, 1.0}, 1.5, 0.0);
  return s;
}

// A faster build must emit the very model the pinned build emitted: the
// bytes of every bound, cost, coefficient and rhs, and the layout.
TEST(ModelBuildPins, OneJobSwimEpoch) {
  cluster::Cluster c = cluster::make_ec2_cluster(10, 0.5, 2);
  add_spot_prices(c);
  Rng rng(7);
  workload::SwimParams sp;
  sp.n_jobs = 20;
  sp.duration_s = 3600.0;
  const workload::Workload w =
      workload::make_swim_workload(sp, c, rng).workload;
  ModelOptions opt;
  opt.epoch_s = 600.0;
  opt.fake_node = true;
  opt.fake_node_pricing = ModelOptions::FakeNodePricing::PatienceMin;
  opt.fake_node_price_factor = 1.25;
  opt.price_time = 1500.0;
  opt.machine_throughput_factor.assign(c.machine_count(), 1.0);
  opt.machine_throughput_factor[3] = 0.5;
  std::vector<StoreId> origins;
  for (std::size_t i = 0; i < w.data_count(); ++i)
    origins.push_back(StoreId{(i * 3) % c.store_count()});
  const detail::ModelBuilder builder(c, w, opt, {JobId{3}}, {0.625}, origins);
  EXPECT_EQ(build_digest_of(builder), 0x520f67d176740b35ULL);
}

TEST(ModelBuildPins, JobsReadingSeveralObjects) {
  const Scenario s = make_multi_object_world();
  ModelOptions online;
  online.epoch_s = 600.0;
  online.fake_node = true;
  online.price_time = 1200.0;
  online.excluded_machines = {4};
  online.excluded_stores = {1};
  EXPECT_EQ(build_digest_of(detail::ModelBuilder(
                s.cluster, s.workload, online, {},
                {1.0, 0.5, 0.75, 1.0, 0.25})),
            0xa04164b91054351fULL);
  ModelOptions offline;
  EXPECT_EQ(build_digest_of(
                detail::ModelBuilder(s.cluster, s.workload, offline, {}, {})),
            0x664405153be4916aULL);
}

TEST(ModelBuildPins, FortyNodePrunedModel) {
  cluster::Cluster c = cluster::make_ec2_cluster(40, 0.5, 4);
  add_spot_prices(c);
  Rng rng(11);
  workload::SwimParams sp;
  sp.n_jobs = 30;
  sp.duration_s = 1.0;
  const workload::Workload w =
      workload::make_swim_workload(sp, c, rng).workload;
  ModelOptions opt;
  opt.epoch_s = 600.0;
  opt.fake_node = true;
  opt.price_time = 2400.0;
  opt.max_candidate_machines = 4;
  opt.max_candidate_stores = 3;
  EXPECT_EQ(build_digest_of(detail::ModelBuilder(c, w, opt, {}, {})),
            0x123053185e36f27bULL);
}

TEST(ModelBuildPins, FigureTwoFixedPlacement) {
  const Scenario s = make_scenario(36);
  FixedPlacement fixed(s.workload.data_count());
  for (std::size_t i = 0; i < s.workload.data_count(); ++i) {
    const DataId d{i};
    const StoreId origin = s.workload.data(d).origin;
    const StoreId next{(origin.value() + 1) % s.cluster.store_count()};
    fixed[i].push_back({d, origin, 1.0});
    if (i % 2 == 0) fixed[i].push_back({d, next, 0.5});
  }
  const detail::ModelBuilder builder(s.cluster, s.workload, ModelOptions{}, {},
                                     {});
  EXPECT_EQ(build_digest_of(builder, &fixed), 0x97096cc8a7ef0c91ULL);
}

/// remap_basis's reference: every identity looked up in an ordered map.
lp::Basis remap_reference(const detail::ModelLayout& from_layout,
                          const lp::Basis& from,
                          const detail::ModelLayout& to_layout) {
  if (from.variables.size() != from_layout.num_variables ||
      from.slacks.size() != from_layout.rows.size())
    return {};
  using TaskKey = std::tuple<std::size_t, std::size_t, std::size_t>;
  const auto task_key = [](const detail::TaskVar& tv) {
    return TaskKey{tv.job.value(), tv.machine,
                   tv.store ? tv.store->value() + 1 : 0};
  };
  std::map<TaskKey, lp::BasisStatus> tmap;
  std::map<std::pair<std::size_t, std::size_t>, lp::BasisStatus> dmap;
  std::map<detail::RowKey, lp::BasisStatus> rmap;
  for (const detail::TaskVar& tv : from_layout.tvars)
    tmap.emplace(task_key(tv), from.variables[tv.lp_var]);
  for (const detail::DataVar& dv : from_layout.dvars)
    dmap.emplace(std::pair{dv.data.value(), dv.store.value()},
                 from.variables[dv.lp_var]);
  for (std::size_t i = 0; i < from_layout.rows.size(); ++i)
    rmap.emplace(from_layout.rows[i], from.slacks[i]);
  lp::Basis to;
  to.variables.assign(to_layout.num_variables, lp::BasisStatus::AtLower);
  to.slacks.assign(to_layout.rows.size(), lp::BasisStatus::AtLower);
  for (const detail::TaskVar& tv : to_layout.tvars)
    if (const auto it = tmap.find(task_key(tv)); it != tmap.end())
      to.variables[tv.lp_var] = it->second;
  for (const detail::DataVar& dv : to_layout.dvars)
    if (const auto it = dmap.find({dv.data.value(), dv.store.value()});
        it != dmap.end())
      to.variables[dv.lp_var] = it->second;
  for (std::size_t i = 0; i < to_layout.rows.size(); ++i)
    if (const auto it = rmap.find(to_layout.rows[i]); it != rmap.end())
      to.slacks[i] = it->second;
  return to;
}

/// Random structure for one side of a remap: a job subset (jobs arrive and
/// leave), machine and store exclusions, and sometimes pruning.
struct RandomSide {
  ModelOptions options;
  JobSubset jobs;
};

RandomSide random_side(Rng& rng, const Scenario& s) {
  RandomSide side;
  side.options.epoch_s = rng.bernoulli(0.8) ? 600.0 : 0.0;
  side.options.fake_node = side.options.epoch_s > 0 && rng.bernoulli(0.8);
  side.options.price_time = 600.0 * static_cast<double>(rng.index(6));
  for (std::size_t k = 0; k < s.workload.job_count(); ++k)
    if (rng.bernoulli(0.7)) side.jobs.push_back(JobId{k});
  if (side.jobs.empty()) side.jobs.push_back(JobId{0});
  for (std::size_t m = 0; m < s.cluster.machine_count(); ++m)
    if (rng.bernoulli(0.15)) side.options.excluded_machines.push_back(m);
  for (std::size_t st = 0; st < s.cluster.store_count(); ++st)
    if (rng.bernoulli(0.15)) side.options.excluded_stores.push_back(st);
  if (rng.bernoulli(0.3)) {
    side.options.max_candidate_machines = 2 + rng.index(3);
    side.options.max_candidate_stores = 2 + rng.index(2);
  }
  return side;
}

// The remap is a lookup by identity. Over random layout pairs it must give
// exactly what ordered-map lookups give: every status carried over, every
// identity the old model lacked at lower, and the empty basis for a basis
// that does not fit its layout.
TEST(BasisRemap, MatchesOrderedMapReferenceOverRandomLayouts) {
  Scenario random_world = make_scenario(37);
  add_spot_prices(random_world.cluster);
  const Scenario worlds[] = {random_world, make_multi_object_world()};
  Rng rng(2026);
  std::size_t carried = 0;
  for (const Scenario& s : worlds) {
    for (int trial = 0; trial < 40; ++trial) {
      const RandomSide a = random_side(rng, s);
      const RandomSide b = trial % 8 == 0 ? a : random_side(rng, s);
      lp::LpModel from_model;
      detail::ModelLayout from_layout;
      detail::ModelBuilder(s.cluster, s.workload, a.options, a.jobs, {})
          .build(nullptr, from_model, from_layout);
      lp::LpModel to_model;
      detail::ModelLayout to_layout;
      detail::ModelBuilder(s.cluster, s.workload, b.options, b.jobs, {})
          .build(nullptr, to_model, to_layout);
      lp::Basis from;
      for (std::size_t j = 0; j < from_layout.num_variables; ++j)
        from.variables.push_back(static_cast<lp::BasisStatus>(rng.index(4)));
      for (std::size_t i = 0; i < from_layout.rows.size(); ++i)
        from.slacks.push_back(static_cast<lp::BasisStatus>(rng.index(4)));
      const lp::Basis want = remap_reference(from_layout, from, to_layout);
      ASSERT_EQ(detail::remap_basis(from_layout, from, to_layout), want)
          << "trial " << trial;
      for (const lp::BasisStatus st : want.variables)
        if (st != lp::BasisStatus::AtLower) ++carried;
      lp::Basis short_basis = from;
      short_basis.slacks.pop_back();
      EXPECT_TRUE(
          detail::remap_basis(from_layout, short_basis, to_layout).empty());
    }
  }
  EXPECT_GT(carried, 0u);  // the pairs overlap: statuses did carry over
}
}  // namespace
}  // namespace lips::core
