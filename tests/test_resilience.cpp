// Scheduler self-resilience: solver fault injection, the schedule
// validation gate, and the graceful-degradation ladder (DESIGN.md §10).
//
// The storm tests run full LiPS simulations while the LP solver is being
// actively sabotaged (NaN/Inf corruption of the computational form, warm
// bases flipped, refactorizations failed, iteration budgets starved) on top
// of a simulator-level fault storm. The invariant under all of it: every
// run terminates, every schedule the policy acts on passed the independent
// validator, the ladder escalates in order, and the cost ledger still
// reconciles bit-identically against the simulator's bill.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "ckpt/store.hpp"
#include "common/error.hpp"
#include "core/epoch_lp_context.hpp"
#include "core/lips_policy.hpp"
#include "core/lp_models.hpp"
#include "core/schedule_validator.hpp"
#include "farm/recipe.hpp"
#include "farm/scenario.hpp"
#include "lp/model.hpp"
#include "lp/solver_faults.hpp"
#include "obs/export.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "workload/swim.hpp"

namespace {

using namespace lips;
using core::LipsPolicy;
using Rung = core::LipsPolicy::DegradationRung;

// ------------------------------------------------ fault-spec parsing ------

TEST(SolverFaultSpec, ParsesEveryKey) {
  const lp::SolverFaultConfig c = lp::parse_solver_fault_spec(
      "nan=0.25,inf=0.1,huge=0.05,basis=0.5,refactor=0.2,budget=0.3,"
      "starve_iters=7,seed=42");
  EXPECT_DOUBLE_EQ(c.nan_probability, 0.25);
  EXPECT_DOUBLE_EQ(c.inf_probability, 0.1);
  EXPECT_DOUBLE_EQ(c.huge_probability, 0.05);
  EXPECT_DOUBLE_EQ(c.basis_corruption_probability, 0.5);
  EXPECT_DOUBLE_EQ(c.refactor_failure_probability, 0.2);
  EXPECT_DOUBLE_EQ(c.budget_starvation_probability, 0.3);
  EXPECT_EQ(c.starved_iterations, 7u);
  EXPECT_EQ(c.seed, 42u);
}

TEST(SolverFaultSpec, EmptySpecIsAllDefaults) {
  const lp::SolverFaultConfig c = lp::parse_solver_fault_spec("");
  EXPECT_DOUBLE_EQ(c.nan_probability, 0.0);
  EXPECT_DOUBLE_EQ(c.basis_corruption_probability, 0.0);
}

TEST(SolverFaultSpec, RejectsUnknownKey) {
  EXPECT_THROW((void)lp::parse_solver_fault_spec("nan=0.1,bogus=1"),
               PreconditionError);
}

TEST(SolverFaultSpec, RejectsDuplicateKey) {
  EXPECT_THROW((void)lp::parse_solver_fault_spec("nan=0.1,nan=0.2"),
               PreconditionError);
}

TEST(SolverFaultSpec, RejectsOutOfRangeProbability) {
  EXPECT_THROW((void)lp::parse_solver_fault_spec("nan=1.5"), PreconditionError);
  EXPECT_THROW((void)lp::parse_solver_fault_spec("basis=-0.1"), PreconditionError);
}

TEST(SolverFaultSpec, RejectsNonNumericValue) {
  EXPECT_THROW((void)lp::parse_solver_fault_spec("nan=lots"), PreconditionError);
  EXPECT_THROW((void)lp::parse_solver_fault_spec("nan"), PreconditionError);
}

// ------------------------------------- model input hardening (diagnosis) --

/// The thrown message must name the offending entity, not just the rule.
template <typename Fn>
std::string capture_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return {};
}

TEST(ModelDiagnostics, NonFiniteObjectiveNamesVariable) {
  lp::LpModel m;
  const std::string msg = capture_message([&] {
    m.add_variable(0.0, 1.0, std::numeric_limits<double>::quiet_NaN(),
                   "xt_job3_m7");
  });
  EXPECT_NE(msg.find("variable #0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("xt_job3_m7"), std::string::npos) << msg;
  EXPECT_NE(msg.find("nan"), std::string::npos) << msg;
}

TEST(ModelDiagnostics, NonFiniteRhsNamesRow) {
  lp::LpModel m;
  m.add_variable(0.0, 1.0, 1.0, "x");
  const std::vector<lp::Entry> entries{{0, 1.0}};
  const std::string msg = capture_message([&] {
    m.add_constraint(entries, lp::Sense::LessEqual,
                     std::numeric_limits<double>::infinity(), "cap_m2");
  });
  EXPECT_NE(msg.find("row #0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("cap_m2"), std::string::npos) << msg;
}

TEST(ModelDiagnostics, NonFiniteCoefficientNamesVariableAndRow) {
  lp::LpModel m;
  m.add_variable(0.0, 1.0, 1.0, "x0");
  const std::vector<lp::Entry> entries{
      {0, std::numeric_limits<double>::quiet_NaN()}};
  const std::string msg = capture_message(
      [&] { m.add_constraint(entries, lp::Sense::LessEqual, 1.0, "row_a"); });
  EXPECT_NE(msg.find("variable #0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("row #0"), std::string::npos) << msg;
}

TEST(ModelDiagnostics, SetObjectiveRejectsNonFinite) {
  lp::LpModel m;
  m.add_variable(0.0, 1.0, 1.0, "x0");
  EXPECT_THROW(
      m.set_objective(0, std::numeric_limits<double>::infinity()),
      PreconditionError);
  EXPECT_THROW(m.set_rhs(0, 1.0), PreconditionError);  // no rows yet
}

TEST(ModelDiagnostics, MaxViolationTreatsNonFiniteAsUnbounded) {
  lp::LpModel m;
  m.add_variable(0.0, 1.0, 1.0, "x0");
  const std::vector<double> nan_point{
      std::numeric_limits<double>::quiet_NaN()};
  EXPECT_GT(m.max_violation(nan_point), 1e100);
}

// ----------------------------------------------------- fixture cluster ----

struct LipsFixture {
  cluster::Cluster cluster;
  workload::Workload workload;
  core::ModelOptions options;
};

LipsFixture make_fixture(std::size_t jobs = 12) {
  LipsFixture f{cluster::make_ec2_cluster(8, 0.5, 2), {}, {}};
  Rng rng(2013);
  workload::SwimParams sp;
  sp.n_jobs = jobs;
  sp.duration_s = 1.0;  // whole queue visible to one epoch solve
  f.workload = workload::make_swim_workload(sp, f.cluster, rng).workload;
  f.options.epoch_s = 600.0;
  f.options.fake_node = true;
  return f;
}

// ------------------------------------------------- validator unit tests ---

// The Flags* cases pin each report's summary, check count and every kept
// violation's text: the validator formats a message only for a failed
// check, and these pins show it still counts and words each one the same.

/// Every kept violation's text, one per line.
std::string violation_texts(const core::ValidationReport& report) {
  std::string out;
  for (const core::ScheduleViolation& v : report.violations)
    out += v.what + "\n";
  return out;
}

TEST(ScheduleValidator, AcceptsHealthySchedule) {
  const LipsFixture f = make_fixture();
  const core::LpSchedule s =
      core::solve_co_scheduling(f.cluster, f.workload, f.options);
  ASSERT_TRUE(s.optimal());
  const core::ValidationReport report =
      core::validate_schedule(f.cluster, f.workload, f.options, s);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.checks, 292u);
  EXPECT_EQ(report.summary(), "schedule valid (292 checks)");
  EXPECT_TRUE(report.violations.empty());
}

TEST(ScheduleValidator, FlagsNonFiniteFraction) {
  const LipsFixture f = make_fixture();
  core::LpSchedule s =
      core::solve_co_scheduling(f.cluster, f.workload, f.options);
  ASSERT_TRUE(s.optimal());
  ASSERT_FALSE(s.portions.empty());
  s.portions[0].fraction = std::numeric_limits<double>::quiet_NaN();
  const core::ValidationReport report =
      core::validate_schedule(f.cluster, f.workload, f.options, s);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.summary(),
            "schedule INVALID: 1 violation(s), worst 1; first: portion of job #0 on "
            "machine #1 has non-finite fraction nan");
  EXPECT_EQ(report.checks, 148u);
  EXPECT_EQ(violation_texts(report),
            "portion of job #0 on machine #1 has non-finite fraction nan\n");
}

TEST(ScheduleValidator, FlagsOverAssignedJob) {
  const LipsFixture f = make_fixture();
  core::LpSchedule s =
      core::solve_co_scheduling(f.cluster, f.workload, f.options);
  ASSERT_TRUE(s.optimal());
  ASSERT_FALSE(s.portions.empty());
  s.portions[0].fraction += 0.5;  // job now covered > remaining fraction
  const core::ValidationReport report =
      core::validate_schedule(f.cluster, f.workload, f.options, s);
  EXPECT_FALSE(report.ok);
  EXPECT_GT(report.worst_violation, 0.0);
  EXPECT_EQ(report.summary(),
            "schedule INVALID: 4 violation(s), worst 41.8879; first: portion of "
            "job #0 on machine #1 fraction 1.5 is outside [0, 1]");
  EXPECT_EQ(report.checks, 292u);
  EXPECT_EQ(violation_texts(report),
            "portion of job #0 on machine #1 fraction 1.5 is outside [0, 1]\n"
            "job #0 is over-covered: 1.5 assigned of 1 remaining\n"
            "job #0 reads 1.5 of data #0 from store #1 but only 1 is placed "
            "there (constraint 13)\n"
            "execution cost does not reconcile: decoded 5257.93 mc, "
            "recomputed 5299.82 mc\n");
}

TEST(ScheduleValidator, FlagsObjectiveMismatch) {
  const LipsFixture f = make_fixture();
  core::LpSchedule s =
      core::solve_co_scheduling(f.cluster, f.workload, f.options);
  ASSERT_TRUE(s.optimal());
  s.objective_mc = s.objective_mc + Millicents::mc(500000.0);  // +$5
  const core::ValidationReport report =
      core::validate_schedule(f.cluster, f.workload, f.options, s);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.summary(),
            "schedule INVALID: 1 violation(s), worst 500000; first: LP objective "
            "exceeds the cost breakdown by 500000 mc with nothing deferred — "
            "decoded cost is not within tolerance of the objective");
  EXPECT_EQ(report.checks, 292u);
  EXPECT_EQ(violation_texts(report),
            "LP objective exceeds the cost breakdown by 500000 mc with nothing "
            "deferred — decoded cost is not within tolerance of the "
            "objective\n");
}

TEST(ScheduleValidator, FlagsNonOptimalStatus) {
  const LipsFixture f = make_fixture();
  core::LpSchedule s;  // default: IterationLimit, empty
  const core::ValidationReport report =
      core::validate_schedule(f.cluster, f.workload, f.options, s);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.summary(),
            "schedule INVALID: 1 violation(s), worst 1; first: schedule status is "
            "not Optimal; nothing downstream may act on its values");
  EXPECT_EQ(report.checks, 1u);
  EXPECT_EQ(violation_texts(report),
            "schedule status is not Optimal; nothing downstream may act on its "
            "values\n");
}

// --------------------------------------------- injector determinism -------

TEST(SolverFaultInjector, DeterministicAcrossIdenticalRuns) {
  const LipsFixture f = make_fixture();
  lp::SolverFaultConfig cfg;
  cfg.nan_probability = 0.5;
  cfg.basis_corruption_probability = 0.5;
  cfg.budget_starvation_probability = 0.3;
  cfg.starved_iterations = 2;
  cfg.seed = 7;

  const auto run_sequence = [&](std::vector<lp::SolveStatus>* statuses) {
    lp::SolverFaultInjector injector(cfg);
    core::ModelOptions opt = f.options;
    opt.fault_injector = &injector;
    core::EpochLpContext ctx;
    for (std::size_t e = 0; e < 6; ++e) {
      opt.price_time = 600.0 * static_cast<double>(e);
      core::LpSchedule s;
      try {
        s = ctx.solve(f.cluster, f.workload, opt, {}, {});
      } catch (const std::exception&) {
        s.status = lp::SolveStatus::IterationLimit;
        ctx.invalidate();
      }
      statuses->push_back(s.status);
    }
    return injector.stats();
  };

  std::vector<lp::SolveStatus> first, second;
  const lp::SolverFaultInjector::Stats a = run_sequence(&first);
  const lp::SolverFaultInjector::Stats b = run_sequence(&second);
  EXPECT_EQ(first, second);
  EXPECT_EQ(a.solves_seen, b.solves_seen);
  EXPECT_EQ(a.objective_nans, b.objective_nans);
  EXPECT_EQ(a.rhs_nans, b.rhs_nans);
  EXPECT_EQ(a.bases_corrupted, b.bases_corrupted);
  EXPECT_EQ(a.budgets_starved, b.budgets_starved);
  EXPECT_GT(a.total_injected(), 0u);
}

// ------------------------------------------------------ chaos storms ------

sim::FaultPlan storm(std::size_t machines, std::size_t stores,
                     std::uint64_t seed) {
  sim::FaultStormParams p;
  p.mtbf_s = 4000.0;
  p.mttr_s = 400.0;
  p.slowdown_rate = 2.0;
  p.slowdown_factor = 4.0;
  p.slowdown_window_s = 600.0;
  p.store_loss_rate = 0.3;
  p.horizon_s = 6000.0;
  p.seed = seed;
  return sim::make_fault_storm(p, machines, stores);
}

struct ChaosRun {
  obs::MetricRegistry metrics;
  obs::Tracer tracer{1 << 18};
  obs::CostLedger ledger;
  sim::SimResult result;
};

/// Bitwise per-meter reconciliation against the run's SimResult.
void expect_bitwise_reconciled(const ChaosRun& run) {
  const sim::SimResult& r = run.result;
  const obs::CostLedger& led = run.ledger;
  EXPECT_EQ(led.meter_total(obs::CostMeter::Execution), r.execution_cost_mc);
  EXPECT_EQ(led.meter_total(obs::CostMeter::ReadTransfer),
            r.read_transfer_cost_mc);
  EXPECT_EQ(led.meter_total(obs::CostMeter::PlacementTransfer),
            r.placement_transfer_cost_mc);
  EXPECT_EQ(led.meter_total(obs::CostMeter::IngestReplication),
            r.ingest_replication_cost_mc);
  EXPECT_EQ(led.meter_total(obs::CostMeter::Wasted), r.wasted_cost_mc);
  EXPECT_EQ(led.meter_total(obs::CostMeter::Speculation),
            r.speculation_cost_mc);
  EXPECT_EQ(led.billed_total(), r.total_cost_mc);
  const auto rec = run.ledger.reconcile(sim::billed_totals(r));
  EXPECT_TRUE(rec.ok);
  for (const Millicents& d : rec.delta) EXPECT_EQ(d, Millicents::zero());
}

/// Run one faulty+straggler LiPS simulation with the solver under fault
/// injection. Returns through out-params so the storm sweep can aggregate.
/// With `checkpoint_dir` the run snapshots every epoch; with `restore_from`
/// it resumes from that snapshot.
void chaos_run(std::uint64_t seed, const lp::SolverFaultConfig& fault_cfg,
               ChaosRun* run, LipsPolicy** policy_out,
               std::unique_ptr<LipsPolicy>* holder,
               std::unique_ptr<lp::SolverFaultInjector>* injector_holder,
               const ckpt::CheckpointDir* checkpoint_dir = nullptr,
               const ckpt::Snapshot* restore_from = nullptr) {
  const cluster::Cluster c = cluster::make_ec2_cluster(8, 0.5, 2);
  Rng rng(seed);
  workload::SwimParams sp;
  sp.n_jobs = 15;
  sp.duration_s = 3000.0;
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);

  *injector_holder = std::make_unique<lp::SolverFaultInjector>(fault_cfg);
  core::LipsPolicyOptions lo;
  lo.epoch_s = 400.0;
  lo.model.fault_injector = injector_holder->get();
  *holder = std::make_unique<LipsPolicy>(lo);
  *policy_out = holder->get();

  sim::SimConfig cfg;
  cfg.hdfs_replication = 1;
  cfg.task_timeout_s = 1200.0;
  cfg.faults = storm(c.machine_count(), c.store_count(), seed);
  cfg.obs = obs::Observer{&run->metrics, &run->tracer, &run->ledger};
  cfg.checkpoint_dir = checkpoint_dir;
  cfg.restore_from = restore_from;
  run->result = sim::simulate(c, sw.workload, **policy_out, cfg);
}

/// Aggregate rung ordering: rung N+1 can only be entered after rung N
/// failed within the same replan, so the escalation counts are monotone
/// non-increasing down the ladder.
void expect_ladder_ordered(const LipsPolicy& lips) {
  EXPECT_GE(lips.degradations(Rung::ColdRebuild),
            lips.degradations(Rung::GreedyFallback));
  EXPECT_GE(lips.degradations(Rung::GreedyFallback),
            lips.degradations(Rung::ReuseLastPlan));
}

TEST(SolverChaos, StormSweepCompletesValidatesAndReconciles) {
  lp::SolverFaultConfig fault_cfg;
  fault_cfg.nan_probability = 0.35;
  fault_cfg.inf_probability = 0.15;
  fault_cfg.basis_corruption_probability = 0.35;
  fault_cfg.refactor_failure_probability = 0.15;
  fault_cfg.budget_starvation_probability = 0.25;
  fault_cfg.starved_iterations = 2;

  std::size_t total_injected = 0;
  std::size_t total_degradations = 0;
  std::size_t total_validated = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fault_cfg.seed = seed;
    ChaosRun run;
    LipsPolicy* lips = nullptr;
    std::unique_ptr<LipsPolicy> holder;
    std::unique_ptr<lp::SolverFaultInjector> injector;
    // No abort, no uncaught exception: the run must terminate.
    ASSERT_NO_THROW(
        chaos_run(seed, fault_cfg, &run, &lips, &holder, &injector));

    // Every schedule the policy accepted passed the validation gate (the
    // gate is on by default), and rejected ones were counted.
    EXPECT_GT(lips->schedules_validated(), 0u);
    expect_ladder_ordered(*lips);
    expect_bitwise_reconciled(run);
    EXPECT_EQ(run.ledger.meter_total(obs::CostMeter::FakeNodeCarry),
              lips->fake_node_carry_mc());

    total_injected += injector->stats().total_injected();
    total_degradations += lips->total_degradations();
    total_validated += lips->schedules_validated();
  }
  // The storm actually bit: faults were injected and the ladder escalated
  // at least somewhere across the sweep.
  EXPECT_GT(total_injected, 0u);
  EXPECT_GT(total_degradations, 0u);
  EXPECT_GT(total_validated, 0u);
}

TEST(SolverChaos, BudgetStarvationFallsBackToGreedyAndCompletes) {
  lp::SolverFaultConfig fault_cfg;
  fault_cfg.budget_starvation_probability = 1.0;
  fault_cfg.starved_iterations = 0;  // every solve dies at 0 pivots
  fault_cfg.seed = 3;

  ChaosRun run;
  LipsPolicy* lips = nullptr;
  std::unique_ptr<LipsPolicy> holder;
  std::unique_ptr<lp::SolverFaultInjector> injector;
  ASSERT_NO_THROW(chaos_run(5, fault_cfg, &run, &lips, &holder, &injector));

  // Every LP rung starves, so every replan ends in the greedy fallback.
  EXPECT_GT(lips->degradations(Rung::GreedyFallback), 0u);
  EXPECT_GT(injector->stats().budgets_starved, 0u);
  expect_ladder_ordered(*lips);
  expect_bitwise_reconciled(run);
}

TEST(SolverChaos, DeterministicEndToEnd) {
  lp::SolverFaultConfig fault_cfg;
  fault_cfg.nan_probability = 0.4;
  fault_cfg.basis_corruption_probability = 0.4;
  fault_cfg.budget_starvation_probability = 0.2;
  fault_cfg.starved_iterations = 2;
  fault_cfg.seed = 11;

  Millicents cost_a = Millicents::zero(), cost_b = Millicents::zero();
  std::size_t deg_a = 0, deg_b = 0;
  {
    ChaosRun run;
    LipsPolicy* lips = nullptr;
    std::unique_ptr<LipsPolicy> holder;
    std::unique_ptr<lp::SolverFaultInjector> injector;
    chaos_run(9, fault_cfg, &run, &lips, &holder, &injector);
    cost_a = run.result.total_cost_mc;
    deg_a = lips->total_degradations();
  }
  {
    ChaosRun run;
    LipsPolicy* lips = nullptr;
    std::unique_ptr<LipsPolicy> holder;
    std::unique_ptr<lp::SolverFaultInjector> injector;
    chaos_run(9, fault_cfg, &run, &lips, &holder, &injector);
    cost_b = run.result.total_cost_mc;
    deg_b = lips->total_degradations();
  }
  EXPECT_EQ(cost_a, cost_b);
  EXPECT_EQ(deg_a, deg_b);
}

// ---------------------------------------------------- healthy baseline ----

TEST(SolverChaos, NoFaultsTakesPrimaryRungOnly) {
  ChaosRun run;
  const cluster::Cluster c = cluster::make_ec2_cluster(8, 0.5, 2);
  Rng rng(2013);
  workload::SwimParams sp;
  sp.n_jobs = 15;
  sp.duration_s = 3000.0;
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);

  core::LipsPolicyOptions lo;
  lo.epoch_s = 400.0;
  LipsPolicy lips(lo);
  sim::SimConfig cfg;
  cfg.hdfs_replication = 1;
  cfg.task_timeout_s = 1200.0;
  cfg.obs = obs::Observer{&run.metrics, &run.tracer, &run.ledger};
  run.result = sim::simulate(c, sw.workload, lips, cfg);

  // Healthy run: schedules were validated, none rejected, no escalations.
  EXPECT_GT(lips.schedules_validated(), 0u);
  EXPECT_EQ(lips.validation_failures(), 0u);
  EXPECT_EQ(lips.total_degradations(), 0u);
  EXPECT_EQ(lips.solver_exceptions(), 0u);
  for (std::size_t r = 1; r < LipsPolicy::kNumDegradationRungs; ++r)
    EXPECT_EQ(lips.degradations(static_cast<Rung>(r)), 0u);
  expect_bitwise_reconciled(run);

  // The degradation series are registered at zero, so a fault-free metrics
  // export still exposes them (CI's solver-fault storm greps for this).
  std::ostringstream prom;
  obs::write_prometheus(run.metrics.snapshot(), prom);
  EXPECT_NE(prom.str().find("lips_degradation_total"), std::string::npos);
}

// ------------------------------------------------------- LP certificate ----

/// The value of the registry's `lips_lp_certificate_failures_total`, or -1
/// when the series was never registered.
double certificate_failures(const obs::MetricRegistry& metrics) {
  for (const obs::MetricRegistry::Sample& s : metrics.snapshot())
    if (s.name == "lips_lp_certificate_failures_total") return s.value;
  return -1.0;
}

// Every plan of a fault-free SWIM run is proved optimal for its own model
// (lp::certify): the epochs whose model is updated in place and the ones
// rebuilt when jobs arrive or finish, whose basis is remapped.
TEST(LpCertificate, FaultFreeSwimRunCertifiesEveryPlan) {
  // lipsctl --nodes 10 --workload swim --jobs 30 --schedulers lips.
  const farm::ScenarioSpec spec = farm::parse_scenario_spec("nodes=10,jobs=30");
  const farm::RunInputs in = farm::make_run_inputs(spec, 1);
  const farm::SchedulerSpec ss;  // lips, the paper defaults
  LipsPolicy lips(farm::make_lips_options(spec, ss));
  sim::SimConfig cfg = farm::make_sim_config(spec, ss, 1);
  ChaosRun run;
  cfg.obs = obs::Observer{&run.metrics, &run.tracer, &run.ledger};
  run.result = sim::simulate(in.cluster, in.workload, lips, cfg);

  ASSERT_TRUE(run.result.completed);
  EXPECT_EQ(lips.total_degradations(), 0u);
  EXPECT_GT(lips.lp_model_reuses(), 0u);                     // in place
  EXPECT_GE(lips.lp_solves() - lips.lp_model_reuses(), 2u);  // rebuilt
  EXPECT_EQ(certificate_failures(run.metrics), 0.0);
}

// Injected objective corruption makes the engine solve another model than
// the policy's: its optimal answers fail the certificate (without the debug
// assert, which stands down while an injector is installed), and each
// failure sends the replan one rung down the ladder, as a rejected schedule
// does. In this world no solve throws or ends non-optimal, so every
// escalation is a certificate failure or a rejection.
TEST(LpCertificate, InjectedCorruptionIsCounted) {
  lp::SolverFaultConfig fault_cfg;
  fault_cfg.huge_probability = 1.0;
  fault_cfg.seed = 4;
  ChaosRun run;
  LipsPolicy* lips = nullptr;
  std::unique_ptr<LipsPolicy> holder;
  std::unique_ptr<lp::SolverFaultInjector> injector;
  ASSERT_NO_THROW(chaos_run(4, fault_cfg, &run, &lips, &holder, &injector));
  EXPECT_GT(injector->stats().objective_huges, 0u);
  EXPECT_GT(lips->certificate_failures(), 0u);
  EXPECT_EQ(certificate_failures(run.metrics),
            static_cast<double>(lips->certificate_failures()));
  EXPECT_EQ(lips->solver_exceptions(), 0u);
  EXPECT_EQ(lips->degradations(Rung::ColdRebuild) +
                lips->degradations(Rung::GreedyFallback),
            lips->certificate_failures() + lips->validation_failures());
  expect_bitwise_reconciled(run);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The count is ladder state that snapshots carry: a run resumed from any
// of its snapshots exports the uninterrupted run's count.
TEST(LpCertificate, ResumedRunExportsTheUninterruptedCount) {
  lp::SolverFaultConfig fault_cfg;
  fault_cfg.huge_probability = 0.5;
  fault_cfg.seed = 3;
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "lips_certificate_resume";
  std::filesystem::remove_all(path);
  const ckpt::CheckpointDir dir(path.string(), /*keep=*/1024);
  ChaosRun baseline;
  LipsPolicy* lips = nullptr;
  std::unique_ptr<LipsPolicy> holder;
  std::unique_ptr<lp::SolverFaultInjector> injector;
  chaos_run(3, fault_cfg, &baseline, &lips, &holder, &injector, &dir);
  EXPECT_GT(lips->certificate_failures(), 0u);
  const double want = certificate_failures(baseline.metrics);
  EXPECT_EQ(want, static_cast<double>(lips->certificate_failures()));

  const std::vector<std::string> files = dir.list();
  ASSERT_GT(files.size(), 2u);
  for (const std::string& file : files) {
    SCOPED_TRACE(file);
    const ckpt::Snapshot snap = ckpt::decode_snapshot(read_file(file));
    ChaosRun resumed;
    LipsPolicy* resumed_lips = nullptr;
    std::unique_ptr<LipsPolicy> resumed_holder;
    std::unique_ptr<lp::SolverFaultInjector> resumed_injector;
    chaos_run(3, fault_cfg, &resumed, &resumed_lips, &resumed_holder,
              &resumed_injector, nullptr, &snap);
    ASSERT_TRUE(resumed.result.restored);
    EXPECT_EQ(resumed.result.schedule_digest,
              baseline.result.schedule_digest);
    EXPECT_EQ(resumed_lips->certificate_failures(),
              lips->certificate_failures());
    EXPECT_EQ(certificate_failures(resumed.metrics), want);
  }
}

}  // namespace
