// lipsctl — run ad-hoc scheduler comparisons from the command line.
//
// Usage:
//   lipsctl sweep [--cell SPEC]... [--threads N] [--seed S]
//                 [--seeds MAX] [--min-seeds N] [--batch-seeds N]
//                 [--target-halfwidth X] [--out FILE]
//                            (Monte Carlo sweep on the simulation farm —
//                             src/farm. Each --cell is a scenario spec, e.g.
//                             "name=storm,mtbf=3600,sched=delay+lips"
//                             (farm/scenario.hpp vocabulary); every cell
//                             runs across many seeds on worker threads,
//                             bit-identical to a serial sweep, and prints
//                             the savings distribution (mean, p5/p50/p95,
//                             95% CI half-width). The stop rule ends a cell
//                             early once the CI is tighter than
//                             --target-halfwidth. --out writes the
//                             canonical BENCH_sweep.json)
//   lipsctl replay --connect SOCKET [--cell SPEC] [--seed S]
//                  [--session NAME]
//                            (drive the seeded scenario through a running
//                             lipsd over the socket AND in-process, then
//                             assert the schedule digests, cost totals, and
//                             FakeNodeCarry ledger folds are bit-identical;
//                             exit 0 only on a perfect match)
//   lipsctl [--nodes N] [--c1 FRAC] [--small FRAC] [--zones Z]
//           [--workload table4|swim|random] [--jobs N] [--tasks N]
//           [--epoch SECONDS] [--seed S]
//           [--schedulers default,delay,fair,quincy,lips]
//           [--replication R] [--patience FACTOR|off] [--csv]
//           [--faults SPEC]  (inject a fault storm, e.g.
//                             "mtbf=3600,revoke=0.1,seed=7" — sim/faults.hpp;
//                             slowdown=2,slowdown_factor=4 adds stragglers)
//           [--solver-faults SPEC]
//                            (chaos-test the LiPS solver itself, e.g.
//                             "nan=0.2,basis=0.3,budget=0.2,seed=7" —
//                             lp/solver_faults.hpp; applies to the lips
//                             scheduler only and exercises the
//                             graceful-degradation ladder)
//           [--speculation auto|off|naive|cost]
//                            (straggler duplication: auto keeps each
//                             scheduler's paper default — naive for the
//                             Hadoop baselines, off for LiPS)
//           [--no-feedback]  (disable LiPS observed-throughput feedback and
//                             quarantine)
//           [--trace FILE]   (write a per-scheduler event trace as CSV)
//           [--checkpoint-dir DIR]
//                            (crash-consistent snapshots, one subdirectory
//                             per scheduler — DESIGN.md §11; written every
//                             --checkpoint-every epochs. Left out (or 0),
//                             about every 300 simulated seconds: each
//                             400 s LiPS epoch, each 10th 30 s quincy
//                             round, every 300 s for default/delay/fair)
//           [--restore]      (resume each run from its newest good snapshot
//                             in --checkpoint-dir; bit-identical to the
//                             uninterrupted run. Corrupt/torn snapshots are
//                             skipped with a warning and the previous good
//                             one is used; no snapshot = fresh run; a
//                             snapshot that does not fit the run exits 2)
//           [--checkpoint-faults SPEC]
//                            (storage-side chaos, e.g.
//                             "torn=0.2,corrupt=0.1,seed=7" —
//                             ckpt/write_faults.hpp; corrupts snapshot
//                             *writes* so the CRC/fallback path is exercised)
//           [--version]      (print build provenance and exit)
//           [--metrics-out BASE] [--trace-out BASE] [--ledger-out BASE]
//                            (observability dumps, one file set per
//                             scheduler: BASE.<sched>.prom + .json metrics
//                             snapshots, BASE.<sched>.trace.json Chrome
//                             trace for chrome://tracing / Perfetto, and
//                             BASE.<sched>.json cost-ledger cells; any of
//                             the three also prints a `lips obs:` summary)
//
// Examples:
//   lipsctl                                  # the paper's Fig-6 (iii) setup
//   lipsctl --nodes 40 --workload swim --jobs 100 --epoch 300
//   lipsctl --schedulers default,lips --csv  # machine-readable output
//   lipsctl --faults mtbf=3600,mttr=600,storeloss=0.5 --schedulers lips
//   lipsctl --faults slowdown=2,slowdown_factor=4 --speculation cost
//
// Exit code 0 when every requested run completed within the horizon.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include <algorithm>
#include <thread>

#include "ckpt/store.hpp"
#include "ckpt/write_faults.hpp"
#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/spec.hpp"
#include "common/table.hpp"
#include "farm/farm.hpp"
#include "farm/recipe.hpp"
#include "farm/sweep_json.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "core/lips_policy.hpp"
#include "lp/solver_faults.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"

namespace {

using namespace lips;

struct Args {
  /// Cluster, workload, epoch, replication and one SchedulerSpec per
  /// --schedulers name: the farm recipe builds the world and every run from
  /// it (farm/recipe.hpp).
  farm::ScenarioSpec spec;
  std::uint64_t seed = 2013;
  double patience = 1.25;  // <= 0 → prohibitive fake node
  bool csv = false;
  std::string trace_file;
  std::string metrics_out;  // obs dumps; empty = that sink stays off
  std::string trace_out;
  std::string ledger_out;
  std::string faults;  // fault-storm spec; empty = fault-free
  std::string solver_faults;  // LP solver chaos spec; empty = no injection
  std::string checkpoint_dir;     // empty = checkpointing off
  std::size_t checkpoint_every = 0;  // epochs between snapshots; 0 = auto
  std::string checkpoint_faults;  // snapshot write-fault spec; empty = none
  bool restore = false;           // resume from the newest good snapshot
};

/// Epochs between snapshots when --checkpoint-every is left out: about one
/// per sim::kCheckpointIntervalS of simulated time, so a policy with short
/// epochs (quincy's 30 s flow rounds) does not write and fsync a snapshot on
/// every tick. Epoch-less policies already tick at that interval.
std::size_t auto_checkpoint_every(const sched::Scheduler& policy) {
  const double epoch_s = policy.epoch_s();
  if (epoch_s <= 0.0) return 1;
  return static_cast<std::size_t>(
      std::max(1.0, std::ceil(sim::kCheckpointIntervalS / epoch_s)));
}

/// Bad input exits 2 with one line on stderr, before any table is printed.
[[noreturn]] void reject(const std::string& what) {
  std::cerr << what << "\n";
  std::exit(2);
}

/// fn(), or reject() with `what` and the reason when it throws.
template <class Fn>
auto or_reject(const std::string& what, Fn fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    reject(what + user_message(e));
  }
}

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--nodes N] [--c1 F] [--small F] [--zones Z]\n"
         "       [--workload table4|swim|random] [--jobs N] [--tasks N]\n"
         "       [--epoch S] [--seed S] [--schedulers LIST] "
         "[--replication R]\n"
         "       [--patience FACTOR|off] [--csv] [--trace FILE]\n"
         "       [--metrics-out BASE] [--trace-out BASE] [--ledger-out "
         "BASE]\n"
         "       [--faults SPEC]   e.g. mtbf=3600,revoke=0.1,seed=7\n"
         "       [--solver-faults SPEC]   e.g. nan=0.2,basis=0.3,seed=7\n"
         "       [--speculation auto|off|naive|cost] [--no-feedback]\n"
         "       [--checkpoint-dir DIR] [--checkpoint-every EPOCHS] "
         "[--restore]\n"
         "       [--checkpoint-faults SPEC]   e.g. torn=0.2,corrupt=0.1\n"
         "       [--version]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  a.spec.name = "lipsctl";
  a.spec.workload = "table4";
  a.spec.jobs = 100;
  a.spec.epoch_s = 600.0;
  std::string schedulers = "default,delay,lips";
  farm::SchedulerSpec each;  // --speculation and --no-feedback apply to all
  // Numeric flags follow the spec number rules (common/spec.hpp): "7x",
  // "abc" or an out-of-range value is an error, never a silent 0 or 7.
  SpecBinder numbers("flag");
  numbers.count("--nodes", &a.spec.nodes)
      .probability("--c1", &a.spec.c1_fraction)
      .probability("--small", &a.spec.small_fraction)
      .count("--zones", &a.spec.zones)
      .count("--jobs", &a.spec.jobs)
      .count("--tasks", &a.spec.tasks)
      .number("--epoch", &a.spec.epoch_s)
      .seed("--seed", &a.seed)
      .count("--replication", &a.spec.replication)
      .number("--patience", &a.patience)
      .count("--checkpoint-every", &a.checkpoint_every);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (numbers.binds(flag)) {
      const std::string v = value();
      if (flag == "--patience" && v == "off") {
        a.patience = -1.0;
      } else {
        or_reject("lipsctl: ", [&] { numbers.apply(flag, v); });
      }
    } else if (flag == "--workload") {
      a.spec.workload = value();
    } else if (flag == "--schedulers") {
      schedulers = value();
    } else if (flag == "--csv") {
      a.csv = true;
    } else if (flag == "--trace") {
      a.trace_file = value();
    } else if (flag == "--metrics-out") {
      a.metrics_out = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--ledger-out") {
      a.ledger_out = value();
    } else if (flag == "--faults") {
      a.faults = value();
    } else if (flag == "--solver-faults") {
      a.solver_faults = value();
    } else if (flag == "--speculation") {
      each.speculation = value();  // validate_scenario checks the name
    } else if (flag == "--no-feedback") {
      each.feedback = false;
    } else if (flag == "--checkpoint-dir") {
      a.checkpoint_dir = value();
    } else if (flag == "--checkpoint-faults") {
      a.checkpoint_faults = value();
    } else if (flag == "--restore") {
      a.restore = true;
    } else if (flag == "--version") {
      std::cout << version_line() << "\n";
      std::exit(0);
    } else {
      usage(argv[0]);
    }
  }
  std::stringstream names(schedulers);
  while (std::getline(names, each.name, ',')) a.spec.schedulers.push_back(each);
  if (a.spec.schedulers.empty()) usage(argv[0]);
  // Big clusters prune the LP's candidate machines and stores to keep each
  // epoch solve fast (bench_ablation_pruning measures the cost).
  if (a.spec.nodes > 30) {
    a.spec.prune_machines = 12;
    a.spec.prune_stores = 8;
  }
  return a;
}

[[noreturn]] void sweep_usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " sweep [--cell SPEC]... [--threads N] [--seed S]\n"
               "       [--seeds MAX] [--min-seeds N] [--batch-seeds N]\n"
               "       [--target-halfwidth X] [--out FILE]\n"
               "cell spec keys: name, workload, sched (e.g. delay+lips), vs,\n"
               "  stat, nodes, c1, small, zones, jobs, tasks, epoch,\n"
               "  replication, prune_machines, prune_stores, mtbf, mttr,\n"
               "  permanent, revoke, warn, storeloss, degrade, slowdown,\n"
               "  slowdown_factor, slowdown_window, horizon, ...\n";
  std::exit(2);
}

int sweep_main(int argc, char** argv) {
  farm::SweepConfig cfg;
  cfg.threads = std::max(1u, std::thread::hardware_concurrency());
  cfg.stop.min_seeds = 8;
  cfg.stop.max_seeds = 32;
  cfg.stop.batch_seeds = 8;
  cfg.stop.target_half_width = 0.02;
  std::string out_file;
  SpecBinder numbers("flag");
  numbers.count("--threads", &cfg.threads)
      .seed("--seed", &cfg.seed)
      .count("--seeds", &cfg.stop.max_seeds)
      .count("--min-seeds", &cfg.stop.min_seeds)
      .count("--batch-seeds", &cfg.stop.batch_seeds)
      .number("--target-halfwidth", &cfg.stop.target_half_width);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) sweep_usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--cell") {
      cfg.cells.push_back(or_reject(
          "bad --cell spec: ", [&] { return farm::parse_scenario_spec(value()); }));
    } else if (numbers.binds(flag)) {
      or_reject("lipsctl sweep: ", [&] { numbers.apply(flag, value()); });
    } else if (flag == "--out") {
      out_file = value();
    } else {
      sweep_usage(argv[0]);
    }
  }
  if (cfg.stop.min_seeds > cfg.stop.max_seeds)
    cfg.stop.min_seeds = cfg.stop.max_seeds;
  if (cfg.cells.empty())
    cfg.cells.push_back(farm::parse_scenario_spec("name=baseline"));

  std::cout << "sweep: " << cfg.cells.size() << " cell(s), seeds "
            << cfg.stop.min_seeds << ".." << cfg.stop.max_seeds
            << " (batch " << cfg.stop.batch_seeds << ", target CI ±"
            << Table::pct(cfg.stop.target_half_width) << "), "
            << cfg.threads << " thread(s), master seed " << cfg.seed << "\n";

  obs::MetricRegistry metrics;
  cfg.metrics = &metrics;
  // A sweep's *results* are deterministic; its wall clock is telemetry the
  // farm itself never reads (that is the callers' job, here and in bench/).
  const std::uint64_t t0_us = obs::monotonic_now_us();
  farm::SweepResult sweep;
  try {
    sweep = farm::run_sweep(cfg);
  } catch (const std::exception& e) {
    std::cerr << "sweep failed: " << user_message(e) << "\n";
    return 1;
  }
  const double wall_s =
      static_cast<double>(obs::monotonic_now_us() - t0_us) / 1e6;

  Table t;
  t.set_header({"scenario", "stat", "seeds", "mean", "±95% CI", "p5", "p50",
                "p95", "stopped early", "ledgers"});
  bool all_reconcile = true;
  for (const farm::CellResult& c : sweep.cells) {
    const farm::CellStats& st = c.stats;
    // Savings cells format as percents; dollar cells as plain numbers.
    const bool pct = c.spec.stat_is_savings();
    auto fmt = [&](double v) {
      return pct ? Table::pct(v) : Table::num(v, 3);
    };
    t.add_row({c.spec.name, pct ? "savings" : "cost_usd",
               std::to_string(st.n), fmt(st.mean), fmt(st.half_width),
               fmt(st.p5), fmt(st.p50), fmt(st.p95),
               c.stopped_early ? "yes" : "no",
               c.ledgers_reconcile ? "ok" : "MISMATCH"});
    all_reconcile = all_reconcile && c.ledgers_reconcile;
  }
  t.print(std::cout);
  std::cout << sweep.total_runs << " runs on " << sweep.threads
            << " thread(s) in " << Table::num(wall_s, 2)
            << " s; farm_runs_total = "
            << metrics.counter("farm_runs_total").value() << "\n";

  if (!out_file.empty()) {
    farm::SweepMeta meta;
    meta.bench = "sweep";
    meta.wall_time_s = wall_s;
    std::ofstream out = obs::open_output(out_file);
    farm::write_sweep_json(sweep, meta, out);
    std::cout << "sweep artifact written to " << out_file << "\n";
  }
  return all_reconcile ? 0 : 1;
}

[[noreturn]] void replay_usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " replay --connect SOCKET [--cell SPEC] [--seed S]\n"
               "       [--session NAME]\n"
               "Replays the seeded scenario against a running lipsd and\n"
               "in-process, then demands bit-identical schedules and "
               "ledgers.\n";
  std::exit(64);  // EX_USAGE
}

int replay_main(int argc, char** argv) {
  std::string socket;
  std::string cell = "name=replay,nodes=8,jobs=3";
  std::string session = "replay";
  std::uint64_t seed = 2013;
  SpecBinder numbers("flag");
  numbers.seed("--seed", &seed);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) replay_usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--connect") {
      socket = value();
    } else if (flag == "--cell") {
      cell = value();
    } else if (flag == "--session") {
      session = value();
    } else if (numbers.binds(flag)) {
      try {
        numbers.apply(flag, value());
      } catch (const PreconditionError& e) {
        std::cerr << "lipsctl replay: " << e.reason() << "\n";
        return 64;  // EX_USAGE
      }
    } else {
      std::cerr << "lipsctl replay: unknown flag: " << flag << "\n";
      replay_usage(argv[0]);
    }
  }
  if (socket.empty()) {
    std::cerr << "lipsctl replay: --connect SOCKET is required\n";
    replay_usage(argv[0]);
  }
  svc::ReplayComparison cmp;
  try {
    cmp = svc::replay_and_compare(socket, cell, seed, session);
  } catch (const std::exception& e) {
    std::cerr << "lipsctl replay: " << user_message(e) << "\n";
    return 1;
  }
  std::cout << "replay: cell \"" << cell << "\" seed " << seed
            << " session " << session << "\n"
            << "  digest  local=" << cmp.local_digest
            << " remote=" << cmp.remote_digest << "\n"
            << "  total   local=" << cmp.local_total.dollars()
            << " remote=" << cmp.remote_total.dollars() << " USD\n"
            << "  carry   local=" << cmp.local_carry.dollars()
            << " remote=" << cmp.remote_carry.dollars() << " USD\n"
            << "  lp      local=" << cmp.local_lp_solves
            << " remote=" << cmp.remote_lp_solves << " solves\n";
  if (!cmp.identical) {
    std::cout << "DIVERGED: " << cmp.divergence << "\n";
    return 1;
  }
  std::cout << "bit-identical\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0)
    return sweep_main(argc - 1, argv + 1);
  if (argc > 1 && std::strcmp(argv[1], "replay") == 0)
    return replay_main(argc - 1, argv + 1);
  const Args args = parse(argc, argv);
  const farm::ScenarioSpec& spec = args.spec;
  // make_run_inputs validates the whole spec first (scheduler names, counts,
  // epoch), so bad input stops here, before any run.
  const farm::RunInputs world = or_reject(
      "lipsctl: ", [&] { return farm::make_run_inputs(spec, args.seed); });
  const cluster::Cluster& c = world.cluster;
  const workload::Workload& w = world.workload;

  // One storm shared by every scheduler: the comparison is apples-to-apples
  // because each run absorbs the identical fault sequence. The storm is
  // seeded by the spec's own seed= key, not by --seed.
  sim::FaultPlan fault_plan;
  if (!args.faults.empty()) {
    fault_plan = or_reject("bad --faults spec: ", [&] {
      return sim::make_fault_storm(sim::parse_fault_spec(args.faults),
                                   c.machine_count(), c.store_count());
    });
  }
  lp::SolverFaultConfig solver_fault_config;
  if (!args.solver_faults.empty()) {
    solver_fault_config = or_reject("bad --solver-faults spec: ", [&] {
      return lp::parse_solver_fault_spec(args.solver_faults);
    });
  }
  ckpt::SnapshotFaultConfig ckpt_fault_config;
  if (!args.checkpoint_faults.empty()) {
    ckpt_fault_config = or_reject("bad --checkpoint-faults spec: ", [&] {
      return ckpt::parse_snapshot_fault_spec(args.checkpoint_faults);
    });
  }
  if (args.checkpoint_dir.empty() &&
      (args.restore || !args.checkpoint_faults.empty()))
    reject("--restore/--checkpoint-faults require --checkpoint-dir");

  if (!args.csv) {
    std::cout << "cluster: " << spec.nodes << " nodes / " << spec.zones
              << " zones (" << spec.c1_fraction * 100 << "% c1.medium, "
              << spec.small_fraction * 100 << "% m1.small)\n"
              << "workload: " << w.job_count() << " jobs, " << w.total_tasks()
              << " tasks, " << Table::num(w.total_input_mb() / kMBPerGB, 1)
              << " GB, " << Table::num(w.total_cpu_ecu_s(), 0)
              << " ECU-seconds\n\n";
  }

  Table t;
  std::vector<std::string> header{"scheduler", "cost_usd", "makespan_s",
                                  "sum_job_duration_s", "locality",
                                  "completed"};
  if (!args.faults.empty()) {
    header.insert(header.end(), {"killed", "retries", "lost", "slowdowns",
                                 "wasted_usd"});
  }
  const bool spec_cols = spec.schedulers.front().speculation != "off";
  if (spec_cols) header.insert(header.end(), {"spec", "spec_usd"});
  t.set_header(header);
  bool all_completed = true;
  std::string lips_lp_summary;  // printed under the table in non-csv mode
  std::string obs_summary;      // one `lips obs:` line per scheduler
  const bool want_obs = !args.metrics_out.empty() ||
                        !args.trace_out.empty() || !args.ledger_out.empty();

  for (const farm::SchedulerSpec& ss : spec.schedulers) {
    const std::string& name = ss.name;
    // Replica placement keeps seed 1, the seed every lipsctl table has been
    // printed with; --seed draws the workload only.
    sim::SimConfig cfg = farm::make_sim_config(spec, ss, 1);
    cfg.record_trace = !args.trace_file.empty();
    cfg.faults = fault_plan;
    // Fresh injector per run: its RNG stream is part of the run's identity,
    // and it must outlive the policy that holds a pointer to it.
    std::unique_ptr<lp::SolverFaultInjector> injector;
    std::unique_ptr<sched::Scheduler> policy;
    core::LipsPolicy* lips_policy = nullptr;  // for LP telemetry below
    if (name == "lips") {
      core::LipsPolicyOptions lo = farm::make_lips_options(spec, ss);
      if (args.patience > 0) {
        lo.model.fake_node_pricing =
            core::ModelOptions::FakeNodePricing::PatienceMin;
        lo.model.fake_node_price_factor = args.patience;
      } else {
        lo.model.fake_node_pricing =
            core::ModelOptions::FakeNodePricing::ProhibitiveMax;
        lo.model.fake_node_price_factor = 1000.0;
      }
      if (!args.solver_faults.empty()) {
        injector =
            std::make_unique<lp::SolverFaultInjector>(solver_fault_config);
        lo.model.fault_injector = injector.get();
      }
      auto lips = std::make_unique<core::LipsPolicy>(lo);
      lips_policy = lips.get();
      policy = std::move(lips);
    } else {
      policy = farm::make_policy(spec, ss);
    }
    // Fresh sinks per run: the ledger folds posts in billing order, so a
    // ledger shared across runs would reconcile against neither.
    std::unique_ptr<obs::MetricRegistry> metrics;
    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<obs::CostLedger> ledger;
    if (want_obs) {
      metrics = std::make_unique<obs::MetricRegistry>();
      tracer = std::make_unique<obs::Tracer>();
      ledger = std::make_unique<obs::CostLedger>();
      cfg.obs = obs::Observer{metrics.get(), tracer.get(), ledger.get()};
    }
    // Checkpoint wiring (DESIGN.md §11). Each scheduler gets its own
    // subdirectory so sequence numbers never interleave across runs.
    std::unique_ptr<ckpt::CheckpointDir> ckpt_dir;
    std::unique_ptr<ckpt::SnapshotFaultInjector> ckpt_faults;
    std::optional<ckpt::Snapshot> resume_snap;  // must outlive the run
    if (!args.checkpoint_dir.empty()) {
      ckpt_dir = std::make_unique<ckpt::CheckpointDir>(args.checkpoint_dir +
                                                       "/" + name);
      cfg.checkpoint_dir = ckpt_dir.get();
      cfg.checkpoint_every_epochs =
          args.checkpoint_every > 0 ? args.checkpoint_every
                                    : auto_checkpoint_every(*policy);
      cfg.checkpoint_label = name + ":seed=" + std::to_string(args.seed);
      if (!args.checkpoint_faults.empty()) {
        ckpt_faults =
            std::make_unique<ckpt::SnapshotFaultInjector>(ckpt_fault_config);
        cfg.checkpoint_faults = ckpt_faults.get();
      }
      if (args.restore) {
        std::vector<ckpt::CheckpointDir::Skipped> skipped;
        resume_snap = ckpt_dir->load_latest(&skipped);
        for (const auto& s : skipped) {
          std::cerr << "lips ckpt: " << name << ": skipping " << s.path
                    << ": " << s.reason << "\n";
        }
        if (resume_snap) {
          cfg.restore_from = &*resume_snap;
          if (!args.csv) {
            std::cout << "lips ckpt: " << name << ": resuming from epoch "
                      << resume_snap->meta.epoch << " (t="
                      << Table::num(resume_snap->meta.sim_time_s, 1)
                      << " s, built from " << resume_snap->meta.git_sha
                      << ")\n";
          }
        } else if (!args.csv) {
          std::cout << "lips ckpt: " << name
                    << ": no usable snapshot, starting fresh\n";
        }
      }
    }
    sim::SimResult r;
    try {
      r = sim::simulate(c, w, *policy, cfg);
    } catch (const ckpt::SnapshotError& e) {
      // Only a restore decodes snapshot bytes: a snapshot from another
      // cluster or workload, or one this build cannot decode, is bad input.
      std::cerr << "lips ckpt: " << name << ": cannot resume: " << e.what()
                << "\n";
      return 2;
    }
    all_completed = all_completed && r.completed;
    if (ckpt_dir && !args.csv) {
      std::cout << "lips ckpt: " << name << ": " << r.checkpoints_written
                << " snapshot(s) written, " << r.checkpoint_failures
                << " failed, schedule digest " << std::hex
                << r.schedule_digest << std::dec
                << (r.restored ? " (resumed run)" : "") << "\n";
      if (ckpt_faults) {
        const auto st = ckpt_faults->stats();
        std::cout << "lips ckpt: " << name << ": fault injector saw "
                  << st.snapshots_seen << " write(s): " << st.torn
                  << " torn, " << st.truncated << " truncated, "
                  << st.corrupted << " corrupted\n";
      }
    }
    if (want_obs) {
      if (!args.metrics_out.empty()) {
        const auto samples = metrics->snapshot();
        std::ofstream prom =
            obs::open_output(args.metrics_out + "." + name + ".prom");
        obs::write_prometheus(samples, prom);
        std::ofstream json =
            obs::open_output(args.metrics_out + "." + name + ".json");
        obs::write_metrics_json(samples, json);
      }
      if (!args.trace_out.empty()) {
        std::ofstream out =
            obs::open_output(args.trace_out + "." + name + ".trace.json");
        obs::write_chrome_trace(*tracer, out);
      }
      if (!args.ledger_out.empty()) {
        std::ofstream out =
            obs::open_output(args.ledger_out + "." + name + ".json");
        obs::write_ledger_json(*ledger, out);
      }
      const obs::CostLedger::Reconciliation rec =
          ledger->reconcile(sim::billed_totals(r));
      std::ostringstream os;
      os << "lips obs: " << name << ": billed $"
         << Table::num(millicents_to_dollars(ledger->billed_total()), 3)
         << " (cpu $"
         << Table::num(millicents_to_dollars(
                           ledger->category_total(obs::CostCategory::Cpu)),
                       3)
         << ", transfer $"
         << Table::num(millicents_to_dollars(ledger->category_total(
                           obs::CostCategory::Transfer)),
                       3)
         << ", placement $"
         << Table::num(millicents_to_dollars(ledger->category_total(
                           obs::CostCategory::InitialPlacement)),
                       3)
         << ", wasted $"
         << Table::num(millicents_to_dollars(ledger->category_total(
                           obs::CostCategory::WastedFault)),
                       3)
         << ", spec $"
         << Table::num(millicents_to_dollars(ledger->category_total(
                           obs::CostCategory::Speculation)),
                       3)
         << ", carry $"
         << Table::num(millicents_to_dollars(ledger->category_total(
                           obs::CostCategory::FakeNodeCarry)),
                       3)
         << "), ledger "
         << (rec.ok ? "reconciles bit-identically" : "DOES NOT reconcile")
         << " over " << ledger->posts() << " posts, "
         << tracer->total_recorded() << " trace events ("
         << tracer->overwritten() << " overwritten), "
         << metrics->series_count() << " metric series\n";
      obs_summary += os.str();
    }
    if (!args.trace_file.empty()) {
      const std::string path = args.trace_file + "." + name + ".csv";
      std::ofstream out(path);
      out << "time_s,event,job,task,machine,store,amount\n";
      for (const sim::TraceEvent& e : r.trace) {
        auto field = [](std::size_t v) {
          return v == SIZE_MAX ? std::string() : std::to_string(v);
        };
        out << e.time_s << ',' << sim::to_string(e.kind) << ',' << field(e.job)
            << ',' << field(e.task) << ',' << field(e.machine) << ','
            << field(e.store) << ',' << e.amount << "\n";
      }
      if (!args.csv) std::cout << "trace written to " << path << "\n";
    }
    std::vector<std::string> row{
        name, Table::num(millicents_to_dollars(r.total_cost_mc), 3),
        Table::num(r.makespan_s, 0), Table::num(r.sum_job_duration_s, 0),
        Table::pct(r.data_local_fraction.value()), r.completed ? "yes" : "no"};
    if (!args.faults.empty()) {
      row.push_back(std::to_string(r.tasks_killed_by_faults));
      row.push_back(std::to_string(r.fault_retries));
      row.push_back(std::to_string(r.tasks_lost));
      row.push_back(std::to_string(r.machine_slowdowns));
      row.push_back(Table::num(millicents_to_dollars(r.wasted_cost_mc), 3));
    }
    if (spec_cols) {
      row.push_back(std::to_string(r.speculative_launched));
      row.push_back(
          Table::num(millicents_to_dollars(r.speculation_cost_mc), 3));
    }
    t.add_row(row);
    if (lips_policy != nullptr) {
      std::ostringstream os;
      os << "lips lp: " << lips_policy->lp_solves() << " solves ("
         << lips_policy->lp_warm_solves() << " warm, "
         << lips_policy->lp_model_reuses() << " model reuses, "
         << lips_policy->certificate_failures() << " uncertified), "
         << lips_policy->total_lp_iterations() << " pivots ("
         << lips_policy->lp_repair_iterations() << " dual repair), "
         << lips_policy->off_cycle_resolves() << " off-cycle re-solves\n";
      os << "lips resilience: " << lips_policy->schedules_validated()
         << " schedules validated (" << lips_policy->validation_failures()
         << " rejected), degradations: "
         << lips_policy->degradations(core::LipsPolicy::DegradationRung::ColdRebuild)
         << " cold rebuild, "
         << lips_policy->degradations(core::LipsPolicy::DegradationRung::GreedyFallback)
         << " greedy fallback, "
         << lips_policy->degradations(core::LipsPolicy::DegradationRung::ReuseLastPlan)
         << " plan reuse, " << lips_policy->solver_exceptions()
         << " solver exceptions\n";
      if (injector != nullptr) {
        const lp::SolverFaultInjector::Stats& fs = injector->stats();
        os << "lips solver-faults: " << fs.total_injected()
           << " faults injected over " << fs.solves_seen << " solves ("
           << fs.objective_nans << " cost NaN, " << fs.rhs_nans
           << " rhs NaN, " << fs.rhs_infs << " rhs Inf, "
           << fs.objective_huges << " cost huge, " << fs.bases_corrupted
           << " bases corrupted, " << fs.refactor_failures
           << " refactor failures, " << fs.budgets_starved
           << " budgets starved)\n";
      }
      lips_lp_summary = os.str();
    }
  }

  if (args.csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
    if (!lips_lp_summary.empty()) std::cout << "\n" << lips_lp_summary;
    if (!obs_summary.empty()) std::cout << "\n" << obs_summary;
  }
  return all_completed ? 0 : 1;
}
