// perfbench: the repository's benchmark. One invocation runs one workload
// for a fixed measuring time and prints every metric by name with its unit
// and sample count, then one JSON line:
//
//   perfbench --workload swim-day|swim-exact|lipsd-tenants --seed N
//             --seconds S --trace 0|1 --lipsd PATH --run-dir DIR
//             [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, measured on traced passes interleaved with untraced ones, and
// writes a Chrome trace to --trace-out. Every layer is measured from
// outside: ProbePolicy wraps the sched::Scheduler callbacks, and the
// program's own lips-replan / lp-solve spans, lips_lp_* counters and
// lipsd METRICS? counters are read back. perfbench/README.md explains the
// workloads and what each layer metric should move.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/build_info.hpp"
#include "common/rng.hpp"
#include "core/lips_policy.hpp"
#include "farm/recipe.hpp"
#include "farm/scenario.hpp"
#include "lipsd_child.hpp"
#include "obs/export.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe_policy.hpp"
#include "sched/delay_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "svc/client.hpp"
#include "svc/wire.hpp"
#include "workload/swim.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using namespace lips;

/// Generator seed of the SWIM job mix: the paper's Fig. 9/10 day, as
/// bench_fig9_fig10_scale builds it. --seed draws the data layout.
constexpr std::uint64_t kMixSeed = 2013;
/// In-process slot offers are timed one in this many.
constexpr std::uint64_t kSlotEvery = 64;
/// A lane repeats its pass until about this much host time per round.
constexpr double kSliceS = 1.0;
constexpr int kMaxReps = 10;
/// Set-ups timed per in-process run (the first one is cold).
constexpr int kSetups = 21;
constexpr std::size_t kTenants = 3;
/// Each lipsd tenant sends SNAPSHOT after every this-many epochs.
constexpr std::size_t kSnapshotEvery = 4;
/// lipsd tenants time the state encoding on one slot offer in this many.
constexpr std::uint64_t kStateEvery = 64;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;

enum class Kind : unsigned char { Default, Delay, Lips };
constexpr Kind kKinds[] = {Kind::Default, Kind::Delay, Kind::Lips};

const char* label(Kind k) {
  switch (k) {
    case Kind::Default:
      return "default";
    case Kind::Delay:
      return "delay";
    case Kind::Lips:
      return "lips";
  }
  return "?";
}

double ms(double seconds) { return seconds * 1e3; }
double us(double seconds) { return seconds * 1e6; }

std::vector<double> scaled(const std::vector<double>& seconds, double by) {
  std::vector<double> out;
  out.reserve(seconds.size());
  for (const double s : seconds) out.push_back(s * by);
  return out;
}

double sum(const std::vector<double>& xs) {
  double t = 0.0;
  for (const double x : xs) t += x;
  return t;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string lipsd;
  std::string run_dir;
  std::string trace_out;
  double clock_s = 0.0;  ///< clock_cost_s(), measured at start-up
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload swim-day|swim-exact|"
               "lipsd-tenants --seed N --seconds S --trace 0|1 "
               "--lipsd PATH --run-dir DIR [--trace-out FILE]\n";
  std::exit(64);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = !v.empty() && *end == '\0' && v[0] != '-';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = !v.empty() && *end == '\0' && a.seconds > 0.0;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--lipsd") {
      a.lipsd = v;
    } else if (flag == "--run-dir") {
      a.run_dir = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload != "swim-day" && a.workload != "swim-exact" &&
      a.workload != "lipsd-tenants")
    usage("unknown workload '" + a.workload + "'");
  if (!have_seed || !have_seconds || !have_trace || a.run_dir.empty())
    usage("--seed, --seconds, --trace and --run-dir are required");
  if (a.workload == "lipsd-tenants" && a.lipsd.empty())
    usage("lipsd-tenants needs --lipsd");
  return a;
}

// ------------------------------------------------------------------ checks

/// Operations are scheduler passes and wire commands; a failure is a failed
/// check, an ERR or a BUSY.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void ops(std::uint64_t n) { attempted += n; }
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  void errors(std::uint64_t n, const std::string& what) {
    if (n == 0) return;
    failed += n;
    if (failures.size() < 20) failures.push_back(what);
  }
};

/// What must repeat bit for bit between passes of one (world, scheduler).
struct Fingerprint {
  std::uint64_t digest = 0;
  std::uint64_t cost_bits = 0;
  std::uint64_t job_s_bits = 0;
  std::size_t completed = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const sim::SimResult& r) {
  return {r.schedule_digest, bits(r.total_cost_mc.raw()),
          bits(r.sum_job_duration_s), r.tasks_completed};
}

// ------------------------------------------------------------------ worlds

struct SetupSplit {
  double cluster_s = 0.0;
  double gen_s = 0.0;
};

/// One simulated world: the scenario's cluster and workload, and the seed
/// that placed its data.
struct World {
  farm::ScenarioSpec spec;
  std::uint64_t seed = 0;
  cluster::Cluster cluster;
  workload::Workload workload;
};

/// The seed relabels interchangeable nodes: a permutation of the stores
/// that keeps each store's zone and co-located instance type (so its price
/// and links) moves every input object to an equivalent store. The day and
/// its cost structure stay the mix's; which node ids hold the data, and so
/// every id-ordered tie-break in the schedulers and the LP, is the seed's.
/// (A fresh random layout per seed moved tasks_per_s.lips by 15% and
/// replan_ms.p90 by 30% between seeds on swim-exact: wider than the bounds.)
workload::Workload relabel(const workload::Workload& mix,
                           const cluster::Cluster& c, std::uint64_t seed) {
  std::map<std::pair<std::size_t, int>, std::vector<std::size_t>> classes;
  for (std::size_t s = 0; s < c.store_count(); ++s) {
    const cluster::DataStore& st = c.store(StoreId{s});
    const int type =
        st.is_colocated()
            ? c.machine(MachineId{st.colocated_machine}).instance_type
            : -1;
    classes[{st.zone.value(), type}].push_back(s);
  }
  Rng rng(seed);
  std::vector<std::size_t> to(c.store_count());
  for (auto& [key, members] : classes) {
    std::vector<std::size_t> image = members;
    for (std::size_t i = image.size(); i > 1; --i)
      std::swap(image[i - 1], image[rng.index(i)]);
    for (std::size_t i = 0; i < members.size(); ++i) to[members[i]] = image[i];
  }
  workload::Workload out;
  for (workload::DataObject d : mix.data_objects()) {
    d.origin = StoreId{to[d.origin.value()]};
    (void)out.add_data(std::move(d));
  }
  for (const workload::Job& j : mix.jobs()) (void)out.add_job(j);
  return out;
}

/// Build a world and time its two halves. SWIM scenarios take the fixed
/// mix and, when `relabelled`, the seed's relabelling; table4 draws its
/// layout from the seed (farm::make_run_inputs builds the identical world
/// inside lipsd).
World build_world(const farm::ScenarioSpec& spec, std::uint64_t seed,
                  SetupSplit* split, bool relabelled = true) {
  const Clock::time_point t0 = Clock::now();
  cluster::Cluster c = cluster::make_ec2_cluster(
      spec.nodes, spec.c1_fraction, spec.zones, spec.small_fraction);
  const Clock::time_point t1 = Clock::now();
  workload::Workload w;
  if (spec.workload == "swim") {
    Rng rng(kMixSeed);
    workload::SwimParams sp;
    sp.n_jobs = spec.jobs;
    w = workload::make_swim_workload(sp, c, rng).workload;
    if (relabelled) w = relabel(w, c, seed);
  } else {
    Rng rng(seed);
    w = workload::make_table4_workload(c, rng);
  }
  const Clock::time_point t2 = Clock::now();
  if (split != nullptr) {
    split->cluster_s = seconds_between(t0, t1);
    split->gen_s = seconds_between(t1, t2);
  }
  return World{spec, seed, std::move(c), std::move(w)};
}

sim::SimConfig baseline_config(const World& w) {
  // The Hadoop substrate of bench_util's run_three_way: HDFS replication,
  // time-only speculation, the 10-minute progress timeout.
  sim::SimConfig cfg;
  cfg.hdfs_replication = w.spec.replication;
  cfg.replication_seed = w.seed;
  cfg.speculative_execution = true;
  cfg.speculation.mode = sim::SpeculationConfig::Mode::Naive;
  cfg.task_timeout_s = w.spec.baseline_timeout_s;
  return cfg;
}

sim::SimConfig lips_config(const World& w) {
  sim::SimConfig cfg;
  farm::apply_lips_sim_config(w.spec, w.seed, cfg);
  return cfg;
}

core::LipsPolicyOptions lips_options(const World& w) {
  return farm::make_lips_options(w.spec, farm::SchedulerSpec{});
}

std::unique_ptr<sched::Scheduler> make_scheduler(Kind k, const World& w) {
  switch (k) {
    case Kind::Default:
      return std::make_unique<sched::FifoLocalityScheduler>();
    case Kind::Delay:
      return std::make_unique<sched::DelayScheduler>(15.0, 45.0);
    case Kind::Lips:
      return std::make_unique<core::LipsPolicy>(lips_options(w));
  }
  return nullptr;
}

// --------------------------------------------------------- program counters

/// Counters keyed "name{k=v,...}" — read from an in-process MetricRegistry
/// or from lipsd's METRICS? reply, so both feed one set of formulas.
using Counters = std::map<std::string, double>;

std::string counter_key(const std::string& name, const obs::Labels& labels) {
  std::string key = name;
  if (labels.empty()) return key;
  key += "{";
  for (std::size_t i = 0; i < labels.size(); ++i)
    key += (i ? "," : "") + labels[i].first + "=" + labels[i].second;
  return key + "}";
}

Counters counters_of(const obs::MetricRegistry& reg) {
  Counters out;
  for (const obs::MetricRegistry::Sample& s : reg.snapshot()) {
    const std::string key = counter_key(s.name, s.labels);
    if (s.kind == obs::MetricRegistry::Kind::Histogram) {
      out[key + ":sum"] = s.sum;
      out[key + ":count"] = static_cast<double>(s.count);
    } else {
      out[key] = s.value;
    }
  }
  return out;
}

/// Parse "METRIC <name> [k=v ...] value=<hex>" / "... sum=<hex> count=<n>".
Counters counters_of(const std::vector<std::string>& metric_lines) {
  Counters out;
  for (const std::string& line : metric_lines) {
    const std::vector<std::string> tok = svc::split(line, ' ');
    if (tok.size() < 3 || tok[0] != "METRIC") continue;
    obs::Labels labels;
    std::optional<double> value, sum_v, count_v;
    for (std::size_t i = 2; i < tok.size(); ++i) {
      const std::size_t eq = tok[i].find('=');
      if (eq == std::string::npos) continue;
      const std::string k = tok[i].substr(0, eq);
      const std::string v = tok[i].substr(eq + 1);
      if (k == "value") {
        value = svc::parse_f64(v);
      } else if (k == "sum") {
        sum_v = svc::parse_f64(v);
      } else if (k == "count") {
        count_v = static_cast<double>(svc::parse_u64(v));
      } else {
        labels.emplace_back(k, v);
      }
    }
    const std::string key = counter_key(tok[1], labels);
    if (value) out[key] = *value;
    if (sum_v) out[key + ":sum"] = *sum_v;
    if (count_v) out[key + ":count"] = *count_v;
  }
  return out;
}

double counter(const Counters& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

/// Sum of every series of `name`, whatever its labels.
double counter_sum(const Counters& c, const std::string& name) {
  double t = 0.0;
  for (const auto& [key, v] : c)
    if (key == name || key.rfind(name + "{", 0) == 0) t += v;
  return t;
}

// ----------------------------------------------------------- spans read back

/// Durations (ms) of the program's own spans named `name`, matched B/E per
/// name: the simulator's event spans interleave but never cross these.
std::vector<double> span_ms(const obs::Tracer& tracer, const char* name) {
  std::vector<double> out;
  std::vector<std::uint64_t> open;
  tracer.for_each([&](const obs::TraceRecord& r) {
    if (std::strcmp(r.name, name) != 0) return;
    if (r.phase == 'B') {
      open.push_back(r.ts_us);
    } else if (r.phase == 'E' && !open.empty()) {
      out.push_back(static_cast<double>(r.ts_us - open.back()) / 1e3);
      open.pop_back();
    }
  });
  return out;
}

// ------------------------------------------------------------------- passes

/// What one scheduler pass leaves behind: its host time, its outputs, and
/// the layer numbers the probe and (traced) the program recorded.
struct Pass {
  double host_s = 0.0;
  Fingerprint fp;
  double cost_usd = 0.0;
  double sum_job_s = 0.0;
  std::size_t jobs = 0;
  // Probe readings; the three vectors are folded into the lane's fastest
  // readings and then dropped, so memory does not grow with the pass count.
  std::vector<double> stretches_s;  ///< between progress marks
  std::vector<double> replan_ms;
  std::vector<double> decision_us;  ///< sampled offers
  double slot_s = 0.0;
  double hooks_s = 0.0;
  double epoch_s = 0.0;
  double other_s = 0.0;  ///< benchmark work inside the pass (not the layer)
  std::uint64_t offers = 0;
  std::uint64_t launches = 0;
  // LiPS, traced: the program's own spans and counters.
  std::vector<double> replan_span_ms;
  std::vector<double> solve_span_ms;
  Counters counters;
  std::size_t validated = 0;
  std::size_t validation_failures = 0;
  std::size_t degradations = 0;
};

void take_probe(const ProbePolicy& p, double clock_s, Pass& out) {
  out.replan_ms = scaled(p.epoch.sampled(), 1e3);
  out.decision_us = scaled(p.slot.sampled(), 1e6);
  out.slot_s = p.slot.estimated_total(clock_s);
  out.hooks_s = p.hooks_s(clock_s);
  out.epoch_s = p.epoch.estimated_total(clock_s);
  out.offers = p.slot.calls();
  out.launches = p.launches;
}

void check_result(const World& w, Kind k, const sim::SimResult& r,
                  Checks& checks) {
  checks.expect(r.completed && r.tasks_completed == w.workload.total_tasks(),
                std::string(label(k)) + " pass left tasks unfinished");
}

void check_ledger(const obs::CostLedger& ledger, const sim::SimResult& r,
                  const core::LipsPolicy* lips, Kind k, Checks& checks) {
  bool ok = ledger.reconcile(sim::billed_totals(r)).ok &&
            ledger.billed_total() == r.total_cost_mc;
  if (lips != nullptr)
    ok = ok && ledger.meter_total(obs::CostMeter::FakeNodeCarry) ==
                   lips->fake_node_carry_mc();
  checks.expect(ok, std::string(label(k)) + " ledger does not reconcile");
}

/// What every pass of a run shares: the trace ring, the failure tally and
/// the clock's own cost.
struct Env {
  obs::Tracer& trace;
  Checks& checks;
  double clock_s = 0.0;
};

/// One in-process pass, always through a probe for its progress marks.
/// Untraced, only LiPS times calls (every replan, one offer in 64). Traced,
/// every callback kind is timed, and a LiPS pass also records the program's
/// spans into `trace` and its counters.
Pass run_pass(const World& w, Kind k, bool traced, Env& env) {
  obs::Tracer& trace = env.trace;
  Checks& checks = env.checks;
  Pass out;
  std::unique_ptr<sched::Scheduler> inner = make_scheduler(k, w);
  auto* lips = dynamic_cast<core::LipsPolicy*>(inner.get());
  sim::SimConfig cfg = lips != nullptr ? lips_config(w) : baseline_config(w);
  obs::CostLedger ledger;
  obs::MetricRegistry registry;
  ProbeOptions po;
  po.slot_every = traced || lips != nullptr ? kSlotEvery : 0;
  po.hook_every = traced ? 1 : 0;
  if (traced) {
    cfg.obs.ledger = &ledger;
    if (lips != nullptr) {
      trace.clear();
      po.spans = &trace;
      cfg.obs.tracer = &trace;
      lips->set_observer(obs::Observer{&registry, &trace, &ledger});
    }
  }
  ProbePolicy probe(*inner, std::move(po));

  const Clock::time_point t0 = Clock::now();
  const sim::SimResult r = sim::simulate(w.cluster, w.workload, probe, cfg);
  out.host_s = seconds_between(t0, Clock::now());
  std::vector<double> marks;
  for (const Clock::time_point m : probe.marks)
    marks.push_back(seconds_between(t0, m));
  out.stretches_s = stretches(marks, out.host_s);

  checks.ops(1);
  check_result(w, k, r, checks);
  out.fp = fingerprint(r);
  out.cost_usd = millicents_to_dollars(r.total_cost_mc);
  out.sum_job_s = r.sum_job_duration_s;
  out.jobs = w.workload.job_count();
  take_probe(probe, env.clock_s, out);
  if (lips != nullptr) {
    out.validated = lips->schedules_validated();
    out.validation_failures = lips->validation_failures();
    out.degradations = lips->total_degradations();
    checks.expect(out.validation_failures == 0 && out.degradations == 0,
                  "LiPS failed validation or degraded");
  }
  if (traced) {
    check_ledger(ledger, r, lips, k, checks);
    if (lips != nullptr) {
      checks.expect(trace.overwritten() == 0, "trace ring overflowed");
      out.replan_span_ms = span_ms(trace, "lips-replan");
      out.solve_span_ms = span_ms(trace, "lp-solve");
      out.counters = counters_of(registry);
    }
  }
  return out;
}

/// Elementwise fastest readings over a lane's passes (stats::keep_fastest).
struct Fastest {
  std::vector<double> stretches_s;
  std::vector<double> replan_ms;
  std::vector<double> decision_us;
};

/// A (world, scheduler) pair and every pass made of it.
struct Lane {
  const World* world = nullptr;
  Kind kind = Kind::Default;
  int reps = 1;
  std::optional<Fingerprint> reference;
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  Fastest plain_best;
  Fastest traced_best;
};

Lane make_lane(const World& w, Kind k) {
  Lane lane;
  lane.world = &w;
  lane.kind = k;
  return lane;
}

void run_lane(Lane& lane, bool traced, Env& env) {
  Checks& checks = env.checks;
  Pass p = run_pass(*lane.world, lane.kind, traced, env);
  if (!lane.reference) lane.reference = p.fp;
  checks.expect(p.fp == *lane.reference,
                std::string(label(lane.kind)) +
                    " pass differs from the first pass (digest, cost or "
                    "job time bits)");
  Fastest& best = traced ? lane.traced_best : lane.plain_best;
  checks.expect(keep_fastest(best.stretches_s, p.stretches_s) &&
                    keep_fastest(best.replan_ms, p.replan_ms) &&
                    keep_fastest(best.decision_us, p.decision_us),
                std::string(label(lane.kind)) +
                    " pass made other progress marks, replans or offers");
  p.stretches_s = {};
  p.replan_ms = {};
  p.decision_us = {};
  (traced ? lane.traced : lane.plain).push_back(std::move(p));
}

/// One round: every lane `reps` times, each untraced pass followed by a
/// traced one when tracing.
void run_round(std::vector<Lane>& lanes, bool traced, Env& env) {
  for (Lane& lane : lanes) {
    for (int i = 0; i < lane.reps; ++i) {
      run_lane(lane, false, env);
      if (traced) run_lane(lane, true, env);
    }
  }
}

/// First round: one pass per lane sets the reference outputs and how many
/// passes of each lane fill a slice.
void first_round(std::vector<Lane>& lanes, bool traced, Env& env) {
  for (Lane& lane : lanes) {
    run_lane(lane, false, env);
    if (traced) run_lane(lane, true, env);
    const double s = lane.plain.back().host_s;
    lane.reps = std::clamp(static_cast<int>(std::lround(kSliceS / s)), 1,
                           kMaxReps);
  }
}

const Pass& fastest_pass(const std::vector<Pass>& passes) {
  std::vector<double> s;
  for (const Pass& p : passes) s.push_back(p.host_s);
  return passes[fastest(s)];
}

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note) {
    metrics_.push_back({name, value, unit, note});
  }
  void add(const std::string& name, Stat s, const std::string& unit,
           const std::string& what) {
    add(name, s.value, unit, "n=" + std::to_string(s.n) + " " + what);
  }
  /// A metric this workload has no layer for: 0, sample count 0.
  void absent(const std::string& name, const std::string& unit,
              const std::string& why) {
    add(name, 0.0, unit, "n=0 " + why);
  }

  /// The human-readable lines, then the one-line JSON result. A metric that
  /// came out NaN or infinite is a failed check and prints as 0.
  void print(Checks checks) const {
    for (const Metric& m : metrics_)
      checks.expect(std::isfinite(m.value), m.name + " is not finite");
    for (const Metric& m : metrics_) {
      std::printf("  %-30s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::printf("operations: attempted=%llu failed=%llu (%.6f failed)\n",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed),
                ratio(static_cast<double>(checks.failed),
                      static_cast<double>(checks.attempted)));
    for (const std::string& f : checks.failures)
      std::printf("FAILED: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                        : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), v,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Host seconds of a lane's passes, each stretch between progress marks
/// taken from the pass that ran it fastest.
double fastest_s(const Fastest& f) { return sum(f.stretches_s); }

/// End-to-end throughput and cost of the lanes of one scheduler, summed
/// over their worlds: tasks / Σ fastest seconds, dollars / 1000 tasks.
void add_lane_e2e(Report& rep, const std::vector<Lane>& lanes, Kind k) {
  double tasks = 0.0, best_s = 0.0, usd = 0.0;
  std::size_t passes = SIZE_MAX;
  for (const Lane& lane : lanes) {
    if (lane.kind != k) continue;
    tasks += static_cast<double>(lane.reference->completed);
    best_s += fastest_s(lane.plain_best);
    usd += lane.plain.front().cost_usd;
    passes = std::min(passes, lane.plain.size());
  }
  const std::string world_note =
      "fastest of " + std::to_string(passes) +
      " passes, stretch by stretch; " +
      std::to_string(static_cast<long long>(tasks)) + " tasks";
  rep.add(std::string("tasks_per_s.") + label(k), tasks / best_s, "1/s",
          world_note);
  rep.add(std::string("usd_per_ktask.") + label(k), usd / tasks * 1e3, "USD",
          "simulated dollars per 1000 tasks");
}

/// Per-layer sim/sched numbers of one scheduler: each lane's fastest traced
/// pass, summed over worlds.
struct SchedLayer {
  double pass_s = 0.0, slot_s = 0.0, hooks_s = 0.0, epoch_s = 0.0,
         other_s = 0.0;
  double offers = 0.0, launches = 0.0;
  std::size_t passes = 0;
};

void add_sched_layers(Report& rep, const SchedLayer& s, Kind k) {
  const std::string l = label(k);
  const std::string n = "n=" + std::to_string(s.passes) + " traced passes";
  const double self_s =
      self_time(s.pass_s, {s.slot_s, s.hooks_s, s.epoch_s, s.other_s});
  std::printf("host time of the %s pass (%.1f ms): slot offers %.1f%%, "
              "replans %.1f%%, hooks %.1f%%, simulator %.1f%%\n",
              l.c_str(), ms(s.pass_s), 100.0 * ratio(s.slot_s, s.pass_s),
              100.0 * ratio(s.epoch_s, s.pass_s),
              100.0 * ratio(s.hooks_s, s.pass_s),
              100.0 * ratio(self_s, s.pass_s));
  rep.add("sim.self_ms." + l, ms(self_s), "ms",
          n + "; pass minus scheduler callbacks");
  rep.add("sim.slot_offers." + l, s.offers, "count", n);
  rep.add("sim.launch_ratio." + l, ratio(s.launches, s.offers), "ratio",
          "launches / slot offers");
  rep.add("sched.slot_ms." + l, ms(s.slot_s), "ms",
          n + "; sampled offers x offers");
  rep.add("sched.slot_us.mean." + l, us(ratio(s.slot_s, s.offers)), "us",
          "per slot offer");
  rep.add("sched.hooks_ms." + l, ms(s.hooks_s), "ms",
          "job arrival, task completion, data moves");
}

SchedLayer lane_layer(const std::vector<Lane>& lanes, Kind k) {
  SchedLayer s;
  for (const Lane& lane : lanes) {
    if (lane.kind != k || lane.traced.empty()) continue;
    const Pass& p = fastest_pass(lane.traced);
    s.pass_s += p.host_s;
    s.slot_s += p.slot_s;
    s.hooks_s += p.hooks_s;
    s.epoch_s += p.epoch_s;
    s.other_s += p.other_s;
    s.offers += static_cast<double>(p.offers);
    s.launches += static_cast<double>(p.launches);
    s.passes = lane.traced.size();
  }
  return s;
}

/// lp.* from the lips_lp_* counters (and, in-process, the lp-solve spans).
void add_lp_layers(Report& rep, const Counters& c,
                   const std::vector<double>* solve_spans,
                   const std::string& source) {
  const double cold = counter(c, "lips_lp_solves_total{mode=cold}");
  const double warm = counter(c, "lips_lp_solves_total{mode=warm}");
  const double fallback =
      counter(c, "lips_lp_solves_total{mode=cold_fallback}");
  const double reuses = counter(c, "lips_lp_model_reuses_total");
  const double pivots = counter(c, "lips_lp_pivots_total");
  double solve_ms = counter(c, "lips_lp_solve_duration_ms:sum");
  if (solve_spans != nullptr) solve_ms = sum(*solve_spans);
  rep.add("lp.solves.cold", cold, "count", source);
  rep.add("lp.solves.warm", warm, "count", source);
  rep.add("lp.solves.cold_fallback", fallback, "count", source);
  rep.add("lp.builds", cold + warm + fallback - reuses, "count",
          "solves that built the model (solves - in-place reuses)");
  rep.add("lp.model_reuses", reuses, "count", source);
  rep.add("lp.pivots", pivots, "count", source);
  rep.add("lp.repair_pivots", counter(c, "lips_lp_repair_pivots_total"),
          "count", source);
  rep.add("lp.solve_ms.total", solve_ms, "ms",
          solve_spans != nullptr ? "sum of lp-solve spans"
                                 : "lips_lp_solve_duration_ms sum");
  if (solve_spans != nullptr) {
    rep.add("lp.solve_ms.p50", quantile(*solve_spans, 0.5), "ms",
            "lp-solve spans");
    rep.add("lp.solve_ms.p90", quantile(*solve_spans, 0.9), "ms",
            "lp-solve spans");
  } else {
    rep.absent("lp.solve_ms.p50", "ms", "lipsd exports no per-solve times");
    rep.absent("lp.solve_ms.p90", "ms", "lipsd exports no per-solve times");
  }
  rep.add("lp.us_per_pivot", us(ratio(solve_ms / 1e3, pivots)), "us",
          "solve time / pivots");
}

void add_absent_svc(Report& rep) {
  const char* why = "no lipsd in this workload";
  for (const char* cb : {"slot", "epoch", "task", "job", "moves"})
    rep.absent(std::string("svc.callback_us.p50.") + cb, "us", why);
  rep.absent("svc.decision_us.p90", "us", why);
  rep.absent("svc.decision_us.p99", "us", why);
  rep.absent("svc.state_bytes.mean", "bytes", why);
  rep.absent("svc.state_encode_us.mean", "us", why);
  rep.absent("svc.state_decode_us.mean", "us", why);
  rep.absent("svc.commands", "count", why);
  rep.absent("svc.round_trips_per_task", "ratio", why);
  rep.absent("svc.busy", "count", why);
  rep.absent("svc.err", "count", why);
  rep.absent("svc.lipsd_cpu_s", "s", why);
  rep.absent("svc.lipsd_peak_rss_mb", "MB", why);
  rep.absent("svc.spawn_ms", "ms", why);
  rep.absent("svc.open_ms", "ms", why);
  rep.absent("ckpt.snapshot_ms.p50", "ms", why);
  rep.absent("ckpt.snapshots", "count", why);
  rep.absent("ckpt.snapshot_kb", "KiB", why);
}

void write_trace(const obs::Tracer& trace, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out = obs::open_output(path);
  obs::write_chrome_trace(trace, out);
  std::printf("chrome trace: %s (%zu records)\n", path.c_str(), trace.size());
}

// ------------------------------------------------------ in-process workloads

/// `fixed_baselines`: the default and delay lanes run on the mix's own
/// layout for every seed, and only LiPS on the seed's relabelling. On the
/// small swim-exact day the delay scheduler's scanning work swings by up
/// to ±18% between relabellings (1.15e8–1.66e8 pending tasks examined over
/// 8 seeds), wider than its bound; the seed stays on the workload's subject.
int run_in_process(const Args& a, const std::string& spec_text,
                   bool fixed_baselines) {
  const farm::ScenarioSpec spec = farm::parse_scenario_spec(spec_text);
  Checks checks;
  Report rep;

  // Set-up: build the world(s) and construct the three policies, kSetups
  // times; the median is reported (the first, cold one is the slowest).
  std::vector<double> setup_s, cluster_ms, gen_ms;
  std::optional<World> world, base_world;
  for (int i = 0; i < kSetups; ++i) {
    SetupSplit split;
    const Clock::time_point t0 = Clock::now();
    World w = build_world(spec, a.seed, &split);
    if (fixed_baselines)
      base_world.emplace(build_world(spec, kMixSeed, nullptr, false));
    for (const Kind k : kKinds) (void)make_scheduler(k, w);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    cluster_ms.push_back(ms(split.cluster_s));
    gen_ms.push_back(ms(split.gen_s));
    world.emplace(std::move(w));
  }
  std::printf("world: %s — %zu nodes, %zu jobs, %zu map tasks (mix seed "
              "%llu, layout seed %llu)\n",
              spec_text.c_str(), world->cluster.machine_count(),
              world->workload.job_count(), world->workload.total_tasks(),
              static_cast<unsigned long long>(kMixSeed),
              static_cast<unsigned long long>(a.seed));

  std::vector<Lane> lanes;
  for (const Kind k : kKinds)
    lanes.push_back(make_lane(
        k != Kind::Lips && fixed_baselines ? *base_world : *world, k));
  obs::Tracer trace(a.trace ? kTraceCapacity : 1);
  Env env{trace, checks, a.clock_s};
  const Clock::time_point start = Clock::now();
  first_round(lanes, a.trace, env);
  while (seconds_between(start, Clock::now()) < a.seconds)
    run_round(lanes, a.trace, env);
  std::printf("measured %.1f s: passes default=%zu delay=%zu lips=%zu%s\n",
              seconds_between(start, Clock::now()), lanes[0].plain.size(),
              lanes[1].plain.size(), lanes[2].plain.size(),
              a.trace ? " (each also traced)" : "");

  const Lane& lips = lanes[2];
  const Pass& ref = lips.plain.front();
  if (!a.trace) {
    rep.add("setup_s", median_of(setup_s), "s", "median set-up");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB", "benchmark process");
    for (const Kind k : kKinds) add_lane_e2e(rep, lanes, k);
    const std::string each =
        "each the fastest of " + std::to_string(lips.plain.size()) + " passes";
    rep.add("replan_ms.p50", quantile(lips.plain_best.replan_ms, 0.5), "ms",
            "replans, " + each);
    rep.add("replan_ms.p90", quantile(lips.plain_best.replan_ms, 0.9), "ms",
            "replans, " + each);
    rep.add("decision_us.p50", quantile(lips.plain_best.decision_us, 0.5),
            "us", "sampled offers, " + each);
    rep.add("job_s.mean.lips", ref.sum_job_s / static_cast<double>(ref.jobs),
            "s", "simulated");
  } else {
    for (const Kind k : kKinds) add_sched_layers(rep, lane_layer(lanes, k), k);
    const Pass& t = fastest_pass(lips.traced);
    const double replan_total = sum(t.replan_span_ms);
    rep.add("core.replans", static_cast<double>(t.replan_span_ms.size()),
            "count", "lips-replan spans");
    rep.add("core.replan_ms.total", replan_total, "ms", "lips-replan spans");
    rep.add("core.replan_self_ms", self_time(replan_total, t.solve_span_ms),
            "ms", "replan minus lp-solve spans");
    rep.add("core.validated", static_cast<double>(t.validated), "count",
            "schedules validated");
    rep.add("core.validation_failures",
            static_cast<double>(t.validation_failures), "count", "");
    rep.add("core.degradations", static_cast<double>(t.degradations),
            "count", "");
    add_lp_layers(rep, t.counters, &t.solve_span_ms, "lips_lp_* counters");
    add_absent_svc(rep);
    rep.add("cluster.build_ms", median_of(cluster_ms), "ms", "median");
    rep.add("workload.gen_ms", median_of(gen_ms), "ms", "median");
    double plain_s = 0.0, traced_s = 0.0;
    for (const Lane& lane : lanes) {
      plain_s += fastest_s(lane.plain_best);
      traced_s += fastest_s(lane.traced_best);
    }
    rep.add("obs.trace_overhead", traced_s / plain_s - 1.0, "ratio",
            "fastest traced / fastest untraced - 1");
    write_trace(trace, a.trace_out);
  }
  rep.print(checks);
  return 0;
}

// ------------------------------------------------------------ lipsd-tenants

const char* kTenantSpec = "name=lipsd-tenants,nodes=6,zones=1,workload=table4";
/// Sessions each tenant replays, one after the other, in a round.
constexpr std::size_t kSessions = 2;
constexpr std::size_t kWorlds = kTenants * kSessions;

/// Seed of world i (tenant i / kSessions, its session i % kSessions): a
/// bijection from (run seed, i), so two runs never share a world.
std::uint64_t world_seed(std::uint64_t seed, std::size_t i) {
  return seed * kWorlds + i;
}

/// One session's replay in one round.
struct SessionRun {
  std::string error;
  sim::SimResult result;
  double replay_s = 0.0;
  double open_ms = 0.0;
  Pass probe;  ///< callback timings (every call: each is a round trip)
  std::vector<double> epoch_ms, task_us, job_us, moves_us, slot_us;
  std::vector<double> snapshot_ms, snapshot_kb;
  std::vector<double> state_bytes, encode_us, decode_us;
  std::string plan;  ///< PLAN? reply spec
};

struct Round {
  bool traced = false;
  double setup_s = 0.0;
  double spawn_ms = 0.0;
  double wall_s = 0.0;
  std::vector<SessionRun> sessions;
  Counters counters;
  LipsdChild::Exit exit;
  double commands = 0.0;
  double busy = 0.0;
  std::uint64_t errs = 0;
};

std::string escape_scenario(std::string s) {
  for (char& c : s)
    if (c == ',') c = ';';
  return s;
}

void replay_session(const World& w, svc::LineClient& client, bool traced,
                   obs::Tracer* trace, double clock_s, SessionRun& out) {
  svc::RemotePolicy remote(client, w.spec.epoch_s);
  ProbeOptions po;
  po.spans = trace;
  po.after_epoch = [&](std::size_t epoch) {
    if (epoch % kSnapshotEvery != 0) return;
    const Clock::time_point t0 = Clock::now();
    const svc::Response r = client.request_ok("SNAPSHOT");
    out.snapshot_ms.push_back(ms(seconds_between(t0, Clock::now())));
    const std::optional<std::string> path =
        svc::kv_get(svc::parse_kv(r.spec), "path");
    struct stat st{};
    if (path && ::stat(path->c_str(), &st) == 0)
      out.snapshot_kb.push_back(static_cast<double>(st.st_size) / 1024.0);
  };
  std::uint64_t offers = 0;
  if (traced) {
    po.before_slot = [&](const sched::ClusterState& state) {
      if (offers++ % kStateEvery != 0) return;
      const Clock::time_point t0 = Clock::now();
      const std::string line = svc::encode_state(svc::capture_state(state));
      const Clock::time_point t1 = Clock::now();
      const svc::WireState back = svc::decode_state(line);
      const Clock::time_point t2 = Clock::now();
      out.state_bytes.push_back(static_cast<double>(line.size()));
      out.encode_us.push_back(us(seconds_between(t0, t1)));
      out.decode_us.push_back(us(seconds_between(t1, t2)));
      out.probe.other_s += seconds_between(t0, t2);
      (void)back;
    };
  }
  ProbePolicy probe(remote, std::move(po));
  sim::SimConfig cfg = lips_config(w);
  obs::CostLedger ledger;
  if (traced) cfg.obs.ledger = &ledger;
  cfg.obs.tracer = trace;
  const Clock::time_point t0 = Clock::now();
  out.result = sim::simulate(w.cluster, w.workload, probe, cfg);
  out.replay_s = seconds_between(t0, Clock::now());
  take_probe(probe, clock_s, out.probe);
  out.probe.other_s += sum(out.snapshot_ms) / 1e3;
  out.epoch_ms = out.probe.replan_ms;
  out.slot_us = std::move(out.probe.decision_us);
  out.task_us = scaled(probe.task.sampled(), 1e6);
  out.job_us = scaled(probe.job.sampled(), 1e6);
  out.moves_us = scaled(probe.moves.sampled(), 1e6);
  if (traced && !ledger.reconcile(sim::billed_totals(out.result)).ok)
    out.error = "client ledger does not reconcile";
}

std::unique_ptr<svc::LineClient> connect_when_up(LipsdChild& child,
                                                 const std::string& sock) {
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    try {
      return std::make_unique<svc::LineClient>(
          svc::LineClient::connect_unix(sock));
    } catch (const std::exception&) {
      if (!child.running() || seconds_between(t0, Clock::now()) > 10.0)
        throw std::runtime_error("lipsd did not accept on " + sock);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

Round run_tenant_round(const Args& a, std::size_t index, bool traced,
                       obs::Tracer& trace, Checks& checks) {
  const farm::ScenarioSpec spec = farm::parse_scenario_spec(kTenantSpec);
  Round out;
  out.traced = traced;
  out.sessions.resize(kWorlds);
  const std::string tag = std::to_string(index);
  const std::string sock = a.run_dir + "/r" + tag + ".sock";
  const std::string snaps = a.run_dir + "/snap" + tag;

  // Set-up: the client-side worlds, lipsd until it accepts, every OPEN
  // (each builds its world inside lipsd).
  const Clock::time_point t0 = Clock::now();
  std::vector<World> worlds;
  for (std::size_t i = 0; i < kWorlds; ++i)
    worlds.push_back(build_world(spec, world_seed(a.seed, i), nullptr));
  LipsdChild child(a.lipsd, sock, snaps, a.run_dir + "/lipsd.log");
  std::vector<std::unique_ptr<svc::LineClient>> clients;
  clients.push_back(connect_when_up(child, sock));
  out.spawn_ms = ms(seconds_between(t0, Clock::now()));
  for (std::size_t i = 0; i < kWorlds; ++i) {
    if (i > 0)
      clients.push_back(std::make_unique<svc::LineClient>(
          svc::LineClient::connect_unix(sock)));
    const Clock::time_point o0 = Clock::now();
    (void)clients[i]->request_ok(
        "OPEN session=w" + std::to_string(i) +
        ",seed=" + std::to_string(worlds[i].seed) +
        ",scenario=" + escape_scenario(kTenantSpec));
    out.sessions[i].open_ms = ms(seconds_between(o0, Clock::now()));
  }
  out.setup_s = seconds_between(t0, Clock::now());

  // The replay: one thread per tenant, replaying its sessions in turn, each
  // a closed loop on its own connection.
  if (traced) trace.clear();
  const Clock::time_point w0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kTenants; ++k) {
    threads.emplace_back([&, k] {
      for (std::size_t i = k * kSessions; i < (k + 1) * kSessions; ++i) {
        SessionRun& run = out.sessions[i];
        try {
          replay_session(worlds[i], *clients[i], traced,
                         traced && i == 0 ? &trace : nullptr, a.clock_s, run);
          run.plan = clients[i]->request_ok("PLAN?").spec;
        } catch (const std::exception& e) {
          run.error = e.what();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = seconds_between(w0, Clock::now());

  // The session counters, fetched before QUIT; then lipsd's exit.
  for (std::size_t i = 0; i < kWorlds; ++i) {
    if (out.sessions[i].error.empty()) continue;
    ++out.errs;
    checks.errors(1, "session " + std::to_string(i) + ": " +
                         out.sessions[i].error);
  }
  try {
    out.counters = counters_of(clients[0]->request_ok("METRICS?").data);
  } catch (const std::exception& e) {
    ++out.errs;
    checks.errors(1, std::string("METRICS?: ") + e.what());
  }
  for (std::unique_ptr<svc::LineClient>& c : clients) {
    try {
      (void)c->request_ok("QUIT");
    } catch (const std::exception& e) {
      ++out.errs;
      checks.errors(1, std::string("QUIT: ") + e.what());
    }
  }
  clients.clear();
  out.exit = child.stop();
  checks.expect(out.exit.clean, "lipsd did not exit 0 on SIGTERM (" +
                                    out.exit.how + ")");

  out.commands = counter_sum(out.counters, "lips_svc_commands_total");
  out.busy = counter_sum(out.counters, "lips_svc_rejected_total");
  checks.ops(static_cast<std::uint64_t>(out.commands + out.busy) +
             2 * kWorlds);  // + OPEN and QUIT, answered by the service
  checks.errors(static_cast<std::uint64_t>(out.busy), "lipsd answered BUSY");
  checks.expect(counter(out.counters,
                        "lips_schedule_validation_failures_total") == 0.0,
                "lipsd: schedule validation failures");
  for (std::size_t i = 0; i < kWorlds && out.errs == 0; ++i) {
    const SessionRun& run = out.sessions[i];
    checks.expect(svc::kv_get(svc::parse_kv(run.plan), "degradations") ==
                      std::optional<std::string>("0"),
                  "lipsd session degraded");
    check_result(worlds[i], Kind::Lips, run.result, checks);
  }
  return out;
}

Stat pooled(const Round& r,
            std::vector<double> SessionRun::*field, double q) {
  std::vector<double> all;
  for (const SessionRun& t : r.sessions)
    all.insert(all.end(), (t.*field).begin(), (t.*field).end());
  return quantile(all, q);
}

Stat pooled_mean(const Round& r, std::vector<double> SessionRun::*field) {
  std::vector<double> all;
  for (const SessionRun& t : r.sessions)
    all.insert(all.end(), (t.*field).begin(), (t.*field).end());
  return mean_of(all);
}

int run_tenants(const Args& a) {
  const farm::ScenarioSpec spec = farm::parse_scenario_spec(kTenantSpec);
  Checks checks;
  Report rep;
  if (a.run_dir.size() + 16 > 100) {
    std::cerr << "perfbench: --run-dir too long for a unix socket path\n";
    return 2;
  }

  // Worlds and their in-process LiPS reference runs, outside all timing.
  std::vector<World> worlds;
  std::vector<SetupSplit> splits(kWorlds);
  std::vector<Fingerprint> reference;
  std::vector<std::string> reference_solves;
  for (std::size_t i = 0; i < kWorlds; ++i) {
    worlds.push_back(build_world(spec, world_seed(a.seed, i), &splits[i]));
    core::LipsPolicy lips(lips_options(worlds[i]));
    const sim::SimResult r = sim::simulate(worlds[i].cluster,
                                           worlds[i].workload, lips,
                                           lips_config(worlds[i]));
    checks.ops(1);
    check_result(worlds[i], Kind::Lips, r, checks);
    reference.push_back(fingerprint(r));
    reference_solves.push_back(std::to_string(lips.lp_solves()));
  }
  std::size_t tasks = 0;
  for (const World& w : worlds) tasks += w.workload.total_tasks();
  std::printf("worlds: %zu tenants x %zu sessions of %s — %zu map tasks in "
              "all (world seeds %llu..%llu)\n",
              kTenants, kSessions, kTenantSpec, tasks,
              static_cast<unsigned long long>(world_seed(a.seed, 0)),
              static_cast<unsigned long long>(world_seed(a.seed, kWorlds - 1)));

  std::vector<Lane> lanes;
  for (const Kind k : {Kind::Default, Kind::Delay})
    for (const World& w : worlds) lanes.push_back(make_lane(w, k));
  obs::Tracer trace(a.trace ? kTraceCapacity : 1);
  Env env{trace, checks, a.clock_s};
  std::vector<Round> rounds;

  const Clock::time_point start = Clock::now();
  auto tenant_round = [&](bool traced) {
    Round r = run_tenant_round(a, rounds.size(), traced, trace, checks);
    for (std::size_t i = 0; i < kWorlds && r.errs == 0; ++i) {
      const SessionRun& t = r.sessions[i];
      checks.expect(fingerprint(t.result) == reference[i],
                    "lipsd session " + std::to_string(i) +
                        " differs from its in-process run (digest, cost or "
                        "job time bits)");
      checks.expect(svc::kv_get(svc::parse_kv(t.plan), "lp_solves") ==
                        std::optional<std::string>(reference_solves[i]),
                    "lipsd session LP solve count differs");
    }
    rounds.push_back(std::move(r));
  };
  bool first = true;
  while (first || seconds_between(start, Clock::now()) < a.seconds) {
    tenant_round(false);
    if (a.trace) tenant_round(true);
    if (first) {
      first_round(lanes, a.trace, env);
      first = false;
    } else {
      run_round(lanes, a.trace, env);
    }
  }
  std::vector<const Round*> plain, traced;
  for (const Round& r : rounds) (r.traced ? traced : plain).push_back(&r);
  for (const Round& r : rounds)
    std::printf("round%s: set-up %.2f ms, replay %.3f s, decision p50 %.1f "
                "us, replan p50 %.3f ms, lipsd cpu %.2f s\n",
                r.traced ? " (traced)" : "", ms(r.setup_s), r.wall_s,
                pooled(r, &SessionRun::slot_us, 0.5).value,
                pooled(r, &SessionRun::epoch_ms, 0.5).value, r.exit.cpu_s);
  std::printf("measured %.1f s: %zu lipsd rounds%s, baseline passes "
              "default=%zu delay=%zu per world\n",
              seconds_between(start, Clock::now()), plain.size(),
              a.trace ? " (each also traced)" : "", lanes[0].plain.size(),
              lanes[kWorlds].plain.size());

  if (!a.trace) {
    std::vector<double> setups;
    std::vector<double> rates;
    std::vector<Stat> p50, p90, dec;
    for (const Round* r : plain) {
      setups.push_back(r->setup_s);
      rates.push_back(static_cast<double>(tasks) / r->wall_s);
      p50.push_back(pooled(*r, &SessionRun::epoch_ms, 0.5));
      p90.push_back(pooled(*r, &SessionRun::epoch_ms, 0.9));
      dec.push_back(pooled(*r, &SessionRun::slot_us, 0.5));
    }
    const std::string best = "best of " + std::to_string(plain.size()) +
                             " rounds";
    rep.add("setup_s", median_of(setups), "s",
            "median: worlds, spawn lipsd, every OPEN");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB", "benchmark process");
    add_lane_e2e(rep, lanes, Kind::Default);
    add_lane_e2e(rep, lanes, Kind::Delay);
    rep.add("tasks_per_s.lips", *std::max_element(rates.begin(), rates.end()),
            "1/s", "all sessions' tasks / replay wall time; " + best);
    double usd = 0.0, job_s = 0.0, jobs = 0.0;
    for (const SessionRun& t : rounds.front().sessions) {
      usd += millicents_to_dollars(t.result.total_cost_mc);
      job_s += t.result.sum_job_duration_s;
    }
    for (const World& w : worlds)
      jobs += static_cast<double>(w.workload.job_count());
    rep.add("replan_ms.p50", lowest(p50), "ms",
            "RemotePolicy::on_epoch/round; " + best);
    rep.add("replan_ms.p90", lowest(p90), "ms",
            "RemotePolicy::on_epoch/round; " + best);
    rep.add("decision_us.p50", lowest(dec), "us",
            "RemotePolicy::on_slot_available/round; " + best);
    rep.add("usd_per_ktask.lips", usd / static_cast<double>(tasks) * 1e3,
            "USD", "simulated dollars per 1000 tasks");
    rep.add("job_s.mean.lips", job_s / jobs, "s", "simulated");
  } else {
    add_sched_layers(rep, lane_layer(lanes, Kind::Default), Kind::Default);
    add_sched_layers(rep, lane_layer(lanes, Kind::Delay), Kind::Delay);
    std::vector<double> walls;
    for (const Round* r : traced) walls.push_back(r->wall_s);
    const Round& t = *traced[fastest(walls)];
    SchedLayer s;
    s.passes = traced.size();
    double tasks_done = 0.0;
    for (const SessionRun& tr : t.sessions) {
      s.pass_s += tr.replay_s;
      s.slot_s += tr.probe.slot_s;
      s.hooks_s += tr.probe.hooks_s;
      s.epoch_s += tr.probe.epoch_s;
      s.other_s += tr.probe.other_s;
      s.offers += static_cast<double>(tr.probe.offers);
      s.launches += static_cast<double>(tr.probe.launches);
      tasks_done += static_cast<double>(tr.result.tasks_completed);
    }
    add_sched_layers(rep, s, Kind::Lips);
    double epochs = 0.0, degradations = 0.0;
    for (const SessionRun& tr : t.sessions) {
      const auto plan = svc::parse_kv(tr.plan);
      epochs += static_cast<double>(
          svc::parse_u64(svc::kv_get(plan, "epochs").value_or("0")));
      degradations += static_cast<double>(
          svc::parse_u64(svc::kv_get(plan, "degradations").value_or("0")));
    }
    rep.add("core.replans", epochs, "count", "PLAN? epochs, all sessions");
    rep.absent("core.replan_ms.total", "ms", "replans run inside lipsd");
    rep.absent("core.replan_self_ms", "ms", "replans run inside lipsd");
    rep.absent("core.validated", "count", "lipsd does not export it");
    rep.add("core.validation_failures",
            counter(t.counters, "lips_schedule_validation_failures_total"),
            "count", "METRICS?");
    rep.add("core.degradations", degradations, "count", "PLAN?");
    add_lp_layers(rep, t.counters, nullptr, "METRICS? lips_lp_* counters");
    const std::vector<std::pair<const char*, std::vector<double> SessionRun::*>>
        callbacks = {{"slot", &SessionRun::slot_us},
                     {"epoch", &SessionRun::epoch_ms},
                     {"task", &SessionRun::task_us},
                     {"job", &SessionRun::job_us},
                     {"moves", &SessionRun::moves_us}};
    for (const auto& [name, field] : callbacks) {
      Stat p = pooled(t, field, 0.5);
      if (std::strcmp(name, "epoch") == 0) p.value *= 1e3;  // ms -> us
      rep.add(std::string("svc.callback_us.p50.") + name, p, "us",
              "round trips as the tenant sees them");
    }
    rep.add("svc.decision_us.p90", pooled(t, &SessionRun::slot_us, 0.9), "us",
            "STATE + SLOT");
    rep.add("svc.decision_us.p99", pooled(t, &SessionRun::slot_us, 0.99), "us",
            "STATE + SLOT");
    rep.add("svc.state_bytes.mean", pooled_mean(t, &SessionRun::state_bytes),
            "bytes", "encoded STATE, 1 offer in 64");
    rep.add("svc.state_encode_us.mean", pooled_mean(t, &SessionRun::encode_us),
            "us", "capture_state + encode_state");
    rep.add("svc.state_decode_us.mean", pooled_mean(t, &SessionRun::decode_us),
            "us", "decode_state");
    rep.add("svc.commands", t.commands, "count",
            "METRICS? lips_svc_commands_total, all sessions");
    rep.add("svc.round_trips_per_task", ratio(t.commands, tasks_done),
            "ratio", "commands / tasks");
    rep.add("svc.busy", t.busy, "count", "lips_svc_rejected_total");
    rep.add("svc.err", static_cast<double>(t.errs), "count", "ERR replies");
    rep.add("svc.lipsd_cpu_s", t.exit.cpu_s, "s", "wait4 on lipsd");
    rep.add("svc.lipsd_peak_rss_mb", t.exit.peak_rss_mb, "MB",
            "wait4 on lipsd");
    rep.add("svc.spawn_ms", t.spawn_ms, "ms", "fork until the socket accepts");
    std::vector<double> opens;
    for (const SessionRun& tr : t.sessions) opens.push_back(tr.open_ms);
    rep.add("svc.open_ms", mean_of(opens), "ms", "OPEN round trip, mean");
    rep.add("ckpt.snapshot_ms.p50", pooled(t, &SessionRun::snapshot_ms, 0.5),
            "ms", "SNAPSHOT round trip");
    double snaps = 0.0;
    for (const SessionRun& tr : t.sessions)
      snaps += static_cast<double>(tr.snapshot_ms.size());
    rep.add("ckpt.snapshots", snaps, "count", "every 4th epoch per session");
    rep.add("ckpt.snapshot_kb", pooled_mean(t, &SessionRun::snapshot_kb),
            "KiB", "mean file size");
    std::vector<double> cl, gen;
    for (const SetupSplit& sp : splits) {
      cl.push_back(ms(sp.cluster_s));
      gen.push_back(ms(sp.gen_s));
    }
    rep.add("cluster.build_ms", median_of(cl), "ms", "median");
    rep.add("workload.gen_ms", median_of(gen), "ms", "median");
    std::vector<double> plain_walls;
    for (const Round* r : plain) plain_walls.push_back(r->wall_s);
    double plain_s = *std::min_element(plain_walls.begin(), plain_walls.end());
    double traced_s = t.wall_s;
    for (const Lane& lane : lanes) {
      plain_s += fastest_s(lane.plain_best);
      traced_s += fastest_s(lane.traced_best);
    }
    rep.add("obs.trace_overhead", traced_s / plain_s - 1.0, "ratio",
            "fastest traced / fastest untraced - 1");
    write_trace(trace, a.trace_out);
  }
  rep.print(checks);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a = parse_args(argc, argv);
  a.clock_s = clock_cost_s();

  // Host-time figures from a build that is not optimized, or that checks
  // more than Release does, measure the build, not the program: without
  // NDEBUG every delta LP solve also runs a cold cross-check.
  const lips::BuildInfo& b = lips::build_info();
  bool refuse = b.build_type != "Release";
#ifndef NDEBUG
  refuse = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  refuse = true;
#endif
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("build: git=%s compiler=%s type=%s; clock pair %.1f ns\n",
              b.git_sha.c_str(), b.compiler.c_str(), b.build_type.c_str(),
              a.clock_s * 1e9);
  if (refuse) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s / sanitizer / non-NDEBUG "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 b.build_type.c_str());
    return 3;
  }
  try {
    if (a.workload == "swim-day")
      return run_in_process(
          a,
          "name=swim-day,nodes=100,c1=0.34,small=0.33,jobs=400,epoch=400,"
          "prune_machines=12,prune_stores=8",
          false);
    if (a.workload == "swim-exact")
      return run_in_process(a, "name=swim-exact,nodes=30,jobs=150", true);
    return run_tenants(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
