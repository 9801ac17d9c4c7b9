// Tests for src/obs: metrics-registry bucket math pinned against hand
// computation, exporter output shape, tracer ring semantics, a Chrome-trace
// JSON round-trip through a real parse with monotone timestamps, and —
// the subsystem's correctness bar — bit-identical cost-ledger
// reconciliation against the simulator's billing accumulators on seeded
// faulty + straggler runs.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "core/lips_policy.hpp"
#include "obs/export.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "workload/swim.hpp"

namespace lips {
namespace {

// ------------------------------------------------------ mini JSON parser ---
// Just enough JSON to round-trip the exporters' output; throws on anything
// malformed so a broken exporter fails loudly.

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  [[nodiscard]] const JsonObject& obj() const {
    return std::get<JsonObject>(v);
  }
  [[nodiscard]] const JsonArray& arr() const { return std::get<JsonArray>(v); }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] double num() const { return std::get<double>(v); }
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    const auto it = obj().find(key);
    if (it == obj().end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return obj().count(key) != 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    const JsonValue v = value();
    ws();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(i_) + ": " + why);
  }
  void ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])) != 0)
      ++i_;
  }
  char peek() {
    if (i_ >= s_.size()) fail("unexpected end");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }
  bool consume(const std::string& word) {
    if (s_.compare(i_, word.size(), word) != 0) return false;
    i_ += word.size();
    return true;
  }

  JsonValue value() {
    ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return JsonValue{string()};
    if (consume("null")) return JsonValue{nullptr};
    if (consume("true")) return JsonValue{true};
    if (consume("false")) return JsonValue{false};
    return number();
  }

  JsonValue object() {
    expect('{');
    JsonObject out;
    ws();
    if (peek() == '}') {
      ++i_;
      return JsonValue{std::move(out)};
    }
    while (true) {
      ws();
      std::string key = string();
      ws();
      expect(':');
      out.emplace(std::move(key), value());
      ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      return JsonValue{std::move(out)};
    }
  }

  JsonValue array() {
    expect('[');
    JsonArray out;
    ws();
    if (peek() == ']') {
      ++i_;
      return JsonValue{std::move(out)};
    }
    while (true) {
      out.push_back(value());
      ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      return JsonValue{std::move(out)};
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++i_;
      if (c == '"') return out;
      if (c == '\\') {
        const char e = peek();
        ++i_;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            if (i_ + 4 > s_.size()) fail("bad \\u escape");
            out += static_cast<char>(
                std::strtol(s_.substr(i_, 4).c_str(), nullptr, 16));
            i_ += 4;
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue number() {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' ||
            s_[i_] == 'E'))
      ++i_;
    if (i_ == start) fail("expected number");
    return JsonValue{std::strtod(s_.substr(start, i_ - start).c_str(),
                                 nullptr)};
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// ------------------------------------------------------- metrics registry ---

TEST(Metrics, HistogramBucketMathPinnedByHand) {
  obs::MetricRegistry reg;
  obs::Histogram& h = reg.histogram("lips_test_seconds", {1.0, 5.0, 10.0});
  for (const double v : {0.5, 1.0, 1.5, 5.0, 7.5, 100.0}) h.observe(v);
  // `le` semantics: value lands in the first bucket whose bound >= value.
  //   le=1   : 0.5, 1.0          → 2
  //   le=5   : 1.5, 5.0          → 2
  //   le=10  : 7.5               → 1
  //   le=+Inf: 100               → 1
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.total_count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 115.5);
  // Below every bound still lands in the first bucket.
  h.observe(-3.0);
  EXPECT_EQ(h.bucket_count(0), 3u);
}

TEST(Metrics, HandlesAreStableAndKindsAreChecked) {
  obs::MetricRegistry reg;
  obs::Counter& c1 = reg.counter("lips_events_total", {{"kind", "a"}});
  obs::Counter& c2 = reg.counter("lips_events_total", {{"kind", "a"}});
  EXPECT_EQ(&c1, &c2);  // re-registration returns the same instrument
  c1.inc();
  c1.inc(2.5);
  EXPECT_DOUBLE_EQ(c2.value(), 3.5);

  reg.gauge("lips_level").set(7.0);
  EXPECT_DOUBLE_EQ(reg.gauge("lips_level").value(), 7.0);

  // Same name, different kind → precondition error.
  EXPECT_THROW((void)reg.gauge("lips_events_total"), PreconditionError);
  // Histogram re-registration must agree on bounds.
  (void)reg.histogram("lips_h", {1.0, 2.0});
  EXPECT_THROW((void)reg.histogram("lips_h", {1.0, 3.0}), PreconditionError);
  // Invalid Prometheus name.
  EXPECT_THROW((void)reg.counter("bad name"), PreconditionError);

  EXPECT_EQ(reg.series_count(), 3u);
}

TEST(Metrics, SnapshotIsSortedAndExportsHaveShape) {
  obs::MetricRegistry reg;
  reg.counter("lips_z_total").inc(4.0);
  reg.counter("lips_a_total", {{"zone", "b"}}).inc();
  reg.counter("lips_a_total", {{"zone", "a"}}).inc(2.0);
  reg.histogram("lips_h_seconds", {1.0, 10.0}).observe(3.0);

  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "lips_a_total");
  EXPECT_EQ(samples[0].labels[0].second, "a");
  EXPECT_EQ(samples[1].labels[0].second, "b");
  EXPECT_EQ(samples[2].name, "lips_h_seconds");
  EXPECT_EQ(samples[3].name, "lips_z_total");

  std::ostringstream prom;
  obs::write_prometheus(samples, prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("# TYPE lips_a_total counter"), std::string::npos);
  EXPECT_NE(text.find("lips_a_total{zone=\"a\"} 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lips_h_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("lips_h_seconds_bucket{le=\"1\"} 0"), std::string::npos);
  EXPECT_NE(text.find("lips_h_seconds_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lips_h_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lips_h_seconds_count 1"), std::string::npos);
  // The TYPE line appears once per name, not once per labelled series.
  EXPECT_EQ(text.find("# TYPE lips_a_total"),
            text.rfind("# TYPE lips_a_total"));

  // The JSON export parses and recovers exact values.
  std::ostringstream js;
  obs::write_metrics_json(samples, js);
  const JsonValue parsed = JsonParser(js.str()).parse();
  ASSERT_EQ(parsed.arr().size(), 4u);
  EXPECT_EQ(parsed.arr()[0].at("name").str(), "lips_a_total");
  EXPECT_EQ(parsed.arr()[0].at("value").num(), 2.0);
  EXPECT_EQ(parsed.arr()[2].at("counts").arr().size(), 3u);
  EXPECT_EQ(parsed.arr()[2].at("sum").num(), 3.0);
}

// Byte-exact golden exposition text. Prometheus output is part of the
// deterministic-artifact contract (two runs of a deterministic simulation
// must produce byte-identical dumps), so this pins the *entire* rendering —
// TYPE lines, label quoting, cumulative le buckets, double formatting —
// rather than spot-checking substrings. A restored registry (checkpoint
// path, DESIGN.md §11) must render the very same bytes.
TEST(Metrics, PrometheusExportMatchesGoldenText) {
  obs::MetricRegistry reg;
  reg.counter("lips_tasks_total", {{"sched", "lips"}}).inc(3.0);
  reg.gauge("lips_queue_depth").set(2.5);
  auto& h = reg.histogram("lips_epoch_seconds", {0.5, 2.0});
  h.observe(0.25);
  h.observe(1.5);
  h.observe(99.0);

  const std::string golden =
      "# TYPE lips_epoch_seconds histogram\n"
      "lips_epoch_seconds_bucket{le=\"0.5\"} 1\n"
      "lips_epoch_seconds_bucket{le=\"2\"} 2\n"
      "lips_epoch_seconds_bucket{le=\"+Inf\"} 3\n"
      "lips_epoch_seconds_sum 100.75\n"
      "lips_epoch_seconds_count 3\n"
      "# TYPE lips_queue_depth gauge\n"
      "lips_queue_depth 2.5\n"
      "# TYPE lips_tasks_total counter\n"
      "lips_tasks_total{sched=\"lips\"} 3\n";

  std::ostringstream prom;
  obs::write_prometheus(reg.snapshot(), prom);
  EXPECT_EQ(prom.str(), golden);

  obs::MetricRegistry restored;
  restored.restore(reg.snapshot());
  std::ostringstream again;
  obs::write_prometheus(restored.snapshot(), again);
  EXPECT_EQ(again.str(), golden);
}

// ----------------------------------------------------------------- tracer ---

TEST(Trace, RingOverwritesOldestAndKeepsCounts) {
  obs::Tracer t(4);
  for (int i = 0; i < 6; ++i) t.instant("tick", "test", "i", double(i));
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total_recorded(), 6u);
  EXPECT_EQ(t.overwritten(), 2u);
  std::vector<double> seen;
  std::uint64_t last_ts = 0;
  t.for_each([&](const obs::TraceRecord& rec) {
    EXPECT_GE(rec.ts_us, last_ts);
    last_ts = rec.ts_us;
    seen.push_back(rec.arg_val[0]);
  });
  // The two oldest records (0 and 1) were overwritten.
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_DOUBLE_EQ(seen.front(), 2.0);
  EXPECT_DOUBLE_EQ(seen.back(), 5.0);

  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  obs::Tracer t(8);
  t.set_enabled(false);
  t.begin("a", "test");
  t.instant("b", "test");
  t.end("a", "test");
  { const obs::Span span(&t, "c", "test"); }
  { const obs::Span null_span(nullptr, "d", "test"); }  // null-safe
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
}

TEST(Trace, ChromeTraceRoundTripsWithMonotoneTimestamps) {
  obs::Tracer t(64);
  {
    const obs::Span outer(&t, "outer", "test");
    t.instant("marker", "test", "epoch", 3.0, "cost_mc", 12.5);
    const obs::Span inner(&t, "inner", "test");
  }
  std::ostringstream os;
  obs::write_chrome_trace(t, os);

  const JsonValue doc = JsonParser(os.str()).parse();
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
  const JsonArray& events = doc.at("traceEvents").arr();
  ASSERT_EQ(events.size(), 5u);  // B, i, B, E, E

  double last_ts = -1.0;
  int depth = 0;
  for (const JsonValue& e : events) {
    const std::string& ph = e.at("ph").str();
    const double ts = e.at("ts").num();
    EXPECT_GE(ts, last_ts) << "timestamps must be non-decreasing";
    last_ts = ts;
    if (ph == "B") ++depth;
    if (ph == "E") {
      --depth;
      EXPECT_GE(depth, 0) << "E without matching B";
    }
    if (ph == "i") {
      EXPECT_EQ(e.at("s").str(), "t");
    }
  }
  EXPECT_EQ(depth, 0) << "unbalanced spans";

  EXPECT_EQ(events[0].at("name").str(), "outer");
  EXPECT_EQ(events[1].at("name").str(), "marker");
  EXPECT_EQ(events[1].at("args").at("epoch").num(), 3.0);
  EXPECT_EQ(events[1].at("args").at("cost_mc").num(), 12.5);
  EXPECT_EQ(events[2].at("name").str(), "inner");
  EXPECT_EQ(events[2].at("ph").str(), "B");
  EXPECT_EQ(events[3].at("name").str(), "inner");
  EXPECT_EQ(events[3].at("ph").str(), "E");
  EXPECT_EQ(events[4].at("name").str(), "outer");
}

// ------------------------------------------------------------ cost ledger ---

TEST(Ledger, CellsAttributeByEpochJobMachineAndCategory) {
  obs::CostLedger ledger;
  ledger.post(obs::CostMeter::Execution, Millicents::mc(10.0), 3, 1);
  ledger.set_current_epoch(2);
  ledger.post(obs::CostMeter::Execution, Millicents::mc(5.0), 3, 1);
  ledger.post(obs::CostMeter::ReadTransfer, Millicents::mc(2.0), 3, 1);
  ledger.post(obs::CostMeter::IngestReplication, Millicents::mc(7.0));
  ledger.post(obs::CostMeter::PlacementTransfer, Millicents::mc(4.0));

  EXPECT_EQ(ledger.posts(), 5u);
  EXPECT_EQ(ledger.meter_total(obs::CostMeter::Execution),
            Millicents::mc(15.0));
  // Two meters fold into InitialPlacement; the category is reporting-only.
  EXPECT_EQ(ledger.category_total(obs::CostCategory::InitialPlacement),
            Millicents::mc(11.0));
  EXPECT_EQ(ledger.category_total(obs::CostCategory::Cpu),
            Millicents::mc(15.0));

  const auto& cells = ledger.cells();
  // (epoch 0, job 3, machine 1, Cpu) and (epoch 2, ...) are distinct cells.
  const obs::CostLedger::CellKey k0{0, 3, 1, obs::CostCategory::Cpu};
  const obs::CostLedger::CellKey k2{2, 3, 1, obs::CostCategory::Cpu};
  ASSERT_EQ(cells.count(k0), 1u);
  ASSERT_EQ(cells.count(k2), 1u);
  EXPECT_EQ(cells.at(k0), Millicents::mc(10.0));
  EXPECT_EQ(cells.at(k2), Millicents::mc(5.0));
  // Unattributed posts use the kNone sentinel.
  const obs::CostLedger::CellKey ingest{2, obs::CostLedger::kNone,
                                        obs::CostLedger::kNone,
                                        obs::CostCategory::InitialPlacement};
  EXPECT_EQ(cells.at(ingest), Millicents::mc(11.0));

  // billed_total uses the simulator's association order.
  const Millicents expected =
      ((ledger.meter_total(obs::CostMeter::Execution) +
        ledger.meter_total(obs::CostMeter::ReadTransfer)) +
       ledger.meter_total(obs::CostMeter::PlacementTransfer)) +
      ledger.meter_total(obs::CostMeter::IngestReplication);
  EXPECT_EQ(ledger.billed_total(), expected);
}

TEST(Ledger, ReconcileFlagsPerMeterMismatch) {
  obs::CostLedger ledger;
  ledger.post(obs::CostMeter::Execution, Millicents::mc(10.0));
  obs::CostLedger::BilledTotals billed{};  // all zero
  const auto rec = ledger.reconcile(billed);
  EXPECT_FALSE(rec.ok);
  EXPECT_EQ(rec.delta[static_cast<std::size_t>(obs::CostMeter::Execution)],
            Millicents::mc(10.0));
  EXPECT_EQ(rec.delta[static_cast<std::size_t>(obs::CostMeter::Wasted)],
            Millicents::zero());

  billed.execution = Millicents::mc(10.0);
  EXPECT_TRUE(ledger.reconcile(billed).ok);
}

// --------------------------------------------- simulator reconciliation ---

struct ObsRun {
  obs::MetricRegistry metrics;
  obs::Tracer tracer{1 << 18};
  obs::CostLedger ledger;
  sim::SimResult result;
};

sim::FaultPlan storm(std::size_t machines, std::size_t stores) {
  sim::FaultStormParams p;
  p.mtbf_s = 4000.0;   // crashes
  p.mttr_s = 400.0;
  p.slowdown_rate = 2.0;  // stragglers
  p.slowdown_factor = 4.0;
  p.slowdown_window_s = 600.0;
  p.store_loss_rate = 0.3;
  p.horizon_s = 6000.0;
  p.seed = 17;
  return sim::make_fault_storm(p, machines, stores);
}

/// Bitwise per-meter reconciliation against the run's SimResult.
void expect_bitwise_reconciled(const ObsRun& run) {
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

TEST(ObsIntegration, LedgerReconcilesBitIdenticallyOnFaultyStragglerLipsRun) {
  const cluster::Cluster c = cluster::make_ec2_cluster(8, 0.5, 2);
  Rng rng(2013);
  workload::SwimParams sp;
  sp.n_jobs = 25;
  sp.duration_s = 4000.0;
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);

  core::LipsPolicyOptions lo;
  lo.epoch_s = 400.0;
  core::LipsPolicy lips(lo);

  ObsRun run;
  sim::SimConfig cfg;
  cfg.hdfs_replication = 1;
  cfg.task_timeout_s = 1200.0;
  cfg.faults = storm(c.machine_count(), c.store_count());
  cfg.obs = obs::Observer{&run.metrics, &run.tracer, &run.ledger};
  run.result = sim::simulate(c, sw.workload, lips, cfg);

  // Sanity: the storm actually bit, and the instrumentation actually fired.
  EXPECT_GT(run.result.machines_lost + run.result.machine_slowdowns, 0u);
  EXPECT_GT(run.ledger.posts(), 0u);
  EXPECT_GT(run.tracer.total_recorded(), 0u);
  EXPECT_GT(run.metrics.series_count(), 0u);

  expect_bitwise_reconciled(run);
  // The fake-node carry meter reconciles against the policy, bit for bit.
  EXPECT_EQ(run.ledger.meter_total(obs::CostMeter::FakeNodeCarry),
            lips.fake_node_carry_mc());
  // Replans were counted: every LP solve happens inside a replan call, but
  // replans with an empty pending queue return before solving.
  EXPECT_GE(run.metrics.counter("lips_policy_replans_total").value(),
            static_cast<double>(lips.lp_solves()));
  EXPECT_GT(lips.lp_solves(), 0u);
}

TEST(ObsIntegration, LedgerReconcilesWithSpeculationAndReplication) {
  const cluster::Cluster c = cluster::make_ec2_cluster(6, 0.5, 2);
  Rng rng(7);
  workload::SwimParams sp;
  sp.n_jobs = 20;
  sp.duration_s = 2000.0;
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);

  sched::FifoLocalityScheduler fifo;
  ObsRun run;
  sim::SimConfig cfg;
  cfg.hdfs_replication = 3;  // exercises the IngestReplication meter
  cfg.speculative_execution = true;
  cfg.speculation.mode = sim::SpeculationConfig::Mode::Naive;
  cfg.task_timeout_s = 600.0;
  cfg.faults = storm(c.machine_count(), c.store_count());
  cfg.obs = obs::Observer{&run.metrics, &run.tracer, &run.ledger};
  run.result = sim::simulate(c, sw.workload, fifo, cfg);

  EXPECT_GT(run.result.ingest_replication_cost_mc, Millicents::zero());
  expect_bitwise_reconciled(run);
  // A policy-free run posts no fake-node carry.
  EXPECT_EQ(run.ledger.meter_total(obs::CostMeter::FakeNodeCarry),
            Millicents::zero());
}

TEST(ObsIntegration, TraceFromSimRunRoundTripsThroughJsonParse) {
  const cluster::Cluster c = cluster::make_ec2_cluster(4, 0.5, 2);
  Rng rng(3);
  workload::SwimParams sp;
  sp.n_jobs = 8;
  sp.duration_s = 1000.0;
  const workload::SwimWorkload sw = workload::make_swim_workload(sp, c, rng);

  core::LipsPolicy lips;
  ObsRun run;
  sim::SimConfig cfg;
  cfg.hdfs_replication = 1;
  cfg.obs = obs::Observer{nullptr, &run.tracer, nullptr};
  run.result = sim::simulate(c, sw.workload, lips, cfg);
  ASSERT_GT(run.tracer.size(), 0u);
  EXPECT_EQ(run.tracer.overwritten(), 0u);

  std::ostringstream os;
  obs::write_chrome_trace(run.tracer, os);
  const JsonValue doc = JsonParser(os.str()).parse();
  const JsonArray& events = doc.at("traceEvents").arr();
  ASSERT_EQ(events.size(), run.tracer.size());
  double last_ts = -1.0;
  // Each phase span opens and closes inside its parent: lp-build, lp-remap
  // and lp-simplex inside lp-solve, and lp-solve and lips-validate inside
  // lips-replan. The simulator's own spans may enclose any of them.
  const std::map<std::string, std::string> parent_of = {
      {"lp-solve", "lips-replan"},  {"lips-validate", "lips-replan"},
      {"lp-build", "lp-solve"},     {"lp-remap", "lp-solve"},
      {"lp-simplex", "lp-solve"},
  };
  std::map<std::string, int> open;
  std::map<std::string, std::size_t> closed;
  for (const JsonValue& e : events) {
    const double ts = e.at("ts").num();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    const std::string& name = e.at("name").str();
    const std::string& phase = e.at("ph").str();
    if (phase != "B" && phase != "E") continue;
    if (const auto it = parent_of.find(name); it != parent_of.end())
      EXPECT_EQ(open[it->second], 1) << name << " outside " << it->second;
    if (phase == "B") {
      open[name] += 1;
      continue;
    }
    open[name] -= 1;
    closed[name] += 1;
    for (const auto& [child, parent] : parent_of)
      if (parent == name) EXPECT_EQ(open[child], 0) << child << " left open";
  }
  for (const char* name : {"lips-replan", "lips-validate", "lp-solve",
                           "lp-build", "lp-remap", "lp-simplex"})
    EXPECT_GT(closed[name], 0u) << name;
  // Every solve builds or updates its model and runs the simplex once.
  EXPECT_EQ(closed["lp-build"], closed["lp-solve"]);
  EXPECT_EQ(closed["lp-simplex"], closed["lp-solve"]);
}

TEST(ObsIntegration, LedgerJsonExportParsesAndMatchesTotals) {
  obs::CostLedger ledger;
  ledger.post(obs::CostMeter::Execution, Millicents::mc(12.5), 0, 1);
  ledger.set_current_epoch(1);
  ledger.post(obs::CostMeter::Wasted, Millicents::mc(0.25), 2, 0);

  std::ostringstream os;
  obs::write_ledger_json(ledger, os);
  const JsonValue doc = JsonParser(os.str()).parse();
  EXPECT_EQ(doc.at("posts").num(), 2.0);
  EXPECT_EQ(doc.at("meter_totals_mc").at("execution").num(), 12.5);
  EXPECT_EQ(doc.at("category_totals_mc").at("wasted_fault").num(), 0.25);
  const JsonArray& cells = doc.at("cells").arr();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].at("epoch").num(), 0.0);
  EXPECT_EQ(cells[0].at("job").num(), 0.0);
  EXPECT_EQ(cells[0].at("machine").num(), 1.0);
  EXPECT_EQ(cells[0].at("category").str(), "cpu");
  EXPECT_EQ(cells[0].at("mc").num(), 12.5);
}

}  // namespace
}  // namespace lips
