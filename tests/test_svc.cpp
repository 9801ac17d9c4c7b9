// Tests for the lipsd co-scheduler service (src/svc): the strict lipsd flag
// contract, protocol framing edges (oversized lines, NUL bytes, truncated
// commands, duplicate sessions, QUIT mid-stream), bounded-queue
// backpressure, wire integers and ids outside the world, SNAPSHOT/restore
// bit-identity, and — the tentpole gate — a seeded workload replayed through
// a real lipsd socket yielding plans and ledgers bit-identical to the
// in-process run, single- and multi-tenant.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/digest.hpp"
#include "ckpt/store.hpp"
#include "common/error.hpp"
#include "common/spec.hpp"
#include "common/thread_annotations.hpp"
#include "core/lips_policy.hpp"
#include "farm/recipe.hpp"
#include "farm/scenario.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/mirror.hpp"
#include "svc/queue.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "svc/wire.hpp"

namespace lips::svc {
namespace {

namespace fs = std::filesystem;

/// Fresh (empty) per-test scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& tag) {
  const fs::path p = fs::path(::testing::TempDir()) / ("lips_svc_" + tag);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Reply sink that captures rendered replies. Locked: queued verbs are
/// answered from the session worker thread while the test keeps feeding.
class CaptureSink final : public ReplySink {
 public:
  void write(const std::string& rendered) override {
    lips::MutexLock lock(mu_);
    replies_.push_back(rendered);
  }
  [[nodiscard]] std::vector<std::string> replies() const {
    lips::MutexLock lock(mu_);
    return replies_;
  }
  [[nodiscard]] std::string last() const {
    lips::MutexLock lock(mu_);
    return replies_.empty() ? "" : replies_.back();
  }

 private:
  mutable lips::Mutex mu_;
  std::vector<std::string> replies_ LIPS_GUARDED_BY(mu_);
};

/// "ERR <seq> <code> <detail...>" → code token; "" when not an ERR line.
/// Looks at the rendered reply's final (status) line.
std::string err_code(const std::string& rendered) {
  const std::size_t nl = rendered.find_last_of('\n', rendered.size() - 2);
  const std::string line =
      nl == std::string::npos
          ? rendered.substr(0, rendered.size() - 1)
          : rendered.substr(nl + 1, rendered.size() - nl - 2);
  if (line.rfind("ERR ", 0) != 0) return "";
  const std::size_t seq_sp = line.find(' ', 4);
  if (seq_sp == std::string::npos) return "";
  const std::size_t code_end = line.find(' ', seq_sp + 1);
  return line.substr(seq_sp + 1, code_end - seq_sp - 1);
}

// ---------------------------------------------------------------------------
// SpecBinder text values (the binder extension the wire protocol rides on)

TEST(SpecText, BindsAndValidates) {
  std::string who;
  double x = 0.0;
  SpecBinder b("test spec");
  b.text("who", &who).number("x", &x);
  b.parse("who=alice,x=2.5");
  EXPECT_EQ(who, "alice");
  EXPECT_EQ(x, 2.5);
  SpecBinder b2("test spec");
  std::string v;
  b2.text("v", &v);
  EXPECT_THROW(b2.parse("nope=1"), PreconditionError);
}

// ---------------------------------------------------------------------------
// lipsd flag contract (satellite: strict parsers, --version/--help)

TEST(DaemonArgs, VersionHelpAndServe) {
  EXPECT_EQ(parse_daemon_args({"--version"}).mode, DaemonArgs::Mode::Version);
  EXPECT_EQ(parse_daemon_args({"--help"}).mode, DaemonArgs::Mode::Help);
  EXPECT_EQ(parse_daemon_args({"-h"}).mode, DaemonArgs::Mode::Help);

  const DaemonArgs sock = parse_daemon_args(
      {"--socket", "/tmp/x.sock", "--snapshot-dir=/tmp/snaps",
       "--queue-capacity", "8"});
  EXPECT_EQ(sock.mode, DaemonArgs::Mode::Serve);
  EXPECT_EQ(sock.socket_path, "/tmp/x.sock");
  EXPECT_EQ(sock.snapshot_dir, "/tmp/snaps");
  EXPECT_EQ(sock.queue_capacity, 8u);
  EXPECT_FALSE(sock.stdio);

  const DaemonArgs stdio = parse_daemon_args({"--stdio"});
  EXPECT_EQ(stdio.mode, DaemonArgs::Mode::Serve);
  EXPECT_TRUE(stdio.stdio);
}

TEST(DaemonArgs, RejectsUnknownAndMalformedFlags) {
  // A typo must be a hard error, never a silent ignore.
  EXPECT_EQ(parse_daemon_args({"--stdio", "--snapshot-dri=/x"}).mode,
            DaemonArgs::Mode::Error);
  EXPECT_EQ(parse_daemon_args({"--bogus"}).mode, DaemonArgs::Mode::Error);
  // Missing/invalid values.
  EXPECT_EQ(parse_daemon_args({"--socket"}).mode, DaemonArgs::Mode::Error);
  EXPECT_EQ(parse_daemon_args({"--stdio", "--queue-capacity", "0"}).mode,
            DaemonArgs::Mode::Error);
  EXPECT_EQ(parse_daemon_args({"--stdio", "--queue-capacity", "abc"}).mode,
            DaemonArgs::Mode::Error);
  // Exactly one transport.
  EXPECT_EQ(parse_daemon_args({}).mode, DaemonArgs::Mode::Error);
  EXPECT_EQ(parse_daemon_args({"--stdio", "--socket", "/tmp/x"}).mode,
            DaemonArgs::Mode::Error);
  EXPECT_FALSE(parse_daemon_args({"--bogus"}).error.empty());
}

// ---------------------------------------------------------------------------
// Bounded MPSC queue + BUSY backpressure

TEST(BoundedQueue, CapacityAndFifoOrder) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full — caller answers BUSY
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_TRUE(q.try_push(4));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(4));
}

TEST(BoundedQueue, CloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(7));
  q.close();
  EXPECT_FALSE(q.try_push(8));          // closed rejects new work
  EXPECT_EQ(q.pop(), std::optional<int>(7));  // but drains what it holds
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(Backpressure, SubmitRejectsWhenFullAndCountsRejections) {
  obs::MetricRegistry metrics;
  SessionOptions so;
  so.queue_capacity = 3;
  so.metrics = &metrics;
  // Unstarted session: no worker drains, so the queue fills deterministically.
  Session s("tenant", farm::parse_scenario_spec("name=bp,nodes=4,jobs=1"), 1,
            so);
  auto cmd = [](std::uint64_t seq) {
    Command c;
    c.seq = seq;
    c.verb = "PLAN?";
    return c;
  };
  EXPECT_TRUE(s.submit(cmd(1)));
  EXPECT_TRUE(s.submit(cmd(2)));
  EXPECT_TRUE(s.submit(cmd(3)));
  EXPECT_FALSE(s.submit(cmd(4)));  // BUSY
  EXPECT_FALSE(s.submit(cmd(5)));
  EXPECT_EQ(s.queue_depth(), 3u);
  EXPECT_EQ(metrics.counter("lips_svc_rejected_total", {{"session", "tenant"}})
                .value(),
            2.0);
  EXPECT_EQ(metrics.gauge("lips_svc_queue_depth", {{"session", "tenant"}})
                .value(),
            3.0);
}

// ---------------------------------------------------------------------------
// Protocol framing edges (satellite: fuzz/edge tests, structured ERR codes)

struct ServiceFixture {
  Service service;
  Service::ConnectionCtx ctx;
  std::shared_ptr<CaptureSink> sink = std::make_shared<CaptureSink>();
  ServiceFixture() : service(make_options()) {}
  static ServiceOptions make_options() {
    ServiceOptions o;
    o.queue_capacity = 8;
    return o;
  }
  bool feed(const std::string& line) {
    return service.handle_line(ctx, line, sink);
  }
};

TEST(ProtocolEdges, OversizedLineGetsStructuredError) {
  ServiceFixture f;
  const std::string line = "TICK " + std::string(kMaxLineBytes, 'A');
  EXPECT_TRUE(f.feed(line));  // connection survives
  EXPECT_EQ(err_code(f.sink->last()), "line-too-long");
}

TEST(ProtocolEdges, EmbeddedNulByteRejected) {
  ServiceFixture f;
  std::string line = "PLAN?";
  line.push_back('\0');
  line += "x";
  EXPECT_TRUE(f.feed(line));
  EXPECT_EQ(err_code(f.sink->last()), "nul-byte");
}

TEST(ProtocolEdges, CommandWithoutSessionRejected) {
  ServiceFixture f;
  EXPECT_TRUE(f.feed("TICK"));
  EXPECT_EQ(err_code(f.sink->last()), "no-session");
  EXPECT_TRUE(f.feed(""));
  EXPECT_EQ(err_code(f.sink->last()), "bad-command");
}

TEST(ProtocolEdges, TruncatedAndMalformedSpecs) {
  ServiceFixture f;
  // OPEN with no spec at all: the session key is required.
  EXPECT_TRUE(f.feed("OPEN"));
  EXPECT_EQ(err_code(f.sink->last()), "bad-spec");
  // Entry without '='.
  EXPECT_TRUE(f.feed("OPEN session"));
  EXPECT_EQ(err_code(f.sink->last()), "bad-spec");
  // Unknown key.
  EXPECT_TRUE(f.feed("OPEN session=a,sede=1"));
  EXPECT_EQ(err_code(f.sink->last()), "bad-spec");
  EXPECT_EQ(f.service.session_count(), 0u);
}

TEST(ProtocolEdges, SessionLevelErrors) {
  SessionOptions so;
  Session s("t", farm::parse_scenario_spec("name=edge,nodes=4,jobs=1"), 2, so);
  // Unknown verb.
  Reply r = s.handle("BOGUS", "");
  EXPECT_EQ(r.status, Reply::Status::Err);
  EXPECT_EQ(r.code, "bad-command");
  // Truncated MACHINE (no event token).
  r = s.handle("MACHINE", "");
  EXPECT_EQ(r.status, Reply::Status::Err);
  // Machine id out of range.
  r = s.handle("MACHINE", "down m=9999");
  EXPECT_EQ(r.status, Reply::Status::Err);
  EXPECT_EQ(r.code, "bad-spec");
  // SNAPSHOT without a snapshot root.
  r = s.handle("SNAPSHOT", "");
  EXPECT_EQ(r.status, Reply::Status::Err);
  EXPECT_EQ(r.code, "snapshot");
  // Malformed STATE payload.
  r = s.handle("STATE", "now=zzz");
  EXPECT_EQ(r.status, Reply::Status::Err);
  EXPECT_EQ(r.code, "bad-spec");
}

TEST(ProtocolEdges, BadSpecDetailIsTheReasonAlone) {
  // ERR details reach remote tenants: the caller's reason only, never the
  // failed expression or the source path behind it.
  ServiceFixture f;
  EXPECT_TRUE(f.feed("OPEN session"));
  const std::string reply = f.sink->last();
  EXPECT_EQ(err_code(reply), "bad-spec");
  EXPECT_NE(reply.find("OPEN spec entry must be key=value: session"),
            std::string::npos)
      << reply;
  EXPECT_EQ(reply.find("precondition failed"), std::string::npos) << reply;
  EXPECT_EQ(reply.find(".cpp:"), std::string::npos) << reply;
}

TEST(MirrorHolders, AscendingIdsWithoutZeroCells) {
  const farm::RunInputs in =
      farm::make_run_inputs(farm::parse_scenario_spec("nodes=6,jobs=2"), 3);
  ASSERT_GE(in.workload.data_count(), 2u);
  MirrorState mirror(in.cluster, in.workload);
  WireState ws;
  ws.fractions = {{1, 5, 0.5}, {0, 4, 1.0}, {1, 0, 0.25},
                  {1, 3, 0.0}, {1, 2, 0.25}};
  mirror.apply(ws);
  std::vector<StoreId> h{StoreId{9}};  // stale contents are replaced
  mirror.holders(DataId{1}, h);
  EXPECT_EQ(h, (std::vector<StoreId>{StoreId{0}, StoreId{2}, StoreId{5}}));
  mirror.holders(DataId{0}, h);
  EXPECT_EQ(h, (std::vector<StoreId>{StoreId{4}}));

  // A lost store: the simulator wiped its cells, so the next STATE carries
  // none of them and the mirror drops it.
  ws.stores_down = {2};
  ws.fractions = {{1, 5, 0.5}, {0, 4, 1.0}, {1, 0, 0.25}};
  mirror.apply(ws);
  mirror.holders(DataId{1}, h);
  EXPECT_EQ(h, (std::vector<StoreId>{StoreId{0}, StoreId{5}}));

  // A cell outside the world is refused, not mirrored.
  ws.fractions = {{1, in.cluster.store_count(), 1.0}};
  EXPECT_THROW(mirror.apply(ws), PreconditionError);
}

TEST(MirrorHolders, JobWhoseTasksReadDifferentObjectsIsBadSpec) {
  SessionOptions so;
  Session s("t", farm::parse_scenario_spec("name=mixed,nodes=4,jobs=2"), 2,
            so);
  const auto task = [](std::size_t id, std::size_t data) {
    WireTask t;
    t.id = id;
    t.job = 0;
    t.index_in_job = id;
    t.input_mb = 64.0;
    t.cpu_ecu_s = 100.0;
    t.data = data;
    return t;
  };
  Reply r = s.handle("JOB", "job=0,tasks=" + encode_tasks({task(0, 0),
                                                           task(1, 1)}));
  EXPECT_EQ(r.status, Reply::Status::Err);
  EXPECT_EQ(r.code, "bad-spec");
  // The detail is the reason alone: no failed expression, no source path.
  EXPECT_EQ(r.detail, "JOB spec: tasks of job 0 read different data objects");
  // One object per job is accepted; a later JOB naming another is not.
  r = s.handle("JOB", "job=0,tasks=" + encode_tasks({task(0, 0),
                                                     task(1, 0)}));
  EXPECT_EQ(r.status, Reply::Status::Ok) << r.detail;
  r = s.handle("JOB", "job=0,tasks=" + encode_tasks({task(2, 1)}));
  EXPECT_EQ(r.code, "bad-spec");
}

TEST(ProtocolEdges, DuplicateSessionAndQuitMidStream) {
  ServiceFixture f;
  EXPECT_TRUE(f.feed("OPEN session=a,seed=1,scenario=nodes=4;jobs=1"));
  EXPECT_EQ(err_code(f.sink->last()), "");
  EXPECT_EQ(f.service.session_count(), 1u);

  // Second OPEN on the same connection: already bound.
  EXPECT_TRUE(f.feed("OPEN session=b,seed=1,scenario=nodes=4;jobs=1"));
  EXPECT_EQ(err_code(f.sink->last()), "bad-state");

  // Duplicate session name from another connection.
  Service::ConnectionCtx ctx2;
  auto sink2 = std::make_shared<CaptureSink>();
  EXPECT_TRUE(f.service.handle_line(
      ctx2, "OPEN session=a,seed=1,scenario=nodes=4;jobs=1", sink2));
  EXPECT_EQ(err_code(sink2->last()), "session-exists");

  // QUIT mid-stream: closes the connection, reaps the session, flushes the
  // goodbye last.
  EXPECT_FALSE(f.feed("QUIT"));
  EXPECT_NE(f.sink->last().find("OK"), std::string::npos);
  EXPECT_NE(f.sink->last().find("bye=1"), std::string::npos);
  EXPECT_EQ(f.service.session_count(), 0u);

  // Post-QUIT commands on a fresh connection need a new OPEN...
  Service::ConnectionCtx ctx3;
  auto sink3 = std::make_shared<CaptureSink>();
  EXPECT_TRUE(f.service.handle_line(ctx3, "TICK", sink3));
  EXPECT_EQ(err_code(sink3->last()), "no-session");
  // ...and the reaped name is free again.
  EXPECT_TRUE(f.service.handle_line(
      ctx3, "OPEN session=a,seed=1,scenario=nodes=4;jobs=1", sink3));
  EXPECT_EQ(err_code(sink3->last()), "");
}

// ---------------------------------------------------------------------------
// Untrusted wire input: integers past 2^64 and ids outside the world

TEST(WireCodec, IntegersPast64BitsAreRefused) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  for (const char* s : {"18446744073709551616", "99999999999999999999999"}) {
    try {
      (void)parse_u64(s);
      ADD_FAILURE() << s << " parsed";
    } catch (const PreconditionError& e) {
      EXPECT_EQ(std::string(e.reason()),
                std::string("wire: integer out of range: ") + s);
    }
  }
  EXPECT_THROW(
      (void)decode_state("now=0x0p+0,pending=99999999999999999999"),
      PreconditionError);
}

TEST(MirrorIds, TaskJobAndDataIdsOutsideTheWorldAreRefused) {
  const farm::RunInputs in =
      farm::make_run_inputs(farm::parse_scenario_spec("nodes=4,jobs=2"), 3);
  const std::size_t n = in.workload.total_tasks();
  MirrorState mirror(in.cluster, in.workload);
  WireState ws;
  ws.pending = {n - 1};
  mirror.apply(ws);
  WireTask t;
  for (const std::size_t id : {n, std::numeric_limits<std::size_t>::max()}) {
    ws.pending = {id};
    EXPECT_THROW(mirror.apply(ws), PreconditionError) << id;
    t.id = id;
    EXPECT_THROW(mirror.add_tasks({t}), PreconditionError) << id;
  }
  t.id = 0;
  t.job = in.workload.job_count();
  EXPECT_THROW(mirror.add_tasks({t}), PreconditionError);
  t.job = 0;
  t.data = in.workload.data_count();
  EXPECT_THROW(mirror.add_tasks({t}), PreconditionError);
}

TEST(MirrorIds, RefusedStateLeavesThePreviousOneIntact) {
  const farm::RunInputs in =
      farm::make_run_inputs(farm::parse_scenario_spec("nodes=4,jobs=2"), 3);
  ASSERT_GE(in.cluster.machine_count(), 4u);
  ASSERT_GE(in.cluster.store_count(), 3u);
  ASSERT_GE(in.workload.total_tasks(), 3u);
  MirrorState mirror(in.cluster, in.workload);
  WireState ws;
  ws.now = 123.5;
  ws.pending = {2, 0};
  ws.machines_down = {1};
  ws.stores_down = {0};
  ws.throughput = {{2, 0.5}};
  ws.fractions = {{0, 1, 0.75}};
  mirror.apply(ws);

  // Every field but the last is valid and differs from the applied STATE.
  WireState bad;
  bad.now = 999.0;
  bad.pending = {1};
  bad.machines_down = {3};
  bad.stores_down = {2};
  bad.throughput = {{3, 0.25}};
  bad.fractions = {{0, in.cluster.store_count(), 1.0}};
  EXPECT_THROW(mirror.apply(bad), PreconditionError);

  EXPECT_EQ(mirror.now(), 123.5);
  EXPECT_EQ(std::vector<std::size_t>(mirror.pending().begin(),
                                     mirror.pending().end()),
            ws.pending);
  EXPECT_TRUE(mirror.is_pending(0));
  EXPECT_FALSE(mirror.is_pending(1));
  EXPECT_FALSE(mirror.machine_up(MachineId{1}));
  EXPECT_TRUE(mirror.machine_up(MachineId{3}));
  EXPECT_FALSE(mirror.store_up(StoreId{0}));
  EXPECT_TRUE(mirror.store_up(StoreId{2}));
  EXPECT_EQ(mirror.observed_throughput(MachineId{2}), 0.5);
  EXPECT_EQ(mirror.observed_throughput(MachineId{3}), 1.0);
  EXPECT_EQ(mirror.stored_fraction(DataId{0}, StoreId{1}), 0.75);
}

TEST(MirrorIds, SessionAnswersHostileIdsWithBadSpecAndKeepsServing) {
  SessionOptions so;
  Session s("t", farm::parse_scenario_spec("name=hostile,nodes=4,jobs=1"), 2,
            so);
  Reply r = s.handle("STATE", "now=0x0p+0,pending=18446744073709551615");
  EXPECT_EQ(r.code, "bad-spec");
  r = s.handle("JOB", "job=0,tasks=18446744073709551615:0:0:0x1p+0:0x1p+0:0");
  EXPECT_EQ(r.code, "bad-spec");
  r = s.handle("STATE", "now=0x1p+4");
  EXPECT_EQ(r.status, Reply::Status::Ok) << r.detail;
  r = s.handle("TICK", "");
  EXPECT_EQ(r.status, Reply::Status::Ok) << r.detail;
  EXPECT_EQ(r.detail, "epoch=1");
}

// Numbers, not only ids, are checked before the mirror writes: a NaN or an
// out-of-domain value must never reach the hosted policy's plan.
TEST(MirrorValues, NonFiniteAndOutOfDomainNumbersAreRefused) {
  const farm::RunInputs in =
      farm::make_run_inputs(farm::parse_scenario_spec("nodes=4,jobs=2"), 3);
  ASSERT_GE(in.cluster.store_count(), 3u);
  MirrorState mirror(in.cluster, in.workload);
  WireState ws;
  ws.throughput = {{1, 0.5}};
  ws.fractions = {{0, 1, 0.75}};
  mirror.apply(ws);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double f : {nan, inf, -inf, -0.25, 1.5}) {
    WireState bad = ws;
    bad.fractions = {{0, 1, f}};
    EXPECT_THROW(mirror.apply(bad), PreconditionError) << "fraction " << f;
  }
  for (const double tp : {nan, inf, 0.0, -1.0}) {
    WireState bad = ws;
    bad.throughput = {{1, tp}};
    EXPECT_THROW(mirror.apply(bad), PreconditionError) << "throughput " << tp;
  }
  EXPECT_EQ(mirror.stored_fraction(DataId{0}, StoreId{1}), 0.75);
  EXPECT_EQ(mirror.observed_throughput(MachineId{1}), 0.5);

  WireTask t;
  t.input_mb = 64.0;
  t.cpu_ecu_s = 100.0;
  mirror.add_tasks({t});
  for (const double v : {nan, inf, -1.0}) {
    WireTask bad = t;
    bad.input_mb = v;
    EXPECT_THROW(mirror.add_tasks({bad}), PreconditionError) << "input " << v;
    bad = t;
    bad.cpu_ecu_s = v;
    EXPECT_THROW(mirror.add_tasks({bad}), PreconditionError) << "cpu " << v;
  }
  EXPECT_EQ(mirror.task(0).input_mb, 64.0);
  EXPECT_EQ(mirror.task(0).cpu_ecu_s, 100.0);

  // The ends of each domain are valid values.
  WireState edge = ws;
  edge.fractions = {{0, 1, 0.0}, {0, 2, 1.0}};
  edge.throughput = {{1, 2.0}};
  EXPECT_NO_THROW(mirror.apply(edge));
  t.input_mb = 0.0;
  t.cpu_ecu_s = 0.0;
  EXPECT_NO_THROW(mirror.add_tasks({t}));
}

TEST(MirrorValues, SessionAnswersNanWithBadSpecAndPlansOnFiniteValues) {
  SessionOptions so;
  Session s("t", farm::parse_scenario_spec("name=nan,nodes=4,jobs=2"), 3, so);
  Reply r = s.handle("JOB", "job=0,tasks=0:0:0:nan:0x1p+6:0");
  EXPECT_EQ(r.code, "bad-spec");
  r = s.handle("JOB", "job=0,tasks=0:0:0:0x1p+6:-0x1p+6:0");
  EXPECT_EQ(r.code, "bad-spec");
  r = s.handle("JOB", "job=0,tasks=0:0:0:0x1p+6:0x1p+6:0;1:0:1:0x1p+6:0x1p+6:0");
  ASSERT_EQ(r.status, Reply::Status::Ok) << r.detail;
  for (const char* spec :
       {"now=0x0p+0,pending=0:1,frac=0:0:inf;0:1:nan",
        "now=0x0p+0,pending=0:1,frac=0:1:0x1.8p+0",
        "now=0x0p+0,pending=0:1,tp=0:nan;1:-0x1p+0"}) {
    r = s.handle("STATE", spec);
    EXPECT_EQ(r.code, "bad-spec") << spec;
  }
  r = s.handle("STATE", "now=0x0p+0,pending=0:1,frac=0:0:0x1p+0");
  ASSERT_EQ(r.status, Reply::Status::Ok) << r.detail;
  r = s.handle("TICK", "");
  ASSERT_EQ(r.status, Reply::Status::Ok) << r.detail;
  r = s.handle("MOVES?", "");
  ASSERT_EQ(r.status, Reply::Status::Ok) << r.detail;
  const std::string moves = r.render(1);
  EXPECT_EQ(moves.find("nan"), std::string::npos) << moves;
  EXPECT_EQ(moves.find("inf"), std::string::npos) << moves;
}

// ---------------------------------------------------------------------------
// SNAPSHOT / restore-on-start bit-identity (ckpt-driven state)

/// Compare two replies field for field (rendered with the same seq).
void expect_same_reply(const Reply& a, const Reply& b, const char* what) {
  EXPECT_EQ(a.render(1), b.render(1)) << what;
}

TEST(SnapshotRestore, RestoredSessionContinuesBitIdentically) {
  const std::string root = scratch_dir("restore");
  const farm::ScenarioSpec sc =
      farm::parse_scenario_spec("name=snap,nodes=4,jobs=2");
  const std::uint64_t seed = 9;
  const farm::RunInputs in = farm::make_run_inputs(sc, seed);

  // Hand-rolled task descriptors for job 0 (ids are the client's currency;
  // they only need to be self-consistent).
  std::vector<WireTask> tasks;
  for (std::size_t i = 0; i < 2; ++i) {
    WireTask t;
    t.id = i;
    t.job = 0;
    t.index_in_job = i;
    t.input_mb = 128.0;
    t.cpu_ecu_s = 400.0;
    if (!in.workload.job(JobId{0}).data.empty())
      t.data = in.workload.job(JobId{0}).data.front().value();
    tasks.push_back(t);
  }
  WireState st0;
  st0.now = 0.0;
  st0.pending = {0, 1};
  WireState st1 = st0;
  st1.now = sc.epoch_s;

  SessionOptions so;
  so.snapshot_root = root;
  Session live("tenant", sc, seed, so);

  // Phase A: arrivals + one epoch, then SNAPSHOT.
  EXPECT_EQ(live.handle("STATE", encode_state(st0)).status,
            Reply::Status::Ok);
  EXPECT_EQ(live.handle("JOB", "job=0,tasks=" + encode_tasks(tasks)).status,
            Reply::Status::Ok);
  EXPECT_EQ(live.handle("TICK", "").status, Reply::Status::Ok);
  EXPECT_EQ(live.handle("MOVES?", "").status, Reply::Status::Ok);
  EXPECT_EQ(live.handle("SLOT", "m=0").status, Reply::Status::Ok);
  const Reply snap = live.handle("SNAPSHOT", "");
  ASSERT_EQ(snap.status, Reply::Status::Ok) << snap.detail;
  EXPECT_NE(snap.detail.find("seq=1"), std::string::npos);

  // A second tenant restored from that snapshot. The mirror is client-owned
  // state, so phase B re-streams STATE and the JOB descriptors — to both
  // sessions, keeping the command history identical.
  SessionOptions ro = so;
  ro.restore = true;
  Session restored("tenant", sc, seed, ro);

  const std::vector<std::pair<std::string, std::string>> phase_b = {
      {"STATE", encode_state(st1)},
      {"JOB", "job=0,tasks=" + encode_tasks(tasks)},
      {"TICK", ""},
      {"SLOT", "m=1"},
      {"MOVES?", ""},
      {"PLAN?", ""},
      {"LEDGER?", ""},
  };
  for (const auto& [verb, rest] : phase_b) {
    const Reply a = live.handle(verb, rest);
    const Reply b = restored.handle(verb, rest);
    expect_same_reply(a, b, verb.c_str());
  }
  EXPECT_EQ(live.epochs(), 2u);
  EXPECT_EQ(restored.epochs(), 2u);
  // The carry accumulated in phase A must have survived the round-trip
  // (PLAN? above compared it bitwise via hexfloats already; pin non-trivial
  // activity so the test cannot rot into comparing zeros).
  EXPECT_GE(live.policy().lp_solves(), 2u);
  // Phase B's TICK plans the same job set again: the live session updates
  // its model in place, and the restored one, which has no model, must
  // count that solve as a model reuse too.
  const core::LipsPolicy& a = live.policy();
  const core::LipsPolicy& b = restored.policy();
  EXPECT_EQ(a.lp_model_reuses(), 1u);
  EXPECT_EQ(b.lp_solves(), a.lp_solves());
  EXPECT_EQ(b.lp_warm_solves(), a.lp_warm_solves());
  EXPECT_EQ(b.lp_model_reuses(), a.lp_model_reuses());
  EXPECT_EQ(b.total_lp_iterations(), a.total_lp_iterations());
  EXPECT_EQ(b.lp_repair_iterations(), a.lp_repair_iterations());
}

TEST(SnapshotRestore, RestoreRejectsMissingSnapshotAndWrongSeed) {
  const std::string root = scratch_dir("restore_neg");
  const farm::ScenarioSpec sc =
      farm::parse_scenario_spec("name=snapneg,nodes=4,jobs=1");
  SessionOptions ro;
  ro.snapshot_root = root;
  ro.restore = true;
  // No snapshot on disk.
  EXPECT_THROW(Session("ghost", sc, 1, ro), PreconditionError);
  // Snapshot from a different seed.
  SessionOptions so;
  so.snapshot_root = root;
  Session writer("tenant", sc, 1, so);
  ASSERT_EQ(writer.handle("SNAPSHOT", "").status, Reply::Status::Ok);
  EXPECT_THROW(Session("tenant", sc, 2, ro), PreconditionError);
}

/// Two task descriptors for job 0 of the (spec, seed) world, reading the
/// job's first data object.
std::vector<WireTask> job0_tasks(const farm::ScenarioSpec& sc,
                                 std::uint64_t seed) {
  const farm::RunInputs in = farm::make_run_inputs(sc, seed);
  std::vector<WireTask> tasks;
  for (std::size_t i = 0; i < 2; ++i) {
    WireTask t;
    t.id = i;
    t.job = 0;
    t.index_in_job = i;
    t.input_mb = 128.0;
    t.cpu_ecu_s = 400.0;
    if (!in.workload.job(JobId{0}).data.empty())
      t.data = in.workload.job(JobId{0}).data.front().value();
    tasks.push_back(t);
  }
  return tasks;
}

/// A scripted session — arrivals, one epoch, a launch — that ends in
/// SNAPSHOT. Returns the snapshot payload it wrote.
std::vector<std::uint8_t> scripted_snapshot_payload(
    const std::string& root, obs::MetricRegistry* metrics = nullptr) {
  const farm::ScenarioSpec sc =
      farm::parse_scenario_spec("name=snap,nodes=4,jobs=2");
  const std::uint64_t seed = 9;
  const std::vector<WireTask> tasks = job0_tasks(sc, seed);
  WireState st;
  st.now = 0.0;
  st.pending = {0, 1};
  SessionOptions so;
  so.snapshot_root = root;
  so.metrics = metrics;
  Session s("tenant", sc, seed, so);
  EXPECT_EQ(s.handle("STATE", encode_state(st)).status, Reply::Status::Ok);
  EXPECT_EQ(s.handle("JOB", "job=0,tasks=" + encode_tasks(tasks)).status,
            Reply::Status::Ok);
  EXPECT_EQ(s.handle("TICK", "").status, Reply::Status::Ok);
  EXPECT_EQ(s.handle("SLOT", "m=0").status, Reply::Status::Ok);
  EXPECT_EQ(s.handle("SNAPSHOT", "").status, Reply::Status::Ok);
  const std::optional<ckpt::Snapshot> snap =
      ckpt::CheckpointDir(root + "/tenant").load_latest();
  EXPECT_TRUE(snap.has_value());
  return snap.has_value() ? snap->payload : std::vector<std::uint8_t>{};
}

TEST(SnapshotRestore, PayloadDigestIsPinned) {
  // Recorded at session payload version 4; a change that moves it changes
  // the format and must bump kSessionPayloadVersion.
  const std::vector<std::uint8_t> payload =
      scripted_snapshot_payload(scratch_dir("restore_digest"));
  ckpt::Fnv1a64 d;
  d.bytes(payload.data(), payload.size());
  EXPECT_EQ(d.digest(), 0x54F7BEE14B91FF42ULL)
      << "payload digest 0x" << std::hex << d.digest();
}

// lipsd's registry is daemon-wide and no snapshot carries it, so a session
// restored by a new process starts from an empty one. Its first TICK must
// register every resilience series of the ladder, at zero, as a fresh
// session's does.
TEST(SnapshotRestore, RestoredSessionExportsResilienceSeries) {
  const std::string root = scratch_dir("restore_metrics");
  obs::MetricRegistry writer_metrics;
  (void)scripted_snapshot_payload(root, &writer_metrics);

  const farm::ScenarioSpec sc =
      farm::parse_scenario_spec("name=snap,nodes=4,jobs=2");
  const std::uint64_t seed = 9;
  obs::MetricRegistry fresh;
  SessionOptions ro;
  ro.snapshot_root = root;
  ro.restore = true;
  ro.metrics = &fresh;
  Session restored("tenant", sc, seed, ro);
  WireState st;
  st.now = sc.epoch_s;
  st.pending = {0, 1};
  const std::string tasks = encode_tasks(job0_tasks(sc, seed));
  ASSERT_EQ(restored.handle("STATE", encode_state(st)).status,
            Reply::Status::Ok);
  ASSERT_EQ(restored.handle("JOB", "job=0,tasks=" + tasks).status,
            Reply::Status::Ok);
  ASSERT_EQ(restored.handle("TICK", "").status, Reply::Status::Ok);

  const auto exported = [&fresh](const std::string& name,
                                 const obs::Labels& labels) {
    for (const obs::MetricRegistry::Sample& smp : fresh.snapshot())
      if (smp.name == name && smp.labels == labels) return true;
    return false;
  };
  for (const char* rung :
       {"cold_rebuild", "greedy_fallback", "reuse_last_plan"})
    EXPECT_TRUE(exported("lips_degradation_total", {{"rung", rung}})) << rung;
  EXPECT_TRUE(exported("lips_schedule_validation_failures_total", {}));
  EXPECT_TRUE(exported("lips_lp_certificate_failures_total", {}));
}

// Sequence 1 is good; sequences 2 and 3 pass their CRC but their payloads do
// not decode, and sequence 3 fails only after it has read part of the
// ledger. OPEN restore=1 skips both and resumes from sequence 1, in the state
// sequence 1 holds. A directory holding only undecodable snapshots still
// answers ERR snapshot.
TEST(SnapshotRestore, UndecodableNewestSnapshotsFallBackToAnOlderGoodOne) {
  const std::string root = scratch_dir("restore_undecodable");
  const farm::ScenarioSpec sc;
  const std::uint64_t seed = 3;
  const farm::RunInputs in = farm::make_run_inputs(sc, seed);
  std::vector<WireTask> tasks;
  for (std::size_t i = 0; i < 2; ++i) {
    WireTask t;
    t.id = i;
    t.job = 0;
    t.index_in_job = i;
    t.input_mb = 128.0;
    t.cpu_ecu_s = 400.0;
    if (!in.workload.job(JobId{0}).data.empty())
      t.data = in.workload.job(JobId{0}).data.front().value();
    tasks.push_back(t);
  }
  WireState st;
  st.now = 0.0;
  st.pending = {0, 1};
  SessionOptions so;
  so.snapshot_root = root;
  Session writer("t1", sc, seed, so);
  ASSERT_EQ(writer.handle("STATE", encode_state(st)).status, Reply::Status::Ok);
  ASSERT_EQ(writer.handle("JOB", "job=0,tasks=" + encode_tasks(tasks)).status,
            Reply::Status::Ok);
  ASSERT_EQ(writer.handle("TICK", "").status, Reply::Status::Ok);
  ASSERT_EQ(writer.handle("SLOT", "m=0").status, Reply::Status::Ok);
  ASSERT_EQ(writer.handle("SNAPSHOT", "").status, Reply::Status::Ok);
  const ckpt::CheckpointDir dir(root + "/t1");
  const std::optional<ckpt::Snapshot> good = dir.load_latest();
  ASSERT_TRUE(good.has_value());

  // Sequence 2: CRC-valid but cut short, the payload re-sealed at 40 bytes.
  ckpt::Snapshot cut = *good;
  cut.payload.resize(40);
  cut.meta.sequence = 2;
  dir.write(cut);

  // Sequence 3: CRC-valid with a ledger cell whose category is out of range.
  ckpt::Writer w;
  w.u64(2);     // session payload version
  w.str("t1");  // session name
  w.u64(seed);
  w.f64(0.0);   // clock
  w.u64(0);     // epochs
  w.u64(0);     // ledger epoch
  for (std::size_t m = 0; m < obs::kMeterCount; ++m) w.f64(0.0);
  w.size(1);  // one cell: epoch, job, machine, category, amount
  w.size(0);
  w.size(0);
  w.size(0);
  w.u8(200);
  w.f64(1.0);
  w.size(1);  // posts
  ckpt::Snapshot bad = *good;
  bad.payload = w.take();
  bad.meta.sequence = 3;
  dir.write(bad);

  ServiceOptions o;
  o.snapshot_root = root;
  const auto open_restored = [&o](const std::string& session) {
    Service service(o);
    Service::ConnectionCtx ctx;
    auto sink = std::make_shared<CaptureSink>();
    EXPECT_TRUE(service.handle_line(
        ctx, "OPEN session=" + session + ",seed=3,restore=1", sink));
    return std::pair{err_code(sink->last()), service.session_count()};
  };
  EXPECT_EQ(open_restored("t1"), (std::pair{std::string(), std::size_t{1}}));

  // The session it resumes holds sequence 1's state, and numbers its next
  // snapshot past the undecodable ones.
  SessionOptions ro = so;
  ro.restore = true;
  Session restored("t1", sc, seed, ro);
  EXPECT_EQ(restored.epochs(), writer.epochs());
  EXPECT_EQ(restored.policy().lp_solves(), writer.policy().lp_solves());
  EXPECT_GE(writer.policy().lp_solves(), 1u);
  expect_same_reply(writer.handle("LEDGER?", ""),
                    restored.handle("LEDGER?", ""), "LEDGER?");
  const Reply next = restored.handle("SNAPSHOT", "");
  ASSERT_EQ(next.status, Reply::Status::Ok) << next.detail;
  EXPECT_NE(next.detail.find("seq=4"), std::string::npos) << next.detail;

  // Only undecodable snapshots: nothing to fall back to. The payload names
  // its own session and seed, then ends.
  ckpt::Writer short_payload;
  short_payload.u64(1);  // session payload version
  short_payload.str("t2");
  short_payload.u64(seed);
  ckpt::Snapshot only = *good;
  only.payload = short_payload.take();
  only.meta.sequence = 1;
  const ckpt::CheckpointDir only_bad(root + "/t2");
  only_bad.write(only);
  EXPECT_EQ(open_restored("t2"),
            (std::pair{std::string("snapshot"), std::size_t{0}}));
}

// ---------------------------------------------------------------------------
// End-to-end determinism gate: simulator as a client of a real lipsd socket

struct RunningServer {
  ServiceOptions options;
  obs::MetricRegistry metrics;
  Service service;
  Server server;
  std::thread accept_thread;
  std::string path;

  explicit RunningServer(const std::string& tag, std::string snapshot_root = "")
      : service(make_options(metrics, std::move(snapshot_root))),
        server(service) {
    path = scratch_dir(tag) + "/lipsd.sock";
    server.listen_unix(path);
    accept_thread = std::thread([this] { server.run(); });
  }
  ~RunningServer() {
    server.request_stop();
    accept_thread.join();
  }
  static ServiceOptions make_options(obs::MetricRegistry& m,
                                     std::string snapshot_root) {
    ServiceOptions o;
    o.metrics = &m;
    o.snapshot_root = std::move(snapshot_root);
    return o;
  }
};

TEST(EndToEnd, SingleTenantReplayIsBitIdentical) {
  RunningServer rs("e2e_single");
  const std::uint64_t seeds[] = {3, 11, 2013};
  for (const std::uint64_t seed : seeds) {
    const ReplayComparison cmp =
        replay_and_compare(rs.path, "name=e2e,nodes=8,jobs=3", seed,
                           "tenant" + std::to_string(seed));
    EXPECT_TRUE(cmp.identical) << "seed " << seed << ": " << cmp.divergence;
    EXPECT_EQ(cmp.local_digest, cmp.remote_digest);
    EXPECT_TRUE(same_bits(cmp.local_total.raw(), cmp.remote_total.raw()));
    EXPECT_TRUE(same_bits(cmp.local_carry.raw(), cmp.remote_carry.raw()));
    EXPECT_EQ(cmp.local_lp_solves, cmp.remote_lp_solves);
    EXPECT_GT(cmp.local_lp_solves, 0u);  // the gate must compare real work
  }
  EXPECT_EQ(rs.service.session_count(), 0u);  // QUIT reaped every tenant
}

TEST(EndToEnd, ConcurrentTenantsStayIsolatedAndDeterministic) {
  RunningServer rs("e2e_multi");
  constexpr std::size_t kTenants = 4;
  std::vector<ReplayComparison> results(kTenants);
  std::vector<std::thread> clients;
  clients.reserve(kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) {
    clients.emplace_back([&rs, &results, i] {
      results[i] = replay_and_compare(
          rs.path, "name=mt,nodes=6,jobs=2", 100 + i,
          "tenant" + std::to_string(i));
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < kTenants; ++i) {
    EXPECT_TRUE(results[i].identical)
        << "tenant " << i << ": " << results[i].divergence;
  }
  // Distinct seeds must not collapse to one plan (tenant isolation is doing
  // real work, not sharing one policy).
  EXPECT_NE(results[0].local_digest, results[1].local_digest);
  EXPECT_EQ(rs.service.session_count(), 0u);
}

TEST(EndToEnd, ServerSurvivesHostileBytesThenServes) {
  RunningServer rs("e2e_hostile");
  LineClient probe = LineClient::connect_unix(rs.path);
  // Oversized line: structured error, connection stays usable.
  Response r = probe.request("TICK " + std::string(kMaxLineBytes + 7, 'x'));
  EXPECT_EQ(r.status, Response::Status::Err);
  EXPECT_EQ(r.code, "line-too-long");
  r = probe.request("OPEN session=probe,seed=5,scenario=nodes=4;jobs=1");
  EXPECT_EQ(r.status, Response::Status::Ok);
  r = probe.request("TICK");
  EXPECT_EQ(r.status, Response::Status::Ok);
  r = probe.request("QUIT");
  EXPECT_EQ(r.status, Response::Status::Ok);
}

}  // namespace
}  // namespace lips::svc
