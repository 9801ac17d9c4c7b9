// Tests for src/ckpt — the crash-consistent checkpoint/restore subsystem
// (DESIGN.md §11). Layered like the subsystem itself: codec primitives
// round-trip bit patterns (NaN included), the snapshot container detects
// every single-byte flip and every truncation, the on-disk store falls back
// past corrupt files, the write-fault injector manufactures detectable
// corruption deterministically, and — the contract the whole subsystem
// exists for — a simulation resumed from *any* snapshot finishes with the
// uninterrupted run's schedule digest, trace, and bit-identical ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/digest.hpp"
#include "ckpt/divergence.hpp"
#include "ckpt/snapshot.hpp"
#include "ckpt/store.hpp"
#include "ckpt/write_faults.hpp"
#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/epoch_lp_context.hpp"
#include "core/lips_policy.hpp"
#include "lp/model.hpp"
#include "lp/solver_faults.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sched/delay_scheduler.hpp"
#include "sched/fair_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/flow_scheduler.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "workload/swim.hpp"

namespace lips {
namespace {

namespace fs = std::filesystem;

/// Fresh (empty) per-test scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& tag) {
  const fs::path p = fs::path(::testing::TempDir()) / ("lips_ckpt_" + tag);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// ------------------------------------------------------------- codec ------

TEST(CkptCodec, PrimitivesRoundTripBitExactly) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double neg_zero = -0.0;
  ckpt::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.size(SIZE_MAX);
  w.boolean(true);
  w.boolean(false);
  w.f64(nan);
  w.f64(neg_zero);
  w.f64(0x1.fffffffffffffp+1023);  // DBL_MAX
  w.str(std::string("embedded\0nul", 12));
  w.str("");

  ckpt::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.size(), SIZE_MAX);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  // NaN != NaN, so compare the bit patterns.
  const double got_nan = r.f64();
  std::uint64_t want_bits = 0;
  std::uint64_t got_bits = 0;
  std::memcpy(&want_bits, &nan, sizeof(want_bits));
  std::memcpy(&got_bits, &got_nan, sizeof(got_bits));
  EXPECT_EQ(got_bits, want_bits);
  EXPECT_TRUE(std::signbit(r.f64()));
  EXPECT_EQ(r.f64(), 0x1.fffffffffffffp+1023);
  EXPECT_EQ(r.str(), std::string("embedded\0nul", 12));
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CkptCodec, ReaderThrowsOnUnderrunAndJunkBoolean) {
  const std::uint8_t three_bytes[] = {1, 2, 3};
  ckpt::Reader r(three_bytes, sizeof(three_bytes));
  EXPECT_THROW((void)r.u32(), ckpt::SnapshotError);

  const std::uint8_t junk_bool[] = {2};
  ckpt::Reader rb(junk_bool, sizeof(junk_bool));
  EXPECT_THROW((void)rb.boolean(), ckpt::SnapshotError);

  // A string whose declared length exceeds the remaining bytes must throw,
  // not read out of bounds.
  ckpt::Writer w;
  w.size(1000);
  w.bytes("abc", 3);
  ckpt::Reader rs(w.buffer());
  EXPECT_THROW((void)rs.str(), ckpt::SnapshotError);
}

TEST(CkptDigest, Fnv1a64MatchesReferenceAndOrderMatters) {
  // Reference vectors for FNV-1a 64 (Noll's published test suite).
  ckpt::Fnv1a64 d;
  EXPECT_EQ(d.digest(), 0xCBF29CE484222325ULL);  // empty = offset basis
  d.bytes("a", 1);
  EXPECT_EQ(d.digest(), 0xAF63DC4C8601EC8CULL);
  d.reset();
  d.bytes("foobar", 6);
  EXPECT_EQ(d.digest(), 0x85944171F73967E8ULL);

  ckpt::Fnv1a64 ab;
  ckpt::Fnv1a64 ba;
  ab.u64(1);
  ab.u64(2);
  ba.u64(2);
  ba.u64(1);
  EXPECT_NE(ab.digest(), ba.digest());

  // reset(h) resumes a stream mid-flight — the simulator restores its
  // launch digest this way on checkpoint restore.
  ckpt::Fnv1a64 full;
  full.f64(3.25);
  full.str("x");
  ckpt::Fnv1a64 resumed;
  ckpt::Fnv1a64 half;
  half.f64(3.25);
  resumed.reset(half.digest());
  resumed.str("x");
  EXPECT_EQ(resumed.digest(), full.digest());
}

// ---------------------------------------------------------- snapshot ------

ckpt::Snapshot sample_snapshot() {
  ckpt::Snapshot s;
  s.meta.git_sha = "deadbeef";
  s.meta.compiler = "GNU 12";
  s.meta.build_type = "Release";
  s.meta.label = "lips:seed=7";
  s.meta.sim_time_s = 1234.5;
  s.meta.epoch = 9;
  s.meta.sequence = 42;
  s.payload = {0x00, 0x01, 0xFE, 0xFF, 0x10, 0x20};
  return s;
}

TEST(CkptSnapshot, EncodeDecodeRoundTrips) {
  const ckpt::Snapshot s = sample_snapshot();
  const std::vector<std::uint8_t> bytes = ckpt::encode_snapshot(s);
  const ckpt::Snapshot back = ckpt::decode_snapshot(bytes);
  EXPECT_EQ(back.meta.git_sha, s.meta.git_sha);
  EXPECT_EQ(back.meta.compiler, s.meta.compiler);
  EXPECT_EQ(back.meta.build_type, s.meta.build_type);
  EXPECT_EQ(back.meta.label, s.meta.label);
  EXPECT_EQ(back.meta.sim_time_s, s.meta.sim_time_s);
  EXPECT_EQ(back.meta.epoch, s.meta.epoch);
  EXPECT_EQ(back.meta.sequence, s.meta.sequence);
  EXPECT_EQ(back.payload, s.payload);
}

TEST(CkptSnapshot, EverySingleByteFlipIsDetected) {
  const std::vector<std::uint8_t> bytes =
      ckpt::encode_snapshot(sample_snapshot());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      std::vector<std::uint8_t> bad = bytes;
      bad[i] ^= mask;
      EXPECT_THROW((void)ckpt::decode_snapshot(bad), ckpt::SnapshotError)
          << "flip of byte " << i << " mask " << int{mask} << " not detected";
    }
  }
}

TEST(CkptSnapshot, EveryTruncationIsDetected) {
  const std::vector<std::uint8_t> bytes =
      ckpt::encode_snapshot(sample_snapshot());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW((void)ckpt::decode_snapshot(bytes.data(), n),
                 ckpt::SnapshotError)
        << "prefix of " << n << " bytes decoded";
  }
}

TEST(CkptSnapshot, UnsupportedVersionIsRejectedEvenWithValidCrc) {
  // Patch the version field (bytes 8..12, little-endian, right after the
  // magic) and re-seal the CRC so only the version check can object.
  std::vector<std::uint8_t> bytes = ckpt::encode_snapshot(sample_snapshot());
  bytes[8] = static_cast<std::uint8_t>(ckpt::kSnapshotVersion + 1);
  const std::uint32_t crc = ckpt::crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  try {
    (void)ckpt::decode_snapshot(bytes);
    FAIL() << "future-version snapshot decoded";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------- store ------

TEST(CkptStore, WriteLoadRoundTripsAndNumbersSequences) {
  const ckpt::CheckpointDir dir(scratch_dir("store_roundtrip"));
  EXPECT_FALSE(dir.latest_sequence().has_value());
  EXPECT_FALSE(dir.load_latest().has_value());

  ckpt::Snapshot s = sample_snapshot();
  s.meta.sequence = 1;
  const std::string p1 = dir.write(s);
  EXPECT_TRUE(fs::exists(p1));
  s.meta.sequence = 2;
  s.meta.epoch = 10;
  s.payload.push_back(0x77);
  dir.write(s);

  ASSERT_TRUE(dir.latest_sequence().has_value());
  EXPECT_EQ(*dir.latest_sequence(), 2u);
  std::vector<ckpt::CheckpointDir::Skipped> skipped;
  const std::optional<ckpt::Snapshot> latest = dir.load_latest(&skipped);
  ASSERT_TRUE(latest.has_value());
  EXPECT_TRUE(skipped.empty());
  EXPECT_EQ(latest->meta.sequence, 2u);
  EXPECT_EQ(latest->meta.epoch, 10u);
  EXPECT_EQ(latest->payload, s.payload);
}

TEST(CkptStore, RetentionKeepsOnlyNewestFiles) {
  const ckpt::CheckpointDir dir(scratch_dir("store_retention"),
                                /*keep=*/2);
  ckpt::Snapshot s = sample_snapshot();
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    s.meta.sequence = seq;
    dir.write(s);
  }
  const std::vector<std::string> files = dir.list();
  EXPECT_EQ(files.size(), 2u);
  EXPECT_EQ(*dir.latest_sequence(), 5u);
  ASSERT_TRUE(dir.load_latest().has_value());
  EXPECT_EQ(dir.load_latest()->meta.sequence, 5u);
}

TEST(CkptStore, FallsBackPastCorruptNewestSnapshot) {
  const ckpt::CheckpointDir dir(scratch_dir("store_fallback"));
  ckpt::Snapshot s = sample_snapshot();
  s.meta.sequence = 1;
  dir.write(s);
  s.meta.sequence = 2;
  const std::string newest = dir.write(s);

  // Bit-flip the newest file in the middle, as a bad disk would.
  std::vector<std::uint8_t> bytes = read_file(newest);
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(newest, bytes);

  std::vector<ckpt::CheckpointDir::Skipped> skipped;
  const std::optional<ckpt::Snapshot> got = dir.load_latest(&skipped);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->meta.sequence, 1u);
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_EQ(skipped[0].path, newest);
  EXPECT_FALSE(skipped[0].reason.empty());
}

TEST(CkptStore, IgnoresTmpAndForeignFiles) {
  const std::string path = scratch_dir("store_foreign");
  const ckpt::CheckpointDir dir(path);
  ckpt::Snapshot s = sample_snapshot();
  s.meta.sequence = 3;
  dir.write(s);
  // A torn write that never reached rename(2), plus unrelated clutter.
  write_file(path + "/.ckpt-99.tmp", {1, 2, 3});
  write_file(path + "/notes.txt", {'h', 'i'});

  EXPECT_EQ(dir.list().size(), 1u);
  EXPECT_EQ(*dir.latest_sequence(), 3u);
  std::vector<ckpt::CheckpointDir::Skipped> skipped;
  ASSERT_TRUE(dir.load_latest(&skipped).has_value());
  EXPECT_TRUE(skipped.empty());
}

// ------------------------------------------------------ write faults ------

TEST(CkptWriteFaults, SpecParsesAndRejectsJunk) {
  const ckpt::SnapshotFaultConfig c =
      ckpt::parse_snapshot_fault_spec("torn=0.5,trunc=0.25,corrupt=0.1,seed=9");
  EXPECT_EQ(c.torn_probability, 0.5);
  EXPECT_EQ(c.truncate_probability, 0.25);
  EXPECT_EQ(c.corrupt_probability, 0.1);
  EXPECT_EQ(c.seed, 9u);
  EXPECT_THROW((void)ckpt::parse_snapshot_fault_spec("torn=0.1,bogus=1"),
               PreconditionError);
  EXPECT_THROW((void)ckpt::parse_snapshot_fault_spec("torn=0.1,torn=0.2"),
               PreconditionError);
}

TEST(CkptWriteFaults, InjectionIsDeterministicAndAlwaysDetected) {
  ckpt::SnapshotFaultConfig cfg;
  cfg.torn_probability = 0.4;
  cfg.truncate_probability = 0.3;
  cfg.corrupt_probability = 0.3;
  cfg.seed = 17;

  const std::vector<std::uint8_t> clean =
      ckpt::encode_snapshot(sample_snapshot());
  ckpt::SnapshotFaultInjector a(cfg);
  ckpt::SnapshotFaultInjector b(cfg);
  std::size_t perturbed = 0;
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> ba = clean;
    std::vector<std::uint8_t> bb = clean;
    a.apply(ba);
    b.apply(bb);
    EXPECT_EQ(ba, bb) << "same seed, snapshot " << i << " diverged";
    if (ba != clean) {
      ++perturbed;
      // Every manufactured corruption must be *detectable* — that is the
      // point of the CRC-first decode.
      EXPECT_THROW((void)ckpt::decode_snapshot(ba), ckpt::SnapshotError);
    }
  }
  EXPECT_GT(perturbed, 0u);
  EXPECT_EQ(a.stats().snapshots_seen, 50u);
  // total_injected() can exceed the perturbed-snapshot count: independent
  // fault kinds (torn + truncate + corrupt) may all fire on one snapshot.
  EXPECT_GE(a.stats().total_injected(), perturbed);
}

TEST(CkptWriteFaults, StoreFallsBackPastInjectedCorruption) {
  const ckpt::CheckpointDir dir(scratch_dir("store_injected"));
  ckpt::Snapshot s = sample_snapshot();
  s.meta.sequence = 1;
  dir.write(s);  // good

  ckpt::SnapshotFaultConfig cfg;
  cfg.torn_probability = 1.0;  // every write is torn
  ckpt::SnapshotFaultInjector inj(cfg);
  s.meta.sequence = 2;
  dir.write(s, &inj);
  EXPECT_EQ(inj.stats().torn, 1u);

  std::vector<ckpt::CheckpointDir::Skipped> skipped;
  const std::optional<ckpt::Snapshot> got = dir.load_latest(&skipped);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->meta.sequence, 1u);
  EXPECT_EQ(skipped.size(), 1u);
}

// -------------------------------------------------------- divergence ------

TEST(CkptDivergence, IdenticalLogsProduceCleanReport) {
  const std::vector<std::string> log = {"a", "b", "c"};
  const ckpt::DivergenceReport rep = ckpt::diff_event_logs(log, log);
  EXPECT_TRUE(rep.identical);
  EXPECT_EQ(rep.first_mismatch, SIZE_MAX);
  EXPECT_TRUE(rep.mismatches.empty());
  EXPECT_EQ(rep.baseline_digest, rep.resumed_digest);
}

TEST(CkptDivergence, MismatchAndLengthSkewAreReported) {
  const std::vector<std::string> baseline = {"a", "b", "c"};
  const std::vector<std::string> resumed = {"a", "X", "c", "extra"};
  const ckpt::DivergenceReport rep = ckpt::diff_event_logs(baseline, resumed);
  EXPECT_FALSE(rep.identical);
  EXPECT_EQ(rep.first_mismatch, 1u);
  EXPECT_EQ(rep.baseline_events, 3u);
  EXPECT_EQ(rep.resumed_events, 4u);
  ASSERT_FALSE(rep.mismatches.empty());
  EXPECT_NE(rep.baseline_digest, rep.resumed_digest);

  std::ostringstream os;
  ckpt::write_divergence_report(rep, os);
  EXPECT_NE(os.str().find("X"), std::string::npos);
}

// ------------------------------------------- RNG stream round-trip --------
// Satellite of DESIGN.md §11: every RNG stream in a snapshot must resume
// exactly, including mid-sequence (xoshiro state, not the seed, is saved).

TEST(CkptRng, StateRoundTripsMidSequence) {
  Rng rng(12345);
  for (int i = 0; i < 1000; ++i) (void)rng.next();
  (void)rng.uniform01();  // leave the stream at an "odd" point
  const std::array<std::uint64_t, 4> state = rng.state();

  std::vector<std::uint64_t> want_raw;
  std::vector<double> want_u01;
  for (int i = 0; i < 100; ++i) {
    want_raw.push_back(rng.next());
    want_u01.push_back(rng.uniform01());
  }

  Rng resumed(999);  // different seed: only the state transplant matters
  resumed.set_state(state);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(resumed.next(), want_raw[static_cast<std::size_t>(i)]);
    EXPECT_EQ(resumed.uniform01(), want_u01[static_cast<std::size_t>(i)]);
  }
}

TEST(CkptRng, AllZeroStateIsRejected) {
  Rng rng(1);
  EXPECT_THROW(rng.set_state({0, 0, 0, 0}), PreconditionError);
}

// --------------------------------- simulator checkpoint/restore ----------

struct RunArtifacts {
  sim::SimResult result;
  std::vector<std::string> trace_lines;
  bool ledger_ok = false;
};

struct RunSetup {
  cluster::Cluster cluster;
  workload::Workload workload;
};

/// Deterministic small-but-nontrivial scenario: 6-node EC2-style cluster,
/// SWIM-style jobs, LiPS policy with a sub-horizon epoch so several
/// checkpoints land mid-run.
RunSetup make_setup(std::uint64_t seed) {
  RunSetup s;
  s.cluster = cluster::make_ec2_cluster(6, 0.5, 2);
  Rng rng(seed);
  workload::SwimParams sp;
  sp.n_jobs = 8;
  sp.duration_s = 2000.0;
  s.workload = workload::make_swim_workload(sp, s.cluster, rng).workload;
  return s;
}

RunArtifacts run_lips(std::uint64_t seed, sim::SimConfig cfg) {
  const RunSetup s = make_setup(seed);
  core::LipsPolicyOptions lo;
  lo.epoch_s = 300.0;
  core::LipsPolicy policy(lo);
  obs::CostLedger ledger;
  cfg.hdfs_replication = 1;
  cfg.task_timeout_s = 1200.0;
  cfg.record_trace = true;
  cfg.obs.ledger = &ledger;
  RunArtifacts out;
  out.result = sim::simulate(s.cluster, s.workload, policy, cfg);
  out.trace_lines = sim::render_trace_lines(out.result);
  out.ledger_ok = ledger.reconcile(sim::billed_totals(out.result)).ok;
  return out;
}

void expect_bit_identical(const RunArtifacts& baseline,
                          const RunArtifacts& resumed) {
  EXPECT_EQ(resumed.result.schedule_digest, baseline.result.schedule_digest);
  EXPECT_EQ(resumed.result.total_cost_mc, baseline.result.total_cost_mc);
  EXPECT_EQ(resumed.result.makespan_s, baseline.result.makespan_s);
  EXPECT_EQ(resumed.result.tasks_completed, baseline.result.tasks_completed);
  EXPECT_EQ(resumed.result.completed, baseline.result.completed);
  EXPECT_TRUE(resumed.ledger_ok);
  const ckpt::DivergenceReport rep =
      ckpt::diff_event_logs(baseline.trace_lines, resumed.trace_lines);
  if (!rep.identical) {
    std::ostringstream os;
    ckpt::write_divergence_report(rep, os);
    ADD_FAILURE() << "trace diverged:\n" << os.str();
  }
}

/// Seeded storm run for every scheduler kind the snapshot format carries:
/// "lips" (its LP solver under fault injection too), "delay" (with
/// speculation), "fifo", "fair" and "quincy". A CostLedger rides along; the
/// metric registry stays off, because its host-timed LP histogram makes two
/// runs' payload bytes differ.
RunArtifacts run_storm(const std::string& kind, std::uint64_t seed,
                       const ckpt::CheckpointDir* dir,
                       const ckpt::Snapshot* from) {
  const RunSetup s = make_setup(seed);
  sim::FaultStormParams fp;
  fp.mtbf_s = 3000.0;
  fp.mttr_s = 300.0;
  fp.revoke_probability = 0.1;
  fp.slowdown_rate = 1.0;
  fp.store_loss_rate = 0.2;
  fp.horizon_s = 4000.0;
  fp.seed = seed;
  lp::SolverFaultConfig sfc;
  sfc.nan_probability = 0.2;
  sfc.basis_corruption_probability = 0.3;
  sfc.budget_starvation_probability = 0.2;
  sfc.seed = seed;
  lp::SolverFaultInjector injector(sfc);

  sim::SimConfig cfg;
  std::unique_ptr<sched::Scheduler> policy;
  if (kind == "lips") {
    core::LipsPolicyOptions lo;
    lo.epoch_s = 300.0;
    lo.model.solver_options.fault_injector = &injector;
    policy = std::make_unique<core::LipsPolicy>(lo);
    cfg.hdfs_replication = 1;
    cfg.task_timeout_s = 1200.0;
  } else if (kind == "delay") {
    policy = std::make_unique<sched::DelayScheduler>();
    cfg.speculative_execution = true;
    cfg.speculation.mode = sim::SpeculationConfig::Mode::Naive;
  } else if (kind == "fifo") {
    policy = std::make_unique<sched::FifoLocalityScheduler>();
  } else if (kind == "fair") {
    auto fair = std::make_unique<sched::FairScheduler>();
    fair->assign_pool(JobId{0}, "batch", 2.0);
    fair->assign_pool(JobId{1}, "batch");
    policy = std::move(fair);
  } else {
    sched::QuincyFlowScheduler::Options qo;
    qo.round_s = 300.0;
    policy = std::make_unique<sched::QuincyFlowScheduler>(qo);
  }
  obs::CostLedger ledger;
  cfg.faults = sim::make_fault_storm(fp, s.cluster.machine_count(),
                                     s.cluster.store_count());
  cfg.record_trace = true;
  cfg.obs.ledger = &ledger;
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_label = "test:" + kind;
  cfg.restore_from = from;
  RunArtifacts out;
  out.result = sim::simulate(s.cluster, s.workload, *policy, cfg);
  out.trace_lines = sim::render_trace_lines(out.result);
  out.ledger_ok = ledger.reconcile(sim::billed_totals(out.result)).ok;
  return out;
}

/// FNV-1a over every snapshot payload in `dir`, in sequence order.
std::uint64_t payload_digest(const ckpt::CheckpointDir& dir) {
  ckpt::Fnv1a64 d;
  for (const std::string& file : dir.list()) {
    const ckpt::Snapshot snap = ckpt::decode_snapshot(read_file(file));
    d.u64(snap.payload.size());
    d.bytes(snap.payload.data(), snap.payload.size());
  }
  return d.digest();
}

TEST(CkptSim, ResumeFromEverySnapshotIsBitIdentical) {
  const std::uint64_t seed = 7;
  const ckpt::CheckpointDir dir(scratch_dir("sim_every"), /*keep=*/128);
  sim::SimConfig cfg;
  cfg.checkpoint_dir = &dir;
  cfg.checkpoint_every_epochs = 1;
  cfg.checkpoint_label = "test:every";
  const RunArtifacts baseline = run_lips(seed, cfg);
  EXPECT_TRUE(baseline.ledger_ok);
  EXPECT_GT(baseline.result.checkpoints_written, 2u)
      << "scenario too small to exercise mid-run snapshots";
  EXPECT_EQ(baseline.result.checkpoint_failures, 0u);

  const std::vector<std::string> files = dir.list();
  ASSERT_EQ(files.size(), baseline.result.checkpoints_written);
  for (const std::string& file : files) {
    const ckpt::Snapshot snap = ckpt::decode_snapshot(read_file(file));
    EXPECT_EQ(snap.meta.label, "test:every");
    sim::SimConfig rcfg;
    rcfg.restore_from = &snap;
    const RunArtifacts resumed = run_lips(seed, rcfg);
    EXPECT_TRUE(resumed.result.restored);
    expect_bit_identical(baseline, resumed);
  }

  // The epoch-less and flow schedulers, under a cluster fault storm.
  for (const std::string kind : {"fifo", "fair", "quincy"}) {
    const ckpt::CheckpointDir kind_dir(scratch_dir("sim_every_" + kind),
                                       /*keep=*/1024);
    const RunArtifacts kind_baseline =
        run_storm(kind, seed, &kind_dir, nullptr);
    EXPECT_TRUE(kind_baseline.ledger_ok) << kind;
    EXPECT_GT(kind_baseline.result.checkpoints_written, 2u) << kind;
    const std::vector<std::string> kind_files = kind_dir.list();
    ASSERT_EQ(kind_files.size(), kind_baseline.result.checkpoints_written)
        << kind;
    for (const std::string& file : kind_files) {
      SCOPED_TRACE(kind + " " + file);
      const ckpt::Snapshot snap = ckpt::decode_snapshot(read_file(file));
      const RunArtifacts resumed = run_storm(kind, seed, nullptr, &snap);
      EXPECT_TRUE(resumed.result.restored);
      expect_bit_identical(kind_baseline, resumed);
    }
  }
}

TEST(CkptSim, ResumeUnderClusterFaultsWithDelaySpeculation) {
  // Exercises the serializers the LiPS path does not: speculative
  // instances, fault windows, and the delay scheduler's wait bookkeeping.
  const std::uint64_t seed = 11;
  const RunSetup s = make_setup(seed);
  sim::FaultStormParams fp;
  fp.mtbf_s = 3000.0;
  fp.mttr_s = 300.0;
  fp.slowdown_rate = 1.0;
  fp.store_loss_rate = 0.2;
  fp.horizon_s = 4000.0;
  fp.seed = seed;
  const sim::FaultPlan plan =
      sim::make_fault_storm(fp, s.cluster.machine_count(),
                            s.cluster.store_count());

  auto run = [&](const ckpt::CheckpointDir* dir,
                 const ckpt::Snapshot* from) -> RunArtifacts {
    const RunSetup rs = make_setup(seed);
    sched::DelayScheduler policy;
    obs::CostLedger ledger;
    sim::SimConfig cfg;
    cfg.speculative_execution = true;
    cfg.speculation.mode = sim::SpeculationConfig::Mode::Naive;
    cfg.faults = plan;
    cfg.record_trace = true;
    cfg.obs.ledger = &ledger;
    cfg.checkpoint_dir = dir;
    cfg.restore_from = from;
    RunArtifacts out;
    out.result = sim::simulate(rs.cluster, rs.workload, policy, cfg);
    out.trace_lines = sim::render_trace_lines(out.result);
    out.ledger_ok = ledger.reconcile(sim::billed_totals(out.result)).ok;
    return out;
  };

  const ckpt::CheckpointDir dir(scratch_dir("sim_delay"), /*keep=*/128);
  const RunArtifacts baseline = run(&dir, nullptr);
  const std::vector<std::string> files = dir.list();
  ASSERT_GT(files.size(), 1u);
  // Resume from a middle snapshot, where fault windows are typically open.
  const ckpt::Snapshot snap =
      ckpt::decode_snapshot(read_file(files[files.size() / 2]));
  const RunArtifacts resumed = run(nullptr, &snap);
  EXPECT_TRUE(resumed.result.restored);
  expect_bit_identical(baseline, resumed);
}

TEST(CkptSim, RestoreRejectsTopologyMismatch) {
  const ckpt::CheckpointDir dir(scratch_dir("sim_mismatch"));
  sim::SimConfig cfg;
  cfg.checkpoint_dir = &dir;
  cfg.checkpoint_label = "test:mismatch";
  (void)run_lips(/*seed=*/3, cfg);
  const std::optional<ckpt::Snapshot> snap = dir.load_latest();
  ASSERT_TRUE(snap.has_value());

  // Same snapshot, different cluster: the topology guard must refuse before
  // any state is half-applied.
  const cluster::Cluster other = cluster::make_ec2_cluster(4, 0.5, 2);
  Rng rng(3);
  workload::SwimParams sp;
  sp.n_jobs = 8;
  sp.duration_s = 2000.0;
  const workload::Workload w =
      workload::make_swim_workload(sp, other, rng).workload;
  core::LipsPolicy policy{core::LipsPolicyOptions{}};
  sim::SimConfig rcfg;
  rcfg.hdfs_replication = 1;
  rcfg.restore_from = &*snap;
  EXPECT_THROW((void)sim::simulate(other, w, policy, rcfg),
               ckpt::SnapshotError);
}

TEST(CkptSim, PayloadsAreDeterministicWithAMetricRegistry) {
  // The registry rides in the payload, but its host-timed series (the LP
  // solve-duration histogram) do not: two identical runs write identical
  // bytes.
  std::vector<std::uint64_t> digests;
  for (const std::string tag : {"metrics_a", "metrics_b"}) {
    const ckpt::CheckpointDir dir(scratch_dir(tag), /*keep=*/128);
    obs::MetricRegistry metrics;
    sim::SimConfig cfg;
    cfg.checkpoint_dir = &dir;
    cfg.checkpoint_label = "test:metrics";
    cfg.obs.metrics = &metrics;
    const RunArtifacts run = run_lips(/*seed=*/7, cfg);
    EXPECT_GT(run.result.checkpoints_written, 2u);
    const std::vector<obs::MetricRegistry::Sample> samples =
        metrics.snapshot();
    EXPECT_TRUE(std::any_of(samples.begin(), samples.end(), [](const auto& s) {
      return s.name == "lips_lp_solve_duration_ms" && s.count > 0;
    })) << "the host-timed series this test guards against is missing";
    digests.push_back(payload_digest(dir));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// ------------------------------------------------ format pinning ---------
// Snapshot bytes are a compatibility surface: a snapshot written by one
// build must restore under the next. These digests were recorded before the
// serializers moved to one field list per type; a change that moves any of
// them changes the format and must bump ckpt::kSnapshotVersion.

TEST(CkptFormat, SnapshotPayloadDigestsArePinned) {
  const std::pair<std::string, std::uint64_t> pinned[] = {
      {"lips", 0xC83993431CBC5219ULL},
      {"delay", 0xB166FF0242746151ULL},
      {"fifo", 0xD4AAB63B6638BE7AULL},
      {"fair", 0x5157B877A1836EC3ULL},
      {"quincy", 0xD32D4E03665079D1ULL},
  };
  for (const auto& [kind, want] : pinned) {
    const ckpt::CheckpointDir dir(scratch_dir("digest_" + kind),
                                  /*keep=*/1024);
    const RunArtifacts run = run_storm(kind, /*seed=*/7, &dir, nullptr);
    EXPECT_TRUE(run.ledger_ok) << kind;
    EXPECT_GT(run.result.checkpoints_written, 2u) << kind;
    const std::uint64_t got = payload_digest(dir);
    EXPECT_EQ(got, want) << kind << ": payload digest 0x" << std::hex << got;
  }
}

// ------------------------------------------------ hostile lengths ---------
// A CRC-valid payload can still carry any length field. Every count is
// bounded by the bytes left before anything is allocated, so a hostile one
// fails with SnapshotError, never with std::length_error or a huge
// allocation.

/// `prefix`, then `count` as a length field, then `tail` zero bytes.
std::vector<std::uint8_t> with_length(std::vector<std::uint8_t> prefix,
                                      std::uint64_t count, std::size_t tail) {
  ckpt::Writer w;
  w.bytes(prefix.data(), prefix.size());
  w.u64(count);
  for (std::size_t i = 0; i < tail; ++i) w.u8(0);
  return w.take();
}

/// The two hostile counts: 2^61 and one more element than bytes remain.
std::vector<std::vector<std::uint8_t>> hostile_payloads(
    const std::vector<std::uint8_t>& prefix) {
  constexpr std::size_t kTail = 64;
  return {with_length(prefix, std::uint64_t{1} << 61, kTail),
          with_length(prefix, kTail + 1, kTail)};
}

TEST(CkptHostile, LipsPolicyRejectsHostileLengths) {
  // The pinned plan's machine count is the payload's first field.
  for (const auto& payload : hostile_payloads({})) {
    core::LipsPolicy policy{core::LipsPolicyOptions{}};
    ckpt::Reader r(payload);
    EXPECT_THROW(policy.load_state(r), ckpt::SnapshotError);
  }
}

TEST(CkptHostile, EpochLpContextRejectsHostileLengths) {
  // have_model, then machine/store/data counts, then the job list length.
  ckpt::Writer head;
  head.boolean(true);
  head.size(6);
  head.size(6);
  head.size(8);
  for (const auto& payload : hostile_payloads(head.buffer())) {
    core::EpochLpContext ctx;
    ckpt::Reader r(payload);
    EXPECT_THROW(ctx.load_state(r), ckpt::SnapshotError);
  }
}

TEST(CkptHostile, RefusedValuesThrowSnapshotError) {
  // An all-zero RNG state is the one xoshiro cannot leave.
  ckpt::Writer zero_rng;
  for (int i = 0; i < 64; ++i) zero_rng.u8(0);
  lp::SolverFaultInjector injector{lp::SolverFaultConfig{}};
  ckpt::Reader ri(zero_rng.buffer());
  EXPECT_THROW(injector.load_state(ri), ckpt::SnapshotError);

  // An LP variable whose bounds are NaN fails the model's own build checks.
  ckpt::Writer nan_bound;
  nan_bound.size(1);
  nan_bound.f64(std::numeric_limits<double>::quiet_NaN());
  nan_bound.f64(1.0);
  nan_bound.f64(0.0);
  nan_bound.str("x");
  nan_bound.size(0);
  lp::LpModel model;
  ckpt::Reader rm(nan_bound.buffer());
  EXPECT_THROW(model.load_state(rm), ckpt::SnapshotError);
}

TEST(CkptHostile, SimulatorRestoreRejectsHostileLengths) {
  // A real snapshot's guards and scalars (five topology counts, now, seq,
  // six counters, the launch digest), an empty event queue, every task
  // NotArrived with no retries, then the first task's running-copies
  // length.
  const ckpt::CheckpointDir dir(scratch_dir("hostile_sim"));
  sim::SimConfig cfg;
  cfg.checkpoint_dir = &dir;
  (void)run_lips(/*seed=*/3, cfg);
  const std::optional<ckpt::Snapshot> snap = dir.load_latest();
  ASSERT_TRUE(snap.has_value());
  ckpt::Reader guards(snap->payload);
  const std::size_t tasks = guards.size();
  constexpr std::size_t kScalarsEnd = 14 * 8;
  ASSERT_GT(snap->payload.size(), kScalarsEnd);
  ckpt::Writer head;
  head.bytes(snap->payload.data(), kScalarsEnd);
  head.size(0);  // events
  for (std::size_t t = 0; t < tasks; ++t) head.u8(0);   // status
  for (std::size_t t = 0; t < tasks; ++t) head.size(0);  // retries
  for (const auto& payload : hostile_payloads(head.buffer())) {
    ckpt::Snapshot bad = *snap;
    bad.payload = payload;
    sim::SimConfig rcfg;
    rcfg.restore_from = &bad;
    EXPECT_THROW((void)run_lips(/*seed=*/3, rcfg), ckpt::SnapshotError);
  }
}

}  // namespace
}  // namespace lips
