// Discrete-event MapReduce cluster simulator.
//
// Substitutes for the paper's Hadoop-on-EC2 testbed (DESIGN.md §2): machines
// expose map slots; a task's wall time is input transfer (bounded by the
// store→machine link bandwidth) plus CPU work over the machine's throughput;
// every ECU-second and every transferred megabyte is billed through the
// cluster's price matrices exactly as the paper accounts dollars. The
// simulator is deterministic: events are processed in (time, sequence)
// order and machines are polled in id order.
//
// Hadoop mechanisms modeled because the paper discusses them explicitly:
//  * speculative execution (§VI-A: enabled by default in Hadoop, disabled
//    for LiPS; duplicates may cut makespan but always add dollar cost);
//  * task timeouts (§VI-A: Hadoop kills tasks silent for 10 minutes; LiPS
//    raises this to 20 to allow long remote reads);
//  * epoch ticks and data-movement directives for epoch-based schedulers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "ckpt/store.hpp"
#include "ckpt/write_faults.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "sched/scheduler.hpp"
#include "sim/faults.hpp"
#include "workload/dag.hpp"

namespace lips::sim {

/// Which straggler detector speculative execution uses. Active only when
/// SimConfig::speculative_execution is set.
struct SpeculationConfig {
  enum class Mode : unsigned char {
    /// Hadoop-classic: when a slot would otherwise idle, duplicate the
    /// running task with the latest projected finish if this machine would
    /// beat it. Time-only; ignores money, caps, and thresholds.
    Naive,
    /// LATE-style cost-aware detector: a task is a straggler only when its
    /// estimated remaining time exceeds 1.3 × the median remaining time of
    /// its running peers (a lone survivor is always a candidate); at most
    /// 20% of the cluster's map slots run duplicates (at least one is always
    /// allowed) and a task has at most one, and a duplicate launches only
    /// when its expected dollar saving — the straggler's projected remaining
    /// bill minus the duplicate's full bill — is positive.
    CostAware,
  };
  Mode mode = Mode::CostAware;
};

/// Simulated seconds between the checkpoint ticks of an epoch-less run
/// (SimConfig::checkpoint_dir). lipsctl derives its default snapshot cadence
/// for epoch policies from it.
inline constexpr double kCheckpointIntervalS = 300.0;

/// Simulation knobs. Whatever they say, the simulated clock stops at 60 days
/// (a safety net for stuck policies).
struct SimConfig {
  /// HDFS-style ingest replication factor. Hadoop's default pipeline writes
  /// every block 3×, placing the 2nd replica in a different zone ("off
  /// rack") and the 3rd next to the 2nd — paying cross-zone transfer for
  /// them. Baseline schedulers inherit this placement (it is what makes
  /// data-local scheduling possible); LiPS replaces it with its own
  /// ReplicationTargetChooser, so LiPS runs use 1 (no extra copies).
  std::size_t hdfs_replication = 1;
  /// Seed for the replica-placement randomness (deterministic).
  std::uint64_t replication_seed = 1;
  /// Launch speculative duplicates of straggler tasks on otherwise-idle
  /// slots (Hadoop default behavior; off for LiPS runs, per the paper).
  bool speculative_execution = false;
  /// Straggler detector used when speculation is on.
  SpeculationConfig speculation;
  /// Kill a task whose projected duration exceeds this and requeue it
  /// (0 disables; Hadoop default is 600 s, the paper's LiPS setting 1200 s).
  /// After 3 timeout kills a task is allowed to run to completion (prevents
  /// livelock on genuinely slow links).
  double task_timeout_s = 0.0;
  /// Record a full event trace into SimResult::trace (off by default:
  /// large runs generate hundreds of thousands of events).
  bool record_trace = false;

  /// Fault injection (sim/faults.hpp). Empty = fault-free: the simulator
  /// schedules no fault events and is bit-identical to the pre-fault path.
  /// A fault-killed task is requeued after min(5 · 2^(kills−1), 320) s; its
  /// 9th fault kill abandons it and accounts it lost (a budget of 8 retries,
  /// the analogue of Hadoop's mapred.map.max.attempts).
  FaultPlan faults;

  /// Observability sinks (src/obs): metrics registry, Chrome-trace tracer,
  /// and cost ledger, each optional (null = off, zero overhead beyond one
  /// branch per emission site). The simulator also forwards the observer to
  /// the scheduler via Scheduler::set_observer before the run starts. Attach
  /// a *fresh* ledger per run: the ledger folds posts in billing order and a
  /// ledger shared across runs cannot reconcile against either one.
  obs::Observer obs{};

  // --- Checkpoint/restore (src/ckpt, DESIGN.md §11) ------------------------
  /// When non-null, the engine writes a crash-consistent snapshot of its
  /// entire mutable state at every `checkpoint_every_epochs`-th epoch tick
  /// (the run's consistency point: the policy has replanned, data moves and
  /// the next tick are queued). Snapshot writes are atomic
  /// (tmp + fsync + rename); a write failure is counted, never fatal.
  const ckpt::CheckpointDir* checkpoint_dir = nullptr;
  /// Epoch-less schedulers (fifo/delay/fair) have no replanning tick to
  /// piggyback on: for them the engine seeds an invisible CheckpointTick
  /// event every kCheckpointIntervalS simulated seconds and snapshots at
  /// every `checkpoint_every_epochs`-th tick.
  std::size_t checkpoint_every_epochs = 1;
  /// Label stamped into snapshot headers (e.g. "<scheduler>:<seed>").
  std::string checkpoint_label;
  /// Testing only: perturbs snapshot bytes before they reach disk so the
  /// CRC/fallback recovery path stays exercised (ckpt/write_faults.hpp).
  ckpt::SnapshotFaultInjector* checkpoint_faults = nullptr;
  /// Resume from this decoded snapshot (null = fresh run). The engine is
  /// constructed normally, then every piece of mutable state — event queue,
  /// clock, tasks, fault windows, policy state, ledger, metrics — is
  /// overwritten from the payload before the event loop starts. The resumed
  /// run is bit-identical to the uninterrupted one: same decisions, same
  /// ledger bits, same schedule digest. The cluster, workload, policy
  /// options, and fault plan must be the ones the snapshot was taken under.
  const ckpt::Snapshot* restore_from = nullptr;
};

/// One recorded scheduling event (SimConfig::record_trace).
struct TraceEvent {
  enum class Kind : unsigned char {
    JobArrival,
    TaskLaunch,
    TaskComplete,
    TaskCancelled,   ///< lost a speculative race
    TimeoutKill,
    DataMoveStart,
    DataMoveFinish,
    EpochTick,
    MachineLost,            ///< crash or executed spot revocation
    MachineRestored,        ///< transient crash repaired
    SpotRevocationWarning,  ///< notice; machine dies `amount` seconds later
    StoreLost,              ///< store contents wiped
    TaskRequeued,           ///< fault-killed task re-enters the queue
    MachineSlowed,          ///< CPU slowdown window opened (amount = factor)
    MachineSpeedRestored,   ///< CPU slowdown window closed (amount = factor)
  };
  Kind kind;
  double time_s = 0.0;
  /// Entity ids; unused fields are SIZE_MAX.
  std::size_t job = SIZE_MAX;
  std::size_t task = SIZE_MAX;
  std::size_t machine = SIZE_MAX;
  std::size_t store = SIZE_MAX;
  double amount = 0.0;  ///< cost (m¢) for tasks, MB for moves
};

[[nodiscard]] std::string to_string(TraceEvent::Kind kind);

/// Per-machine accounting (Fig-11 material).
struct MachineMetrics {
  double busy_s = 0.0;            ///< wall-clock seconds slots were occupied
  double cpu_work_ecu_s = 0.0;    ///< ECU-seconds of useful work executed
  Millicents cpu_cost_mc = Millicents::zero();
  Millicents read_cost_mc = Millicents::zero();
  std::size_t tasks_run = 0;
  double downtime_s = 0.0;        ///< seconds spent crashed/revoked
  double slowed_s = 0.0;          ///< seconds spent inside slowdown windows
};

/// Result of one simulation run.
struct SimResult {
  bool completed = false;       ///< all tasks finished within the horizon
  double makespan_s = 0.0;      ///< last task completion time
  double sum_job_duration_s = 0.0;  ///< Σ_jobs (finish − arrival)

  Millicents total_cost_mc = Millicents::zero();
  Millicents execution_cost_mc = Millicents::zero();
  /// Store → machine input reads.
  Millicents read_transfer_cost_mc = Millicents::zero();
  /// Store → store data moves.
  Millicents placement_transfer_cost_mc = Millicents::zero();
  /// HDFS replica pipeline writes.
  Millicents ingest_replication_cost_mc = Millicents::zero();

  /// Tasks served from a co-located store.
  Fraction data_local_fraction = Fraction::of(0.0);

  std::size_t tasks_completed = 0;
  std::size_t speculative_launched = 0;
  std::size_t speculative_wasted = 0;  ///< duplicates cancelled after a win
  /// Money billed to speculative duplicates (winners and losers alike);
  /// loser-side spend additionally lands in wasted_cost_mc.
  Millicents speculation_cost_mc = Millicents::zero();
  std::size_t timeout_kills = 0;
  std::size_t epochs = 0;

  // --- Fault accounting (zero on fault-free runs) --------------------------
  std::size_t tasks_killed_by_faults = 0;  ///< instances killed by a loss
  std::size_t fault_retries = 0;           ///< kills that were requeued
  std::size_t tasks_lost = 0;  ///< tasks abandoned (retry budget exhausted,
                               ///< unrecoverable data, or a dead DAG branch)
  std::size_t tasks_in_flight_at_horizon = 0;  ///< running when time ran out
  std::size_t machines_lost = 0;      ///< loss events applied (incl. spot)
  std::size_t machines_restored = 0;
  std::size_t spot_revocations = 0;   ///< warnings delivered
  std::size_t stores_lost = 0;
  std::size_t machine_slowdowns = 0;  ///< CPU slowdown windows applied
  std::size_t data_refetches = 0;     ///< objects re-materialized at origin
  /// Money billed to work that a fault destroyed: partial CPU/read cost of
  /// killed instances plus partially-transferred bytes of aborted moves.
  Millicents wasted_cost_mc = Millicents::zero();

  // --- Checkpoint/restore accounting (DESIGN.md §11) -----------------------
  /// FNV-1a 64 digest folded over every launch decision (time, job, task,
  /// machine, store, speculative flag) — the bit-identical-resume witness:
  /// a resumed run must finish with exactly the uninterrupted run's digest.
  std::uint64_t schedule_digest = 0;
  std::size_t checkpoints_written = 0;
  std::size_t checkpoint_failures = 0;  ///< snapshot writes that threw
  bool restored = false;                ///< run resumed from a snapshot

  std::vector<MachineMetrics> machines;
  std::vector<double> job_finish_s;  ///< per job; NaN when unfinished
  std::vector<TraceEvent> trace;     ///< populated when record_trace is set

  [[nodiscard]] double avg_job_duration_s(std::size_t jobs) const {
    return jobs == 0 ? 0.0 : sum_job_duration_s / static_cast<double>(jobs);
  }
};

/// Render SimResult::trace into stable one-line strings for the divergence
/// detector (ckpt/divergence.hpp): a baseline run and a resumed run are
/// diffed event by event. Doubles are printed with max_digits10 precision so
/// distinct bit patterns render distinctly.
[[nodiscard]] std::vector<std::string> render_trace_lines(const SimResult& r);

/// Adapter for obs::CostLedger::reconcile: the run's aggregate billing
/// accumulators in the ledger's sim-free struct. A ledger attached for the
/// whole run must match these bit for bit (the simulator asserts exactly
/// that at finalize in debug builds).
[[nodiscard]] inline obs::CostLedger::BilledTotals billed_totals(
    const SimResult& r) {
  obs::CostLedger::BilledTotals b;
  b.execution = r.execution_cost_mc;
  b.read_transfer = r.read_transfer_cost_mc;
  b.placement_transfer = r.placement_transfer_cost_mc;
  b.ingest_replication = r.ingest_replication_cost_mc;
  b.wasted = r.wasted_cost_mc;
  b.speculation = r.speculation_cost_mc;
  return b;
}

/// Run `policy` over `workload` on `cluster`. The cluster must be finalized.
/// Initial data placement: every non-intermediate object fully at its
/// origin store; intermediate objects (DataObject::produced_by) come into
/// existence when their producer job completes, distributed across the
/// stores co-located with the machines that executed the producer's work.
///
/// `dependencies`, when given, gates each job on the completion of its DAG
/// predecessors (in addition to its arrival time) — this is how reduce
/// stages wait for their map stage (workload/mapreduce.hpp).
///
/// Thread role: per-thread. One simulate() call is one deterministic run;
/// every mutable ingredient — the scheduler, the SimConfig's ledger/tracer
/// sinks, checkpoint dir and fault injectors — must be private to the
/// calling thread (LIPS_EXTERNALLY_SYNCHRONIZED). Concurrent simulate()
/// calls on *disjoint* ingredient sets are safe and are exactly how the
/// simulation farm runs hundreds of seeds: the one sink that MAY be shared
/// across concurrent runs is SimConfig::obs.metrics (internally
/// synchronized; see obs/metrics.hpp) and, if interleaved process-wide
/// timelines are acceptable, obs.tracer.
[[nodiscard]] SimResult simulate(const cluster::Cluster& cluster,
                                 const workload::Workload& workload,
                                 sched::Scheduler& policy,
                                 const SimConfig& config = {},
                                 const workload::JobDag* dependencies = nullptr);

}  // namespace lips::sim
