// Scheduler plugin interface for the MapReduce cluster simulator.
//
// The simulator (src/sim) owns all state — pending tasks, slot occupancy,
// block placement — and consults a Scheduler at decision points, mirroring
// how Hadoop's JobTracker consults a pluggable TaskScheduler on TaskTracker
// heartbeats (the paper implements LiPS as exactly such a plugin, plus a
// ReplicationTargetChooser for data placement; our DataMove directives play
// that second role).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "cluster/cluster.hpp"
#include "common/ids.hpp"
#include "obs/obs.hpp"
#include "workload/workload.hpp"

namespace lips::sched {

/// A concrete map task instance managed by the simulator.
struct SimTask {
  JobId job;
  std::size_t index_in_job = 0;
  double input_mb = 0.0;              ///< input this task reads
  double cpu_ecu_s = 0.0;             ///< CPU work (ECU-seconds)
  /// Data object read (nullopt: Pi-like). Contract: every task of a job
  /// reads the same object (the simulator attributes a multi-object job's
  /// tasks to its largest object), so placement need be judged once per job.
  std::optional<DataId> data;
};

/// Scheduler's verdict for a free slot: launch `task` (a simulator task id)
/// reading its input from `read_from`.
struct LaunchDecision {
  std::size_t task = 0;
  std::optional<StoreId> read_from;
};

/// Directive to move a fraction of a data object between stores before the
/// tasks pinned to the destination may start (LiPS data placement).
struct DataMove {
  DataId data;
  StoreId from;
  StoreId to;
  double fraction = 0.0;
};

/// Read-only view of simulator state offered to schedulers.
class ClusterState {
 public:
  virtual ~ClusterState() = default;

  [[nodiscard]] virtual double now() const = 0;
  [[nodiscard]] virtual const cluster::Cluster& cluster() const = 0;
  [[nodiscard]] virtual const workload::Workload& workload() const = 0;

  /// Simulator task ids that are pending (arrived, not launched), sorted by
  /// (job arrival, job rank, index in job). Contract: each job's pending
  /// tasks form one contiguous run, so a policy can visit jobs, not tasks.
  [[nodiscard]] virtual std::span<const std::size_t> pending() const = 0;

  /// Task descriptor by simulator task id.
  [[nodiscard]] virtual const SimTask& task(std::size_t id) const = 0;

  /// Whether a task id is currently pending (O(1); pending() is a scan).
  [[nodiscard]] virtual bool is_pending(std::size_t id) const = 0;

  /// Fraction of data object `d` currently present on store `s`.
  [[nodiscard]] virtual double stored_fraction(DataId d, StoreId s) const = 0;

  /// Replace `out` with the stores holding part of `d` (stored_fraction > 0)
  /// in ascending id: a handful of holders, where a scan over every store
  /// would ask stored_fraction once per store.
  virtual void holders(DataId d, std::vector<StoreId>& out) const = 0;

  /// Free map slots on `m` right now.
  [[nodiscard]] virtual int free_slots(MachineId m) const = 0;

  /// Liveness under fault injection (sim/faults.hpp). Defaults are "always
  /// up" so states without a fault model need not override.
  [[nodiscard]] virtual bool machine_up(MachineId m) const {
    (void)m;
    return true;
  }
  [[nodiscard]] virtual bool store_up(StoreId s) const {
    (void)s;
    return true;
  }

  /// Observed effective-throughput multiplier of machine `m`: an EWMA of
  /// per-instance progress rates relative to the machine's nominal TP(M).
  /// Exactly 1.0 when the machine has only ever run at full speed, < 1 for
  /// a degraded (straggling) machine. Throughput-aware policies use this to
  /// budget the machine at its *observed* capacity instead of its nominal
  /// one; the default keeps throughput-oblivious states working unchanged.
  [[nodiscard]] virtual double observed_throughput(MachineId m) const {
    (void)m;
    return 1.0;
  }
};

/// Scheduling policy. Implementations must be deterministic given the
/// sequence of callbacks (the simulator is deterministic end to end).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called whenever `machine` has a free slot (after arrivals, completions,
  /// epoch ticks, and finished data moves). Return the task to launch, or
  /// nullopt to leave the slot idle.
  [[nodiscard]] virtual std::optional<LaunchDecision> on_slot_available(
      MachineId machine, const ClusterState& state) = 0;

  /// Epoch period; 0 disables epoch ticks (pure event-driven schedulers).
  [[nodiscard]] virtual double epoch_s() const { return 0.0; }

  /// Called at each epoch boundary (only when epoch_s() > 0).
  virtual void on_epoch(const ClusterState& state) { (void)state; }

  /// Data-movement directives produced by the last on_epoch; the simulator
  /// drains and executes them (paying store-to-store transfer costs).
  [[nodiscard]] virtual std::vector<DataMove> take_data_moves() { return {}; }

  /// Notification hooks.
  virtual void on_job_arrival(JobId job, const ClusterState& state) {
    (void)job;
    (void)state;
  }
  virtual void on_task_complete(std::size_t task, MachineId machine,
                                const ClusterState& state) {
    (void)task;
    (void)machine;
    (void)state;
  }

  /// Fault notifications (sim/faults.hpp). In-flight work on a lost machine
  /// has already been killed and requeued when on_machine_lost fires; a lost
  /// store's presence fractions are already wiped when on_store_lost fires.
  /// Defaults are no-ops so fault-oblivious policies keep working unchanged.
  virtual void on_machine_lost(MachineId machine, const ClusterState& state) {
    (void)machine;
    (void)state;
  }
  virtual void on_machine_restored(MachineId machine,
                                   const ClusterState& state) {
    (void)machine;
    (void)state;
  }
  virtual void on_store_lost(StoreId store, const ClusterState& state) {
    (void)store;
    (void)state;
  }
  /// A spot revocation notice: `machine` will be permanently lost at
  /// simulated time `revoke_time_s` (the EC2 two-minute warning).
  virtual void on_spot_warning(MachineId machine, double revoke_time_s,
                               const ClusterState& state) {
    (void)machine;
    (void)revoke_time_s;
    (void)state;
  }

  /// Checkpoint hooks (src/ckpt, DESIGN.md §11). `save_state` must
  /// serialize every bit of mutable decision state; `load_state` restores
  /// it on a freshly constructed policy with identical options. The
  /// bit-identical-resume contract requires a restored scheduler to make
  /// exactly the decisions the uninterrupted one would have made, so any
  /// unordered container must be serialized in a sorted order. The defaults
  /// are correct only for stateless policies (e.g. FIFO).
  virtual void save_state(ckpt::Writer& writer) const { (void)writer; }
  virtual void load_state(ckpt::Reader& reader) { (void)reader; }

  /// Attach observability sinks (src/obs). The simulator forwards its
  /// SimConfig::obs here before the run starts; schedulers emit through the
  /// protected `obs_` (every sink pointer may be null — emission sites must
  /// check). The observer from the most recent attach wins.
  void set_observer(const obs::Observer& observer) { obs_ = observer; }

 protected:
  obs::Observer obs_{};
};

}  // namespace lips::sched
