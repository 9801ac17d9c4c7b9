// Session-side ClusterState mirror.
//
// A lipsd session hosts a real core::LipsPolicy but has no simulator behind
// it: the client streams the relevant slice of world state ahead of each
// event (`STATE`), and MirrorState replays those values through the
// sched::ClusterState interface the policy already consumes. The policy's
// read set is fully enumerable (pending/task/is_pending, stored_fraction and
// holders, machine_up/store_up, observed_throughput, cluster/workload, and
// now(), the policy's only clock), so a mirror fed bit-exact values produces
// bit-exact plans; tests/test_svc.cpp and the CI sanitize lane's socket
// replay hold that bar end to end.
//
// Wire input is untrusted: every task, job, data, machine and store id a
// STATE or JOB carries is checked against the session's world, and every
// number against its domain (presence fractions in [0, 1], throughput
// factors finite and positive, task sizes finite and nonnegative), before
// the mirror writes anything, so a refused line leaves the mirror as it was.
//
// The static side (cluster topology, workload definition) is NOT streamed:
// both ends rebuild it deterministically from the session's
// (scenario spec, seed) pair using the farm's run recipe, exactly like two
// farm workers reproducing the same cell.
//
// Thread role: per-session worker thread only (LIPS_EXTERNALLY_SYNCHRONIZED)
// — the session applies STATE and invokes the policy from one thread.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"
#include "svc/wire.hpp"

namespace lips::svc {

class LIPS_EXTERNALLY_SYNCHRONIZED MirrorState final
    : public sched::ClusterState {
 public:
  /// Both referents must outlive the mirror (the session owns them).
  MirrorState(const cluster::Cluster& cluster,
              const workload::Workload& workload);

  /// Overwrite the dynamic state wholesale (last STATE wins). Throws
  /// PreconditionError, and changes nothing, when an id is outside the world,
  /// a fraction is not in [0, 1] or a throughput factor is not a finite
  /// positive number (NaN fails both).
  void apply(const WireState& ws);
  /// Register task descriptors streamed with a JOB command. Ids may arrive
  /// in any order; re-registering an id overwrites (harmless — descriptors
  /// are immutable facts about the task). Throws PreconditionError, and
  /// registers nothing, when a task, job or data id is outside the world, a
  /// task's input_mb or cpu_ecu_s is negative or not finite, or two tasks of
  /// one job name different objects (the SimTask::data contract), in this
  /// batch or against an earlier one.
  void add_tasks(const std::vector<WireTask>& tasks);
  /// Set the time alone (snapshot restore); the next STATE overwrites it.
  void set_now(double t) { now_ = t; }

  // --- sched::ClusterState ---------------------------------------------------
  [[nodiscard]] double now() const override { return now_; }
  [[nodiscard]] const cluster::Cluster& cluster() const override {
    return *cluster_;
  }
  [[nodiscard]] const workload::Workload& workload() const override {
    return *workload_;
  }
  [[nodiscard]] std::span<const std::size_t> pending() const override {
    return pending_;
  }
  [[nodiscard]] const sched::SimTask& task(std::size_t id) const override;
  [[nodiscard]] bool is_pending(std::size_t id) const override;
  [[nodiscard]] double stored_fraction(DataId d, StoreId s) const override;
  void holders(DataId d, std::vector<StoreId>& out) const override;
  /// The mirror does not track slot occupancy — the driving engine owns it
  /// and the hosted LiPS policy never reads it (it serves pinned queues).
  /// Fail fast rather than fabricate a value for a future policy.
  [[nodiscard]] int free_slots(MachineId m) const override;
  [[nodiscard]] bool machine_up(MachineId m) const override;
  [[nodiscard]] bool store_up(StoreId s) const override;
  [[nodiscard]] double observed_throughput(MachineId m) const override;

 private:
  const cluster::Cluster* cluster_;
  const workload::Workload* workload_;
  std::size_t task_count_;  ///< Σ num_tasks: every task id is below it
  double now_ = 0.0;
  std::vector<std::size_t> pending_;
  std::vector<char> is_pending_;  ///< indexed by task id
  std::vector<char> machine_down_;
  std::vector<char> store_down_;
  std::vector<double> throughput_;
  /// Registered task descriptors, indexed by task id; `known_` marks ids
  /// that have arrived (task() on an unknown id is a hard error).
  std::vector<sched::SimTask> tasks_;
  std::vector<char> known_;
  /// The object each registered job's tasks read (nullopt: input-free).
  std::map<std::size_t, std::optional<std::size_t>> job_data_;
  /// Non-zero presence cells, keyed (data, store).
  std::map<std::pair<std::size_t, std::size_t>, double> fractions_;
};

}  // namespace lips::svc
