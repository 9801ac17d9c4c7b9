// The paper-run recipe: (scenario, seed) → the world, and scheduler name →
// the policy plus the SimConfig it runs under.
//
// run_one() and the lipsd service must build bit-identical worlds from the
// same (ScenarioSpec, seed) pair: the farm runs them in-process, a lipsd
// session rebuilds cluster + workload server-side while the replaying client
// rebuilds the very same objects around its simulator (DESIGN.md §14 — the
// static side of the world is never streamed, only re-derived). Factoring
// the recipe here is what makes "both ends agree" a property of one function
// instead of two copies that can drift.
//
// Construction order is part of the contract: the cluster first (seedless),
// then the workload from Rng(seed), then the storm seed from the *next* draw
// of the same stream. Reordering changes every downstream bit.
//
// The per-scheduler half (make_policy, make_sim_config) is the paper's
// §VI-A setup, and the only code that knows it: the Hadoop baselines run on
// HDFS replication with the 10-minute timeout, default and delay speculating
// on time alone; LiPS places its own data, runs without speculation and
// with the raised timeout. run_one, lipsctl and the bench harness all call
// it, so a Fig. 6 row means the same run wherever it is printed.
//
// Thread role: pure functions over value types; call freely from any thread.
#pragma once

#include <cstdint>
#include <memory>

#include "cluster/cluster.hpp"
#include "common/thread_annotations.hpp"
#include "core/lips_policy.hpp"
#include "farm/scenario.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace lips::farm {

/// Everything a run constructs before the first simulated event.
struct LIPS_EXTERNALLY_SYNCHRONIZED RunInputs {
  cluster::Cluster cluster;
  workload::Workload workload;
  sim::FaultPlan faults;  ///< empty when the spec has no storm
};

/// Build the run's world. Pure in (spec, seed); throws PreconditionError on
/// an invalid spec (validate_scenario).
[[nodiscard]] RunInputs make_run_inputs(const ScenarioSpec& spec,
                                        std::uint64_t seed);

/// LiPS policy options for a cell: the paper defaults plus the cell's
/// epoch/pruning/feedback knobs — exactly what run_one's "lips" scheduler
/// runs with.
[[nodiscard]] core::LipsPolicyOptions make_lips_options(
    const ScenarioSpec& spec, const SchedulerSpec& ss);

/// The SimConfig deltas of a LiPS run (replication 1 — LiPS manages
/// placement itself — speculation off, the paper's raised timeout, and the
/// run seed for replication placement).
void apply_lips_sim_config(const ScenarioSpec& spec, std::uint64_t seed,
                           sim::SimConfig& cfg);

/// The policy `ss.name` names (default|delay|fair|quincy|lips), with its
/// paper options; "lips" runs make_lips_options. Throws PreconditionError
/// on an unknown name.
[[nodiscard]] std::unique_ptr<sched::Scheduler> make_policy(
    const ScenarioSpec& spec, const SchedulerSpec& ss);

/// The SimConfig `ss` runs under: the scheduler's paper substrate
/// (replication, timeout, speculation), then `ss.speculation` when it is
/// not "auto". `replication_seed` seeds replica placement; the farm passes
/// the run seed. Faults, observers and checkpoints are the caller's.
[[nodiscard]] sim::SimConfig make_sim_config(const ScenarioSpec& spec,
                                             const SchedulerSpec& ss,
                                             std::uint64_t replication_seed);

}  // namespace lips::farm
