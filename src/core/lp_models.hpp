// The LiPS linear-programming scheduling models (paper Figures 2, 3, 4).
//
// Three variants share one builder:
//
//  * Offline simple task scheduling (Fig. 2): data placement is given;
//    variables are the task portions x^t_{klm}; objective is execution cost
//    JM_{kl} plus runtime transfer MS_{lm}·Size.
//  * Offline co-scheduling (Fig. 3): data placement x^d_{ij} becomes part of
//    the program; the objective adds initial placement transfer from the
//    original locations SS_{O(i)j}; capacity (11) and linking (13) rows join.
//  * Online epoch model (Fig. 4): machine capacity is TP(M)·e instead of
//    TP(M)·uptime, a per-(job, machine) bandwidth row (21) bounds transfer
//    time by the epoch, and a fake node F of unlimited capacity and huge
//    price guarantees feasibility — mass assigned to F is "not scheduled
//    this epoch" and is carried over by the online driver.
//
// Scale note: the raw variable set is |J|·|M|·|S|. We instantiate variables
// sparsely and optionally prune each job's candidate machines/stores to the
// K cheapest (see ModelOptions); K = 0 disables pruning and reproduces the
// exact paper model. DESIGN.md §4 discusses the trade-off; the ablation
// bench measures it.
#pragma once

#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "lp/model.hpp"
#include "lp/solver.hpp"
#include "workload/workload.hpp"

namespace lips::core {

/// Fraction of data object `data` placed on store `store` (an x^d_{ij}).
struct DataPlacement {
  DataId data;
  StoreId store;
  double fraction = 0.0;
};

/// Fraction of job `job` running on machine `machine` reading from `store`
/// (an x^t_{klm}). For input-free jobs `store` is meaningless and set to the
/// job's machine-local store when one exists (fraction of work only).
struct TaskPortion {
  JobId job;
  MachineId machine;
  std::optional<StoreId> store;  ///< nullopt for input-free jobs
  double fraction = 0.0;
};

/// Decoded LP schedule.
struct LpSchedule {
  lp::SolveStatus status = lp::SolveStatus::IterationLimit;
  Millicents objective_mc = Millicents::zero();  ///< total modeled cost

  std::vector<DataPlacement> placements;  ///< empty for the Fig-2 model
  std::vector<TaskPortion> portions;

  /// Per-job fraction assigned to the fake node (online model only):
  /// work that must wait for a later epoch.
  std::vector<double> deferred_fraction;

  /// Cost breakdown.
  /// Term (6): O(i) → store moves.
  Millicents placement_transfer_mc = Millicents::zero();
  /// Term (7): CPU cost.
  Millicents execution_mc = Millicents::zero();
  /// Term (8): store → machine reads.
  Millicents runtime_transfer_mc = Millicents::zero();

  std::size_t lp_variables = 0;
  std::size_t lp_constraints = 0;
  std::size_t lp_iterations = 0;

  /// Incremental-solve telemetry of this one solve (EpochLpContext, whose
  /// stats() keep the totals; always false/0 on the one-shot solve_* entry
  /// points). `model_reused` — the cached model was updated in place
  /// instead of rebuilt; `warm_start_used` — the solver reached this
  /// solution from the previous epoch's basis; `lp_repair_iterations` —
  /// dual-simplex pivots spent restoring primal feasibility after the basis
  /// import (a subset of lp_iterations).
  bool model_reused = false;
  bool warm_start_used = false;
  std::size_t lp_repair_iterations = 0;

  /// The solution passed lp::certify against the model it was solved from
  /// (set by every solve path; false unless Optimal). Under solver-fault
  /// injection the engine may solve a corrupted copy of that model, so an
  /// optimal but uncertified plan is possible there. LipsPolicy never acts
  /// on one: it counts it (`certificate_failures()`,
  /// `lips_lp_certificate_failures_total`) and takes the next ladder rung.
  bool certified = false;

  [[nodiscard]] bool optimal() const {
    return status == lp::SolveStatus::Optimal;
  }
};

/// Existing placement for the Fig-2 (fixed-data) model: fraction of each
/// data object on each store; one vector per data object, fractions should
/// sum to >= 1 per object for the model to be feasible.
using FixedPlacement = std::vector<std::vector<DataPlacement>>;

/// Builder/solver options.
struct ModelOptions {
  /// Epoch length in seconds; 0 means offline (use each machine's uptime).
  double epoch_s = 0.0;

  /// Add the fake node F (paper §V-B). Only meaningful when epoch_s > 0.
  bool fake_node = false;
  /// How F is priced. The paper's literal construction ("an extremely high
  /// CPU cycle cost") makes F a pure feasibility device: work spills onto
  /// *any* real machine, however expensive, before deferring. The paper's
  /// observed behavior, however — "LiPS gives priority to the cheaper and
  /// at the same time slower instances", yielding makespans 40–100% beyond
  /// delay's — requires the §V-B "non-greedy patience": prefer waiting an
  /// epoch over buying dear cycles. PatienceMin prices F per job at
  /// factor × that job's cheapest real assignment cost, so F absorbs a
  /// job's overflow exactly when its cheap options are out of capacity and
  /// never livelocks (F always costs more than the best real option).
  enum class FakeNodePricing { ProhibitiveMax, PatienceMin };
  FakeNodePricing fake_node_pricing = FakeNodePricing::ProhibitiveMax;
  /// ProhibitiveMax: F price = factor × max real machine price.
  /// PatienceMin: F cost for job k = factor × cheapest real option of k.
  double fake_node_price_factor = 1000.0;

  /// Candidate pruning: consider only the K cheapest machines per job and
  /// K cheapest stores per data object (plus the original). 0 = no pruning.
  std::size_t max_candidate_machines = 0;
  std::size_t max_candidate_stores = 0;

  /// Machines the model must not schedule on and stores it must not place
  /// data on — down, revoked, or wiped under fault injection (sim/faults).
  /// With the fake node enabled the model stays feasible even when every
  /// machine is excluded (all work defers). Empty on the fault-free path.
  std::vector<std::size_t> excluded_machines;
  std::vector<std::size_t> excluded_stores;

  /// Observed effective-throughput multiplier per machine: the capacity
  /// rows budget machine l at factor[l] × TP(M_l) × horizon, so a machine
  /// the scheduler has *observed* running slow (a straggler) is planned at
  /// its real, degraded rate instead of its nameplate one. Empty = all
  /// nominal (bit-identical to the factor-free model); when nonempty it
  /// must have one entry per machine, each in (0, 1].
  std::vector<double> machine_throughput_factor;

  /// Evaluate machine prices at this simulated time (spot-market price
  /// schedules, Cluster::cpu_price_mc_at). Negative = use static prices.
  double price_time = -1.0;

  /// Solver-fault injector handed to every lp::solve of these options
  /// (lp/solver_faults.hpp); not owned, null outside chaos runs.
  lp::SolverFaultInjector* fault_injector = nullptr;
};

/// Which jobs to schedule (subset view for the online driver); empty means
/// all jobs of the workload.
using JobSubset = std::vector<JobId>;

/// Solve the offline *simple task scheduling* model (paper Fig. 2):
/// data placement is `placement`, only task portions are chosen.
[[nodiscard]] LpSchedule solve_offline_simple(
    const cluster::Cluster& cluster, const workload::Workload& workload,
    const FixedPlacement& placement, const ModelOptions& options = {});

/// Solve the *co-scheduling* model: offline (paper Fig. 3) when
/// options.epoch_s == 0, online epoch model (paper Fig. 4) otherwise.
/// `jobs` restricts to a queue subset (online driver); empty = all jobs.
/// `remaining_fraction[k]`, if nonempty, lowers constraint (10)'s rhs for
/// partially-scheduled jobs (carry-over between epochs).
/// `effective_origins`, if nonempty (one store per data object), replaces
/// each object's O(i) — the online driver passes where the data actually
/// is *now* (after earlier epochs' moves), so placement that already
/// happened is not charged again.
[[nodiscard]] LpSchedule solve_co_scheduling(
    const cluster::Cluster& cluster, const workload::Workload& workload,
    const ModelOptions& options = {}, const JobSubset& jobs = {},
    const std::vector<double>& remaining_fraction = {},
    const std::vector<StoreId>& effective_origins = {});

/// CPU demand of job k counted against machine capacity (constraint 4/12/23
/// left-hand side per unit fraction): TCP(k)·ΣSize(D_i) + fixed.
[[nodiscard]] CpuSeconds job_capacity_demand_ecu_s(const workload::Workload& w,
                                                   JobId k);

}  // namespace lips::core
