// Internal: the LiPS LP model builder, split for incremental re-solves.
//
// `ModelBuilder::run` is the one-shot path used by the public
// `solve_offline_simple` / `solve_co_scheduling` entry points. The split
// `build` / `apply_numeric` / `decode` trio exists for `EpochLpContext`
// (DESIGN.md §8): `build` additionally records a ModelLayout — the identity
// of every LP column and row — so a later epoch with the same structure can
// refresh all time-varying numerics in place (`apply_numeric`) instead of
// rebuilding, and so a basis from the previous epoch can be remapped onto a
// rebuilt model by column/row identity when the structure did change.
//
// Not part of the public API; include only from src/core.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "core/lp_models.hpp"

namespace lips::core::detail {

/// Sentinel machine index for the fake node F.
inline constexpr std::size_t kFakeNode = SIZE_MAX;

/// One x^t variable's identity.
struct TaskVar {
  std::size_t lp_var;
  JobId job;
  std::size_t machine;  // kFakeNode for F
  std::optional<StoreId> store;
};

/// One x^d variable's identity.
struct DataVar {
  std::size_t lp_var;
  DataId data;
  StoreId store;
};

/// Identity of one constraint row, stable across epochs: what the row means,
/// not where it sits. Used to remap basis slack statuses between models.
struct RowKey {
  enum class Kind : unsigned char {
    DataPlace,   ///< (9): a = data
    Job,         ///< (10): a = job
    StoreCap,    ///< (11): a = store
    MachineCpu,  ///< (12): a = machine
    Bandwidth,   ///< (21): a = job, b = machine
    Linking,     ///< (13): a = job, b = store, c = data
  };
  Kind kind = Kind::DataPlace;
  std::size_t a = 0;
  std::size_t b = 0;
  std::size_t c = 0;
  [[nodiscard]] auto tie() const {
    return std::tuple{static_cast<int>(kind), a, b, c};
  }
  bool operator<(const RowKey& o) const { return tie() < o.tie(); }
  bool operator==(const RowKey&) const = default;
};

/// Column and row identities of a built model (parallel to the LpModel).
struct ModelLayout {
  std::vector<DataVar> dvars;
  std::vector<TaskVar> tvars;
  /// Task-variable indices (into `tvars`) per job-subset position.
  std::vector<std::vector<std::size_t>> tvars_of_job;
  /// One key per constraint row, in row order.
  std::vector<RowKey> rows;
  std::size_t num_variables = 0;
};

/// Whether `sol` passes lp::certify against `model`, the model it was
/// solved from (LpSchedule::certified). An optimal answer that fails is a
/// solver bug unless a solver-fault `injector` is installed, so debug
/// builds assert that case.
[[nodiscard]] bool certify_solution(const lp::LpModel& model,
                                    const lp::LpSolution& sol,
                                    const lp::SolverFaultInjector* injector);

/// Translate a basis across models by column/row identity: (job, machine,
/// store) for task variables, (data, store) for placement variables, RowKey
/// for slacks. Entries `to_layout` has but `from_layout` lacks default to
/// nonbasic-at-lower; the solver's import sanitizes and completes the set.
/// A basis that does not fit `from_layout` remaps to the empty basis.
[[nodiscard]] lp::Basis remap_basis(const ModelLayout& from_layout,
                                    const lp::Basis& from,
                                    const ModelLayout& to_layout);

/// Shared builder for the three paper models (Figs. 2, 3, 4).
class ModelBuilder {
 public:
  ModelBuilder(const cluster::Cluster& cluster,
               const workload::Workload& workload, const ModelOptions& options,
               const JobSubset& subset, const std::vector<double>& remaining,
               const std::vector<StoreId>& effective_origins = {});

  /// Build the model and record its layout. `fixed` non-null builds the
  /// Fig-2 model (x^d constant) instead of co-scheduling.
  void build(const FixedPlacement* fixed, lp::LpModel& model,
             ModelLayout& layout) const;

  /// Recompute every time-varying numeric of a model this builder's
  /// parameters describe — objective coefficients (spot prices, effective
  /// origins, fake-node patience floors) and row RHS (remaining fractions,
  /// throughput-scaled CPU budgets) — in place. The model must have been
  /// produced by `build(nullptr, ...)` with identical *structure* (same job
  /// subset, exclusions, pruning off); only numerics may differ.
  void apply_numeric(lp::LpModel& model, const ModelLayout& layout) const;

  /// Decode a solution into an LpSchedule (handles non-optimal statuses).
  [[nodiscard]] LpSchedule decode(const lp::LpSolution& sol,
                                  const ModelLayout& layout) const;

  /// One-shot build + solve + decode (the cold path).
  [[nodiscard]] LpSchedule run(const FixedPlacement* fixed) const;

  /// The effective job subset (defaulted to all jobs when none was given).
  [[nodiscard]] const std::vector<JobId>& jobs() const { return jobs_; }

 private:
  [[nodiscard]] UsdPerCpuSec price_mc(std::size_t l) const;
  [[nodiscard]] StoreId origin_of(DataId i) const;
  [[nodiscard]] CpuSeconds machine_capacity_ecu_s(MachineId l) const;
  [[nodiscard]] std::vector<StoreId> candidate_stores(DataId i) const;
  [[nodiscard]] std::vector<std::size_t> candidate_machines(
      JobId k, const std::vector<StoreId>& stores) const;

  /// What a job's objective (7) + (8) coefficients read of the workload,
  /// looked up once per job.
  struct JobCost {
    CpuSeconds cpu;
    std::vector<std::pair<double, Bytes>> reads;  ///< (JD fraction, size)
  };
  [[nodiscard]] JobCost job_cost(JobId k) const;
  /// Objective coefficient of x^t_{kls} (execution + runtime reads).
  [[nodiscard]] Millicents task_coeff_mc(const JobCost& job, std::size_t l,
                                         std::optional<StoreId> s) const;
  /// Patience-floor surcharge: full O(i)->s placement for each input of k.
  [[nodiscard]] Millicents placement_bound_mc(JobId k, StoreId s) const;
  /// Fake-node coefficient for job k given its cheapest real option.
  [[nodiscard]] Millicents fake_coeff_mc(JobId k,
                                         Millicents min_real_coeff) const;
  /// Objective coefficient of x^d_{ij}.
  [[nodiscard]] Millicents data_coeff_mc(DataId i, StoreId j) const;

  const cluster::Cluster& c_;
  const workload::Workload& w_;
  ModelOptions opt_;
  std::vector<JobId> jobs_;
  std::vector<double> remaining_;
  std::vector<UsdPerCpuSec> machine_price_mc_;  // price_mc, per machine
  UsdPerCpuSec fake_price_mc_ = UsdPerCpuSec::zero();
  std::vector<StoreId> origins_;
  std::vector<char> machine_excluded_;
  std::vector<char> store_excluded_;
};

}  // namespace lips::core::detail
