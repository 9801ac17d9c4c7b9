// Incremental epoch LP solving (DESIGN.md §8).
//
// The online driver solves a co-scheduling LP every epoch (and off-cycle
// after faults); successive models differ only in numerics — spot prices,
// remaining job fractions, throughput-scaled CPU budgets — and occasionally
// in structure (job arrivals/completions, machines or stores dropping out).
// EpochLpContext exploits that:
//
//  * same structure → the cached LpModel is updated *in place* (objective
//    coefficients and row RHS) instead of rebuilt, and the previous epoch's
//    simplex basis warm-starts the solver;
//  * changed structure → the model is rebuilt, but the old basis is remapped
//    onto the new model by column/row *identity* ((job, machine, store) for
//    task variables, (data, store) for placement variables, RowKey for
//    slacks) so the solve still warm-starts;
//  * every optimal answer, incremental or not, is proved against the model
//    it solved (lp::certify, LpSchedule::certified). The context reports
//    the verdict and retries nothing itself: LipsPolicy takes its ladder's
//    next rung (a cold rebuild) on an uncertified answer, as it does on a
//    failed solve or a rejected schedule (DESIGN.md §10).
//
// A context is bound to one (cluster, workload) pair for its useful life;
// pointing it at different objects is safe (the structure key mismatches and
// it rebuilds) but defeats the caching.
//
// Clock independence: the context never reads a clock of any kind — time
// enters only through ModelOptions::price_time, stamped by the caller
// (LipsPolicy reads ClusterState::now(), which a lipsd session's mirror
// serves from each STATE). That is what lets one EpochLpContext serve a
// lipsd session with no simulator behind it.
#pragma once

#include <vector>

#include "ckpt/codec.hpp"
#include "core/lp_model_builder.hpp"
#include "core/lp_models.hpp"
#include "obs/obs.hpp"

namespace lips::core {

class EpochLpContext {
 public:
  /// Counters over the context's lifetime (for lipsctl / benchmarks).
  struct Stats {
    std::size_t solves = 0;         ///< total solve() calls
    std::size_t builds = 0;         ///< full model (re)builds
    std::size_t model_reuses = 0;   ///< in-place numeric updates (no rebuild)
    std::size_t warm_solves = 0;    ///< solves finished from a prior basis
    std::size_t pivots = 0;         ///< Σ simplex iterations (all solves)
    std::size_t repair_pivots = 0;  ///< Σ dual-simplex repair iterations
  };

  /// Drop-in replacement for solve_co_scheduling (same model, same
  /// semantics) that reuses the cached model/basis across calls.
  [[nodiscard]] LpSchedule solve(
      const cluster::Cluster& cluster, const workload::Workload& workload,
      const ModelOptions& options, const JobSubset& jobs = {},
      const std::vector<double>& remaining_fraction = {},
      const std::vector<StoreId>& effective_origins = {});

  /// Forget the cached model and basis (next solve is cold).
  void invalidate();

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Attach observability sinks: solve() opens a tracer span per call, tags
  /// warm/cold/repair outcomes as instant events, and feeds solve counters
  /// and a duration histogram into the metrics registry.
  void set_observer(const obs::Observer& observer) { obs_ = observer; }

  /// Checkpoint hooks (DESIGN.md §11). The basis is decision-relevant
  /// state: a warm solve and a cold solve can land on different (equally
  /// optimal) vertices, so bit-identical resume requires restoring it, with
  /// the structure key and the column and row identities a remap reads.
  /// The model is not saved: the first solve() after a restore builds it
  /// and, when the key matches, starts from the restored basis as the
  /// in-place update would have. The StructureKey's raw cluster/workload
  /// pointers cannot survive a process boundary; they are restored null and
  /// stamped by that first solve(). A load throws ckpt::SnapshotError when a
  /// column index or the basis does not fit the restored layout.
  void save_state(ckpt::Writer& writer) const;
  void load_state(ckpt::Reader& reader);

 private:
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self);

  /// Everything that fixes the *structure* (columns and rows, not values)
  /// of the built model. Two solves with equal keys share a model skeleton.
  struct StructureKey {
    const void* cluster = nullptr;
    const void* workload = nullptr;
    std::size_t machine_count = 0;
    std::size_t store_count = 0;
    std::size_t data_count = 0;
    std::vector<std::size_t> jobs;
    std::vector<std::size_t> excluded_machines;  // sorted, deduplicated
    std::vector<std::size_t> excluded_stores;    // sorted, deduplicated
    bool online = false;  // epoch_s > 0
    bool fake_node = false;
    std::size_t max_candidate_machines = 0;
    std::size_t max_candidate_stores = 0;
    bool operator==(const StructureKey&) const = default;
  };

  static StructureKey make_key(const cluster::Cluster& cluster,
                               const workload::Workload& workload,
                               const ModelOptions& options,
                               const std::vector<JobId>& jobs);

  obs::Observer obs_{};
  bool have_model_ = false;
  /// Set by load_state: model_ is empty, layout_ holds only the identities
  /// a remap reads, and key_ carries null cluster/workload pointers. The
  /// next solve() builds the model and stamps the pointers.
  bool restored_ = false;
  StructureKey key_;
  lp::LpModel model_;
  detail::ModelLayout layout_;
  lp::Basis basis_;
  Stats stats_;
};

}  // namespace lips::core
