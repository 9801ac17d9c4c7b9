#include "core/epoch_lp_context.hpp"

#include <algorithm>
#include <cstdint>
#include <compare>
#include <cstddef>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lips::core {

namespace {

std::vector<std::size_t> sorted_unique(const std::vector<std::size_t>& v) {
  std::vector<std::size_t> out = v;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

EpochLpContext::StructureKey EpochLpContext::make_key(
    const cluster::Cluster& cluster, const workload::Workload& workload,
    const ModelOptions& options, const std::vector<JobId>& jobs) {
  StructureKey key;
  key.cluster = &cluster;
  key.workload = &workload;
  key.machine_count = cluster.machine_count();
  key.store_count = cluster.store_count();
  key.data_count = workload.data_count();
  key.jobs.reserve(jobs.size());
  for (JobId k : jobs) key.jobs.push_back(k.value());
  key.excluded_machines = sorted_unique(options.excluded_machines);
  key.excluded_stores = sorted_unique(options.excluded_stores);
  key.online = options.epoch_s > 0;
  key.fake_node = options.fake_node;
  key.max_candidate_machines = options.max_candidate_machines;
  key.max_candidate_stores = options.max_candidate_stores;
  return key;
}

namespace detail {

namespace {

/// A task variable's identity: (job, machine, store + 1), 0 for no store.
struct TaskKey {
  std::size_t job;
  std::size_t machine;
  std::size_t store;
  auto operator<=>(const TaskKey&) const = default;
};

TaskKey task_key(const TaskVar& tv) {
  return {tv.job.value(), tv.machine, tv.store ? tv.store->value() + 1 : 0};
}

/// One identity of the old model with the status it had there. `at` is its
/// position in the old layout: of two equal keys the first wins a lookup,
/// as in a map filled by emplace.
template <class Key>
struct Keyed {
  Key key;
  std::size_t at;
  lp::BasisStatus status;
  bool operator<(const Keyed& o) const {
    return key < o.key || (!(o.key < key) && at < o.at);
  }
};

/// The old model's identities of one kind, sorted for lookup. A build over
/// an ascending job subset emits most identities in order already, so the
/// sort is usually skipped, and a new model asks for them in the same
/// order, so a lookup first tries the entry after the previous hit.
template <class Key>
class StatusLookup {
 public:
  explicit StatusLookup(std::vector<Keyed<Key>> ids) : ids_(std::move(ids)) {
    if (!std::is_sorted(ids_.begin(), ids_.end()))
      std::sort(ids_.begin(), ids_.end());
  }

  /// The old status of `key`, or null when the old model lacked it.
  const lp::BasisStatus* find(const Key& key) {
    // The hint is the first entry of `key` when the entry before it is
    // smaller; otherwise search.
    auto it = ids_.begin() + static_cast<std::ptrdiff_t>(next_);
    const bool hit = it != ids_.end() && !(key < it->key) &&
                     !(it->key < key) &&
                     (it == ids_.begin() || std::prev(it)->key < key);
    if (!hit) {
      it = std::partition_point(ids_.begin(), ids_.end(),
                                [&](const Keyed<Key>& k) { return k.key < key; });
      if (it == ids_.end() || key < it->key) return nullptr;
    }
    next_ = static_cast<std::size_t>(it - ids_.begin()) + 1;
    return &it->status;
  }

 private:
  std::vector<Keyed<Key>> ids_;
  std::size_t next_ = 0;
};

}  // namespace

lp::Basis remap_basis(const ModelLayout& from_layout, const lp::Basis& from,
                      const ModelLayout& to_layout) {
  if (from.variables.size() != from_layout.num_variables ||
      from.slacks.size() != from_layout.rows.size())
    return {};

  // The old model's identities with their statuses.
  using DataKey = std::pair<std::size_t, std::size_t>;  // (data, store)
  std::vector<Keyed<TaskKey>> task_ids;
  task_ids.reserve(from_layout.tvars.size());
  for (const TaskVar& tv : from_layout.tvars)
    task_ids.push_back(
        {task_key(tv), task_ids.size(), from.variables[tv.lp_var]});
  std::vector<Keyed<DataKey>> data_ids;
  data_ids.reserve(from_layout.dvars.size());
  for (const DataVar& dv : from_layout.dvars)
    data_ids.push_back({{dv.data.value(), dv.store.value()},
                        data_ids.size(),
                        from.variables[dv.lp_var]});
  std::vector<Keyed<RowKey>> row_ids;
  row_ids.reserve(from_layout.rows.size());
  for (std::size_t i = 0; i < from_layout.rows.size(); ++i)
    row_ids.push_back({from_layout.rows[i], i, from.slacks[i]});
  StatusLookup tasks(std::move(task_ids));
  StatusLookup data(std::move(data_ids));
  StatusLookup rows(std::move(row_ids));

  // New columns/rows the old model never saw default to nonbasic-at-lower;
  // the solver's basis import sanitizes statuses against the actual bounds
  // and completes/demotes to exactly one basic column per row.
  lp::Basis to;
  to.variables.assign(to_layout.num_variables, lp::BasisStatus::AtLower);
  to.slacks.assign(to_layout.rows.size(), lp::BasisStatus::AtLower);
  for (const TaskVar& tv : to_layout.tvars)
    if (const lp::BasisStatus* st = tasks.find(task_key(tv)))
      to.variables[tv.lp_var] = *st;
  for (const DataVar& dv : to_layout.dvars)
    if (const lp::BasisStatus* st =
            data.find(DataKey{dv.data.value(), dv.store.value()}))
      to.variables[dv.lp_var] = *st;
  for (std::size_t i = 0; i < to_layout.rows.size(); ++i)
    if (const lp::BasisStatus* st = rows.find(to_layout.rows[i]))
      to.slacks[i] = *st;
  return to;
}

}  // namespace detail

void EpochLpContext::invalidate() {
  have_model_ = false;
  restored_ = false;
  basis_ = {};
}

template <class Ar, class Self>
void EpochLpContext::fields(Ar& ar, Self& self) {
  ar(self.have_model_);
  if constexpr (Ar::kLoading) {
    self.key_ = {};
    self.model_ = {};
    self.layout_ = {};
    self.basis_ = {};
    self.restored_ = self.have_model_;
  }
  if (self.have_model_) {
    // StructureKey minus the raw pointers (restored null, re-adopted by the
    // first solve), the column and row identities a remap reads, and the
    // exported basis. The model and the rest of the layout are what the
    // first solve's build recomputes.
    const auto basis_status =
        ckpt::enums(lp::BasisStatus::Free, "basis status");
    ar(self.key_.machine_count, self.key_.store_count, self.key_.data_count,
       ckpt::seq(self.key_.jobs), ckpt::seq(self.key_.excluded_machines),
       ckpt::seq(self.key_.excluded_stores), self.key_.online,
       self.key_.fake_node,
       self.key_.max_candidate_machines, self.key_.max_candidate_stores,
       ckpt::seq(self.layout_.dvars,
                 [](auto& a, auto& dv) { a(dv.lp_var, dv.data, dv.store); }),
       ckpt::seq(self.layout_.tvars,
                 [](auto& a, auto& tv) {
                   a(tv.lp_var, tv.job, tv.machine, tv.store);
                 }),
       ckpt::seq(self.layout_.rows,
                 [](auto& a, auto& rk) {
                   a(ckpt::enumeration(rk.kind, detail::RowKey::Kind::Linking,
                                       "row key kind"),
                     rk.a, rk.b, rk.c);
                 }),
       self.layout_.num_variables,
       ckpt::seq(self.basis_.variables, basis_status),
       ckpt::seq(self.basis_.slacks, basis_status));
  }
  ar(self.stats_.solves, self.stats_.builds, self.stats_.model_reuses,
     self.stats_.warm_solves, self.stats_.pivots, self.stats_.repair_pivots);
}

void EpochLpContext::save_state(ckpt::Writer& w) const { fields(w, *this); }

void EpochLpContext::load_state(ckpt::Reader& r) {
  fields(r, *this);
  // A CRC-valid payload can still carry any index: the remap reads the
  // basis at every column index, so each must fit the layout and the basis.
  const detail::ModelLayout& l = layout_;
  const auto outside = [&l](const auto& var) {
    return var.lp_var >= l.num_variables;
  };
  if (std::any_of(l.dvars.begin(), l.dvars.end(), outside) ||
      std::any_of(l.tvars.begin(), l.tvars.end(), outside))
    throw ckpt::SnapshotError("snapshot LP column index is out of range");
  if (!basis_.empty() && (basis_.variables.size() != l.num_variables ||
                          basis_.slacks.size() != l.rows.size()))
    throw ckpt::SnapshotError("snapshot LP basis does not fit its layout");
}

LpSchedule EpochLpContext::solve(
    const cluster::Cluster& cluster, const workload::Workload& workload,
    const ModelOptions& options, const JobSubset& jobs,
    const std::vector<double>& remaining_fraction,
    const std::vector<StoreId>& effective_origins) {
  ++stats_.solves;
  const obs::Span span(obs_.tracer, "lp-solve", "lp");
  // Wall-clock read only when a registry will consume the sample.
  const std::uint64_t t_begin_us =
      obs_.metrics != nullptr ? obs::monotonic_now_us() : 0;
  // Phase spans inside lp-solve: lp-build (builder, then build or
  // apply_numeric), lp-remap and lp-simplex.
  std::optional<obs::Span> build_span;
  build_span.emplace(obs_.tracer, "lp-build", "lp");
  const detail::ModelBuilder builder(cluster, workload, options, jobs,
                                     remaining_fraction, effective_origins);
  StructureKey key = make_key(cluster, workload, options, builder.jobs());

  // After a checkpoint restore the key carries null cluster/workload
  // pointers, but the restored identities do describe this run's cluster
  // and workload (the simulator's topology guard vouched for that before
  // load_state got this far), so stamp the pointers unconditionally.
  // Whether the *structure* still matches is decided by the ordinary key
  // comparison below, exactly as in the uninterrupted run: on mismatch the
  // rebuild path remaps the restored basis rather than dropping it.
  // (Discarding it here was a bit-identity bug: the uninterrupted run would
  // have warm-started the next rebuild from this basis, and a warm and a
  // cold solve can land on different equally optimal vertices.)
  const bool restored = std::exchange(restored_, false);
  if (restored) {
    key_.cluster = key.cluster;
    key_.workload = key.workload;
  }

  // The delta path requires pruning off: candidate sets under pruning
  // depend on prices and origins, so equal keys would not guarantee equal
  // structure. Pruned solves always rebuild (but still remap the basis).
  const bool pruned =
      options.max_candidate_machines > 0 || options.max_candidate_stores > 0;
  const bool delta = have_model_ && !pruned && key == key_;

  lp::Basis start;
  if (delta && !restored) {
    builder.apply_numeric(model_, layout_);
    build_span.reset();
  } else {
    // A restored context has no model to update in place. On the delta path
    // it builds the model the update would have produced
    // (EpochLpContext.InPlaceUpdateIsTheColdBuild) and starts from the
    // restored basis as it is.
    lp::LpModel fresh;
    detail::ModelLayout fresh_layout;
    builder.build(nullptr, fresh, fresh_layout);
    build_span.reset();
    if (!delta && have_model_ && !basis_.empty()) {
      const obs::Span remap_span(obs_.tracer, "lp-remap", "lp");
      start = detail::remap_basis(layout_, basis_, fresh_layout);
    }
    model_ = std::move(fresh);
    layout_ = std::move(fresh_layout);
  }
  if (delta) {
    start = basis_;
    ++stats_.model_reuses;
  } else {
    ++stats_.builds;
  }
  key_ = std::move(key);
  have_model_ = true;

  const lp::LpSolution sol = [&] {
    const obs::Span simplex_span(obs_.tracer, "lp-simplex", "lp");
    return lp::solve(model_, &start, options.fault_injector);
  }();

  stats_.pivots += sol.iterations;
  stats_.repair_pivots += sol.repair_iterations;
  if (sol.warm_start_used) ++stats_.warm_solves;

  LpSchedule sched = builder.decode(sol, layout_);
  sched.model_reused = delta;
  sched.warm_start_used = sol.warm_start_used;
  sched.lp_repair_iterations = sol.repair_iterations;
  sched.certified =
      detail::certify_solution(model_, sol, options.fault_injector);

  if (obs_.metrics != nullptr) {
    obs::MetricRegistry& reg = *obs_.metrics;
    reg.counter("lips_lp_solves_total",
                {{"mode", sol.warm_start_used ? "warm" : "cold"}})
        .inc();
    reg.counter("lips_lp_pivots_total")
        .inc(static_cast<double>(sol.iterations));
    if (sol.repair_iterations > 0)
      reg.counter("lips_lp_repair_pivots_total")
          .inc(static_cast<double>(sol.repair_iterations));
    if (sched.model_reused) reg.counter("lips_lp_model_reuses_total").inc();
    reg.histogram("lips_lp_solve_duration_ms",
                  {0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0})
        .observe(static_cast<double>(obs::monotonic_now_us() - t_begin_us) /
                 1000.0);
  }
  if (obs_.tracer != nullptr && obs_.tracer->enabled())
    obs_.tracer->instant(
        sol.warm_start_used ? "lp-warm-solve" : "lp-cold-solve", "lp",
        "pivots", static_cast<double>(sol.iterations), "repair_pivots",
        static_cast<double>(sol.repair_iterations));

  // Keep the final basis for the next epoch; a failed solve exports none.
  basis_ = sol.optimal() ? sol.basis : lp::Basis{};
  return sched;
}

}  // namespace lips::core
