#include "core/epoch_lp_context.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>

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

lp::Basis EpochLpContext::remap_basis(const detail::ModelLayout& from_layout,
                                      const lp::Basis& from,
                                      const detail::ModelLayout& to_layout) {
  if (from.variables.size() != from_layout.num_variables ||
      from.slacks.size() != from_layout.rows.size())
    return {};

  // Identity → status maps for the old model. Ordered maps: deterministic
  // and keyed by tuples (lips-lint bans unordered iteration, and these are
  // iterated implicitly via lookups only — ordered is simply the safe idiom).
  using TaskKey = std::tuple<std::size_t, std::size_t, std::size_t>;
  std::map<TaskKey, lp::BasisStatus> tmap;
  std::map<std::pair<std::size_t, std::size_t>, lp::BasisStatus> dmap;
  std::map<detail::RowKey, lp::BasisStatus> rmap;
  auto task_key = [](const detail::TaskVar& tv) {
    return TaskKey{tv.job.value(), tv.machine,
                   tv.store ? tv.store->value() + 1 : 0};
  };
  for (const detail::TaskVar& tv : from_layout.tvars)
    tmap.emplace(task_key(tv), from.variables[tv.lp_var]);
  for (const detail::DataVar& dv : from_layout.dvars)
    dmap.emplace(std::pair{dv.data.value(), dv.store.value()},
                 from.variables[dv.lp_var]);
  for (std::size_t i = 0; i < from_layout.rows.size(); ++i)
    rmap.emplace(from_layout.rows[i], from.slacks[i]);

  // New columns/rows the old model never saw default to nonbasic-at-lower;
  // the solver's basis import sanitizes statuses against the actual bounds
  // and completes/demotes to exactly one basic column per row.
  lp::Basis to;
  to.variables.assign(to_layout.num_variables, lp::BasisStatus::AtLower);
  to.slacks.assign(to_layout.rows.size(), lp::BasisStatus::AtLower);
  for (const detail::TaskVar& tv : to_layout.tvars) {
    const auto it = tmap.find(task_key(tv));
    if (it != tmap.end()) to.variables[tv.lp_var] = it->second;
  }
  for (const detail::DataVar& dv : to_layout.dvars) {
    const auto it = dmap.find(std::pair{dv.data.value(), dv.store.value()});
    if (it != dmap.end()) to.variables[dv.lp_var] = it->second;
  }
  for (std::size_t i = 0; i < to_layout.rows.size(); ++i) {
    const auto it = rmap.find(to_layout.rows[i]);
    if (it != rmap.end()) to.slacks[i] = it->second;
  }
  return to;
}

void EpochLpContext::invalidate() {
  have_model_ = false;
  restored_key_pending_ = false;
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
    self.restored_key_pending_ = self.have_model_;
  }
  if (self.have_model_) {
    // StructureKey minus the raw pointers (restored null, re-adopted by the
    // first matching solve), the model, its layout, and the exported basis.
    const auto basis_status =
        ckpt::enums(lp::BasisStatus::Free, "basis status");
    ar(self.key_.machine_count, self.key_.store_count, self.key_.data_count,
       ckpt::seq(self.key_.jobs), ckpt::seq(self.key_.excluded_machines),
       ckpt::seq(self.key_.excluded_stores), self.key_.online,
       self.key_.fake_node,
       self.key_.max_candidate_machines, self.key_.max_candidate_stores,
       ckpt::state(self.model_),
       ckpt::seq(self.layout_.dvars,
                 [](auto& a, auto& dv) { a(dv.lp_var, dv.data, dv.store); }),
       ckpt::seq(self.layout_.tvars,
                 [](auto& a, auto& tv) {
                   a(tv.lp_var, tv.job, tv.machine, tv.store);
                 }),
       ckpt::seq(self.layout_.tvars_of_job,
                 [](auto& a, auto& ids) { a(ckpt::seq(ids)); }),
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

void EpochLpContext::load_state(ckpt::Reader& r) { fields(r, *this); }

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
  const detail::ModelBuilder builder(cluster, workload, options, jobs,
                                     remaining_fraction, effective_origins);
  StructureKey key = make_key(cluster, workload, options, builder.jobs());

  // Pointer adoption after a checkpoint restore: the restored key carries
  // null cluster/workload pointers, but the restored model does describe
  // this run's cluster and workload (the simulator's topology guard vouched
  // for that before load_state got this far) — so stamp the pointers
  // unconditionally. Whether the *structure* still matches is decided by
  // the ordinary key comparison below, exactly as in the uninterrupted run:
  // on mismatch the rebuild path remaps the restored basis rather than
  // dropping it. (Discarding the cache here was a bit-identity bug — the
  // uninterrupted run would have warm-started the next rebuild from this
  // basis, and a warm and a cold solve can land on different equally
  // optimal vertices.)
  if (restored_key_pending_) {
    restored_key_pending_ = false;
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
  if (delta) {
    builder.apply_numeric(model_, layout_);
    start = basis_;
    ++stats_.model_reuses;
  } else {
    lp::LpModel fresh;
    detail::ModelLayout fresh_layout;
    builder.build(nullptr, fresh, fresh_layout);
    if (have_model_ && !basis_.empty())
      start = remap_basis(layout_, basis_, fresh_layout);
    model_ = std::move(fresh);
    layout_ = std::move(fresh_layout);
    ++stats_.builds;
  }
  key_ = std::move(key);
  have_model_ = true;

  const lp::LpSolution sol = lp::solve(model_, &start, options.fault_injector);

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
