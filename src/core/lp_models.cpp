#include "core/lp_models.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>

#include "common/error.hpp"
#include "core/lp_model_builder.hpp"

namespace lips::core {

namespace detail {

using cluster::Cluster;
using workload::Workload;

bool certify_solution(const lp::LpModel& model, const lp::LpSolution& sol,
                      const lp::SolverFaultInjector* injector) {
  if (!sol.optimal()) return false;
  const bool ok = lp::certify(model, sol).ok();
#ifndef NDEBUG
  LIPS_ASSERT(ok || injector != nullptr,
              "optimal LP solution failed its KKT certificate");
#else
  (void)injector;
#endif
  return ok;
}

ModelBuilder::ModelBuilder(const Cluster& cluster, const Workload& workload,
                           const ModelOptions& options, const JobSubset& subset,
                           const std::vector<double>& remaining,
                           const std::vector<StoreId>& effective_origins)
    : c_(cluster), w_(workload), opt_(options), origins_(effective_origins) {
  LIPS_REQUIRE(c_.finalized(), "cluster must be finalized");
  if (!origins_.empty()) {
    LIPS_REQUIRE(origins_.size() == w_.data_count(),
                 "effective_origins must cover every data object");
    for (StoreId s : origins_)
      LIPS_REQUIRE(s.value() < c_.store_count(), "unknown origin store");
  }
  if (subset.empty()) {
    for (std::size_t k = 0; k < w_.job_count(); ++k) jobs_.push_back(JobId{k});
  } else {
    jobs_ = subset;
  }
  remaining_.assign(jobs_.size(), 1.0);
  if (!remaining.empty()) {
    LIPS_REQUIRE(remaining.size() == jobs_.size(),
                 "remaining_fraction size must match job subset");
    remaining_ = remaining;
    for (double r : remaining_)
      LIPS_REQUIRE(r >= 0.0 && r <= 1.0, "remaining fraction in [0,1]");
  }
  machine_excluded_.assign(c_.machine_count(), false);
  for (const std::size_t l : opt_.excluded_machines) {
    LIPS_REQUIRE(l < c_.machine_count(), "excluded machine out of range");
    machine_excluded_[l] = true;
  }
  store_excluded_.assign(c_.store_count(), false);
  for (const std::size_t s : opt_.excluded_stores) {
    LIPS_REQUIRE(s < c_.store_count(), "excluded store out of range");
    store_excluded_[s] = true;
  }
  if (!opt_.machine_throughput_factor.empty()) {
    LIPS_REQUIRE(opt_.machine_throughput_factor.size() == c_.machine_count(),
                 "machine_throughput_factor must have one entry per machine");
    for (const double f : opt_.machine_throughput_factor)
      LIPS_REQUIRE(f > 0.0 && f <= 1.0,
                   "machine throughput factor must be in (0, 1]");
  }
  // Each machine's price in force for this solve (spot schedules honored
  // when options.price_time >= 0), looked up once per builder.
  machine_price_mc_.reserve(c_.machine_count());
  for (std::size_t l = 0; l < c_.machine_count(); ++l)
    machine_price_mc_.push_back(
        opt_.price_time >= 0 ? c_.cpu_price_mc_at(MachineId{l}, opt_.price_time)
                             : c_.machine(MachineId{l}).cpu_price_mc);
  if (opt_.fake_node) {
    UsdPerCpuSec max_price = UsdPerCpuSec::zero();
    for (std::size_t l = 0; l < c_.machine_count(); ++l)
      if (!machine_excluded_[l]) max_price = std::max(max_price, price_mc(l));
    fake_price_mc_ = std::max(UsdPerCpuSec::mc_per_ecu_s(1.0), max_price) *
                     opt_.fake_node_price_factor;
  }
}

UsdPerCpuSec ModelBuilder::price_mc(std::size_t l) const {
  return machine_price_mc_[l];
}

StoreId ModelBuilder::origin_of(DataId i) const {
  // O(i), possibly overridden by the caller (current location of data).
  return origins_.empty() ? w_.data(i).origin : origins_[i.value()];
}

CpuSeconds ModelBuilder::machine_capacity_ecu_s(MachineId l) const {
  // Machine CPU capacity available to this model: the paper's TP(M)·e,
  // scaled down to the machine's *observed* throughput when the caller
  // supplies straggler feedback.
  const cluster::Machine& m = c_.machine(l);
  const double horizon = opt_.epoch_s > 0 ? opt_.epoch_s : m.uptime_s;
  const double factor = opt_.machine_throughput_factor.empty()
                            ? 1.0
                            : opt_.machine_throughput_factor[l.value()];
  return CpuSeconds::ecu_s(m.throughput_ecu * horizon * factor);
}

std::vector<StoreId> ModelBuilder::candidate_stores(DataId i) const {
  // Candidate stores for data object i (pruned to the K cheapest initial
  // moves; the origin is always included).
  const std::size_t ns = c_.store_count();
  std::vector<StoreId> all;
  all.reserve(ns);
  for (std::size_t s = 0; s < ns; ++s)
    if (!store_excluded_[s]) all.push_back(StoreId{s});
  const std::size_t k = opt_.max_candidate_stores;
  if (k == 0 || k >= all.size()) return all;
  const StoreId origin = origin_of(i);
  std::stable_sort(all.begin(), all.end(), [&](StoreId a, StoreId b) {
    return c_.ss_cost_mc_per_mb(origin, a) < c_.ss_cost_mc_per_mb(origin, b);
  });
  all.resize(k);
  if (!store_excluded_[origin.value()] &&
      std::find(all.begin(), all.end(), origin) == all.end())
    all.push_back(origin);
  return all;
}

std::vector<std::size_t> ModelBuilder::candidate_machines(
    JobId k, const std::vector<StoreId>& stores) const {
  // Candidate machines for job k given its candidate store set: the K with
  // the lowest execution-plus-best-transfer cost per unit of the job.
  const std::size_t nm = c_.machine_count();
  std::vector<std::size_t> all;
  all.reserve(nm);
  for (std::size_t l = 0; l < nm; ++l)
    if (!machine_excluded_[l]) all.push_back(l);
  const std::size_t kk = opt_.max_candidate_machines;
  if (kk == 0 || kk >= all.size()) return all;
  const CpuSeconds cpu = CpuSeconds::ecu_s(w_.job_cpu_ecu_s(k));
  const Bytes input = Bytes::mb(w_.job_input_mb(k));
  auto unit_cost = [&](std::size_t l) {
    McPerMb best_ms = McPerMb::zero();
    if (input > Bytes::zero() && !stores.empty()) {
      best_ms = McPerMb::infinity();
      for (StoreId s : stores)
        best_ms = std::min(best_ms, c_.ms_cost_mc_per_mb(MachineId{l}, s));
    }
    return cpu * price_mc(l) + input * best_ms;
  };
  std::stable_sort(all.begin(), all.end(), [&](std::size_t a, std::size_t b) {
    return unit_cost(a) < unit_cost(b);
  });
  all.resize(kk);
  return all;
}

ModelBuilder::JobCost ModelBuilder::job_cost(JobId k) const {
  JobCost cost{CpuSeconds::ecu_s(w_.job_cpu_ecu_s(k)), {}};
  const workload::Job& job = w_.job(k);
  cost.reads.reserve(job.data.size());
  for (std::size_t di = 0; di < job.data.size(); ++di)
    cost.reads.emplace_back(w_.job_access_fraction(k, di),
                            Bytes::mb(w_.data(job.data[di]).size_mb));
  return cost;
}

Millicents ModelBuilder::task_coeff_mc(const JobCost& job, std::size_t l,
                                       std::optional<StoreId> s) const {
  // Objective (7) + (8): execution plus runtime reads, with traffic scaled
  // by the JD access fraction (partial accesses, paper §III).
  Millicents coeff = job.cpu * price_mc(l);
  if (s) {
    const McPerMb ms = c_.ms_cost_mc_per_mb(MachineId{l}, *s);
    for (const auto& [fraction, size] : job.reads) coeff += ms * fraction * size;
  }
  return coeff;
}

Millicents ModelBuilder::placement_bound_mc(JobId k, StoreId s) const {
  // Patience floor: the true cost of an (l, s) option includes the x^d
  // placement the linking row (13) forces. Charge the full O(i)->s move as
  // an upper bound (it may be shared with other readers in the actual LP);
  // overestimating only makes F dearer, which is the livelock-safe direction.
  Millicents total = Millicents::zero();
  for (DataId d : w_.job(k).data)
    total += c_.ss_cost_mc_per_mb(origin_of(d), s) *
             Bytes::mb(w_.data(d).size_mb);
  return total;
}

Millicents ModelBuilder::fake_coeff_mc(JobId k,
                                       Millicents min_real_coeff) const {
  // Fake node: F absorbs work this epoch cannot (or should not) buy.
  // ProhibitiveMax prices it off the charts (paper-literal feasibility
  // device); PatienceMin prices it just above the job's cheapest real
  // option (§V-B non-greedy patience — see ModelOptions).
  const CpuSeconds cpu = CpuSeconds::ecu_s(w_.job_cpu_ecu_s(k));
  Millicents fake_coeff = cpu * fake_price_mc_;
  if (opt_.fake_node_pricing == ModelOptions::FakeNodePricing::PatienceMin &&
      min_real_coeff.finite()) {
    fake_coeff = std::max(opt_.fake_node_price_factor, 1.01) * min_real_coeff;
    // A zero-cost best option (free machine, free link) must still be
    // preferred over deferral.
    if (fake_coeff <= Millicents::zero()) fake_coeff = Millicents::mc(1e-6);
  }
  return fake_coeff;
}

Millicents ModelBuilder::data_coeff_mc(DataId i, StoreId j) const {
  // Objective term (6): moving the portion from O(i) costs SS_{O(i) j} per
  // MB of the portion. (The paper's (6) omits the Size factor; we include
  // it for dimensional consistency with terms (7)–(8) — a pure-fraction
  // cost would make placement of a 6 GB object as cheap as a 6 MB one.)
  return c_.ss_cost_mc_per_mb(origin_of(i), j) *
         Bytes::mb(w_.data(i).size_mb);
}

void ModelBuilder::build(const FixedPlacement* fixed, lp::LpModel& model,
                         ModelLayout& layout) const {
  const bool co_schedule = (fixed == nullptr);

  // ---- x^d variables (co-scheduling only). ----------------------------
  // dvar_index[(i, j)] -> lp var
  std::unordered_map<std::size_t, std::size_t> dvar_index;
  auto dkey = [this](DataId i, StoreId j) {
    return i.value() * c_.store_count() + j.value();
  };
  std::vector<DataVar>& dvars = layout.dvars;
  // Only data objects accessed by the scheduled jobs participate: an
  // epoch/level solve must not place (or constrain capacity with) data
  // belonging to jobs outside the subset.
  std::vector<bool> active(w_.data_count(), false);
  for (JobId k : jobs_)
    for (DataId d : w_.job(k).data) active[d.value()] = true;
  // Per-data candidate store sets (extended below by job unions).
  std::vector<std::vector<StoreId>> data_stores(w_.data_count());
  if (co_schedule) {
    for (std::size_t i = 0; i < w_.data_count(); ++i)
      if (active[i]) data_stores[i] = candidate_stores(DataId{i});
    // A job reading multiple objects needs every object present on the
    // store it reads from; union the candidate sets over each job's data.
    for (JobId k : jobs_) {
      const workload::Job& job = w_.job(k);
      if (job.data.size() < 2) continue;
      std::set<std::size_t> uni;  // ordered: iteration fixes LP column order
      for (DataId d : job.data)
        for (StoreId s : data_stores[d.value()]) uni.insert(s.value());
      for (DataId d : job.data) {
        auto& ds = data_stores[d.value()];
        for (std::size_t s : uni)
          if (std::find(ds.begin(), ds.end(), StoreId{s}) == ds.end())
            ds.push_back(StoreId{s});
      }
    }
    for (std::size_t i = 0; i < w_.data_count(); ++i) {
      if (!active[i]) continue;
      for (StoreId j : data_stores[i]) {
        const std::size_t v = model.add_variable(
            0.0, 1.0, data_coeff_mc(DataId{i}, j).mc());
        dvar_index.emplace(dkey(DataId{i}, j), v);
        dvars.push_back(DataVar{v, DataId{i}, j});
      }
    }
  } else {
    // Fig. 2: placement is a constant; remember fractions per (i, j).
    LIPS_REQUIRE(fixed->size() == w_.data_count(),
                 "fixed placement must cover every data object");
    for (std::size_t i = 0; i < w_.data_count(); ++i) {
      for (const DataPlacement& p : (*fixed)[i]) {
        LIPS_REQUIRE(p.data.value() == i, "placement row mislabeled");
        data_stores[i].push_back(p.store);
      }
    }
  }
  auto fixed_fraction = [&](DataId i, StoreId j) -> double {
    for (const DataPlacement& p : (*fixed)[i.value()])
      if (p.store == j) return p.fraction;
    return 0.0;
  };

  // ---- x^t variables. ---------------------------------------------------
  std::vector<TaskVar>& tvars = layout.tvars;
  // Per job: the candidate (machine, store) grid.
  std::vector<std::vector<StoreId>> job_stores(jobs_.size());
  std::vector<std::vector<std::size_t>> job_machines(jobs_.size());
  // Job kq's variables are tvars[first_tvar[kq], first_tvar[kq + 1]).
  std::vector<std::size_t> first_tvar(jobs_.size() + 1, 0);
  for (std::size_t kq = 0; kq < jobs_.size(); ++kq) {
    const JobId k = jobs_[kq];
    const workload::Job& job = w_.job(k);
    first_tvar[kq] = tvars.size();

    // Store set the job may read from: intersection across accessed data
    // (equal to each object's extended candidate set after the union pass
    // in co-scheduling; for Fig. 2, stores hosting a positive fraction of
    // every accessed object).
    std::vector<StoreId> stores;
    if (!job.data.empty()) {
      stores = data_stores[job.data.front().value()];
      for (std::size_t di = 1; di < job.data.size(); ++di) {
        const auto& other = data_stores[job.data[di].value()];
        std::erase_if(stores, [&](StoreId s) {
          return std::find(other.begin(), other.end(), s) == other.end();
        });
      }
    }
    job_stores[kq] = stores;
    job_machines[kq] = candidate_machines(k, stores);
    const JobCost cost = job_cost(k);

    // The patience floor's placement surcharge depends on the store only.
    std::vector<Millicents> bound_of_store;
    if (co_schedule) {
      bound_of_store.reserve(stores.size());
      for (StoreId s : stores)
        bound_of_store.push_back(placement_bound_mc(k, s));
    }
    Millicents min_real_coeff = Millicents::infinity();
    for (std::size_t l : job_machines[kq]) {
      if (job.data.empty()) {
        // Input-free job: one variable per machine, objective (7) only.
        const Millicents exec_mc = task_coeff_mc(cost, l, std::nullopt);
        const std::size_t v = model.add_variable(0.0, 1.0, exec_mc.mc());
        tvars.push_back(TaskVar{v, k, l, std::nullopt});
        min_real_coeff = std::min(min_real_coeff, exec_mc);
      } else {
        for (std::size_t si = 0; si < stores.size(); ++si) {
          const StoreId s = stores[si];
          const Millicents coeff = task_coeff_mc(cost, l, s);
          const std::size_t v = model.add_variable(0.0, 1.0, coeff.mc());
          tvars.push_back(TaskVar{v, k, l, s});
          Millicents total = coeff;
          if (co_schedule) total += bound_of_store[si];
          min_real_coeff = std::min(min_real_coeff, total);
        }
      }
    }
    if (opt_.fake_node) {
      const std::size_t v =
          model.add_variable(0.0, 1.0, fake_coeff_mc(k, min_real_coeff).mc());
      tvars.push_back(TaskVar{v, k, kFakeNode, std::nullopt});
    }
  }

  first_tvar[jobs_.size()] = tvars.size();

  // Index tvars per job for constraint assembly: each job's variables go to
  // the job's last position in the subset.
  std::vector<std::vector<std::size_t>>& tvars_of_job = layout.tvars_of_job;
  tvars_of_job.assign(jobs_.size(), {});
  std::unordered_map<std::size_t, std::size_t> job_pos;
  job_pos.reserve(jobs_.size());
  for (std::size_t kq = 0; kq < jobs_.size(); ++kq)
    job_pos[jobs_[kq].value()] = kq;
  for (std::size_t kq = 0; kq < jobs_.size(); ++kq) {
    std::vector<std::size_t>& ids = tvars_of_job[job_pos.at(jobs_[kq].value())];
    for (std::size_t t = first_tvar[kq]; t < first_tvar[kq + 1]; ++t)
      ids.push_back(t);
  }

  auto add_row = [&](std::span<const lp::Entry> row, lp::Sense sense,
                     double rhs, RowKey key) {
    model.add_constraint(row, sense, rhs);
    layout.rows.push_back(key);
  };

  // ---- Constraint (9)/(19): every data object fully placed. ------------
  if (co_schedule) {
    for (std::size_t i = 0; i < w_.data_count(); ++i) {
      if (!active[i]) continue;
      std::vector<lp::Entry> row;
      row.reserve(data_stores[i].size());
      for (StoreId j : data_stores[i])
        row.push_back({dvar_index.at(dkey(DataId{i}, j)), 1.0});
      add_row(row, lp::Sense::GreaterEqual, 1.0,
              RowKey{RowKey::Kind::DataPlace, i});
    }
  }

  // ---- Constraint (10)/(2)/(20): every job fully scheduled. -------------
  for (std::size_t kq = 0; kq < jobs_.size(); ++kq) {
    std::vector<lp::Entry> row;
    row.reserve(tvars_of_job[kq].size());
    for (std::size_t t : tvars_of_job[kq]) row.push_back({tvars[t].lp_var, 1.0});
    add_row(row, lp::Sense::GreaterEqual, remaining_[kq],
            RowKey{RowKey::Kind::Job, jobs_[kq].value()});
  }

  // ---- Constraint (11)/(22): store capacity. ----------------------------
  if (co_schedule) {
    std::vector<std::vector<lp::Entry>> cap_rows(c_.store_count());
    for (const DataVar& dv : dvars) {
      cap_rows[dv.store.value()].push_back(
          {dv.lp_var, w_.data(dv.data).size_mb});
    }
    for (std::size_t j = 0; j < c_.store_count(); ++j) {
      if (cap_rows[j].empty()) continue;
      add_row(cap_rows[j], lp::Sense::LessEqual,
              c_.store(StoreId{j}).capacity_mb,
              RowKey{RowKey::Kind::StoreCap, j});
    }
  }

  // ---- Constraint (4)/(12)/(23): machine CPU capacity. ------------------
  {
    std::vector<std::vector<lp::Entry>> cpu_rows(c_.machine_count());
    for (std::size_t kq = 0; kq < jobs_.size(); ++kq) {
      const CpuSeconds demand = job_capacity_demand_ecu_s(w_, jobs_[kq]);
      for (std::size_t t : tvars_of_job[kq]) {
        if (tvars[t].machine == kFakeNode) continue;  // F: unlimited CPU
        cpu_rows[tvars[t].machine].push_back({tvars[t].lp_var, demand.ecu_s()});
      }
    }
    for (std::size_t l = 0; l < c_.machine_count(); ++l) {
      if (cpu_rows[l].empty()) continue;
      add_row(cpu_rows[l], lp::Sense::LessEqual,
              machine_capacity_ecu_s(MachineId{l}).ecu_s(),
              RowKey{RowKey::Kind::MachineCpu, l});
    }
  }

  // ---- Constraint (21): per-(job, machine) epoch transfer time. ----------
  if (opt_.epoch_s > 0) {
    // Rows in machine order: constraint-row order feeds the simplex pivot
    // sequence, so it must not depend on anything but the structure.
    std::vector<std::vector<lp::Entry>> rows(c_.machine_count());
    for (std::size_t kq = 0; kq < jobs_.size(); ++kq) {
      const workload::Job& job = w_.job(jobs_[kq]);
      if (job.data.empty()) continue;
      const Bytes input = Bytes::mb(w_.job_input_mb(jobs_[kq]));
      for (std::size_t l : job_machines[kq])
        rows[l].reserve(job_stores[kq].size());
      for (std::size_t t : tvars_of_job[kq]) {
        const TaskVar& tv = tvars[t];
        if (tv.machine == kFakeNode || !tv.store) continue;
        const BytesPerSec bw =
            c_.bandwidth_mb_s(MachineId{tv.machine}, *tv.store);
        const Seconds transfer = input / bw;
        rows[tv.machine].push_back({tv.lp_var, transfer.secs()});
      }
      for (std::size_t l = 0; l < rows.size(); ++l) {
        if (rows[l].empty()) continue;
        add_row(rows[l], lp::Sense::LessEqual, opt_.epoch_s,
                RowKey{RowKey::Kind::Bandwidth, jobs_[kq].value(), l});
        rows[l].clear();
      }
    }
  }

  // ---- Constraint (13)/(3)/(24): reads require presence. ----------------
  // One pass over a job's task variables gathers Σ_l x^t_{k l s} for every
  // store s at once: `slot_of_store` gives each store the bucket of its
  // first place in the job's store list, and a bucket keeps the variables
  // in their column order.
  std::vector<std::size_t> slot_of_store(c_.store_count(), SIZE_MAX);
  std::vector<std::vector<lp::Entry>> reads;
  std::vector<lp::Entry> row;
  for (std::size_t kq = 0; kq < jobs_.size(); ++kq) {
    const workload::Job& job = w_.job(jobs_[kq]);
    if (job.data.empty()) continue;
    const std::vector<StoreId>& stores = job_stores[kq];
    if (reads.size() < stores.size()) reads.resize(stores.size());
    for (std::size_t si = 0; si < stores.size(); ++si) {
      std::size_t& slot = slot_of_store[stores[si].value()];
      if (slot == SIZE_MAX) slot = si;
      reads[si].clear();
      reads[si].reserve(job_machines[kq].size());
    }
    for (std::size_t t : tvars_of_job[kq])
      if (tvars[t].store)
        reads[slot_of_store[tvars[t].store->value()]].push_back(
            {tvars[t].lp_var, 1.0});
    for (StoreId s : stores) {
      const std::vector<lp::Entry>& lhs = reads[slot_of_store[s.value()]];
      if (lhs.empty()) continue;
      for (DataId i : job.data) {
        const RowKey key{RowKey::Kind::Linking, jobs_[kq].value(), s.value(),
                         i.value()};
        if (co_schedule) {
          auto it = dvar_index.find(dkey(i, s));
          LIPS_ASSERT(it != dvar_index.end(),
                      "job candidate store missing data variable");
          row.assign(lhs.begin(), lhs.end());
          row.push_back({it->second, -1.0});
          add_row(row, lp::Sense::LessEqual, 0.0, key);
        } else {
          add_row(lhs, lp::Sense::LessEqual, fixed_fraction(i, s), key);
        }
      }
    }
    for (StoreId s : stores) slot_of_store[s.value()] = SIZE_MAX;
  }

  layout.num_variables = model.num_variables();
}

void ModelBuilder::apply_numeric(lp::LpModel& model,
                                 const ModelLayout& layout) const {
  LIPS_REQUIRE(model.num_variables() == layout.num_variables &&
                   model.num_constraints() == layout.rows.size(),
               "layout does not describe this model");

  // Objective: x^d placement costs move with the effective origins.
  for (const DataVar& dv : layout.dvars)
    model.set_objective(dv.lp_var, data_coeff_mc(dv.data, dv.store).mc());

  // Objective: x^t costs move with spot prices; the fake-node patience
  // floor moves with the job's cheapest real option. Iteration order per
  // job matches build(), so min_real_coeff accumulates identically.
  // The placement surcharge of each (job, store) is computed once.
  std::vector<Millicents> bound_of_store(c_.store_count());
  std::vector<char> bound_known(c_.store_count(), false);
  for (std::size_t kq = 0; kq < jobs_.size(); ++kq) {
    const JobCost cost = job_cost(jobs_[kq]);
    Millicents min_real_coeff = Millicents::infinity();
    std::size_t fake_var = SIZE_MAX;
    std::fill(bound_known.begin(), bound_known.end(), false);
    for (std::size_t t : layout.tvars_of_job[kq]) {
      const TaskVar& tv = layout.tvars[t];
      if (tv.machine == kFakeNode) {
        fake_var = tv.lp_var;
        continue;
      }
      const Millicents coeff = task_coeff_mc(cost, tv.machine, tv.store);
      model.set_objective(tv.lp_var, coeff.mc());
      Millicents total = coeff;
      if (tv.store) {
        const std::size_t s = tv.store->value();
        if (!bound_known[s]) {
          bound_of_store[s] = placement_bound_mc(tv.job, *tv.store);
          bound_known[s] = true;
        }
        total += bound_of_store[s];
      }
      min_real_coeff = std::min(min_real_coeff, total);
    }
    if (fake_var != SIZE_MAX)
      model.set_objective(fake_var,
                          fake_coeff_mc(jobs_[kq], min_real_coeff).mc());
  }

  // Row RHS: remaining fractions and throughput-scaled CPU budgets are the
  // per-epoch movers; the rest are reasserted for robustness.
  std::unordered_map<std::size_t, std::size_t> job_pos;
  for (std::size_t kq = 0; kq < jobs_.size(); ++kq)
    job_pos[jobs_[kq].value()] = kq;
  for (std::size_t i = 0; i < layout.rows.size(); ++i) {
    const RowKey& key = layout.rows[i];
    switch (key.kind) {
      case RowKey::Kind::DataPlace:
        model.set_rhs(i, 1.0);
        break;
      case RowKey::Kind::Job:
        model.set_rhs(i, remaining_[job_pos.at(key.a)]);
        break;
      case RowKey::Kind::StoreCap:
        model.set_rhs(i, c_.store(StoreId{key.a}).capacity_mb);
        break;
      case RowKey::Kind::MachineCpu:
        model.set_rhs(i, machine_capacity_ecu_s(MachineId{key.a}).ecu_s());
        break;
      case RowKey::Kind::Bandwidth:
        model.set_rhs(i, opt_.epoch_s);
        break;
      case RowKey::Kind::Linking:
        model.set_rhs(i, 0.0);  // co-scheduling form only
        break;
    }
  }
}

LpSchedule ModelBuilder::decode(const lp::LpSolution& sol,
                                const ModelLayout& layout) const {
  LpSchedule sched;
  sched.lp_variables = layout.num_variables;
  sched.lp_constraints = layout.rows.size();
  sched.status = sol.status;
  sched.lp_iterations = sol.iterations;
  if (!sol.optimal()) return sched;
  sched.objective_mc = Millicents::mc(sol.objective);

  constexpr double kEps = 1e-9;
  sched.deferred_fraction.assign(jobs_.size(), 0.0);
  for (const DataVar& dv : layout.dvars) {
    const double f = sol.values[dv.lp_var];
    if (f > kEps) {
      sched.placements.push_back(DataPlacement{dv.data, dv.store, f});
      sched.placement_transfer_mc +=
          f * c_.ss_cost_mc_per_mb(origin_of(dv.data), dv.store) *
          Bytes::mb(w_.data(dv.data).size_mb);
    }
  }
  for (std::size_t kq = 0; kq < jobs_.size(); ++kq) {
    const JobId k = jobs_[kq];
    const CpuSeconds cpu = CpuSeconds::ecu_s(w_.job_cpu_ecu_s(k));
    for (std::size_t t : layout.tvars_of_job[kq]) {
      const TaskVar& tv = layout.tvars[t];
      const double f = sol.values[tv.lp_var];
      if (f <= kEps) continue;
      if (tv.machine == kFakeNode) {
        sched.deferred_fraction[kq] += f;
        continue;
      }
      sched.portions.push_back(
          TaskPortion{k, MachineId{tv.machine}, tv.store, f});
      sched.execution_mc += f * cpu * price_mc(tv.machine);
      if (tv.store) {
        const workload::Job& job = w_.job(k);
        for (std::size_t di = 0; di < job.data.size(); ++di)
          sched.runtime_transfer_mc +=
              f * c_.ms_cost_mc_per_mb(MachineId{tv.machine}, *tv.store) *
              w_.job_access_fraction(k, di) *
              Bytes::mb(w_.data(job.data[di]).size_mb);
      }
    }
  }
  return sched;
}

LpSchedule ModelBuilder::run(const FixedPlacement* fixed) const {
  lp::LpModel model;
  ModelLayout layout;
  build(fixed, model, layout);
  const lp::LpSolution sol = lp::solve(model, nullptr, opt_.fault_injector);
  LpSchedule sched = decode(sol, layout);
  sched.certified = certify_solution(model, sol, opt_.fault_injector);
  return sched;
}

}  // namespace detail

CpuSeconds job_capacity_demand_ecu_s(const workload::Workload& w, JobId k) {
  // Constraint (4)/(12)/(23) LHS per unit fraction. The paper writes
  // Σ x^t · TCP(k) · Size(D_i); input-free jobs contribute their fixed CPU.
  return CpuSeconds::ecu_s(w.job_cpu_ecu_s(k));
}

LpSchedule solve_offline_simple(const cluster::Cluster& cluster,
                                const workload::Workload& workload,
                                const FixedPlacement& placement,
                                const ModelOptions& options) {
  ModelOptions opts = options;
  LIPS_REQUIRE(opts.epoch_s == 0.0,
               "offline simple model has no epoch; use solve_co_scheduling");
  LIPS_REQUIRE(!opts.fake_node, "offline simple model has no fake node");
  detail::ModelBuilder builder(cluster, workload, opts, {}, {});
  return builder.run(&placement);
}

LpSchedule solve_co_scheduling(const cluster::Cluster& cluster,
                               const workload::Workload& workload,
                               const ModelOptions& options,
                               const JobSubset& jobs,
                               const std::vector<double>& remaining_fraction,
                               const std::vector<StoreId>& effective_origins) {
  detail::ModelBuilder builder(cluster, workload, options, jobs,
                               remaining_fraction, effective_origins);
  return builder.run(nullptr);
}

}  // namespace lips::core
