#include "core/lips_policy.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "core/schedule_validator.hpp"
#include "lp/solver_faults.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lips::core {

namespace {

/// Throughput feedback quarantines a live machine whose observed throughput
/// sits below kQuarantineBelow, and lets it back in as a probe on every
/// kQuarantineProbeEvery-th consecutive quarantined replan.
constexpr double kQuarantineBelow = 0.4;
constexpr std::size_t kQuarantineProbeEvery = 4;

const char* rung_label(LipsPolicy::DegradationRung rung) {
  switch (rung) {
    case LipsPolicy::DegradationRung::Primary:
      return "primary";
    case LipsPolicy::DegradationRung::ColdRebuild:
      return "cold_rebuild";
    case LipsPolicy::DegradationRung::GreedyFallback:
      return "greedy_fallback";
    case LipsPolicy::DegradationRung::ReuseLastPlan:
      return "reuse_last_plan";
  }
  return "unknown";
}

const char* rung_instant_name(LipsPolicy::DegradationRung rung) {
  switch (rung) {
    case LipsPolicy::DegradationRung::Primary:
      return "lips-degradation-primary";
    case LipsPolicy::DegradationRung::ColdRebuild:
      return "lips-degradation-cold-rebuild";
    case LipsPolicy::DegradationRung::GreedyFallback:
      return "lips-degradation-greedy-fallback";
    case LipsPolicy::DegradationRung::ReuseLastPlan:
      return "lips-degradation-reuse-last-plan";
  }
  return "lips-degradation";
}

}  // namespace

LipsPolicy::LipsPolicy(LipsPolicyOptions options) : options_(options) {
  LIPS_REQUIRE(options_.epoch_s > 0, "LiPS policy needs a positive epoch");
  options_.model.epoch_s = options_.epoch_s;
  options_.model.fake_node = true;  // overflow work waits for the next epoch
}

void LipsPolicy::on_epoch(const sched::ClusterState& state) { replan(state); }

template <class Ar, class Self>
void LipsPolicy::fields(Ar& ar, Self& self) {
  const auto plan = [](auto& a, auto& queue) {
    a(ckpt::seq(queue, [](auto& b, auto& pt) {
      b(pt.task, pt.store, ckpt::seq(pt.gates));
    }));
  };
  const auto gate = [](auto& a, auto& g) {
    a(g.data, g.store, g.required_fraction);
  };
  ar(ckpt::seq(self.plan_, plan), ckpt::seq(self.gates_, gate),
     ckpt::seq(self.moves_,
               [](auto& a, auto& mv) {
                 a(mv.data, mv.from, mv.to, mv.fraction);
               }),
     ckpt::sorted(self.doomed_), ckpt::sorted(self.quarantine_age_),
     ckpt::state(self.lp_context_),
     self.off_cycle_resolves_, self.quarantine_exclusions_,
     self.quarantine_probes_, self.planned_cost_mc_, self.fake_node_carry_mc_,
     self.rung_counts_, self.schedules_validated_, self.validation_failures_,
     self.certificate_failures_, self.solver_exceptions_,
     ckpt::seq(self.last_good_plan_, plan),
     ckpt::seq(self.last_good_gates_, gate),
     ckpt::section(self.options_.model.fault_injector,
                   "snapshot carries solver-fault-injector state but the "
                   "restored policy has no injector installed"));
}

void LipsPolicy::save_state(ckpt::Writer& w) const { fields(w, *this); }

void LipsPolicy::load_state(ckpt::Reader& r) {
  fields(r, *this);
  // A CRC-valid payload can still pin a task behind a gate past the end of
  // its gate list, which on_slot_available would read.
  const auto gates_exist = [](const std::vector<std::deque<PinnedTask>>& plan,
                              const std::vector<Gate>& gates) {
    for (const auto& queue : plan)
      for (const PinnedTask& pt : queue)
        for (const std::size_t gi : pt.gates)
          if (gi >= gates.size()) return false;
    return true;
  };
  if (!gates_exist(plan_, gates_) ||
      !gates_exist(last_good_plan_, last_good_gates_))
    throw ckpt::SnapshotError("snapshot pin names a gate that does not exist");
}

void LipsPolicy::on_machine_lost(MachineId machine,
                                 const sched::ClusterState& state) {
  doomed_.erase(machine.value());  // the warning, if any, has played out
  off_cycle_resolves_ += 1;
  replan(state);
}

void LipsPolicy::on_machine_restored(MachineId machine,
                                     const sched::ClusterState& state) {
  (void)machine;
  off_cycle_resolves_ += 1;
  replan(state);
}

void LipsPolicy::on_store_lost(StoreId store,
                               const sched::ClusterState& state) {
  (void)store;
  off_cycle_resolves_ += 1;
  replan(state);
}

void LipsPolicy::on_spot_warning(MachineId machine, double revoke_time_s,
                                 const sched::ClusterState& state) {
  (void)revoke_time_s;
  doomed_.insert(machine.value());
  off_cycle_resolves_ += 1;
  replan(state);
}

void LipsPolicy::replan(const sched::ClusterState& state) {
  lp_context_.set_observer(obs_);
  const obs::Span span(obs_.tracer, "lips-replan", "sched");
  if (obs_.metrics != nullptr)
    obs_.metrics->counter("lips_policy_replans_total").inc();
  const cluster::Cluster& c = state.cluster();
  const workload::Workload& w = state.workload();

  plan_.assign(c.machine_count(), {});
  gates_.clear();
  moves_.clear();

  // 1. Queue snapshot: pending task ids grouped by job, jobs in id order and
  // each job's ids in pending (FIFO) order. Job subset[g]'s ids are
  // queue[group_begin[g], group_end[g]); pinning takes them from the end.
  std::vector<std::pair<std::size_t, std::size_t>> queue;  // (job, task id)
  queue.reserve(state.pending().size());
  for (const std::size_t id : state.pending())
    queue.emplace_back(state.task(id).job.value(), id);
  if (queue.empty()) return;
  std::stable_sort(queue.begin(), queue.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });

  JobSubset subset;
  std::vector<double> remaining;
  std::vector<std::size_t> group_begin;
  std::vector<std::size_t> group_end;
  for (std::size_t begin = 0, end = 0; begin < queue.size(); begin = end) {
    while (end < queue.size() && queue[end].first == queue[begin].first) ++end;
    const JobId job{queue[begin].first};
    subset.push_back(job);
    remaining.push_back(static_cast<double>(end - begin) /
                        static_cast<double>(w.job(job).num_tasks));
    group_begin.push_back(begin);
    group_end.push_back(end);
  }

  // 2. Solve the online LP over the queue, pricing placement from where
  // each object actually is now (earlier epochs' moves are sunk cost and
  // must not be charged again): the effective origin of an object is the
  // store currently holding its largest fraction, ties to the original.
  std::vector<StoreId> origins(w.data_count());
  for (std::size_t i = 0; i < w.data_count(); ++i) {
    StoreId best = w.data(DataId{i}).origin;
    double best_fraction = state.stored_fraction(DataId{i}, best);
    for (std::size_t sid = 0; sid < c.store_count(); ++sid) {
      const double f = state.stored_fraction(DataId{i}, StoreId{sid});
      if (f > best_fraction + 1e-12) {
        best_fraction = f;
        best = StoreId{sid};
      }
    }
    origins[i] = best;
  }

  ModelOptions model = options_.model;
  model.price_time = state.now();  // honor spot-price schedules
  // Down machines cannot run work and spot-warned ones are about to die;
  // wiped stores must not be chosen as placement targets. Straggler
  // feedback can add further exclusions (quarantine) on top.
  std::vector<char> excluded(c.machine_count(), false);
  for (std::size_t m = 0; m < c.machine_count(); ++m)
    if (!state.machine_up(MachineId{m}) || doomed_.count(m) > 0)
      excluded[m] = true;
  if (options_.throughput_feedback)
    apply_throughput_feedback(state, model, excluded);
  for (std::size_t m = 0; m < c.machine_count(); ++m)
    if (excluded[m]) model.excluded_machines.push_back(m);
  for (std::size_t s = 0; s < c.store_count(); ++s)
    if (!state.store_up(StoreId{s})) model.excluded_stores.push_back(s);
  // Graceful-degradation ladder (DESIGN.md §10): walk the LP rungs in order
  // until one produces a schedule that solves, carries its KKT certificate
  // and passes the independent validation gate. Primary is the incremental
  // epoch solve (model reuse + warm basis); ColdRebuild first drops the
  // cached model and basis, so a stale or corrupted warm state cannot poison
  // it. On a healthy pipeline Primary is the only rung ever entered.
  register_resilience_metrics();
  LpSchedule lp;
  bool accepted = false;
  for (const DegradationRung rung :
       {DegradationRung::Primary, DegradationRung::ColdRebuild}) {
    enter_rung(rung);
    if (rung == DegradationRung::ColdRebuild) lp_context_.invalidate();
    LpSchedule attempt;
    try {
      attempt = lp_context_.solve(c, w, model, subset, remaining, origins);
    } catch (const std::exception&) {
      // A long-running planner must degrade, not die: a pivot blow-up under
      // a corrupted model is one more reason to take the next rung.
      solver_exceptions_ += 1;
      continue;
    }
    if (!attempt.optimal()) continue;
    if (!attempt.certified) {
      // Optimal for some model, but not provably for this one (injected
      // corruption made the engine solve another): never act on it.
      certificate_failures_ += 1;
      if (obs_.metrics != nullptr)
        obs_.metrics->counter("lips_lp_certificate_failures_total").inc();
      continue;
    }
    const ValidationReport verdict = [&] {
      const obs::Span validate_span(obs_.tracer, "lips-validate", "sched");
      return validate_schedule(c, w, model, attempt, subset, remaining,
                               origins);
    }();
    schedules_validated_ += 1;
    if (!verdict.ok) {
      // A "successful" solve that decodes to garbage: reject it before the
      // simulator bills a single millicent of it.
      validation_failures_ += 1;
      if (obs_.metrics != nullptr)
        obs_.metrics->counter("lips_schedule_validation_failures_total").inc();
      if (obs_.tracer != nullptr && obs_.tracer->enabled())
        obs_.tracer->instant("lips-validation-failure", "sched");
      continue;
    }
    lp = std::move(attempt);
    accepted = true;
    break;
  }
  if (!accepted) {
    // Every LP rung failed (e.g. genuinely Infeasible — the fake node keeps
    // the machine side feasible, but the surviving stores may not hold the
    // queue's data). Fall back to a greedy plan so work keeps draining.
    enter_rung(DegradationRung::GreedyFallback);
    fallback_plan(state, excluded);
    bool any_pin = false;
    for (const auto& queue : plan_)
      if (!queue.empty()) any_pin = true;
    if (!any_pin && !last_good_plan_.empty() &&
        last_good_plan_.size() == plan_.size()) {
      // Greedy produced nothing runnable but an earlier epoch's validated
      // plan exists — restore its pins and gates. Pins whose tasks already
      // ran are dropped at launch time (is_pending check).
      enter_rung(DegradationRung::ReuseLastPlan);
      plan_ = last_good_plan_;
      gates_ = last_good_gates_;
    }
    return;
  }

  // 3. Round to whole tasks.
  const RoundedSchedule rounded = round_schedule(c, w, lp);
  planned_cost_mc_ += rounded.cost_mc;

  // The LP objective includes the fake node F's deferral coefficients; the
  // decoded breakdown sums only real variables. The difference is the
  // modeled cost of work this plan pushed past the epoch boundary.
  const Millicents fake_carry = lp.objective_mc - lp.placement_transfer_mc -
                                lp.execution_mc - lp.runtime_transfer_mc;
  fake_node_carry_mc_ += fake_carry;
  if (obs_.ledger != nullptr)
    obs_.ledger->post(obs::CostMeter::FakeNodeCarry, fake_carry);

  // 4/5. Pin tasks and derive the data moves the plan depends on.
  // Required presence per (data, store) = total fraction read there this
  // epoch (clamped to 1; moves are modeled as replication).
  std::map<std::pair<std::size_t, std::size_t>, double> required;
  for (const TaskBundle& b : rounded.bundles) {
    if (!b.store) continue;
    for (const DataId d : w.job(b.job).data)
      required[{d.value(), b.store->value()}] += b.fraction;
  }
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> gate_of;
  for (auto& [key, frac] : required) {
    frac = std::min(frac, 1.0);
    const DataId d{key.first};
    const StoreId s{key.second};
    const double present = state.stored_fraction(d, s);
    if (present + 1e-9 >= frac) continue;  // already satisfied: no gate
    // Cover the shortfall from wherever the data is. Ordinary objects have
    // a full copy at their (effective) origin; intermediate shuffle data is
    // spread over the producer's machines, so several sources may be
    // needed. The gate is clamped to what is actually reachable.
    double shortfall = frac - present;
    std::vector<std::pair<double, std::size_t>> sources;
    for (std::size_t sid = 0; sid < c.store_count(); ++sid) {
      if (sid == s.value()) continue;
      const double f = state.stored_fraction(d, StoreId{sid});
      if (f > 1e-12) sources.emplace_back(f, sid);
    }
    std::sort(sources.begin(), sources.end(),
              [&](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    // Prefer the effective origin first (ties in the LP's favor).
    std::stable_partition(sources.begin(), sources.end(), [&](const auto& p) {
      return p.second == origins[d.value()].value();
    });
    double covered = present;
    for (const auto& [avail, sid] : sources) {
      if (shortfall <= 1e-9) break;
      const double amount = std::min(shortfall, avail);
      moves_.push_back(sched::DataMove{d, StoreId{sid}, s, amount});
      shortfall -= amount;
      covered += amount;
    }
    gate_of[key] = gates_.size();
    gates_.push_back(Gate{d, s, std::min(frac, covered)});
  }

  for (const TaskBundle& b : rounded.bundles) {
    const auto job_it = std::lower_bound(subset.begin(), subset.end(), b.job);
    if (job_it == subset.end() || *job_it != b.job) continue;
    const auto g = static_cast<std::size_t>(job_it - subset.begin());
    std::vector<std::size_t> gates;
    if (b.store) {
      for (const DataId d : w.job(b.job).data) {
        const auto it = gate_of.find({d.value(), b.store->value()});
        if (it != gate_of.end()) gates.push_back(it->second);
      }
    }
    for (std::size_t t = 0; t < b.tasks && group_end[g] > group_begin[g];
         ++t) {
      const std::size_t id = queue[--group_end[g]].second;
      plan_[b.machine.value()].push_back(PinnedTask{id, b.store, gates});
    }
  }

  // This plan solved and validated: snapshot its pins and gates as the
  // ladder's last resort (ReuseLastPlan).
  last_good_plan_ = plan_;
  last_good_gates_ = gates_;
}

void LipsPolicy::enter_rung(DegradationRung rung) {
  rung_counts_[static_cast<std::size_t>(rung)] += 1;
  if (rung == DegradationRung::Primary) return;  // healthy path, not counted
  if (obs_.metrics != nullptr)
    obs_.metrics
        ->counter("lips_degradation_total", {{"rung", rung_label(rung)}})
        .inc();
  if (obs_.tracer != nullptr && obs_.tracer->enabled())
    obs_.tracer->instant(rung_instant_name(rung), "sched");
}

void LipsPolicy::register_resilience_metrics() {
  // Counters are registered (at zero) before any escalation can happen, so
  // a fault-free run still exports every lips_degradation_total series and
  // dashboards/CI can assert they are all zero rather than absent.
  if (obs_.metrics == nullptr) return;
  for (std::size_t r = 1; r < kNumDegradationRungs; ++r)
    obs_.metrics->counter(
        "lips_degradation_total",
        {{"rung", rung_label(static_cast<DegradationRung>(r))}});
  obs_.metrics->counter("lips_schedule_validation_failures_total");
  obs_.metrics->counter("lips_lp_certificate_failures_total");
}

void LipsPolicy::apply_throughput_feedback(const sched::ClusterState& state,
                                           ModelOptions& model,
                                           std::vector<char>& excluded) {
  const cluster::Cluster& c = state.cluster();
  std::vector<double> factors(c.machine_count(), 1.0);
  bool any_degraded = false;
  for (std::size_t m = 0; m < c.machine_count(); ++m) {
    double f = state.observed_throughput(MachineId{m});
    if (!(f < 1.0)) f = 1.0;  // snap >= 1 (and NaN) to nominal
    if (f < 0.05) f = 0.05;   // keep the capacity row positive
    factors[m] = f;
    if (f != 1.0) any_degraded = true;
  }
  // Only a nonempty vector changes the model, so a healthy cluster's plan
  // stays bit-identical to the feedback-free one.
  if (any_degraded) model.machine_throughput_factor = factors;

  std::vector<std::size_t> slow;
  for (std::size_t m = 0; m < c.machine_count(); ++m) {
    if (excluded[m]) continue;  // already out for another reason
    if (factors[m] >= kQuarantineBelow) {
      quarantine_age_.erase(m);
      continue;
    }
    const std::size_t age = quarantine_age_[m]++;
    if (age > 0 && age % kQuarantineProbeEvery == 0) {
      // Probe replan: let the machine take work so fresh samples can lift
      // its EWMA back above the threshold once the slowdown clears.
      quarantine_probes_ += 1;
      continue;
    }
    slow.push_back(m);
  }
  // Never quarantine the whole live cluster: a slow machine beats none.
  std::size_t live = 0;
  for (std::size_t m = 0; m < c.machine_count(); ++m)
    if (!excluded[m]) live += 1;
  if (!slow.empty() && slow.size() >= live) {
    std::size_t keep = slow.front();
    for (const std::size_t m : slow)
      if (factors[m] > factors[keep]) keep = m;
    slow.erase(std::find(slow.begin(), slow.end(), keep));
  }
  for (const std::size_t m : slow) {
    excluded[m] = true;
    quarantine_exclusions_ += 1;
  }
}

void LipsPolicy::fallback_plan(const sched::ClusterState& state,
                               const std::vector<char>& excluded) {
  const cluster::Cluster& c = state.cluster();
  // No data moves, no gates: each pending task reads from the live store
  // holding the most of its input and runs on the machine minimizing
  // execution-plus-read cost. Dearer than the LP optimum, but every task
  // gets a runnable pin.
  for (const std::size_t id : state.pending()) {
    const sched::SimTask& t = state.task(id);
    std::optional<StoreId> source;
    if (t.data) {
      double best_fraction = 0.0;
      for (std::size_t sid = 0; sid < c.store_count(); ++sid) {
        if (!state.store_up(StoreId{sid})) continue;
        const double f = state.stored_fraction(*t.data, StoreId{sid});
        if (f > best_fraction + 1e-12) {
          best_fraction = f;
          source = StoreId{sid};
        }
      }
      if (!source) continue;  // data in flight back to a store; next replan
    }
    std::size_t best_machine = SIZE_MAX;
    Millicents best_cost = Millicents::infinity();
    // Pass 0 skips every machine the LP excluded, the quarantined
    // (observed-slow) ones included; pass 1 admits the quarantined ones, so
    // a fully-quarantined cluster still drains work.
    for (int pass = 0; pass < 2 && best_machine == SIZE_MAX; ++pass) {
      for (std::size_t m = 0; m < c.machine_count(); ++m) {
        if (!state.machine_up(MachineId{m}) || doomed_.count(m) > 0) continue;
        if (pass == 0 && excluded[m]) continue;
        Millicents cost = CpuSeconds::ecu_s(t.cpu_ecu_s) *
                          c.cpu_price_mc_at(MachineId{m}, state.now());
        if (source)
          cost += Bytes::mb(t.input_mb) *
                  c.ms_cost_mc_per_mb(MachineId{m}, *source);
        if (cost < best_cost) {
          best_cost = cost;
          best_machine = m;
        }
      }
    }
    if (best_machine == SIZE_MAX) continue;  // nothing alive to run on
    plan_[best_machine].push_back(PinnedTask{id, source, {}});
  }
}

std::vector<sched::DataMove> LipsPolicy::take_data_moves() {
  return std::exchange(moves_, {});
}

std::optional<sched::LaunchDecision> LipsPolicy::on_slot_available(
    MachineId machine, const sched::ClusterState& state) {
  // No epoch has run yet, or a restored plan is shorter than the cluster.
  if (machine.value() >= plan_.size()) return std::nullopt;
  auto& queue = plan_[machine.value()];
  for (auto it = queue.begin(); it != queue.end();) {
    // Drop stale entries (task already launched/killed elsewhere — cannot
    // normally happen since LiPS is the only launcher, but stay defensive).
    if (!state.is_pending(it->task)) {
      it = queue.erase(it);
      continue;
    }
    bool ready = true;
    for (const std::size_t gi : it->gates) {
      const Gate& g = gates_[gi];
      if (state.stored_fraction(g.data, g.store) + 1e-9 < g.required_fraction) {
        ready = false;
        break;
      }
    }
    if (!ready) {
      ++it;  // data still in flight; try the next pinned task
      continue;
    }
    const sched::LaunchDecision d{it->task, it->store};
    queue.erase(it);
    return d;
  }
  return std::nullopt;
}

}  // namespace lips::core
