#include "core/schedule_validator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>

namespace lips::core {

namespace {

// Fraction-domain slack: a plan reaches this gate only with its KKT
// certificate, whose rows hold to lp::certify's 1e-7 relative residual,
// and decode drops portions below 1e-9 each; 1e-4 sits safely above both
// while staying orders of magnitude below anything corruption produces.
constexpr double kFracTol = 1e-4;

// A check names what it found only when it fails: `message` is a string
// literal or a callable that formats the text, called on failure alone, so
// a passing check costs its comparison and nothing more.
struct Checker {
  ValidationReport report;

  template <class Message>
  void check(bool ok_condition, double magnitude, const Message& message) {
    report.checks += 1;
    if (ok_condition) return;
    report.ok = false;
    report.worst_violation = std::max(report.worst_violation, magnitude);
    if (report.violations.size() >= kMaxReportedViolations) {
      report.dropped += 1;
    } else if constexpr (std::is_invocable_v<const Message&>) {
      report.violations.push_back({message(), magnitude});
    } else {
      report.violations.push_back({std::string(message), magnitude});
    }
  }
};

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string ValidationReport::summary() const {
  std::ostringstream os;
  if (ok) {
    os << "schedule valid (" << checks << " checks)";
    return os.str();
  }
  os << "schedule INVALID: " << violations.size() + dropped << " violation(s)"
     << ", worst " << worst_violation;
  if (!violations.empty()) os << "; first: " << violations.front().what;
  return os.str();
}

ValidationReport validate_schedule(const cluster::Cluster& cluster,
                                   const workload::Workload& workload,
                                   const ModelOptions& options,
                                   const LpSchedule& schedule,
                                   const JobSubset& jobs,
                                   const std::vector<double>& remaining_fraction,
                                   const std::vector<StoreId>& effective_origins) {
  Checker ck;

  // ---- Status and finiteness. --------------------------------------------
  ck.check(schedule.optimal(), 1.0,
           "schedule status is not Optimal; nothing downstream may act on "
           "its values");
  if (!schedule.optimal()) return ck.report;

  // Resolve the same job view solve_co_scheduling used.
  std::vector<JobId> job_list = jobs;
  if (job_list.empty()) {
    job_list.reserve(workload.job_count());
    for (std::size_t k = 0; k < workload.job_count(); ++k)
      job_list.push_back(JobId{k});
  }
  std::vector<double> remaining(job_list.size(), 1.0);
  if (!remaining_fraction.empty()) {
    ck.check(remaining_fraction.size() == job_list.size(), 1.0,
             "remaining_fraction size does not match the job subset");
    if (remaining_fraction.size() == job_list.size())
      remaining = remaining_fraction;
  }
  std::map<std::size_t, std::size_t> job_pos;  // JobId -> kq
  for (std::size_t kq = 0; kq < job_list.size(); ++kq)
    job_pos[job_list[kq].value()] = kq;

  ck.check(schedule.objective_mc.finite(), 1.0, [&] {
    return "LP objective is not finite: " + fmt(schedule.objective_mc.mc());
  });
  ck.check(schedule.placement_transfer_mc.finite() &&
               schedule.execution_mc.finite() &&
               schedule.runtime_transfer_mc.finite(),
           1.0, "cost breakdown contains a non-finite component");
  ck.check(schedule.deferred_fraction.size() == job_list.size(), 1.0, [&] {
    return "deferred_fraction has " +
           std::to_string(schedule.deferred_fraction.size()) +
           " entries for " + std::to_string(job_list.size()) + " jobs";
  });
  if (!ck.report.ok) return ck.report;

  std::vector<bool> machine_excluded(cluster.machine_count(), false);
  for (const std::size_t l : options.excluded_machines)
    if (l < machine_excluded.size()) machine_excluded[l] = true;
  std::vector<bool> store_excluded(cluster.store_count(), false);
  for (const std::size_t s : options.excluded_stores)
    if (s < store_excluded.size()) store_excluded[s] = true;

  // ---- Placements: range, references, store capacity, recomputed cost. ---
  std::map<std::pair<std::size_t, std::size_t>, double> placed;  // (d,s) -> f
  std::vector<double> store_load_mb(cluster.store_count(), 0.0);
  Millicents placement_mc = Millicents::zero();
  for (const DataPlacement& p : schedule.placements) {
    const auto where = [&p] {
      return "placement of data #" + std::to_string(p.data.value()) +
             " on store #" + std::to_string(p.store.value());
    };
    ck.check(std::isfinite(p.fraction), 1.0, [&] {
      return where() + " has non-finite fraction " + fmt(p.fraction);
    });
    if (!std::isfinite(p.fraction)) return ck.report;
    ck.check(p.fraction >= -kFracTol && p.fraction <= 1.0 + kFracTol,
             std::fabs(p.fraction), [&] {
               return where() + " fraction " + fmt(p.fraction) +
                      " is outside [0, 1] — transfers must be non-negative";
             });
    ck.check(p.data.value() < workload.data_count(), 1.0,
             [&] { return where() + " references an unknown data object"; });
    ck.check(p.store.value() < cluster.store_count(), 1.0,
             [&] { return where() + " references an unknown store"; });
    if (p.data.value() >= workload.data_count() ||
        p.store.value() >= cluster.store_count())
      return ck.report;
    ck.check(!store_excluded[p.store.value()], p.fraction,
             [&] { return where() + " targets an excluded store"; });
    placed[{p.data.value(), p.store.value()}] += p.fraction;
    store_load_mb[p.store.value()] +=
        p.fraction * workload.data(p.data).size_mb;
    const StoreId origin = effective_origins.empty()
                               ? workload.data(p.data).origin
                               : effective_origins[p.data.value()];
    placement_mc += p.fraction * cluster.ss_cost_mc_per_mb(origin, p.store) *
                    Bytes::mb(workload.data(p.data).size_mb);
  }
  for (std::size_t s = 0; s < cluster.store_count(); ++s) {
    const double cap_mb = cluster.store(StoreId{s}).capacity_mb;
    ck.check(store_load_mb[s] <= cap_mb * (1.0 + 1e-5) + kFracTol,
             store_load_mb[s] - cap_mb, [&] {
               return "store #" + std::to_string(s) + " capacity exceeded: " +
                      fmt(store_load_mb[s]) + " MB placed, " + fmt(cap_mb) +
                      " MB available (constraint 11)";
             });
  }

  // ---- Portions: range, references, coverage, loads, recomputed cost. ----
  std::vector<double> machine_load_ecu(cluster.machine_count(), 0.0);
  std::vector<double> covered(job_list.size(), 0.0);
  // (job, machine) -> transfer seconds, for the epoch bandwidth rows (21).
  std::map<std::pair<std::size_t, std::size_t>, double> transfer_time;
  // (job, store) -> total read fraction, for the linking rows (13).
  std::map<std::pair<std::size_t, std::size_t>, double> reads;
  Millicents execution_mc = Millicents::zero();
  Millicents runtime_mc = Millicents::zero();
  for (const TaskPortion& tp : schedule.portions) {
    const auto where = [&tp] {
      return "portion of job #" + std::to_string(tp.job.value()) +
             " on machine #" + std::to_string(tp.machine.value());
    };
    ck.check(std::isfinite(tp.fraction), 1.0, [&] {
      return where() + " has non-finite fraction " + fmt(tp.fraction);
    });
    if (!std::isfinite(tp.fraction)) return ck.report;
    ck.check(tp.fraction >= -kFracTol && tp.fraction <= 1.0 + kFracTol,
             std::fabs(tp.fraction), [&] {
               return where() + " fraction " + fmt(tp.fraction) +
                      " is outside [0, 1]";
             });
    ck.check(tp.machine.value() < cluster.machine_count(), 1.0, [&] {
      return where() +
             " references an unknown machine (the fake node must decode to "
             "deferred_fraction, never to a portion)";
    });
    ck.check(job_pos.count(tp.job.value()) != 0, 1.0, [&] {
      return where() + " schedules a job outside the requested subset";
    });
    if (tp.machine.value() >= cluster.machine_count() ||
        job_pos.count(tp.job.value()) == 0)
      return ck.report;
    ck.check(!machine_excluded[tp.machine.value()], tp.fraction,
             [&] { return where() + " targets an excluded machine"; });
    const std::size_t kq = job_pos.at(tp.job.value());
    covered[kq] += tp.fraction;
    machine_load_ecu[tp.machine.value()] +=
        tp.fraction * job_capacity_demand_ecu_s(workload, tp.job).ecu_s();
    const CpuSeconds cpu = CpuSeconds::ecu_s(workload.job_cpu_ecu_s(tp.job));
    const UsdPerCpuSec price =
        options.price_time >= 0
            ? cluster.cpu_price_mc_at(tp.machine, options.price_time)
            : cluster.machine(tp.machine).cpu_price_mc;
    execution_mc += tp.fraction * cpu * price;
    if (tp.store) {
      ck.check(tp.store->value() < cluster.store_count(), 1.0,
               [&] { return where() + " reads from an unknown store"; });
      if (tp.store->value() >= cluster.store_count()) return ck.report;
      const workload::Job& job = workload.job(tp.job);
      if (!job.data.empty()) {
        reads[{tp.job.value(), tp.store->value()}] += tp.fraction;
        const Bytes input = Bytes::mb(workload.job_input_mb(tp.job));
        const Seconds transfer =
            input / cluster.bandwidth_mb_s(tp.machine, *tp.store);
        transfer_time[{tp.job.value(), tp.machine.value()}] +=
            tp.fraction * transfer.secs();
      }
      for (std::size_t di = 0; di < job.data.size(); ++di)
        runtime_mc += tp.fraction *
                      cluster.ms_cost_mc_per_mb(tp.machine, *tp.store) *
                      workload.job_access_fraction(tp.job, di) *
                      Bytes::mb(workload.data(job.data[di]).size_mb);
    }
  }

  // ---- Job coverage (constraint 10): no task lost, none invented. --------
  double total_deferred = 0.0;
  for (std::size_t kq = 0; kq < job_list.size(); ++kq) {
    const double deferred = schedule.deferred_fraction[kq];
    ck.check(std::isfinite(deferred) && deferred >= -kFracTol, 1.0, [&] {
      return "job #" + std::to_string(job_list[kq].value()) +
             " has invalid deferred fraction " + fmt(deferred);
    });
    if (!std::isfinite(deferred)) return ck.report;
    total_deferred += std::max(deferred, 0.0);
    const double assigned = covered[kq] + std::max(deferred, 0.0);
    ck.check(assigned >= remaining[kq] - kFracTol, remaining[kq] - assigned,
             [&] {
               return "job #" + std::to_string(job_list[kq].value()) +
                      " is under-covered: " + fmt(assigned) + " assigned of " +
                      fmt(remaining[kq]) + " remaining (constraint 10)";
             });
    // The rows are >=, but with strictly positive costs no optimal vertex
    // over-assigns; well past tolerance it means the decode double-counted.
    ck.check(assigned <= remaining[kq] + 1e-3, assigned - remaining[kq], [&] {
      return "job #" + std::to_string(job_list[kq].value()) +
             " is over-covered: " + fmt(assigned) + " assigned of " +
             fmt(remaining[kq]) + " remaining";
    });
  }

  // ---- Machine CPU capacity (constraint 12). -----------------------------
  for (std::size_t l = 0; l < cluster.machine_count(); ++l) {
    const cluster::Machine& m = cluster.machine(MachineId{l});
    const double horizon = options.epoch_s > 0 ? options.epoch_s : m.uptime_s;
    const double factor = options.machine_throughput_factor.empty()
                              ? 1.0
                              : options.machine_throughput_factor[l];
    const double cap_ecu = m.throughput_ecu * horizon * factor;
    ck.check(machine_load_ecu[l] <= cap_ecu * (1.0 + 1e-5) + kFracTol,
             machine_load_ecu[l] - cap_ecu, [&] {
               return "machine #" + std::to_string(l) +
                      " CPU capacity exceeded: " + fmt(machine_load_ecu[l]) +
                      " ECU·s demanded, " + fmt(cap_ecu) +
                      " available (constraint 12)";
             });
  }

  // ---- Epoch bandwidth rows (constraint 21). -----------------------------
  if (options.epoch_s > 0) {
    for (const auto& [key, secs] : transfer_time)
      ck.check(secs <= options.epoch_s * (1.0 + 1e-5) + kFracTol,
               secs - options.epoch_s, [&] {
                 return "job #" + std::to_string(key.first) + " on machine #" +
                        std::to_string(key.second) + " needs " + fmt(secs) +
                        " s of transfer in a " + fmt(options.epoch_s) +
                        " s epoch (constraint 21)";
               });
  }

  // ---- Linking (constraint 13): reads are backed by placements. ----------
  // Only the co-scheduling models emit placements; when the schedule has
  // none (Fig-2 fixed placement), presence is the caller's invariant.
  if (!schedule.placements.empty()) {
    for (const auto& [key, fraction] : reads) {
      const workload::Job& job = workload.job(JobId{key.first});
      for (const DataId d : job.data) {
        const auto it = placed.find({d.value(), key.second});
        const double have = it == placed.end() ? 0.0 : it->second;
        ck.check(have >= fraction - kFracTol, fraction - have, [&] {
          return "job #" + std::to_string(key.first) + " reads " +
                 fmt(fraction) + " of data #" + std::to_string(d.value()) +
                 " from store #" + std::to_string(key.second) + " but only " +
                 fmt(have) + " is placed there (constraint 13)";
        });
      }
    }
  }

  // ---- Cost reconciliation. ----------------------------------------------
  // The decoded breakdown must be reproducible from first principles, and
  // the LP objective must equal breakdown plus a non-negative deferral
  // residual (the fake node's carry) that vanishes when nothing deferred.
  const Millicents cost_tol =
      Millicents::mc(1.0 + 1e-6 * std::fabs(schedule.objective_mc.mc()));
  const auto close = [&](Millicents a, Millicents b) {
    return a - b <= cost_tol && b - a <= cost_tol;
  };
  ck.check(close(placement_mc, schedule.placement_transfer_mc),
           std::fabs((placement_mc - schedule.placement_transfer_mc).mc()),
           [&] {
             return "placement transfer cost does not reconcile: decoded " +
                    fmt(schedule.placement_transfer_mc.mc()) +
                    " mc, recomputed " + fmt(placement_mc.mc()) + " mc";
           });
  ck.check(close(execution_mc, schedule.execution_mc),
           std::fabs((execution_mc - schedule.execution_mc).mc()), [&] {
             return "execution cost does not reconcile: decoded " +
                    fmt(schedule.execution_mc.mc()) + " mc, recomputed " +
                    fmt(execution_mc.mc()) + " mc";
           });
  ck.check(close(runtime_mc, schedule.runtime_transfer_mc),
           std::fabs((runtime_mc - schedule.runtime_transfer_mc).mc()), [&] {
             return "runtime transfer cost does not reconcile: decoded " +
                    fmt(schedule.runtime_transfer_mc.mc()) +
                    " mc, recomputed " + fmt(runtime_mc.mc()) + " mc";
           });
  const Millicents residual =
      schedule.objective_mc - schedule.placement_transfer_mc -
      schedule.execution_mc - schedule.runtime_transfer_mc;
  ck.check(residual >= Millicents::zero() - cost_tol, -residual.mc(), [&] {
    return "LP objective " + fmt(schedule.objective_mc.mc()) +
           " mc is below its own cost breakdown (residual " +
           fmt(residual.mc()) + " mc)";
  });
  if (total_deferred <= kFracTol)
    ck.check(residual <= cost_tol, residual.mc(), [&] {
      return "LP objective exceeds the cost breakdown by " +
             fmt(residual.mc()) +
             " mc with nothing deferred — decoded cost is not within "
             "tolerance of the objective";
    });

  return ck.report;
}

}  // namespace lips::core
