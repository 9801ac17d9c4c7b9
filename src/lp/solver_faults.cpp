#include "lp/solver_faults.hpp"

#include <limits>

#include "common/error.hpp"
#include "common/spec.hpp"

namespace lips::lp {

namespace {

constexpr double kHuge = 1e100;

}  // namespace

SolverFaultConfig parse_solver_fault_spec(const std::string& spec) {
  SolverFaultConfig c;
  SpecBinder("solver fault spec")
      .probability("nan", &c.nan_probability)
      .probability("inf", &c.inf_probability)
      .probability("huge", &c.huge_probability)
      .probability("basis", &c.basis_corruption_probability)
      .probability("refactor", &c.refactor_failure_probability)
      .probability("budget", &c.budget_starvation_probability)
      .count("starve_iters", &c.starved_iterations)
      .seed("seed", &c.seed)
      .parse(spec);
  return c;
}

SolverFaultInjector::SolverFaultInjector(const SolverFaultConfig& config)
    : config_(config), rng_(config.seed) {}

void SolverFaultInjector::begin_solve() {
  stats_.solves_seen += 1;
  // Fixed draw count per solve: the fate of solve N never shifts the RNG
  // stream consumed by solve N+1.
  arm_nan_ = rng_.uniform01() < config_.nan_probability;
  nan_targets_cost_ = (rng_.next() & 1u) != 0;
  arm_inf_ = rng_.uniform01() < config_.inf_probability;
  arm_huge_ = rng_.uniform01() < config_.huge_probability;
  arm_basis_ = rng_.uniform01() < config_.basis_corruption_probability;
  arm_refactor_ = rng_.uniform01() < config_.refactor_failure_probability;
  arm_budget_ = rng_.uniform01() < config_.budget_starvation_probability;
  budget_counted_ = false;
}

void SolverFaultInjector::corrupt_costs(std::vector<double>& cost) {
  if (cost.empty()) return;
  if (arm_nan_ && nan_targets_cost_) {
    cost[rng_.uniform_int(0, cost.size() - 1)] =
        std::numeric_limits<double>::quiet_NaN();
    stats_.objective_nans += 1;
    arm_nan_ = false;
  }
  if (arm_huge_) {
    cost[rng_.uniform_int(0, cost.size() - 1)] = kHuge;
    stats_.objective_huges += 1;
    arm_huge_ = false;
  }
}

void SolverFaultInjector::corrupt_rhs(std::vector<double>& rhs) {
  if (rhs.empty()) return;
  if (arm_nan_ && !nan_targets_cost_) {
    rhs[rng_.uniform_int(0, rhs.size() - 1)] =
        std::numeric_limits<double>::quiet_NaN();
    stats_.rhs_nans += 1;
    arm_nan_ = false;
  }
  if (arm_inf_) {
    rhs[rng_.uniform_int(0, rhs.size() - 1)] =
        std::numeric_limits<double>::infinity();
    stats_.rhs_infs += 1;
    arm_inf_ = false;
  }
}

void SolverFaultInjector::corrupt_basis(Basis& basis) {
  if (!arm_basis_) return;
  const std::size_t span = basis.variables.size() + basis.slacks.size();
  if (span == 0) return;
  const std::size_t flips = 1 + rng_.uniform_int(0, 2);
  static constexpr BasisStatus kStatuses[] = {
      BasisStatus::Basic, BasisStatus::AtLower, BasisStatus::AtUpper};
  for (std::size_t f = 0; f < flips; ++f) {
    const std::size_t pos = rng_.uniform_int(0, span - 1);
    const BasisStatus status = kStatuses[rng_.uniform_int(0, 2)];
    if (pos < basis.variables.size())
      basis.variables[pos] = status;
    else
      basis.slacks[pos - basis.variables.size()] = status;
  }
  stats_.bases_corrupted += 1;
  arm_basis_ = false;
}

bool SolverFaultInjector::fail_refactorize() {
  if (!arm_refactor_) return false;
  stats_.refactor_failures += 1;
  return true;
}

template <class Ar, class Self>
void SolverFaultInjector::fields(Ar& ar, Self& self) {
  ar(ckpt::via(self.rng_, &Rng::state, &Rng::set_state),
     self.stats_.solves_seen, self.stats_.objective_nans,
     self.stats_.rhs_nans, self.stats_.rhs_infs, self.stats_.objective_huges,
     self.stats_.bases_corrupted, self.stats_.refactor_failures,
     self.stats_.budgets_starved, self.arm_nan_, self.nan_targets_cost_,
     self.arm_inf_, self.arm_huge_, self.arm_basis_, self.arm_refactor_,
     self.arm_budget_, self.budget_counted_);
}

void SolverFaultInjector::save_state(ckpt::Writer& writer) const {
  fields(writer, *this);
}

void SolverFaultInjector::load_state(ckpt::Reader& reader) {
  fields(reader, *this);
}

std::size_t SolverFaultInjector::cap_budget(std::size_t iterations_done,
                                            std::size_t budget) {
  if (!arm_budget_) return budget;
  if (!budget_counted_) {
    stats_.budgets_starved += 1;
    budget_counted_ = true;
  }
  const std::size_t cap = iterations_done + config_.starved_iterations;
  return cap < budget ? cap : budget;
}

}  // namespace lips::lp
