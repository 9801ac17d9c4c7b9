// Pivot-path pins for the LP tests: the counts of a solve plus one 64-bit
// digest over the bits of everything it returns. Two solves that reach the
// same optimum along different pivots (another entering or leaving column,
// another tie-break) differ in their counts or in the low bits of their
// values, duals and reduced costs, so a pin recorded before an engine change
// shows whether the change kept every pivot.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "ckpt/digest.hpp"
#include "core/lp_models.hpp"
#include "lp/solver.hpp"

namespace lips::pins {

/// One solve's pin: its pivot counts, whether it finished warm, and the
/// digest of its answer.
struct PivotPin {
  std::size_t iterations = 0;
  std::size_t repair_iterations = 0;
  bool warm_start_used = false;
  std::uint64_t digest = 0;
  bool operator==(const PivotPin&) const = default;
};

/// Prints a pin as the initializer that pins it.
inline std::ostream& operator<<(std::ostream& os, const PivotPin& p) {
  const auto flags = os.flags();
  os << "PivotPin{" << p.iterations << ", " << p.repair_iterations << ", "
     << (p.warm_start_used ? "true" : "false") << ", 0x" << std::hex
     << p.digest << "ULL}";
  os.flags(flags);
  return os;
}

namespace detail {

/// Folds a double by its bits. A NaN folds as the canonical quiet NaN: which
/// payload a NaN carries depends on operand order, which the compiler picks.
inline void fold(ckpt::Fnv1a64& h, double v) {
  h.f64(std::isnan(v) ? std::numeric_limits<double>::quiet_NaN() : v);
}

inline void fold(ckpt::Fnv1a64& h, const std::vector<double>& vs) {
  h.u64(vs.size());
  for (const double v : vs) fold(h, v);
}

}  // namespace detail

/// The pin of an lp::solve answer: status, objective, values, duals and
/// reduced costs.
inline PivotPin pin_of(const lp::LpSolution& s) {
  ckpt::Fnv1a64 h;
  h.u64(static_cast<std::uint64_t>(s.status));
  detail::fold(h, s.objective);
  detail::fold(h, s.values);
  detail::fold(h, s.duals);
  detail::fold(h, s.reduced_costs);
  return {s.iterations, s.repair_iterations, s.warm_start_used, h.digest()};
}

/// The pin of a decoded epoch plan: status, objective and every decoded
/// fraction with its identity (the values of the LP behind it).
inline PivotPin pin_of(const core::LpSchedule& s) {
  ckpt::Fnv1a64 h;
  h.u64(static_cast<std::uint64_t>(s.status));
  detail::fold(h, s.objective_mc.mc());
  h.u64(s.placements.size());
  for (const core::DataPlacement& p : s.placements) {
    h.u64(p.data.value());
    h.u64(p.store.value());
    detail::fold(h, p.fraction);
  }
  h.u64(s.portions.size());
  for (const core::TaskPortion& p : s.portions) {
    h.u64(p.job.value());
    h.u64(p.machine.value());
    h.u64(p.store ? p.store->value() + 1 : 0);
    detail::fold(h, p.fraction);
  }
  detail::fold(h, s.deferred_fraction);
  return {s.lp_iterations, s.lp_repair_iterations, s.warm_start_used,
          h.digest()};
}

/// The pins of a run of solves folded into one, for tests that solve many
/// models: any solve whose pin moves moves the chain's digest.
struct ChainPin {
  std::size_t solves = 0;
  std::size_t iterations = 0;
  std::size_t repair_iterations = 0;
  std::size_t warm_starts = 0;
  std::uint64_t digest = ckpt::Fnv1a64::kOffsetBasis;

  void add(const PivotPin& p) {
    ++solves;
    iterations += p.iterations;
    repair_iterations += p.repair_iterations;
    warm_starts += p.warm_start_used ? 1 : 0;
    ckpt::Fnv1a64 h;
    h.reset(digest);
    h.u64(p.iterations);
    h.u64(p.repair_iterations);
    h.u64(p.warm_start_used ? 1 : 0);
    h.u64(p.digest);
    digest = h.digest();
  }
  bool operator==(const ChainPin&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const ChainPin& p) {
  const auto flags = os.flags();
  os << "ChainPin{" << p.solves << ", " << p.iterations << ", "
     << p.repair_iterations << ", " << p.warm_starts << ", 0x" << std::hex
     << p.digest << "ULL}";
  os.flags(flags);
  return os;
}

}  // namespace lips::pins
