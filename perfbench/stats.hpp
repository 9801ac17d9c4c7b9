// The benchmark's own arithmetic: percentiles with their sample counts,
// fastest-pass selection, self time, sampled-call estimates and ratios.
// Kept apart from the harness so perfbench_test can pin every formula on
// hand-made inputs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"

namespace perfbench {

/// A statistic together with the number of samples it was computed from.
/// An empty sample yields {0, 0}: the count says the value means nothing.
struct Stat {
  double value = 0.0;
  std::size_t n = 0;
};

/// Linear-interpolated percentile (q in [0, 1]) of `samples`.
[[nodiscard]] inline Stat quantile(const std::vector<double>& samples,
                                   double q) {
  if (samples.empty()) return {};
  return {lips::percentile(samples, q), samples.size()};
}

[[nodiscard]] inline Stat mean_of(const std::vector<double>& samples) {
  if (samples.empty()) return {};
  return {lips::mean(samples), samples.size()};
}

/// Median of the values (the set-up figure is reported this way).
[[nodiscard]] inline Stat median_of(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

/// Index of the fastest pass: the smallest host time, the earliest one on a
/// tie. The simulated passes are bit-identical, so every difference between
/// them is the host; the fastest is the one the host disturbed least.
/// Precondition: non-empty.
[[nodiscard]] inline std::size_t fastest(const std::vector<double>& seconds) {
  return static_cast<std::size_t>(
      std::min_element(seconds.begin(), seconds.end()) - seconds.begin());
}

/// Best of one per-pass statistic over several passes: the smallest value,
/// carrying the sample count of the pass it came from.
[[nodiscard]] inline Stat lowest(const std::vector<Stat>& per_pass) {
  Stat best;
  bool any = false;
  for (const Stat& s : per_pass) {
    if (s.n == 0) continue;
    if (!any || s.value < best.value) best = s;
    any = true;
  }
  return best;
}

/// Stretch durations of one pass from its progress marks (seconds since the
/// pass began); the last stretch ends with the pass.
[[nodiscard]] inline std::vector<double> stretches(
    const std::vector<double>& marks, double end) {
  std::vector<double> out;
  double prev = 0.0;
  for (const double m : marks) {
    out.push_back(m - prev);
    prev = m;
  }
  out.push_back(end - prev);
  return out;
}

/// Fold one pass's readings into the elementwise fastest so far. Passes are
/// bit-identical, so reading i is the same work in every pass — the same
/// stretch between two progress marks, the same replan, the same sampled
/// offer — and its fastest reading is the one the host disturbed least.
/// False (and `best` untouched) when the pass has a different length.
[[nodiscard]] inline bool keep_fastest(std::vector<double>& best,
                                       const std::vector<double>& pass) {
  if (best.empty()) {
    best = pass;
    return true;
  }
  if (best.size() != pass.size()) return false;
  for (std::size_t i = 0; i < best.size(); ++i)
    best[i] = std::min(best[i], pass[i]);
  return true;
}

/// Self time of a layer: its span minus the time its callees account for.
/// Not clamped — a negative result means the callee estimate overshot and
/// must show, not be hidden.
[[nodiscard]] inline double self_time(double total,
                                      const std::vector<double>& callees) {
  double inside = 0.0;
  for (const double c : callees) inside += c;
  return total - inside;
}

/// `num / base`, or 0 when the base is 0 (no attempts → nothing wasted).
[[nodiscard]] inline double ratio(double num, double base) {
  return base == 0.0 ? 0.0 : num / base;
}

/// Counts every call of one kind and times a deterministic sample of them
/// (every `every`-th call, starting with the first; `every` = 0 times
/// none). Timing a cheap call costs more than the call, so only the sample
/// pays for the clock.
class SampledCalls {
 public:
  explicit SampledCalls(std::uint64_t every = 1) : every_(every) {}

  /// Count a call; true when this call is to be timed.
  [[nodiscard]] bool count() {
    const bool timed = every_ != 0 && calls_ % every_ == 0;
    ++calls_;
    return timed;
  }
  void record(double seconds) { sampled_.push_back(seconds); }

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] const std::vector<double>& sampled() const { return sampled_; }

  /// Total time across all calls, estimated as (sampled mean − the clock's
  /// own cost per timed call) × calls.
  [[nodiscard]] double estimated_total(double clock_s = 0.0) const {
    return sampled_.empty() ? 0.0
                            : (lips::mean(sampled_) - clock_s) *
                                  static_cast<double>(calls_);
  }

 private:
  std::uint64_t every_;
  std::uint64_t calls_ = 0;
  std::vector<double> sampled_;
};

}  // namespace perfbench
