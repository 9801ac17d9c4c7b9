// Divergence detector — proves (or refutes) bit-identical resume.
//
// The checkpoint contract is not "roughly the same run": a restored run must
// make the same decisions at the same simulated instants as the
// uninterrupted run, bit for bit. The detector takes the two runs' event
// logs — each event rendered to one canonical line by the simulator
// (sim::render_trace_lines) — and diffs them position by position, reporting
// the first divergences with full context plus an FNV-1a digest of each log.
// A report with `identical == false` is a bug in a serializer, not noise.
//
// Lines, not structs: the detector stays generic over what an "event" is
// (sim trace today, lipsd protocol messages tomorrow), and a mismatch report
// is directly human-readable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lips::ckpt {

struct DivergenceReport {
  bool identical = true;
  std::size_t baseline_events = 0;
  std::size_t resumed_events = 0;
  /// Index of the first differing position, SIZE_MAX when identical.
  std::size_t first_mismatch = SIZE_MAX;
  /// Up to max_mismatches rendered differences, "index N:\n  baseline: ...\n
  /// resumed:  ..." (a missing side renders as "<absent>").
  std::vector<std::string> mismatches;
  std::uint64_t baseline_digest = 0;
  std::uint64_t resumed_digest = 0;
};

[[nodiscard]] DivergenceReport diff_event_logs(
    const std::vector<std::string>& baseline,
    const std::vector<std::string>& resumed, std::size_t max_mismatches = 16);

/// Human-readable report (the CI sanitize lane uploads it as an artifact).
void write_divergence_report(const DivergenceReport& report, std::ostream& os);

}  // namespace lips::ckpt
