// SWIM-style Facebook workload synthesis.
//
// The paper's 100-node experiment (its Fig. 9/10) replays a 400-job workload
// built with SWIM from the FB-2010 Facebook trace (24 one-hour samples, one
// day total), "composed of interactive (short), medium-size and long jobs".
// We do not ship the proprietary trace; instead this generator synthesizes a
// workload with the same published shape: a heavy-tailed job-size mix
// dominated by small interactive jobs, a band of medium jobs, and a few very
// large jobs, with arrivals spread over the day. See DESIGN.md §2 for the
// substitution rationale.
#pragma once

#include <istream>

#include "common/rng.hpp"
#include "workload/workload.hpp"

namespace lips::workload {

/// Size and span of the synthetic Facebook-like day. The defaults reproduce
/// the paper's setup (400 jobs / 24 hours); the class mix is SWIM's
/// published one (swim.cpp).
struct SwimParams {
  std::size_t n_jobs = 400;
  double duration_s = 24.0 * 3600.0;
};

/// Cap on any single job's input (keeps the tail within cluster capacity).
inline constexpr double kSwimMaxInputMb = 100.0 * 1024.0;

/// Per-job class annotation, parallel to the generated workload's job list
/// (useful for reporting short/medium/long statistics).
enum class SwimClass { Interactive, Medium, Large };

struct SwimWorkload {
  Workload workload;
  std::vector<SwimClass> classes;  ///< one entry per job
};

/// Synthesize the workload. Input data objects are scattered uniformly over
/// `cluster`'s stores; CPU intensiveness per job is drawn from the paper's
/// Table-I profile spectrum; arrivals are uniform over [0, duration_s).
/// Jobs are returned sorted by arrival time.
[[nodiscard]] SwimWorkload make_swim_workload(const SwimParams& params,
                                              const cluster::Cluster& cluster,
                                              Rng& rng);

/// Load a SWIM-style replay trace instead of synthesizing one. Line format:
///
///   <arrival_s> <input_mb> [<cpu_ecu_s_per_block>]
///
/// one job per line; blank lines and lines starting with `#` are skipped.
/// Classes are assigned by input size (≤1 GB interactive, ≤20 GB medium,
/// else large). The optional third field fixes the job's CPU intensiveness
/// (ECU-seconds per 256 MB block, the paper's Table-I axis); when absent it
/// is drawn from the Table-I spectrum exactly as make_swim_workload does.
/// `rng` also scatters each job's input object over the cluster's stores, so
/// a fixed seed yields a bit-identical workload for the same trace.
///
/// Inputs above kSwimMaxInputMb are capped to it.
///
/// Throws PreconditionError (with the 1-based line number) on malformed
/// lines — wrong field count, unparsable numbers, negative arrival,
/// non-positive size — and on a trace with no jobs.
[[nodiscard]] SwimWorkload load_swim_trace(std::istream& in,
                                           const cluster::Cluster& cluster,
                                           Rng& rng);

}  // namespace lips::workload
