#include "workload/swim.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

namespace lips::workload {

namespace {

/// Shared tail of make_swim_workload / load_swim_trace: sort drafts by
/// arrival, scatter each job's input object over the stores, and emit the
/// workload. Kept in one place so a loaded trace and a synthesized one with
/// identical drafts produce identical workloads.
struct JobDraft {
  double arrival = 0.0;
  SwimClass cls = SwimClass::Interactive;
  double input_mb = 0.0;
  double tcp = 0.0;  ///< CPU ECU-seconds per MB
};

SwimWorkload drafts_to_workload(std::vector<JobDraft> drafts,
                                const cluster::Cluster& cluster, Rng& rng) {
  std::sort(drafts.begin(), drafts.end(), [](const JobDraft& a,
                                             const JobDraft& b) {
    return a.arrival < b.arrival;
  });

  SwimWorkload out;
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    const JobDraft& d = drafts[i];
    DataObject obj;
    obj.name = "swim-data-" + std::to_string(i);
    obj.size_mb = d.input_mb;
    obj.origin = StoreId{rng.index(cluster.store_count())};
    const DataId did = out.workload.add_data(std::move(obj));

    Job j;
    j.name = "swim-job-" + std::to_string(i);
    j.tcp_cpu_s_per_mb = d.tcp;
    j.data = {did};
    j.num_tasks =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     std::ceil(mb_to_blocks(d.input_mb))));
    j.arrival_s = d.arrival;
    out.workload.add_job(std::move(j));
    out.classes.push_back(d.cls);
  }
  return out;
}

// SWIM's published job-class mix: the remaining 10% are large jobs.
constexpr double kInteractiveFraction = 0.62;  ///< 1–10 map tasks, <= ~1 GB
constexpr double kMediumFraction = 0.28;       ///< 10–150 tasks, ~1–20 GB

// Lognormal input-size parameters per class, in MB (medians ~55 MB, ~3 GB
// and ~29 GB).
constexpr double kInteractiveMu = 4.0, kInteractiveSigma = 1.2;
constexpr double kMediumMu = 8.0, kMediumSigma = 0.8;
constexpr double kLargeMu = 10.3, kLargeSigma = 0.6;

/// Size-threshold class assignment for loaded traces (the synthesizer knows
/// the class it drew from; a trace only records the size).
SwimClass class_of_size(double input_mb) {
  if (input_mb <= 1024.0) return SwimClass::Interactive;
  if (input_mb <= 20.0 * 1024.0) return SwimClass::Medium;
  return SwimClass::Large;
}

}  // namespace

SwimWorkload make_swim_workload(const SwimParams& params,
                                const cluster::Cluster& cluster, Rng& rng) {
  LIPS_REQUIRE(params.n_jobs > 0, "SWIM workload needs jobs");
  LIPS_REQUIRE(params.duration_s > 0, "duration must be positive");
  LIPS_REQUIRE(cluster.store_count() > 0, "cluster has no data stores");

  std::vector<JobDraft> drafts;
  drafts.reserve(params.n_jobs);

  for (std::size_t i = 0; i < params.n_jobs; ++i) {
    JobDraft d;
    d.arrival = rng.uniform(0.0, params.duration_s);
    const double u = rng.uniform01();
    if (u < kInteractiveFraction) {
      d.cls = SwimClass::Interactive;
      d.input_mb = rng.lognormal(kInteractiveMu, kInteractiveSigma);
    } else if (u < kInteractiveFraction + kMediumFraction) {
      d.cls = SwimClass::Medium;
      d.input_mb = rng.lognormal(kMediumMu, kMediumSigma);
    } else {
      d.cls = SwimClass::Large;
      d.input_mb = rng.lognormal(kLargeMu, kLargeSigma);
    }
    d.input_mb = std::clamp(d.input_mb, 1.0, kSwimMaxInputMb);
    // CPU intensiveness: sample the Table-I spectrum (Grep 20 … WordCount 90
    // ECU-seconds per block) uniformly — Facebook's mix spans I/O-bound log
    // scans to CPU-bound aggregation.
    d.tcp = rng.uniform(20.0, 90.0) / kBlockSizeMB;
    drafts.push_back(d);
  }
  return drafts_to_workload(std::move(drafts), cluster, rng);
}

SwimWorkload load_swim_trace(std::istream& in,
                             const cluster::Cluster& cluster, Rng& rng) {
  LIPS_REQUIRE(cluster.store_count() > 0, "cluster has no data stores");

  std::vector<JobDraft> drafts;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;

    const auto bad = [&](const std::string& why) {
      LIPS_REQUIRE(false, "SWIM trace line " + std::to_string(line_no) +
                              ": " + why + ": '" + line + "'");
    };
    std::istringstream fields(line);
    JobDraft d;
    if (!(fields >> d.arrival)) bad("cannot parse arrival seconds");
    if (!(fields >> d.input_mb)) bad("cannot parse input MB");
    double cpu_per_block = -1.0;
    if (fields >> cpu_per_block) {
      if (cpu_per_block <= 0) bad("CPU ECU-s/block must be positive");
    }
    std::string extra;
    if (fields >> extra) bad("trailing fields");
    if (d.arrival < 0) bad("arrival must be >= 0");
    if (d.input_mb <= 0) bad("input MB must be positive");

    d.input_mb = std::min(d.input_mb, kSwimMaxInputMb);
    d.cls = class_of_size(d.input_mb);
    // The rng draw happens whether or not the field is present, so adding an
    // explicit CPU column to one line does not shift every later job's draw.
    const double sampled = rng.uniform(20.0, 90.0);
    d.tcp = (cpu_per_block > 0 ? cpu_per_block : sampled) / kBlockSizeMB;
    drafts.push_back(d);
  }
  LIPS_REQUIRE(!drafts.empty(), "SWIM trace contains no jobs");
  return drafts_to_workload(std::move(drafts), cluster, rng);
}

}  // namespace lips::workload
