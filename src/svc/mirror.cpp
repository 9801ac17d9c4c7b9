#include "svc/mirror.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace lips::svc {

MirrorState::MirrorState(const cluster::Cluster& cluster,
                         const workload::Workload& workload)
    : cluster_(&cluster),
      workload_(&workload),
      task_count_(workload.total_tasks()) {
  machine_down_.assign(cluster.machine_count(), 0);
  store_down_.assign(cluster.store_count(), 0);
  throughput_.assign(cluster.machine_count(), 1.0);
}

void MirrorState::apply(const WireState& ws) {
  for (const std::size_t id : ws.pending)
    LIPS_REQUIRE(id < task_count_, "state spec: pending task id out of range");
  for (const std::size_t m : ws.machines_down)
    LIPS_REQUIRE(m < machine_down_.size(),
                 "state spec: down machine id out of range");
  for (const std::size_t s : ws.stores_down)
    LIPS_REQUIRE(s < store_down_.size(),
                 "state spec: down store id out of range");
  for (const auto& [m, f] : ws.throughput) {
    LIPS_REQUIRE(m < throughput_.size(),
                 "state spec: throughput machine id out of range");
    LIPS_REQUIRE(std::isfinite(f) && f > 0.0,
                 "state spec: throughput factor must be finite and > 0");
  }
  for (const WireFraction& f : ws.fractions) {
    LIPS_REQUIRE(f.data < workload_->data_count() &&
                     f.store < store_down_.size(),
                 "state spec: fraction cell out of range");
    // The simulator clamps presence into [0, 1]; so does the check.
    LIPS_REQUIRE(f.fraction >= 0.0 && f.fraction <= 1.0,
                 "state spec: fraction must lie in [0, 1]");
  }

  now_ = ws.now;
  pending_ = ws.pending;
  std::size_t max_id = 0;
  for (const std::size_t id : pending_) max_id = std::max(max_id, id + 1);
  is_pending_.assign(std::max(is_pending_.size(), max_id), 0);
  for (const std::size_t id : pending_) is_pending_[id] = 1;
  std::fill(machine_down_.begin(), machine_down_.end(), char{0});
  for (const std::size_t m : ws.machines_down) machine_down_[m] = 1;
  std::fill(store_down_.begin(), store_down_.end(), char{0});
  for (const std::size_t s : ws.stores_down) store_down_[s] = 1;
  std::fill(throughput_.begin(), throughput_.end(), 1.0);
  for (const auto& [m, f] : ws.throughput) throughput_[m] = f;
  fractions_.clear();
  for (const WireFraction& f : ws.fractions)
    fractions_[{f.data, f.store}] = f.fraction;
}

void MirrorState::add_tasks(const std::vector<WireTask>& tasks) {
  std::map<std::size_t, std::optional<std::size_t>> batch;
  for (const WireTask& t : tasks) {
    LIPS_REQUIRE(t.id < task_count_ && t.job < workload_->job_count() &&
                     (!t.data || *t.data < workload_->data_count()),
                 "JOB spec: task " + std::to_string(t.id) +
                     " names an id outside the world");
    LIPS_REQUIRE(std::isfinite(t.input_mb) && t.input_mb >= 0.0 &&
                     std::isfinite(t.cpu_ecu_s) && t.cpu_ecu_s >= 0.0,
                 "JOB spec: task " + std::to_string(t.id) +
                     " needs finite, nonnegative input_mb and cpu_ecu_s");
    const auto known = job_data_.find(t.job);
    const auto it = batch.try_emplace(
        t.job, known == job_data_.end() ? t.data : known->second).first;
    LIPS_REQUIRE(it->second == t.data,
                 "JOB spec: tasks of job " + std::to_string(t.job) +
                     " read different data objects");
  }
  job_data_.merge(batch);
  std::size_t max_id = 0;
  for (const WireTask& t : tasks) max_id = std::max(max_id, t.id + 1);
  if (tasks_.size() < max_id) {
    tasks_.resize(max_id);
    known_.resize(max_id, 0);
  }
  for (const WireTask& t : tasks) {
    sched::SimTask st;
    st.job = JobId{t.job};
    st.index_in_job = t.index_in_job;
    st.input_mb = t.input_mb;
    st.cpu_ecu_s = t.cpu_ecu_s;
    if (t.data.has_value()) st.data = DataId{*t.data};
    tasks_[t.id] = st;
    known_[t.id] = 1;
  }
}

const sched::SimTask& MirrorState::task(std::size_t id) const {
  LIPS_REQUIRE(id < tasks_.size() && known_[id] != 0,
               "mirror: task id never streamed: " + std::to_string(id));
  return tasks_[id];
}

bool MirrorState::is_pending(std::size_t id) const {
  return id < is_pending_.size() && is_pending_[id] != 0;
}

double MirrorState::stored_fraction(DataId d, StoreId s) const {
  const auto it = fractions_.find({d.value(), s.value()});
  return it == fractions_.end() ? 0.0 : it->second;
}

void MirrorState::holders(DataId d, std::vector<StoreId>& out) const {
  out.clear();
  const auto first = fractions_.lower_bound({d.value(), 0});
  const auto last = fractions_.lower_bound({d.value() + 1, 0});
  for (auto it = first; it != last; ++it)
    if (it->second > 0.0) out.push_back(StoreId{it->first.second});
}

int MirrorState::free_slots(MachineId m) const {
  (void)m;
  // Slot occupancy stays with the driving engine; the hosted LiPS policy
  // never asks. A policy that does belongs in-process, not behind a mirror.
  LIPS_REQUIRE(false, "mirror: free_slots is not mirrored");
  return 0;
}

bool MirrorState::machine_up(MachineId m) const {
  LIPS_REQUIRE(m.value() < machine_down_.size(),
               "mirror: machine id out of range");
  return machine_down_[m.value()] == 0;
}

bool MirrorState::store_up(StoreId s) const {
  LIPS_REQUIRE(s.value() < store_down_.size(),
               "mirror: store id out of range");
  return store_down_[s.value()] == 0;
}

double MirrorState::observed_throughput(MachineId m) const {
  LIPS_REQUIRE(m.value() < throughput_.size(),
               "mirror: machine id out of range");
  return throughput_[m.value()];
}

}  // namespace lips::svc
