#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <queue>
#include <unordered_map>

#include "ckpt/digest.hpp"
#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lips::sim {

std::string to_string(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::JobArrival:
      return "job-arrival";
    case TraceEvent::Kind::TaskLaunch:
      return "task-launch";
    case TraceEvent::Kind::TaskComplete:
      return "task-complete";
    case TraceEvent::Kind::TaskCancelled:
      return "task-cancelled";
    case TraceEvent::Kind::TimeoutKill:
      return "timeout-kill";
    case TraceEvent::Kind::DataMoveStart:
      return "data-move-start";
    case TraceEvent::Kind::DataMoveFinish:
      return "data-move-finish";
    case TraceEvent::Kind::EpochTick:
      return "epoch-tick";
    case TraceEvent::Kind::MachineLost:
      return "machine-lost";
    case TraceEvent::Kind::MachineRestored:
      return "machine-restored";
    case TraceEvent::Kind::SpotRevocationWarning:
      return "spot-revocation-warning";
    case TraceEvent::Kind::StoreLost:
      return "store-lost";
    case TraceEvent::Kind::TaskRequeued:
      return "task-requeued";
    case TraceEvent::Kind::MachineSlowed:
      return "machine-slowed";
    case TraceEvent::Kind::MachineSpeedRestored:
      return "machine-speed-restored";
  }
  return "unknown";
}

std::vector<std::string> render_trace_lines(const SimResult& r) {
  std::vector<std::string> lines;
  lines.reserve(r.trace.size());
  char buf[256];
  for (const TraceEvent& ev : r.trace) {
    std::snprintf(buf, sizeof(buf),
                  "%s t=%.17g job=%zu task=%zu machine=%zu store=%zu "
                  "amount=%.17g",
                  to_string(ev.kind).c_str(), ev.time_s, ev.job, ev.task,
                  ev.machine, ev.store, ev.amount);
    lines.emplace_back(buf);
  }
  return lines;
}

namespace {

using sched::ClusterState;
using sched::LaunchDecision;
using sched::SimTask;

enum class EventKind : unsigned char {
  JobArrival,
  InstanceFinish,
  EpochTick,
  MoveFinish,
  Fault,            ///< payload: index into the engine's fault event list
  MachineRestore,   ///< payload: machine id (transient crash repaired)
  LinkRestore,      ///< payload: fault event index (degradation window ends)
  TaskRetry,        ///< payload: task id (fault-kill backoff expired)
  SlowdownRestore,  ///< payload: fault event index (slowdown window ends)
  CheckpointTick,   ///< cadence carrier for epoch-less schedulers; must stay
                    ///< invisible to the simulation (no trace, no state)
};

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::EpochTick;
  std::size_t payload = 0;

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

enum class TaskStatus : unsigned char {
  NotArrived,
  Pending,
  Running,
  Done,
  Backoff,  ///< fault-killed, waiting out the retry backoff
  Lost,     ///< abandoned: retry budget exhausted or unrecoverable
};

struct Instance {
  std::size_t task = 0;
  std::size_t machine = 0;
  std::optional<StoreId> store;
  double start = 0.0;
  double finish = 0.0;  ///< planned completion (or timeout kill time)
  double full_duration = 0.0;
  Millicents exec_cost_mc = Millicents::zero();  ///< cost of a complete run
  Millicents read_cost_mc = Millicents::zero();
  // Progress accounting for CPU-slowdown re-timing. `progress` and
  // `billed_frac` cover the legs up to `last_update`; the leg from
  // `last_update` to "now" runs at `rate` (the machine's CPU factor when
  // the leg began). They diverge on a slowed machine: work advances at
  // `rate`, the bill at wall speed (the cloud charges for the reserved
  // slot, not for useful progress).
  double progress = 0.0;     ///< fraction of full_duration's work done
  double billed_frac = 0.0;  ///< wall time elapsed / full_duration
  double last_update = 0.0;  ///< sim time progress was last accrued
  double rate = 1.0;         ///< CPU factor in force since last_update
  bool ever_retimed = false;
  bool speculative = false;
  bool cancelled = false;
  bool timeout_kill = false;  ///< finish event requeues instead of completing
  bool settled = false;
};

/// Tracer span name per simulator event kind (string literals only: the
/// tracer stores the pointer, not a copy).
const char* span_name(EventKind kind) {
  switch (kind) {
    case EventKind::JobArrival:
      return "job-arrival";
    case EventKind::InstanceFinish:
      return "instance-finish";
    case EventKind::EpochTick:
      return "epoch-tick";
    case EventKind::MoveFinish:
      return "move-finish";
    case EventKind::Fault:
      return "fault";
    case EventKind::MachineRestore:
      return "machine-restore";
    case EventKind::LinkRestore:
      return "link-restore";
    case EventKind::TaskRetry:
      return "task-retry";
    case EventKind::SlowdownRestore:
      return "slowdown-restore";
    case EventKind::CheckpointTick:
      return "checkpoint-tick";
  }
  return "event";
}

const char* fault_span_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::MachineCrash:
      return "fault-machine-crash";
    case FaultEvent::Kind::SpotRevocation:
      return "fault-spot-revocation";
    case FaultEvent::Kind::StoreLoss:
      return "fault-store-loss";
    case FaultEvent::Kind::LinkDegrade:
      return "fault-link-degrade";
    case FaultEvent::Kind::MachineSlowdown:
      return "fault-machine-slowdown";
  }
  return "fault";
}

/// Pre-resolved metric handles (registration takes the registry mutex; the
/// event loop only touches these raw pointers, all null when metrics are
/// off).
struct SimMeters {
  obs::Counter* launched = nullptr;
  obs::Counter* launched_spec = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* timeout_kills = nullptr;
  obs::Counter* fault_kills = nullptr;
  obs::Counter* spec_cancelled = nullptr;
  obs::Counter* epochs = nullptr;
  obs::Counter* moves = nullptr;
  obs::Counter* faults = nullptr;
  obs::Gauge* pending = nullptr;
  obs::Histogram* runtime = nullptr;
};

struct PendingMove {
  DataId data;
  StoreId from{0};
  StoreId to;
  double fraction = 0.0;
  double start_s = 0.0;
  double duration_s = 0.0;
  Millicents cost_mc = Millicents::zero();
  bool finished = false;
  bool aborted = false;  ///< endpoint store lost mid-transfer
};

class Engine final : public ClusterState {
 public:
  Engine(const cluster::Cluster& cluster, const workload::Workload& workload,
         sched::Scheduler& policy, const SimConfig& config,
         const workload::JobDag* dependencies)
      : c_(cluster), w_(workload), policy_(policy), cfg_(config) {
    LIPS_REQUIRE(c_.finalized(), "cluster must be finalized");
    // Observability first: ingest replication below already bills (and
    // therefore posts to the ledger), and the policy may consult its
    // observer from the first callback.
    obs_ = cfg_.obs;
    tracer_ = obs_.tracer;
    ledger_ = obs_.ledger;
    policy_.set_observer(obs_);
    if (obs_.metrics != nullptr) {
      obs::MetricRegistry& reg = *obs_.metrics;
      meters_.launched = &reg.counter("lips_sim_instances_launched_total",
                                      {{"speculative", "false"}});
      meters_.launched_spec = &reg.counter("lips_sim_instances_launched_total",
                                           {{"speculative", "true"}});
      meters_.completed = &reg.counter("lips_sim_tasks_completed_total");
      meters_.timeout_kills = &reg.counter("lips_sim_timeout_kills_total");
      meters_.fault_kills = &reg.counter("lips_sim_fault_kills_total");
      meters_.spec_cancelled =
          &reg.counter("lips_sim_speculative_cancelled_total");
      meters_.epochs = &reg.counter("lips_sim_epochs_total");
      meters_.moves = &reg.counter("lips_sim_data_moves_total");
      meters_.faults = &reg.counter("lips_sim_faults_injected_total");
      meters_.pending = &reg.gauge("lips_sim_pending_tasks");
      meters_.runtime = &reg.histogram(
          "lips_sim_instance_runtime_seconds",
          {1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0});
    }
    if (dependencies) {
      // The DAG may be sized generously (extra ids are simply jobless);
      // it must at least cover every real job.
      LIPS_REQUIRE(dependencies->job_count() >= w_.job_count(),
                   "dependency DAG must cover the workload's jobs");
      LIPS_REQUIRE(!dependencies->has_cycle(), "dependency DAG has a cycle");
    }

    // Materialize tasks, jobs sorted by arrival (stable on id).
    job_order_.resize(w_.job_count());
    for (std::size_t k = 0; k < w_.job_count(); ++k) job_order_[k] = k;
    std::stable_sort(job_order_.begin(), job_order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return w_.job(JobId{a}).arrival_s <
                              w_.job(JobId{b}).arrival_s;
                     });
    job_rank_.resize(w_.job_count());
    for (std::size_t r = 0; r < job_order_.size(); ++r)
      job_rank_[job_order_[r]] = r;

    first_task_of_job_.resize(w_.job_count());
    for (std::size_t r = 0; r < job_order_.size(); ++r) {
      const JobId k{job_order_[r]};
      const workload::Job& job = w_.job(k);
      first_task_of_job_[k.value()] = tasks_.size();
      const double input = w_.job_input_mb(k);
      const double cpu = w_.job_cpu_ecu_s(k);
      const auto n = static_cast<double>(job.num_tasks);
      for (std::size_t t = 0; t < job.num_tasks; ++t) {
        SimTask st;
        st.job = k;
        st.index_in_job = t;
        st.input_mb = input / n;
        st.cpu_ecu_s = cpu / n;
        // Multi-object jobs read proportionally from each object; the
        // simulator attributes each task to the job's largest object for
        // placement purposes (reads are priced on total input regardless).
        if (!job.data.empty()) {
          DataId biggest = job.data.front();
          for (DataId d : job.data)
            if (w_.data(d).size_mb > w_.data(biggest).size_mb) biggest = d;
          st.data = biggest;
        }
        tasks_.push_back(st);
      }
    }
    status_.assign(tasks_.size(), TaskStatus::NotArrived);
    retries_.assign(tasks_.size(), 0);
    running_of_task_.assign(tasks_.size(), {});

    presence_.resize(w_.data_count());
    for (std::size_t d = 0; d < w_.data_count(); ++d) {
      // Intermediate (shuffle) objects do not exist until produced.
      if (!w_.data(DataId{d}).is_intermediate())
        presence_[d][w_.data(DataId{d}).origin.value()] = 1.0;
    }
    if (cfg_.hdfs_replication > 1) place_ingest_replicas();

    preds_remaining_.assign(w_.job_count(), 0);
    successors_.assign(w_.job_count(), {});
    arrival_passed_.assign(w_.job_count(), false);
    activated_.assign(w_.job_count(), false);
    if (dependencies) {
      for (std::size_t j = 0; j < w_.job_count(); ++j) {
        const auto& preds = dependencies->predecessors(JobId{j});
        preds_remaining_[j] = preds.size();
        for (const std::size_t p : preds) successors_[p].push_back(j);
      }
    }
    job_machine_work_.assign(w_.job_count(),
                             std::vector<double>(c_.machine_count(), 0.0));

    slots_free_.resize(c_.machine_count());
    for (std::size_t m = 0; m < c_.machine_count(); ++m) {
      slots_free_[m] = c_.machine(MachineId{m}).map_slots;
      total_slots_ += static_cast<std::size_t>(
          std::max(0, c_.machine(MachineId{m}).map_slots));
    }

    job_remaining_.resize(w_.job_count());
    for (std::size_t k = 0; k < w_.job_count(); ++k)
      job_remaining_[k] = w_.job(JobId{k}).num_tasks;

    result_.machines.resize(c_.machine_count());
    result_.job_finish_s.assign(w_.job_count(),
                                std::numeric_limits<double>::quiet_NaN());

    machine_up_.assign(c_.machine_count(), true);
    machine_gone_.assign(c_.machine_count(), false);
    down_since_.assign(c_.machine_count(), 0.0);
    link_factor_.assign(c_.machine_count(), 1.0);
    cpu_factor_.assign(c_.machine_count(), 1.0);
    slow_depth_.assign(c_.machine_count(), 0);
    slow_since_.assign(c_.machine_count(), 0.0);
    tp_ewma_.assign(c_.machine_count(), 1.0);
    store_gone_.assign(c_.store_count(), false);
    fault_kills_.assign(tasks_.size(), 0);
    job_aborted_.assign(w_.job_count(), false);
    if (!cfg_.faults.empty()) {
      cfg_.faults.validate(c_.machine_count(), c_.store_count());
      fault_events_ = cfg_.faults.events;
      std::stable_sort(fault_events_.begin(), fault_events_.end(),
                       [](const FaultEvent& a, const FaultEvent& b) {
                         return a.time_s < b.time_s;
                       });
    }
  }

  SimResult run() {
    if (cfg_.restore_from != nullptr) {
      // Resume: the constructor built the immutable side (tasks, topology,
      // prices); the payload overwrites everything mutable including the
      // event queue, so the fresh-run seeding below must not run.
      ckpt::Reader reader(cfg_.restore_from->payload.data(),
                          cfg_.restore_from->payload.size());
      load_state(reader);
      if (!reader.at_end())
        throw ckpt::SnapshotError("snapshot payload has trailing bytes");
      result_.restored = true;
    } else {
      for (std::size_t k = 0; k < w_.job_count(); ++k)
        push_event(w_.job(JobId{k}).arrival_s, EventKind::JobArrival, k);
      const double epoch = policy_.epoch_s();
      if (epoch > 0) {
        // First tick fires with the t=0 arrivals already queued (arrival
        // events were enqueued first and therefore sort earlier).
        push_event(0.0, EventKind::EpochTick, 0);
      } else if (cfg_.checkpoint_dir != nullptr &&
                 cfg_.checkpoint_interval_s > 0) {
        // Epoch-less schedulers (fifo/delay/fair) never tick, so they need
        // their own checkpoint cadence carrier.
        push_event(cfg_.checkpoint_interval_s, EventKind::CheckpointTick, 0);
      }
      for (std::size_t f = 0; f < fault_events_.size(); ++f)
        push_event(fault_events_[f].time_s, EventKind::Fault, f);
    }

    while (!events_.empty()) {
      const Event ev = events_.top();
      events_.pop();
      if (ev.time > cfg_.horizon_s) break;
      now_ = ev.time;
      const obs::Span span(tracer_, span_name(ev.kind), "sim");
      dispatch(ev);
    }

    flush_at_horizon();
    finalize_result();
    return result_;
  }

  // ---- ClusterState ------------------------------------------------------
  [[nodiscard]] double now() const override { return now_; }
  [[nodiscard]] const cluster::Cluster& cluster() const override { return c_; }
  [[nodiscard]] const workload::Workload& workload() const override {
    return w_;
  }
  [[nodiscard]] std::span<const std::size_t> pending() const override {
    return pending_;
  }
  [[nodiscard]] const SimTask& task(std::size_t id) const override {
    LIPS_REQUIRE(id < tasks_.size(), "task id out of range");
    return tasks_[id];
  }
  [[nodiscard]] bool is_pending(std::size_t id) const override {
    LIPS_REQUIRE(id < tasks_.size(), "task id out of range");
    return status_[id] == TaskStatus::Pending;
  }
  [[nodiscard]] double stored_fraction(DataId d, StoreId s) const override {
    const auto& row = presence_.at(d.value());
    const auto it = row.find(s.value());
    return it == row.end() ? 0.0 : it->second;
  }
  [[nodiscard]] int free_slots(MachineId m) const override {
    return slots_free_.at(m.value());
  }
  [[nodiscard]] bool machine_up(MachineId m) const override {
    return machine_up_.at(m.value());
  }
  [[nodiscard]] bool store_up(StoreId s) const override {
    return !store_gone_.at(s.value());
  }
  [[nodiscard]] double observed_throughput(MachineId m) const override {
    return tp_ewma_.at(m.value());
  }

 private:
  /// HDFS default replica placement: replica 2 in a different zone than the
  /// origin (off-rack), replica 3 in replica 2's zone, the rest uniform.
  /// Each copy is billed as a store-to-store transfer from the origin at
  /// ingest time (before the simulated clock starts).
  void place_ingest_replicas() {
    Rng rng(cfg_.replication_seed);
    for (std::size_t d = 0; d < w_.data_count(); ++d) {
      const workload::DataObject& obj = w_.data(DataId{d});
      const StoreId origin = obj.origin;
      std::vector<StoreId> other_zone, same_zone_as_second, all_other;
      for (std::size_t s = 0; s < c_.store_count(); ++s) {
        if (s == origin.value()) continue;
        all_other.push_back(StoreId{s});
        if (c_.store(StoreId{s}).zone != c_.store(origin).zone)
          other_zone.push_back(StoreId{s});
      }
      if (all_other.empty()) continue;
      std::vector<StoreId> replicas;
      for (std::size_t r = 1; r < cfg_.hdfs_replication; ++r) {
        StoreId pick{0};
        if (r == 1 && !other_zone.empty()) {
          pick = other_zone[rng.index(other_zone.size())];
        } else if (r == 2 && !replicas.empty()) {
          // Third replica: same zone as the second, different store.
          std::vector<StoreId> near;
          for (StoreId s : all_other)
            if (c_.store(s).zone == c_.store(replicas.front()).zone &&
                s != replicas.front())
              near.push_back(s);
          pick = near.empty() ? all_other[rng.index(all_other.size())]
                              : near[rng.index(near.size())];
        } else {
          pick = all_other[rng.index(all_other.size())];
        }
        if (stored_fraction(DataId{d}, pick) >= 1.0) continue;  // duplicate
        presence_[d][pick.value()] = 1.0;
        const Millicents repl_cost =
            Bytes::mb(obj.size_mb) * c_.ss_cost_mc_per_mb(origin, pick);
        result_.ingest_replication_cost_mc += repl_cost;
        if (ledger_ != nullptr)
          ledger_->post(obs::CostMeter::IngestReplication, repl_cost);
        replicas.push_back(pick);
      }
    }
  }

  void trace(TraceEvent::Kind kind, std::size_t job = SIZE_MAX,
             std::size_t task = SIZE_MAX, std::size_t machine = SIZE_MAX,
             std::size_t store = SIZE_MAX, double amount = 0.0) {
    if (!cfg_.record_trace) return;
    result_.trace.push_back(
        TraceEvent{kind, now_, job, task, machine, store, amount});
  }

  // ---- event plumbing ----------------------------------------------------
  void push_event(double time, EventKind kind, std::size_t payload) {
    events_.push(Event{time, seq_++, kind, payload});
  }

  void dispatch(const Event& ev) {
    switch (ev.kind) {
      case EventKind::JobArrival:
        on_job_arrival(ev.payload);
        break;
      case EventKind::InstanceFinish:
        on_instance_finish(ev.payload);
        break;
      case EventKind::EpochTick:
        on_epoch_tick();
        break;
      case EventKind::MoveFinish:
        on_move_finish(ev.payload);
        break;
      case EventKind::Fault:
        on_fault(ev.payload);
        break;
      case EventKind::MachineRestore:
        on_machine_restore(ev.payload);
        break;
      case EventKind::LinkRestore:
        on_link_restore(ev.payload);
        break;
      case EventKind::TaskRetry:
        on_task_retry(ev.payload);
        break;
      case EventKind::SlowdownRestore:
        on_slowdown_restore(ev.payload);
        break;
      case EventKind::CheckpointTick:
        on_checkpoint_tick();
        break;
    }
  }

  [[nodiscard]] bool work_remains() const {
    return done_tasks_ + lost_tasks_ < tasks_.size();
  }

  // FIFO ordering key for the pending list.
  [[nodiscard]] std::tuple<double, std::size_t, std::size_t> pending_key(
      std::size_t id) const {
    const SimTask& t = tasks_[id];
    return {w_.job(t.job).arrival_s, job_rank_[t.job.value()], t.index_in_job};
  }

  void pending_insert(std::size_t id) {
    const auto key = pending_key(id);
    const auto it = std::lower_bound(
        pending_.begin(), pending_.end(), key,
        [&](std::size_t lhs, const auto& k) { return pending_key(lhs) < k; });
    pending_.insert(it, id);
  }

  void pending_erase(std::size_t id) {
    const auto it = std::find(pending_.begin(), pending_.end(), id);
    LIPS_ASSERT(it != pending_.end(), "task not pending");
    pending_.erase(it);
  }

  // ---- handlers ----------------------------------------------------------
  void on_job_arrival(std::size_t job) {
    arrival_passed_[job] = true;
    if (job_aborted_[job]) return;
    if (preds_remaining_[job] == 0) activate_job(job);
  }

  /// A job's tasks enter the pending queue once it has both arrived and
  /// seen all its DAG predecessors complete.
  void activate_job(std::size_t job) {
    if (job_aborted_[job]) return;
    LIPS_ASSERT(!activated_[job], "job activated twice");
    activated_[job] = true;
    const workload::Job& j = w_.job(JobId{job});
    const std::size_t base = first_task_of_job_[job];
    for (std::size_t t = 0; t < j.num_tasks; ++t) {
      status_[base + t] = TaskStatus::Pending;
      pending_insert(base + t);
    }
    trace(TraceEvent::Kind::JobArrival, job);
    policy_.on_job_arrival(JobId{job}, *this);
    try_assign();
  }

  void on_epoch_tick() {
    result_.epochs += 1;
    // Posts between consecutive ticks land on this epoch's ledger rows
    // (epoch 0 covers ingest and everything before the first tick settles).
    if (ledger_ != nullptr) ledger_->set_current_epoch(result_.epochs);
    if (meters_.epochs != nullptr) {
      meters_.epochs->inc();
      meters_.pending->set(static_cast<double>(pending_.size()));
    }
    if (tracer_ != nullptr)
      tracer_->instant("epoch", "sim", "epoch",
                       static_cast<double>(result_.epochs), "sim_time_s", now_);
    trace(TraceEvent::Kind::EpochTick);
    policy_.on_epoch(*this);
    for (const sched::DataMove& mv : policy_.take_data_moves()) start_move(mv);
    try_assign();
    if (work_remains())
      push_event(now_ + policy_.epoch_s(), EventKind::EpochTick, 0);
    // Consistency point: the policy has replanned, moves and the next tick
    // are queued — everything a resumed run needs is in serializable state.
    maybe_checkpoint();
  }

  void start_move(const sched::DataMove& mv) {
    LIPS_REQUIRE(mv.data.value() < w_.data_count(), "move: unknown data");
    LIPS_REQUIRE(mv.to.value() < c_.store_count(), "move: unknown store");
    if (store_gone_[mv.to.value()]) return;  // stale directive, drop it
    double fraction = std::clamp(mv.fraction, 0.0, 1.0);
    const double available = stored_fraction(mv.data, mv.from);
    fraction = std::min(fraction, available);
    if (fraction <= 0.0) return;
    const Bytes mb = Bytes::mb(fraction * w_.data(mv.data).size_mb);
    const BytesPerSec bw = c_.store_bandwidth_mb_s(mv.from, mv.to);
    const Millicents cost = mb * c_.ss_cost_mc_per_mb(mv.from, mv.to);
    PendingMove pm;
    pm.data = mv.data;
    pm.from = mv.from;
    pm.to = mv.to;
    pm.fraction = fraction;
    pm.start_s = now_;
    pm.duration_s = (mb / bw).secs();
    pm.cost_mc = cost;
    moves_.push_back(pm);
    trace(TraceEvent::Kind::DataMoveStart, SIZE_MAX, SIZE_MAX, SIZE_MAX,
          mv.to.value(), mb.mb());
    push_event(now_ + pm.duration_s, EventKind::MoveFinish, moves_.size() - 1);
  }

  void on_move_finish(std::size_t idx) {
    PendingMove& mv = moves_.at(idx);
    if (mv.aborted) return;  // endpoint store died mid-transfer
    mv.finished = true;
    presence_[mv.data.value()][mv.to.value()] = std::min(
        1.0, presence_[mv.data.value()][mv.to.value()] + mv.fraction);
    result_.placement_transfer_cost_mc += mv.cost_mc;
    if (ledger_ != nullptr)
      ledger_->post(obs::CostMeter::PlacementTransfer, mv.cost_mc);
    if (meters_.moves != nullptr) meters_.moves->inc();
    trace(TraceEvent::Kind::DataMoveFinish, SIZE_MAX, SIZE_MAX, SIZE_MAX,
          mv.to.value(), mv.fraction * w_.data(mv.data).size_mb);
    try_assign();
  }

  void on_instance_finish(std::size_t iid) {
    Instance& inst = instances_.at(iid);
    if (inst.cancelled || inst.settled) return;  // settled/cancelled already
    // A slowdown re-timing pushed a fresh finish event and moved inst.finish;
    // any event arriving before that time is the stale original.
    if (inst.finish > now_ + 1e-9) return;

    if (inst.timeout_kill) {
      settle(iid, inst.finish);
      result_.timeout_kills += 1;
      if (meters_.timeout_kills != nullptr) meters_.timeout_kills->inc();
      trace(TraceEvent::Kind::TimeoutKill, tasks_[inst.task].job.value(),
            inst.task, inst.machine);
      slots_free_[inst.machine] += 1;
      detach_instance(iid);
      if (status_[inst.task] == TaskStatus::Running &&
          running_of_task_[inst.task].empty()) {
        status_[inst.task] = TaskStatus::Pending;
        pending_insert(inst.task);
      }
      try_assign();
      return;
    }

    settle(iid, inst.finish);
    slots_free_[inst.machine] += 1;
    detach_instance(iid);

    // Copy what we need: on_job_complete() below can activate successor
    // jobs, whose launches may grow instances_ and invalidate `inst`.
    const std::size_t tid = inst.task;
    const std::size_t inst_machine = inst.machine;
    if (status_[tid] != TaskStatus::Done) {
      status_[tid] = TaskStatus::Done;
      done_tasks_ += 1;
      result_.tasks_completed += 1;
      if (meters_.completed != nullptr) meters_.completed->inc();
      result_.makespan_s = std::max(result_.makespan_s, now_);
      trace(TraceEvent::Kind::TaskComplete, tasks_[tid].job.value(), tid,
            inst.machine, SIZE_MAX, (inst.exec_cost_mc + inst.read_cost_mc).mc());
      if (tasks_[tid].data) {
        const auto store = inst.store;
        if (store && c_.store(*store).colocated_machine == inst.machine)
          local_reads_ += 1;
        data_reads_ += 1;
      }
      // Cancel any sibling (speculative) copies still running. Whatever the
      // loser burned — exec seconds and bytes on the wire — bought nothing,
      // so its bill also lands in the waste meter.
      for (const std::size_t sibling : running_of_task_[tid]) {
        instances_[sibling].cancelled = true;
        const Millicents exec_before = result_.execution_cost_mc;
        const Millicents read_before = result_.read_transfer_cost_mc;
        settle(sibling, now_);
        const Millicents waste =
            (result_.execution_cost_mc - exec_before) +
            (result_.read_transfer_cost_mc - read_before);
        result_.wasted_cost_mc += waste;
        if (ledger_ != nullptr)
          ledger_->post(obs::CostMeter::Wasted, waste, tasks_[tid].job.value(),
                        instances_[sibling].machine);
        if (meters_.spec_cancelled != nullptr) meters_.spec_cancelled->inc();
        slots_free_[instances_[sibling].machine] += 1;
        result_.speculative_wasted += 1;
        trace(TraceEvent::Kind::TaskCancelled, tasks_[tid].job.value(), tid,
              instances_[sibling].machine);
      }
      running_of_task_[tid].clear();

      const std::size_t jv = tasks_[tid].job.value();
      LIPS_ASSERT(job_remaining_[jv] > 0, "job task accounting underflow");
      if (--job_remaining_[jv] == 0) {
        result_.job_finish_s[jv] = now_;
        result_.sum_job_duration_s += now_ - w_.job(JobId{jv}).arrival_s;
        on_job_complete(jv);
      }
      policy_.on_task_complete(tid, MachineId{inst_machine}, *this);
    }
    try_assign();
  }

  /// Producer finished: materialize its intermediate (shuffle) outputs
  /// across the stores of the machines that did the work — map output is
  /// written to local disk, so this costs nothing — and unlock successors.
  void on_job_complete(std::size_t job) {
    for (std::size_t d = 0; d < w_.data_count(); ++d) {
      const workload::DataObject& obj = w_.data(DataId{d});
      if (!obj.is_intermediate() || *obj.produced_by != job) continue;
      const auto& work = job_machine_work_[job];
      double total = 0.0;
      for (const double v : work) total += v;
      if (total <= 0.0) {
        std::size_t target = obj.origin.value();
        if (store_gone_[target]) {
          const auto fb = fallback_store();
          if (!fb) {
            mark_readers_lost(d);
            continue;
          }
          target = *fb;
        }
        presence_[d][target] = 1.0;  // degenerate producer
        continue;
      }
      for (std::size_t m = 0; m < work.size(); ++m) {
        if (work[m] <= 0.0) continue;
        const auto store = c_.store_of_machine(MachineId{m});
        std::size_t target = store ? store->value() : obj.origin.value();
        if (store_gone_[target]) {
          const auto fb = fallback_store();
          if (!fb) continue;
          target = *fb;
        }
        presence_[d][target] =
            std::min(1.0, presence_[d][target] + work[m] / total);
      }
      if (presence_[d].empty()) mark_readers_lost(d);  // nowhere to write
    }
    for (const std::size_t succ : successors_[job]) {
      LIPS_ASSERT(preds_remaining_[succ] > 0, "predecessor underflow");
      if (--preds_remaining_[succ] == 0 && arrival_passed_[succ])
        activate_job(succ);
    }
  }

  void detach_instance(std::size_t iid) {
    auto& running = running_of_task_[instances_[iid].task];
    const auto it = std::find(running.begin(), running.end(), iid);
    if (it != running.end()) running.erase(it);
  }

  /// Charge instance `iid`'s cost and busy time for running until `end`.
  /// Work (read bytes, useful ECU-seconds) is billed by progress; execution
  /// is billed by wall time, so a slowed machine keeps charging for its
  /// reserved slot while delivering less — on a never-retimed instance the
  /// two fractions are the same number and the arithmetic is bit-identical
  /// to the pre-slowdown formula.
  void settle(std::size_t iid, double end) {
    Instance& inst = instances_[iid];
    if (inst.settled) return;
    inst.settled = true;
    const auto ait =
        std::find(active_instances_.begin(), active_instances_.end(), iid);
    if (ait != active_instances_.end()) active_instances_.erase(ait);
    const double ran = std::max(0.0, end - inst.start);
    const double leg = std::max(0.0, end - inst.last_update);
    double frac_work = 1.0;
    double frac_bill = 1.0;
    if (inst.full_duration > 0) {
      frac_work =
          std::min(1.0, inst.progress + leg * inst.rate / inst.full_duration);
      frac_bill = inst.billed_frac + leg / inst.full_duration;
      // Never-retimed instances cannot overrun their duration; keep the
      // historical clamp (re-timed ones legitimately bill past 1.0).
      if (!inst.ever_retimed) frac_bill = std::min(1.0, frac_bill);
    }
    const Millicents exec = frac_bill * inst.exec_cost_mc;
    const Millicents read = frac_work * inst.read_cost_mc;
    result_.execution_cost_mc += exec;
    result_.read_transfer_cost_mc += read;
    if (inst.speculative) result_.speculation_cost_mc += exec + read;
    if (ledger_ != nullptr) {
      const std::size_t job = tasks_[inst.task].job.value();
      ledger_->post(obs::CostMeter::Execution, exec, job, inst.machine);
      ledger_->post(obs::CostMeter::ReadTransfer, read, job, inst.machine);
      if (inst.speculative)
        ledger_->post(obs::CostMeter::Speculation, exec + read, job,
                      inst.machine);
    }
    if (meters_.runtime != nullptr) meters_.runtime->observe(ran);
    MachineMetrics& mm = result_.machines[inst.machine];
    mm.busy_s += ran;
    mm.cpu_cost_mc += exec;
    mm.read_cost_mc += read;
    mm.cpu_work_ecu_s +=
        frac_work * tasks_[inst.task].cpu_ecu_s;  // pro-rata useful work
    mm.tasks_run += 1;
    job_machine_work_[tasks_[inst.task].job.value()][inst.machine] +=
        frac_work * tasks_[inst.task].cpu_ecu_s;
    observe_throughput_sample(inst, ran, frac_work);
  }

  /// Feed one finished/killed instance's realized progress rate into the
  /// machine's observed-throughput EWMA. `frac_work × full_duration / ran`
  /// is the instance's average speed relative to nominal: exactly 1.0 for
  /// a full-speed run. Full-speed samples against an untouched EWMA are
  /// skipped so a healthy machine reads exactly 1.0 forever (bit-identity
  /// with throughput-oblivious behavior), while a recovered machine's EWMA
  /// climbs back toward 1.0 sample by sample.
  void observe_throughput_sample(const Instance& inst, double ran,
                                 double frac_work) {
    if (ran <= 0.0 || inst.full_duration <= 0.0) return;
    double sample = frac_work * inst.full_duration / ran;
    if (sample > 1.0 || std::abs(sample - 1.0) < 1e-9) sample = 1.0;
    double& ewma = tp_ewma_[inst.machine];
    if (sample == 1.0 && ewma == 1.0) return;
    const double a = cfg_.throughput_ewma_alpha;
    ewma = a * sample + (1.0 - a) * ewma;
  }

  // ---- fault handling ----------------------------------------------------
  /// Fault handlers change cluster state behind the policy's back, so after
  /// notifying the policy we drain any directives it issued off-cycle (an
  /// epoch policy may re-plan immediately) and retry assignment.
  void drain_policy() {
    for (const sched::DataMove& mv : policy_.take_data_moves()) start_move(mv);
    try_assign();
  }

  [[nodiscard]] std::optional<std::size_t> fallback_store() const {
    for (std::size_t s = 0; s < c_.store_count(); ++s)
      if (!store_gone_[s]) return s;
    return std::nullopt;
  }

  void on_fault(std::size_t idx) {
    const FaultEvent e = fault_events_[idx];  // by value: the list may grow
    if (meters_.faults != nullptr) meters_.faults->inc();
    if (tracer_ != nullptr)
      tracer_->instant(fault_span_name(e.kind), "fault", "machine",
                       static_cast<double>(e.machine), "store",
                       static_cast<double>(e.store));
    switch (e.kind) {
      case FaultEvent::Kind::MachineCrash: {
        const bool permanent = e.duration_s <= 0.0;
        if (apply_machine_loss(e.machine, permanent) && !permanent)
          push_event(now_ + e.duration_s, EventKind::MachineRestore, e.machine);
        break;
      }
      case FaultEvent::Kind::SpotRevocation: {
        if (machine_gone_[e.machine]) break;
        result_.spot_revocations += 1;
        trace(TraceEvent::Kind::SpotRevocationWarning, SIZE_MAX, SIZE_MAX,
              e.machine, SIZE_MAX, e.warning_s);
        policy_.on_spot_warning(MachineId{e.machine}, now_ + e.warning_s,
                                *this);
        drain_policy();
        // The revocation itself is a permanent crash once the notice lapses.
        FaultEvent crash;
        crash.kind = FaultEvent::Kind::MachineCrash;
        crash.time_s = now_ + e.warning_s;
        crash.machine = e.machine;
        crash.duration_s = 0.0;
        fault_events_.push_back(crash);
        push_event(crash.time_s, EventKind::Fault, fault_events_.size() - 1);
        break;
      }
      case FaultEvent::Kind::StoreLoss:
        apply_store_loss(e.store);
        break;
      case FaultEvent::Kind::LinkDegrade:
        if (machine_gone_[e.machine]) break;
        link_factor_[e.machine] *= e.factor;
        push_event(now_ + e.duration_s, EventKind::LinkRestore, idx);
        break;
      case FaultEvent::Kind::MachineSlowdown: {
        if (machine_gone_[e.machine]) break;
        const std::size_t m = e.machine;
        if (slow_depth_[m] == 0) slow_since_[m] = now_;
        slow_depth_[m] += 1;
        cpu_factor_[m] *= e.factor;  // overlapping windows compound
        result_.machine_slowdowns += 1;
        trace(TraceEvent::Kind::MachineSlowed, SIZE_MAX, SIZE_MAX, m, SIZE_MAX,
              cpu_factor_[m]);
        retime_machine(m);
        push_event(now_ + e.duration_s, EventKind::SlowdownRestore, idx);
        break;
      }
    }
  }

  void on_link_restore(std::size_t idx) {
    const FaultEvent& e = fault_events_[idx];
    link_factor_[e.machine] /= e.factor;
    try_assign();
  }

  void on_slowdown_restore(std::size_t idx) {
    const FaultEvent& e = fault_events_[idx];
    const std::size_t m = e.machine;
    LIPS_ASSERT(slow_depth_[m] > 0, "slowdown window accounting underflow");
    slow_depth_[m] -= 1;
    if (slow_depth_[m] == 0) {
      // Snap to exactly 1.0: compounded multiplies and divides can leave
      // one-ulp residue, and "factor == 1.0" means "nominal" elsewhere.
      cpu_factor_[m] = 1.0;
      result_.machines[m].slowed_s += now_ - slow_since_[m];
    } else {
      cpu_factor_[m] /= e.factor;
    }
    trace(TraceEvent::Kind::MachineSpeedRestored, SIZE_MAX, SIZE_MAX, m,
          SIZE_MAX, cpu_factor_[m]);
    retime_machine(m);
  }

  /// The CPU factor of `m` just changed: bank every in-flight instance's
  /// progress at the old rate and project a new finish at the new rate.
  /// The superseded finish event stays queued; on_instance_finish discards
  /// it as stale because it arrives before the updated inst.finish.
  void retime_machine(std::size_t m) {
    for (const std::size_t iid : active_instances_) {
      Instance& inst = instances_[iid];
      if (inst.machine != m || inst.settled || inst.cancelled) continue;
      advance_progress(inst);
      inst.rate = cpu_factor_[m];
      inst.ever_retimed = true;
      if (inst.timeout_kill) continue;  // the kill still fires on schedule
      if (inst.full_duration > 0.0) {
        inst.finish =
            now_ + (1.0 - inst.progress) * inst.full_duration / inst.rate;
        push_event(inst.finish, EventKind::InstanceFinish, iid);
      }
    }
  }

  /// Accrue work and billed time for the leg since the last update.
  void advance_progress(Instance& inst) {
    const double leg = std::max(0.0, now_ - inst.last_update);
    if (inst.full_duration > 0.0 && leg > 0.0) {
      inst.progress =
          std::min(1.0, inst.progress + leg * inst.rate / inst.full_duration);
      inst.billed_frac += leg / inst.full_duration;
    }
    inst.last_update = now_;
  }

  /// Take `m` down, killing its in-flight instances. Returns whether the
  /// loss was applied (false: machine already down/gone — a repeated crash
  /// can still escalate a transient outage to a permanent one).
  bool apply_machine_loss(std::size_t m, bool permanent) {
    if (machine_gone_[m]) return false;
    if (!machine_up_[m]) {
      if (permanent) machine_gone_[m] = true;
      return false;
    }
    machine_up_[m] = false;
    machine_gone_[m] = permanent;
    down_since_[m] = now_;
    slots_free_[m] = 0;
    result_.machines_lost += 1;
    trace(TraceEvent::Kind::MachineLost, SIZE_MAX, SIZE_MAX, m);
    // Iterate over a copy: kills mutate active_instances_.
    const std::vector<std::size_t> active = active_instances_;
    for (const std::size_t iid : active)
      if (instances_[iid].machine == m)
        kill_instance_for_fault(iid, /*free_slot=*/false);
    policy_.on_machine_lost(MachineId{m}, *this);
    drain_policy();
    return true;
  }

  void on_machine_restore(std::size_t m) {
    if (machine_gone_[m] || machine_up_[m]) return;
    machine_up_[m] = true;
    result_.machines[m].downtime_s += now_ - down_since_[m];
    result_.machines_restored += 1;
    slots_free_[m] = c_.machine(MachineId{m}).map_slots;
    trace(TraceEvent::Kind::MachineRestored, SIZE_MAX, SIZE_MAX, m);
    policy_.on_machine_restored(MachineId{m}, *this);
    drain_policy();
  }

  void apply_store_loss(std::size_t s) {
    if (store_gone_[s]) return;
    store_gone_[s] = true;
    result_.stores_lost += 1;
    trace(TraceEvent::Kind::StoreLost, SIZE_MAX, SIZE_MAX, SIZE_MAX, s);
    // Kill in-flight instances reading from the store.
    const std::vector<std::size_t> active = active_instances_;
    for (const std::size_t iid : active) {
      const Instance& inst = instances_[iid];
      if (inst.store && inst.store->value() == s)
        kill_instance_for_fault(iid, /*free_slot=*/true);
    }
    // Abort transfers touching the store; bytes already on the wire were
    // paid for and are now worthless.
    for (PendingMove& mv : moves_) {
      if (mv.finished || mv.aborted) continue;
      if (mv.from.value() != s && mv.to.value() != s) continue;
      mv.aborted = true;
      const double frac_done =
          mv.duration_s <= 0.0
              ? 1.0
              : std::clamp((now_ - mv.start_s) / mv.duration_s, 0.0, 1.0);
      const Millicents part = frac_done * mv.cost_mc;
      result_.placement_transfer_cost_mc += part;
      result_.wasted_cost_mc += part;
      if (ledger_ != nullptr) {
        ledger_->post(obs::CostMeter::PlacementTransfer, part);
        ledger_->post(obs::CostMeter::Wasted, part);
      }
    }
    // Wipe the store's block fractions; objects that lost their last usable
    // replica are re-materialized from their durable source.
    std::vector<std::size_t> touched;
    for (std::size_t d = 0; d < w_.data_count(); ++d)
      if (presence_[d].erase(s) > 0) touched.push_back(d);
    for (const std::size_t d : touched) ensure_object_available(d);
    policy_.on_store_lost(StoreId{s}, *this);
    drain_policy();
  }

  /// Recreate a wiped object from its durable source (HDFS re-replication /
  /// re-ingest): a full copy at the origin store, or at the first surviving
  /// store when the origin itself is gone. An object with no surviving store
  /// anywhere is unrecoverable — its reader tasks are abandoned.
  void ensure_object_available(std::size_t d) {
    double total = 0.0;
    for (const auto& [s, f] : presence_[d]) total += f;
    if (total >= 1.0 - 1e-9) return;
    const workload::DataObject& obj = w_.data(DataId{d});
    if (obj.is_intermediate() && job_remaining_[*obj.produced_by] > 0)
      return;  // not produced yet; nothing was lost
    std::size_t target = obj.origin.value();
    if (store_gone_[target]) {
      const auto fb = fallback_store();
      if (!fb) {
        mark_readers_lost(d);
        return;
      }
      target = *fb;
    }
    presence_[d][target] = 1.0;
    result_.data_refetches += 1;
  }

  void mark_readers_lost(std::size_t d) {
    for (std::size_t tid = 0; tid < tasks_.size(); ++tid)
      if (tasks_[tid].data && tasks_[tid].data->value() == d)
        mark_task_lost(tid);
  }

  /// Abandon a task that can never complete, and with it the whole job
  /// (a MapReduce job with a dead task has no output) plus any DAG branch
  /// downstream of it.
  void mark_task_lost(std::size_t tid) {
    switch (status_[tid]) {
      case TaskStatus::Done:
      case TaskStatus::Lost:
        return;
      case TaskStatus::Running:
        // Copies still in flight get to finish honestly; only a task whose
        // last instance was just killed can be abandoned.
        if (!running_of_task_[tid].empty()) return;
        break;
      case TaskStatus::Pending:
        pending_erase(tid);
        break;
      case TaskStatus::NotArrived:
      case TaskStatus::Backoff:
        break;
    }
    status_[tid] = TaskStatus::Lost;
    lost_tasks_ += 1;
    result_.tasks_lost += 1;
    abort_job(tasks_[tid].job.value());
  }

  void abort_job(std::size_t job) {
    if (job_aborted_[job]) return;
    job_aborted_[job] = true;
    const workload::Job& j = w_.job(JobId{job});
    const std::size_t base = first_task_of_job_[job];
    for (std::size_t t = 0; t < j.num_tasks; ++t) mark_task_lost(base + t);
    for (const std::size_t succ : successors_[job])
      if (!activated_[succ]) abort_job(succ);
  }

  /// Kill one in-flight instance because its machine or input store died.
  /// The work already done is billed (and counted as waste); the task is
  /// requeued with exponential backoff until its retry budget runs out.
  void kill_instance_for_fault(std::size_t iid, bool free_slot) {
    Instance& inst = instances_[iid];
    if (inst.settled || inst.cancelled) return;
    const Millicents exec_before = result_.execution_cost_mc;
    const Millicents read_before = result_.read_transfer_cost_mc;
    settle(iid, now_);
    const Millicents waste = (result_.execution_cost_mc - exec_before) +
                             (result_.read_transfer_cost_mc - read_before);
    result_.wasted_cost_mc += waste;
    if (ledger_ != nullptr)
      ledger_->post(obs::CostMeter::Wasted, waste,
                    tasks_[inst.task].job.value(), inst.machine);
    if (meters_.fault_kills != nullptr) meters_.fault_kills->inc();
    inst.cancelled = true;  // the queued finish event becomes a no-op
    if (free_slot) slots_free_[inst.machine] += 1;
    detach_instance(iid);
    result_.tasks_killed_by_faults += 1;
    const std::size_t tid = inst.task;
    const std::size_t machine = inst.machine;
    if (status_[tid] != TaskStatus::Running || !running_of_task_[tid].empty())
      return;  // a duplicate survives, or the task was already abandoned
    if (job_aborted_[tasks_[tid].job.value()] ||
        fault_kills_[tid] >= cfg_.fault_retry_budget) {
      mark_task_lost(tid);
      return;
    }
    fault_kills_[tid] += 1;
    result_.fault_retries += 1;
    status_[tid] = TaskStatus::Backoff;
    const double backoff =
        std::min(cfg_.fault_backoff_base_s *
                     std::pow(2.0, static_cast<double>(fault_kills_[tid] - 1)),
                 cfg_.fault_backoff_max_s);
    trace(TraceEvent::Kind::TaskRequeued, tasks_[tid].job.value(), tid, machine,
          SIZE_MAX, backoff);
    push_event(now_ + backoff, EventKind::TaskRetry, tid);
  }

  void on_task_retry(std::size_t tid) {
    if (status_[tid] != TaskStatus::Backoff) return;  // abandoned meanwhile
    status_[tid] = TaskStatus::Pending;
    pending_insert(tid);
    try_assign();
  }

  /// The horizon cut the run mid-flight: bill in-flight instances and
  /// transfers for the time and bytes they actually consumed, so the cost
  /// meters stay honest even on truncated (completed == false) runs.
  void flush_at_horizon() {
    const std::vector<std::size_t> active = active_instances_;
    for (const std::size_t iid : active) {
      if (instances_[iid].settled || instances_[iid].cancelled) continue;
      result_.tasks_in_flight_at_horizon += 1;
      settle(iid, cfg_.horizon_s);
    }
    for (PendingMove& mv : moves_) {
      if (mv.finished || mv.aborted) continue;
      mv.aborted = true;
      const double frac_done =
          mv.duration_s <= 0.0
              ? 1.0
              : std::clamp((cfg_.horizon_s - mv.start_s) / mv.duration_s, 0.0,
                           1.0);
      const Millicents part = frac_done * mv.cost_mc;
      result_.placement_transfer_cost_mc += part;
      if (ledger_ != nullptr)
        ledger_->post(obs::CostMeter::PlacementTransfer, part);
    }
  }

  // ---- assignment --------------------------------------------------------
  void try_assign() {
    // One launch per machine per pass, starting from a rotating offset —
    // approximates the unsynchronized TaskTracker heartbeats of a real
    // cluster instead of always letting machine 0 drain the queue first.
    const std::size_t nm = c_.machine_count();
    const std::size_t start = poll_offset_++ % nm;
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < nm; ++i) {
        const std::size_t m = (start + i) % nm;
        if (slots_free_[m] <= 0) continue;
        const auto decision = policy_.on_slot_available(MachineId{m}, *this);
        if (!decision) {
          if (cfg_.speculative_execution && try_speculative(m)) progress = true;
          continue;
        }
        launch(*decision, m, /*speculative=*/false);
        progress = true;
      }
    }
  }

  void launch(const LaunchDecision& d, std::size_t machine, bool speculative) {
    LIPS_REQUIRE(d.task < tasks_.size(), "launch: unknown task");
    const SimTask& t = tasks_[d.task];
    LIPS_REQUIRE(machine_up_[machine], "scheduler launched on a down machine");
    if (!speculative) {
      LIPS_REQUIRE(status_[d.task] == TaskStatus::Pending,
                   "scheduler launched a non-pending task");
      pending_erase(d.task);
      status_[d.task] = TaskStatus::Running;
    }
    double transfer_s = 0.0;
    Millicents read_cost = Millicents::zero();
    if (t.data) {
      LIPS_REQUIRE(d.read_from.has_value(),
                   "task with input needs a store to read from");
      LIPS_REQUIRE(stored_fraction(*t.data, *d.read_from) > 0.0,
                   "scheduler read from a store without the data");
      transfer_s = t.input_mb / (c_.bandwidth_mb_s(MachineId{machine},
                                                   *d.read_from)
                                     .mb_per_s() *
                                 link_factor_[machine]);
      read_cost = Bytes::mb(t.input_mb) *
                  c_.ms_cost_mc_per_mb(MachineId{machine}, *d.read_from);
    }
    const double cpu_s =
        t.cpu_ecu_s / c_.machine(MachineId{machine}).throughput_ecu;
    const double duration = transfer_s + cpu_s;
    // Launching into an open slowdown window: the whole run is stretched by
    // the CPU factor (1.0 — and bit-identical arithmetic — when healthy).
    const double rate = cpu_factor_[machine];
    const double effective = duration / rate;

    Instance inst;
    inst.task = d.task;
    inst.machine = machine;
    inst.store = d.read_from;
    inst.start = now_;
    inst.full_duration = duration;
    inst.last_update = now_;
    inst.rate = rate;
    // An instance born slow bills past its nominal duration even if no
    // further re-timing happens; disable the historical frac clamp for it.
    inst.ever_retimed = rate != 1.0;
    // Spot pricing: the instance is billed at the price in force when it
    // launches (EC2 spot semantics at task granularity).
    inst.exec_cost_mc = CpuSeconds::ecu_s(t.cpu_ecu_s) *
                        c_.cpu_price_mc_at(MachineId{machine}, now_);
    inst.read_cost_mc = read_cost;
    inst.speculative = speculative;

    if (cfg_.task_timeout_s > 0 && effective > cfg_.task_timeout_s &&
        retries_[d.task] < cfg_.timeout_retries) {
      retries_[d.task] += 1;
      inst.timeout_kill = true;
      inst.finish = now_ + cfg_.task_timeout_s;
    } else {
      inst.finish = now_ + effective;
    }

    trace(TraceEvent::Kind::TaskLaunch, t.job.value(), d.task, machine,
          d.read_from ? d.read_from->value() : SIZE_MAX);
    digest_.f64(now_);
    digest_.u64(t.job.value());
    digest_.u64(d.task);
    digest_.u64(machine);
    digest_.u64(d.read_from ? d.read_from->value() : SIZE_MAX);
    digest_.u64(speculative ? 1 : 0);
    slots_free_[machine] -= 1;
    LIPS_ASSERT(slots_free_[machine] >= 0, "slot accounting underflow");
    instances_.push_back(inst);
    active_instances_.push_back(instances_.size() - 1);
    running_of_task_[d.task].push_back(instances_.size() - 1);
    if (meters_.launched != nullptr)
      (speculative ? meters_.launched_spec : meters_.launched)->inc();
    if (speculative) result_.speculative_launched += 1;
    push_event(inst.finish, EventKind::InstanceFinish, instances_.size() - 1);
  }

  bool try_speculative(std::size_t machine) {
    if (!pending_.empty()) return false;
    return cfg_.speculation.mode == SpeculationConfig::Mode::Naive
               ? try_speculative_naive(machine)
               : try_speculative_cost_aware(machine);
  }

  /// Projected wall time for a duplicate of `orig`'s task on `machine`,
  /// honoring the machine's current link and CPU factors.
  [[nodiscard]] double duplicate_estimate_s(const Instance& orig,
                                            std::size_t machine) const {
    const SimTask& t = tasks_[orig.task];
    double est = t.cpu_ecu_s / c_.machine(MachineId{machine}).throughput_ecu;
    if (t.data && orig.store)
      est += t.input_mb /
             (c_.bandwidth_mb_s(MachineId{machine}, *orig.store).mb_per_s() *
              link_factor_[machine]);
    return est / cpu_factor_[machine];
  }

  /// Hadoop-style speculation: duplicate the running task with the latest
  /// projected finish, if this machine would beat it. Only fires when no
  /// pending work exists (a slot would otherwise idle). The scan is over
  /// currently-active instances, bounded by the cluster's slot count.
  bool try_speculative_naive(std::size_t machine) {
    std::size_t best_iid = instances_.size();
    double latest_finish = now_;
    for (const std::size_t iid : active_instances_) {
      const Instance& inst = instances_[iid];
      if (inst.cancelled || inst.settled || inst.timeout_kill) continue;
      if (status_[inst.task] != TaskStatus::Running) continue;
      if (running_of_task_[inst.task].size() != 1) continue;  // already dup'd
      if (inst.finish > latest_finish) {
        latest_finish = inst.finish;
        best_iid = iid;
      }
    }
    if (best_iid == instances_.size()) return false;
    const Instance& orig = instances_[best_iid];
    const SimTask& t = tasks_[orig.task];
    // The duplicate re-reads its input; a vanished source store kills the
    // candidate (the original, which already has its bytes, runs on).
    if (t.data && orig.store &&
        stored_fraction(*t.data, *orig.store) <= 0.0)
      return false;
    const double est = duplicate_estimate_s(orig, machine);
    if (now_ + est >= orig.finish - 1e-9) return false;  // no speed-up
    launch(LaunchDecision{orig.task, orig.store}, machine,
           /*speculative=*/true);
    return true;
  }

  /// LATE-style cost-aware speculation (SpeculationConfig::Mode::CostAware):
  /// pick the running task with the latest estimated finish, require it to
  /// be a straggler relative to its peers' median remaining time (a lone
  /// survivor is always a candidate), respect the cluster-wide duplicate
  /// cap and the per-task duplicate limit, and launch only when the
  /// expected dollar saving is positive.
  bool try_speculative_cost_aware(std::size_t machine) {
    // Cluster-wide cap on concurrently running duplicates.
    const std::size_t max_live = std::max<std::size_t>(
        1, static_cast<std::size_t>(cfg_.speculation.cap_fraction *
                                    static_cast<double>(total_slots_)));
    std::size_t live_dups = 0;
    for (const std::size_t iid : active_instances_) {
      const Instance& inst = instances_[iid];
      if (inst.speculative && !inst.settled && !inst.cancelled) live_dups += 1;
    }
    if (live_dups >= max_live) return false;

    // One representative per running task: its earliest-finishing live copy
    // (the task completes when the first copy does). Tasks already at their
    // duplicate limit stay in the median but are not candidates.
    std::vector<std::size_t> candidates;
    std::vector<double> remaining;
    for (const std::size_t iid : active_instances_) {
      const Instance& inst = instances_[iid];
      if (inst.cancelled || inst.settled || inst.timeout_kill) continue;
      if (status_[inst.task] != TaskStatus::Running) continue;
      const auto& copies = running_of_task_[inst.task];
      std::size_t rep = iid;
      for (const std::size_t cid : copies) {
        const Instance& c = instances_[cid];
        if (c.cancelled || c.settled || c.timeout_kill) continue;
        if (c.finish < instances_[rep].finish ||
            (c.finish == instances_[rep].finish && cid < rep))
          rep = cid;
      }
      if (iid != rep) continue;
      remaining.push_back(inst.finish - now_);
      if (copies.size() < 1 + cfg_.speculation.per_task_duplicates)
        candidates.push_back(iid);
    }
    if (candidates.empty()) return false;

    std::size_t best_iid = candidates.front();
    for (const std::size_t iid : candidates)
      if (instances_[iid].finish > instances_[best_iid].finish ||
          (instances_[iid].finish == instances_[best_iid].finish &&
           iid < best_iid))
        best_iid = iid;
    const Instance& orig = instances_[best_iid];

    // LATE threshold: the pick must be a straggler among its peers. With a
    // single running task there is no peer signal — always a candidate.
    if (remaining.size() > 1) {
      std::vector<double> rem = remaining;
      const auto mid = rem.begin() + static_cast<std::ptrdiff_t>(rem.size() / 2);
      std::nth_element(rem.begin(), mid, rem.end());
      const double median = *mid;
      if (orig.finish - now_ < cfg_.speculation.late_threshold * median)
        return false;
    }

    const SimTask& t = tasks_[orig.task];
    if (t.data && orig.store && stored_fraction(*t.data, *orig.store) <= 0.0)
      return false;
    const double est = duplicate_estimate_s(orig, machine);
    if (now_ + est >= orig.finish - 1e-9) return false;  // must win the race

    // Cost rule. Cancelling the straggler `time_saved` seconds early saves
    // its wall-rate exec burn plus the read bytes it would still pull; the
    // duplicate costs a full run on this machine (exec billed by wall time:
    // 1/rate × nominal) plus its re-read.
    if (orig.full_duration > 0.0) {
      const double time_saved = orig.finish - (now_ + est);
      const Millicents saved =
          time_saved * (orig.exec_cost_mc / orig.full_duration) +
          orig.read_cost_mc *
              std::min(1.0, time_saved * orig.rate / orig.full_duration);
      Millicents dup_read = Millicents::zero();
      if (t.data && orig.store)
        dup_read = Bytes::mb(t.input_mb) *
                   c_.ms_cost_mc_per_mb(MachineId{machine}, *orig.store);
      const Millicents dup_cost =
          CpuSeconds::ecu_s(t.cpu_ecu_s) *
              c_.cpu_price_mc_at(MachineId{machine}, now_) /
              cpu_factor_[machine] +
          dup_read;
      if (saved - dup_cost <= cfg_.speculation.min_saving_mc) return false;
    }
    launch(LaunchDecision{orig.task, orig.store}, machine,
           /*speculative=*/true);
    return true;
  }

  void finalize_result() {
    result_.completed = (done_tasks_ == tasks_.size());
    result_.schedule_digest = digest_.digest();
    for (std::size_t m = 0; m < c_.machine_count(); ++m) {
      if (!machine_up_[m])
        result_.machines[m].downtime_s += std::max(0.0, now_ - down_since_[m]);
      if (slow_depth_[m] > 0)  // window still open when the run ended
        result_.machines[m].slowed_s += std::max(0.0, now_ - slow_since_[m]);
    }
    result_.total_cost_mc =
        result_.execution_cost_mc + result_.read_transfer_cost_mc +
        result_.placement_transfer_cost_mc + result_.ingest_replication_cost_mc;
    result_.data_local_fraction = Fraction::of(
        data_reads_ == 0 ? 1.0
                         : static_cast<double>(local_reads_) /
                               static_cast<double>(data_reads_));
#ifndef NDEBUG
    // The ledger's whole contract: a fresh ledger attached for the run folds
    // the exact value sequence of the billing accumulators, so the per-meter
    // totals must match them bit for bit — not within a tolerance.
    if (ledger_ != nullptr) {
      const auto rec = ledger_->reconcile(billed_totals(result_));
      LIPS_ASSERT(rec.ok,
                  "cost ledger does not reconcile bit-identically with the "
                  "simulator's billing totals (was the ledger reused across "
                  "runs?)");
    }
#endif
  }

  // ---- checkpoint/restore (DESIGN.md §11) --------------------------------
  /// Cadence carrier for epoch-less schedulers (fifo/delay/fair have no
  /// replanning tick to piggyback a checkpoint on). The tick must not touch
  /// observable simulation state — no trace, no pending/assignment work — so
  /// a run with checkpointing enabled behaves exactly like one without. The
  /// requeue is gated on the interval rather than the checkpoint dir so a
  /// run resumed *without* a dir replays the identical event stream the
  /// crashed run would have produced.
  void on_checkpoint_tick() {
    ckpt_ticks_ += 1;
    if (work_remains() && cfg_.checkpoint_interval_s > 0)
      push_event(now_ + cfg_.checkpoint_interval_s, EventKind::CheckpointTick,
                 0);
    if (cfg_.checkpoint_dir == nullptr || cfg_.checkpoint_every_epochs == 0)
      return;
    if (ckpt_ticks_ % cfg_.checkpoint_every_epochs != 0) return;
    write_checkpoint();
  }

  void maybe_checkpoint() {
    if (cfg_.checkpoint_dir == nullptr || cfg_.checkpoint_every_epochs == 0)
      return;
    if (result_.epochs % cfg_.checkpoint_every_epochs != 0) return;
    write_checkpoint();
  }

  void write_checkpoint() {
    ckpt::Snapshot snap;
    const BuildInfo& build = build_info();
    snap.meta.git_sha = build.git_sha;
    snap.meta.compiler = build.compiler;
    snap.meta.build_type = build.build_type;
    snap.meta.label = cfg_.checkpoint_label;
    snap.meta.sim_time_s = now_;
    // Epoch-less schedulers never advance result_.epochs; report the
    // checkpoint tick count so the meta still shows forward progress.
    snap.meta.epoch = result_.epochs != 0 ? result_.epochs : ckpt_ticks_;
    snap.meta.sequence = cfg_.checkpoint_dir->latest_sequence().value_or(0) + 1;
    ckpt::Writer w;
    save_state(w);
    snap.payload = w.take();
    try {
      cfg_.checkpoint_dir->write(snap, cfg_.checkpoint_faults);
      result_.checkpoints_written += 1;
    } catch (const std::exception&) {
      // A failed snapshot write must never take down the run it protects;
      // the previous good snapshot stays the recovery point.
      result_.checkpoint_failures += 1;
    }
  }

  void save_state(ckpt::Writer& w) const { fields(w, *this); }
  void load_state(ckpt::Reader& r) { fields(r, *this); }

  /// Every mutable field, listed once for save_state and load_state.
  /// Constructor-derived immutable state (tasks, job order, slot totals) is
  /// not written; the topology guards lead, so a snapshot taken under a
  /// different cluster/workload is refused before anything is overwritten.
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self) {
    ar(ckpt::guard(self.tasks_.size(), "task count"),
       ckpt::guard(self.c_.machine_count(), "machine count"),
       ckpt::guard(self.c_.store_count(), "store count"),
       ckpt::guard(self.w_.job_count(), "job count"),
       ckpt::guard(self.w_.data_count(), "data object count"));

    ar(self.now_, self.seq_, self.poll_offset_, self.ckpt_ticks_,
       self.done_tasks_, self.local_reads_, self.data_reads_,
       self.lost_tasks_,
       ckpt::via(self.digest_, &ckpt::Fnv1a64::digest,
                 &ckpt::Fnv1a64::reset),
       ckpt::sorted(self.events_,
                    [](auto& a, auto& e) {
                      a(e.time, e.seq,
                        ckpt::enumeration(e.kind, EventKind::CheckpointTick,
                                          "simulator event kind"),
                        e.payload);
                    }),
       ckpt::fixed(self.status_, ckpt::enums(TaskStatus::Lost, "task status")),
       ckpt::fixed(self.retries_),
       ckpt::fixed(self.running_of_task_,
                   [](auto& a, auto& copies) { a(ckpt::seq(copies)); }),
       ckpt::seq(self.pending_),
       ckpt::fixed(self.presence_,
                   [](auto& a, auto& row) { a(ckpt::sorted(row)); }),
       ckpt::fixed(self.slots_free_), ckpt::fixed(self.job_remaining_),
       ckpt::fixed(self.preds_remaining_), ckpt::fixed(self.arrival_passed_),
       ckpt::fixed(self.activated_),
       ckpt::fixed(self.job_machine_work_,
                   [](auto& a, auto& row) { a(ckpt::fixed(row)); }));

    ar(ckpt::seq(self.instances_,
                 [](auto& a, auto& inst) {
                   a(inst.task, inst.machine, inst.store, inst.start,
                     inst.finish, inst.full_duration, inst.exec_cost_mc,
                     inst.read_cost_mc, inst.progress, inst.billed_frac,
                     inst.last_update, inst.rate, inst.ever_retimed,
                     inst.speculative, inst.cancelled, inst.timeout_kill,
                     inst.settled);
                 }),
       ckpt::seq(self.active_instances_),
       ckpt::seq(self.moves_,
                 [](auto& a, auto& mv) {
                   a(mv.data, mv.from, mv.to, mv.fraction, mv.start_s,
                     mv.duration_s, mv.cost_mc, mv.finished, mv.aborted);
                 }));

    ar(ckpt::seq(self.fault_events_,
                 [](auto& a, auto& e) {
                   a(ckpt::enumeration(e.kind,
                                       FaultEvent::Kind::MachineSlowdown,
                                       "fault event kind"),
                     e.time_s, e.machine, e.store, e.duration_s, e.warning_s,
                     e.factor);
                 }),
       ckpt::fixed(self.machine_up_), ckpt::fixed(self.machine_gone_),
       ckpt::fixed(self.down_since_), ckpt::fixed(self.link_factor_),
       ckpt::fixed(self.cpu_factor_), ckpt::fixed(self.slow_depth_),
       ckpt::fixed(self.slow_since_), ckpt::fixed(self.tp_ewma_),
       ckpt::fixed(self.store_gone_), ckpt::fixed(self.fault_kills_),
       ckpt::fixed(self.job_aborted_));

    result_fields(ar, self.result_);
    ar(ckpt::state(self.policy_),
       ckpt::section(self.ledger_,
                     "snapshot carries ledger state but no ledger is "
                     "attached: attach a fresh obs::CostLedger before "
                     "restoring"));

    // Metrics never feed decisions: a run resumed without a registry
    // attached decodes the section and drops it. Host-timed series stay
    // out, so identical runs write identical bytes.
    bool has_metrics = self.obs_.metrics != nullptr;
    std::vector<obs::MetricRegistry::Sample> samples;
    if constexpr (!Ar::kLoading) {
      if (has_metrics)
        samples = obs::deterministic_samples(self.obs_.metrics->snapshot());
    }
    ar(has_metrics);
    if (has_metrics) {
      ar(ckpt::seq(samples, [](auto& a, auto& sample) {
        a(sample.name, ckpt::seq(sample.labels),
          ckpt::enumeration(sample.kind, obs::MetricRegistry::Kind::Histogram,
                            "metric kind"),
          sample.value, ckpt::seq(sample.bounds), ckpt::seq(sample.counts),
          sample.sum, sample.count);
      }));
    }
    if constexpr (Ar::kLoading) {
      if (has_metrics && self.obs_.metrics != nullptr)
        self.obs_.metrics->restore(samples);
    }
  }

  template <class Ar, class Result>
  static void result_fields(Ar& ar, Result& res) {
    ar(res.completed, res.makespan_s, res.sum_job_duration_s,
       res.total_cost_mc, res.execution_cost_mc, res.read_transfer_cost_mc,
       res.placement_transfer_cost_mc, res.ingest_replication_cost_mc,
       res.data_local_fraction, res.tasks_completed, res.speculative_launched,
       res.speculative_wasted, res.speculation_cost_mc, res.timeout_kills,
       res.epochs, res.tasks_killed_by_faults, res.fault_retries,
       res.tasks_lost, res.tasks_in_flight_at_horizon, res.machines_lost,
       res.machines_restored, res.spot_revocations, res.stores_lost,
       res.machine_slowdowns, res.data_refetches, res.wasted_cost_mc,
       res.checkpoints_written, res.checkpoint_failures,
       ckpt::fixed(res.machines,
                   [](auto& a, auto& mm) {
                     a(mm.busy_s, mm.cpu_work_ecu_s, mm.cpu_cost_mc,
                       mm.read_cost_mc, mm.tasks_run, mm.downtime_s,
                       mm.slowed_s);
                   }),
       ckpt::fixed(res.job_finish_s),  // NaN round-trips
       ckpt::seq(res.trace, [](auto& a, auto& ev) {
         a(ckpt::enumeration(ev.kind, TraceEvent::Kind::MachineSpeedRestored,
                             "trace event kind"),
           ev.time_s, ev.job, ev.task, ev.machine, ev.store, ev.amount);
       }));
  }

  // ---- state -------------------------------------------------------------
  const cluster::Cluster& c_;
  const workload::Workload& w_;
  sched::Scheduler& policy_;
  SimConfig cfg_;

  // Observability sinks (all null/empty when SimConfig::obs is default).
  obs::Observer obs_;
  obs::Tracer* tracer_ = nullptr;
  obs::CostLedger* ledger_ = nullptr;
  SimMeters meters_;

  std::vector<SimTask> tasks_;
  std::vector<TaskStatus> status_;
  std::vector<std::size_t> retries_;
  std::vector<std::vector<std::size_t>> running_of_task_;
  std::vector<std::size_t> first_task_of_job_;
  std::vector<std::size_t> job_order_;  // job ids sorted by arrival
  std::vector<std::size_t> job_rank_;
  std::vector<std::size_t> pending_;
  // Ordered map, not unordered: ensure_object_available() sums the
  // fractions by iteration, and a floating-point sum's value depends on its
  // term order — billing-visible state must iterate deterministically.
  std::vector<std::map<std::size_t, double>> presence_;
  std::vector<int> slots_free_;
  std::vector<std::size_t> job_remaining_;
  std::vector<std::size_t> preds_remaining_;
  std::vector<std::vector<std::size_t>> successors_;
  std::vector<bool> arrival_passed_;
  std::vector<bool> activated_;
  std::vector<std::vector<double>> job_machine_work_;
  std::vector<Instance> instances_;
  std::vector<std::size_t> active_instances_;
  std::vector<PendingMove> moves_;

  // Fault state (all inert on fault-free runs).
  std::vector<FaultEvent> fault_events_;  ///< sorted; grows on revocations
  std::vector<char> machine_up_;
  std::vector<char> machine_gone_;   ///< permanently lost
  std::vector<double> down_since_;   ///< crash time of currently-down machines
  std::vector<double> link_factor_;  ///< bandwidth multiplier per machine
  std::vector<double> cpu_factor_;   ///< CPU-rate multiplier per machine
  std::vector<std::size_t> slow_depth_;  ///< open slowdown windows per machine
  std::vector<double> slow_since_;   ///< first-window open time while slowed
  std::vector<double> tp_ewma_;      ///< observed-throughput EWMA per machine
  std::vector<char> store_gone_;
  std::vector<std::size_t> fault_kills_;  ///< per task
  std::vector<char> job_aborted_;
  std::size_t lost_tasks_ = 0;

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::uint64_t seq_ = 0;
  std::size_t poll_offset_ = 0;
  std::size_t ckpt_ticks_ = 0;  ///< CheckpointTick events dispatched so far
  std::size_t total_slots_ = 0;
  double now_ = 0.0;
  std::size_t done_tasks_ = 0;
  std::size_t local_reads_ = 0;
  std::size_t data_reads_ = 0;

  /// Schedule-decision digest, folded at every launch (ckpt/digest.hpp).
  ckpt::Fnv1a64 digest_;

  SimResult result_;
};

}  // namespace

SimResult simulate(const cluster::Cluster& cluster,
                   const workload::Workload& workload,
                   sched::Scheduler& policy, const SimConfig& config,
                   const workload::JobDag* dependencies) {
  Engine engine(cluster, workload, policy, config, dependencies);
  return engine.run();
}

}  // namespace lips::sim
