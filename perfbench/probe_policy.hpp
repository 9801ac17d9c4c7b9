// ProbePolicy: a sched::Scheduler that forwards every callback to another
// scheduler and measures the calls from outside. It is how the benchmark
// times a layer through its public interface without touching the layer:
// the simulator drives the probe, the probe drives LipsPolicy,
// DelayScheduler, FifoLocalityScheduler or svc::RemotePolicy.
//
// Cheap calls are counted every time and timed on a deterministic sample
// (SampledCalls); epoch replans, a few hundred per pass, are all timed.
//
// Thread role: one probe per simulation, used by the thread running it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What an empty timed region reads: the fastest of many back-to-back clock
/// pairs (the median drifts with the host from run to run; the floor does
/// not). Subtracted from sampled call times when they are summed.
[[nodiscard]] inline double clock_cost_s() {
  double best = 1.0;
  for (int i = 0; i < 2001; ++i) {
    const Clock::time_point t0 = Clock::now();
    best = std::min(best, seconds_between(t0, Clock::now()));
  }
  return best;
}

/// Of the timed slot offers, one in this many also gets a span: enough to
/// see offers in a trace without filling its ring.
inline constexpr std::uint64_t kSpanEvery = 256;

/// Slot offers between two progress marks. Bit-identical passes reach the
/// n-th mark at the same point of the same work, so each stretch between
/// marks can be timed in every pass and its fastest reading kept.
inline constexpr std::uint64_t kMarkEvery = 4096;

struct ProbeOptions {
  std::uint64_t slot_every = 1;  ///< time every n-th slot offer
  std::uint64_t hook_every = 1;  ///< time every n-th hook call; 0 = none
  /// Benchmark spans (one per replan call, one per kSpanEvery-th timed
  /// offer) go here, beside the program's own spans; null = none.
  lips::obs::Tracer* spans = nullptr;
  /// Runs before every slot offer is forwarded, outside its timing.
  std::function<void(const lips::sched::ClusterState&)> before_slot;
  /// Runs after the n-th epoch callback returns, outside its timing.
  std::function<void(std::size_t epoch)> after_epoch;
};

class ProbePolicy final : public lips::sched::Scheduler {
  template <typename F>
  static auto timed(SampledCalls& calls, F&& f) {
    if (!calls.count()) return f();
    const Clock::time_point t0 = Clock::now();
    auto out = f();
    calls.record(seconds_between(t0, Clock::now()));
    return out;
  }

 public:
  ProbePolicy(lips::sched::Scheduler& inner, ProbeOptions options)
      : slot(options.slot_every),
        job(options.hook_every),
        task(options.hook_every),
        moves(options.hook_every),
        inner_(inner),
        options_(std::move(options)) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] double epoch_s() const override { return inner_.epoch_s(); }

  [[nodiscard]] std::optional<lips::sched::LaunchDecision> on_slot_available(
      lips::MachineId machine,
      const lips::sched::ClusterState& state) override {
    if (slot.calls() != 0 && slot.calls() % kMarkEvery == 0)
      marks.push_back(Clock::now());
    if (options_.before_slot) options_.before_slot(state);
    std::optional<lips::sched::LaunchDecision> d;
    if (!slot.count()) {
      d = inner_.on_slot_available(machine, state);
    } else {
      const bool span = options_.spans != nullptr &&
                        slot.sampled().size() % kSpanEvery == 0;
      if (span) options_.spans->begin("perfbench-slot-offer", "perfbench");
      const Clock::time_point t0 = Clock::now();
      d = inner_.on_slot_available(machine, state);
      slot.record(seconds_between(t0, Clock::now()));
      if (span) options_.spans->end("perfbench-slot-offer", "perfbench");
    }
    if (d.has_value()) ++launches;
    return d;
  }

  void on_epoch(const lips::sched::ClusterState& state) override {
    (void)epoch.count();
    if (options_.spans != nullptr)
      options_.spans->begin("perfbench-replan-call", "perfbench");
    const Clock::time_point t0 = Clock::now();
    inner_.on_epoch(state);
    epoch.record(seconds_between(t0, Clock::now()));
    if (options_.spans != nullptr)
      options_.spans->end("perfbench-replan-call", "perfbench");
    if (options_.after_epoch) options_.after_epoch(epoch.calls());
  }

  [[nodiscard]] std::vector<lips::sched::DataMove> take_data_moves() override {
    return timed(moves, [&] { return inner_.take_data_moves(); });
  }

  void on_job_arrival(lips::JobId j,
                      const lips::sched::ClusterState& state) override {
    timed(job, [&] {
      inner_.on_job_arrival(j, state);
      return 0;
    });
  }

  void on_task_complete(std::size_t t, lips::MachineId m,
                        const lips::sched::ClusterState& state) override {
    timed(task, [&] {
      inner_.on_task_complete(t, m, state);
      return 0;
    });
  }

  // The workloads inject no faults; these only keep the probe transparent.
  void on_machine_lost(lips::MachineId m,
                       const lips::sched::ClusterState& state) override {
    inner_.on_machine_lost(m, state);
  }
  void on_machine_restored(lips::MachineId m,
                           const lips::sched::ClusterState& state) override {
    inner_.on_machine_restored(m, state);
  }
  void on_store_lost(lips::StoreId s,
                     const lips::sched::ClusterState& state) override {
    inner_.on_store_lost(s, state);
  }
  void on_spot_warning(lips::MachineId m, double at,
                       const lips::sched::ClusterState& state) override {
    inner_.on_spot_warning(m, at, state);
  }
  void save_state(lips::ckpt::Writer& w) const override {
    inner_.save_state(w);
  }
  void load_state(lips::ckpt::Reader& r) override { inner_.load_state(r); }

  /// Estimated host seconds spent inside the notification hooks.
  [[nodiscard]] double hooks_s(double clock_s) const {
    return job.estimated_total(clock_s) + task.estimated_total(clock_s) +
           moves.estimated_total(clock_s);
  }

  SampledCalls slot;
  SampledCalls epoch{1};
  SampledCalls job;
  SampledCalls task;
  SampledCalls moves;
  std::uint64_t launches = 0;
  std::vector<Clock::time_point> marks;  ///< one per kMarkEvery offers

 private:
  lips::sched::Scheduler& inner_;
  ProbeOptions options_;
};

}  // namespace perfbench
