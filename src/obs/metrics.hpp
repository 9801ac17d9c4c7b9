// Metrics registry — typed counters, gauges, and fixed-bucket histograms
// keyed by (name, labels).
//
// Design goals, in order:
//   * hot path cost — incrementing an instrument is one relaxed atomic op on
//     a pre-resolved handle; no map lookup, no lock, no allocation. Call
//     sites resolve handles once (registration takes the registry mutex) and
//     then hammer the handle. Today's simulator is single-threaded, but the
//     instruments are already safe to share across shards, so the API will
//     not need to change when the event loop is partitioned;
//   * deterministic output — snapshots and exports walk instruments in
//     (name, labels) order, so two runs of a deterministic simulation
//     produce byte-identical Prometheus/JSON dumps;
//   * Prometheus compatibility — names and label keys are validated against
//     the exposition-format charset at registration, histograms use the
//     cumulative `le` bucket convention.
//
// The registry is null-safe through obs::Observer: code holds `Counter*`
// handles that are simply nullptr when metrics are off.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace lips::obs {

/// Label set attached to one instrument. Order-insensitive at registration
/// (labels are sorted by key); duplicate keys are a precondition error.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
/// Relaxed atomic add for doubles (no fetch_add for floating point until
/// C++20's is library-optional); a CAS loop is the portable spelling and
/// uncontended it costs the same as one exchange. The CAS makes each add
/// atomic as a unit, so N threads adding integral deltas lose nothing —
/// the final value is the exact sum regardless of interleaving.
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotone event count. `inc` is the hot path.
///
/// Thread role: shared. Memory-ordering contract for `v_`: all accesses are
/// memory_order_relaxed. Each inc() is atomic (no lost updates), but an inc
/// carries no happens-before edge — a reader on another thread may observe
/// the count before it observes whatever work the count describes. That is
/// deliberate: instruments describe a run, nothing in the run reads them
/// back for control flow. Anyone tempted to publish data *through* a
/// counter must use an acquire/release pair instead.
class Counter {
 public:
  void inc(double delta = 1.0) { detail::atomic_add(v_, delta); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  Counter() = default;
  std::atomic<double> v_{0.0};
};

/// Point-in-time level; `set` overwrites, `add` adjusts.
///
/// Thread role: shared. Memory-ordering contract for `v_`: relaxed
/// everywhere, same rationale as Counter. Concurrent set() is
/// last-writer-wins with no ordering guarantee between threads; concurrent
/// add() never loses an update (CAS loop).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) { detail::atomic_add(v_, delta); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  Gauge() = default;
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with Prometheus `le` (cumulative upper-bound)
/// semantics: an observation lands in the first bucket whose bound is
/// >= the value; values above every bound land in the implicit +Inf bucket.
/// Bounds are fixed at registration — no re-bucketing on the hot path.
///
/// Thread role: shared. Memory-ordering contract: `bounds_` is immutable
/// after construction (safe to read unsynchronized); each `counts_[i]` is a
/// relaxed fetch_add and `sum_` a relaxed CAS add. observe() performs TWO
/// independent relaxed operations, so a concurrent reader can see the bucket
/// increment before the sum update (or vice versa) — bucket counts and sum
/// are each exact but only *eventually* mutually consistent; they agree
/// whenever no observe() is in flight (e.g. after the farm joins its
/// workers). Snapshots therefore never compute one from the other.
class Histogram {
 public:
  void observe(double v);

  /// Upper bounds as registered (strictly increasing, +Inf not included).
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds().size() is +Inf.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_count() const;
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;
  // Heap array rather than std::vector: atomics are not movable, and the
  // bucket count never changes after construction.
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<double> sum_{0.0};
};

/// Owner of all instruments. Registration (`counter`/`gauge`/`histogram`)
/// takes a mutex and returns a stable reference — instruments are never
/// moved or destroyed before the registry. Re-registering the same
/// (name, labels) returns the existing instrument; the same name with a
/// different instrument kind is a precondition error.
///
/// Thread role: shared — this is the farm's aggregation point. Registration,
/// snapshot(), series_count() and restore() serialize on `mu_`; instrument
/// *handles* returned by registration are stable for the registry's lifetime
/// and their hot paths (inc/set/observe) are lock-free per the contracts
/// above. A snapshot taken while writers are live is per-instrument atomic,
/// not cross-instrument: it is a consistent point only after workers join.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       Labels labels = {});

  enum class Kind : unsigned char { Counter, Gauge, Histogram };

  /// One instrument's state, copied out under the registry mutex.
  struct Sample {
    std::string name;
    Labels labels;  // sorted by key
    Kind kind = Kind::Counter;
    double value = 0.0;                 // counter / gauge
    std::vector<double> bounds;         // histogram
    std::vector<std::uint64_t> counts;  // histogram, per-bucket, +Inf last
    double sum = 0.0;                   // histogram
    std::uint64_t count = 0;            // histogram
  };

  /// Consistent-order snapshot: samples sorted by (name, labels). Individual
  /// instrument reads are relaxed — a snapshot taken mid-update on another
  /// thread is per-instrument atomic, not cross-instrument.
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Number of registered series.
  [[nodiscard]] std::size_t series_count() const;

  /// Overwrite instrument values from a snapshot (checkpoint restore,
  /// DESIGN.md §11). Instruments named by a sample are registered if
  /// missing and their values replaced wholesale; instruments not named
  /// are left untouched (pre-registered series the snapshot predates stay
  /// at zero). Histogram samples must carry counts for every bucket.
  void restore(const std::vector<Sample>& samples);

  /// Fold a snapshot *into* this registry, additively: counters and gauges
  /// are incremented by the sample value, histogram buckets and sums are
  /// added. `extra` labels are appended to each sample's labels (duplicate
  /// keys are a precondition error), letting the farm tag per-run snapshots
  /// with {scenario, sched, ...} before aggregation. Because double addition
  /// is not associative, callers wanting bit-identical aggregates must call
  /// merge() from one thread in a deterministic order — the farm driver
  /// folds per-run snapshots post-join in (cell, seed, scheduler) order
  /// (DESIGN.md §13).
  void merge(const std::vector<Sample>& samples, const Labels& extra = {});

 private:
  struct Key {
    std::string name;
    Labels labels;
    [[nodiscard]] bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };
  static Key make_key(std::string_view name, Labels labels);

  mutable Mutex mu_;
  // unique_ptr for address stability; std::map for deterministic snapshots.
  std::map<Key, std::unique_ptr<Counter>> counters_ LIPS_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ LIPS_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Histogram>> histograms_ LIPS_GUARDED_BY(mu_);
  std::map<std::string, Kind> kind_of_name_ LIPS_GUARDED_BY(mu_);
};

/// `samples` without the series that time the host rather than the
/// simulation: wall-clock profiling such as `lips_lp_solve_duration_ms`.
/// Those differ between two identical runs, so every copy of a registry a
/// determinism contract covers leaves them out — farm run results
/// (DESIGN.md §13) and simulator snapshot payloads (§11).
[[nodiscard]] std::vector<MetricRegistry::Sample> deterministic_samples(
    std::vector<MetricRegistry::Sample> samples);

}  // namespace lips::obs
