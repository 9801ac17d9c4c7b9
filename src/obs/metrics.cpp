#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>

#include "common/error.hpp"

namespace lips::obs {

namespace {

/// Prometheus exposition charset: [a-zA-Z_:][a-zA-Z0-9_:]* for metric names,
/// [a-zA-Z_][a-zA-Z0-9_]* for label keys.
bool valid_name(std::string_view s, bool allow_colon) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (alpha || c == '_' || (allow_colon && c == ':')) continue;
    if (digit && i > 0) continue;
    return false;
  }
  return true;
}

}  // namespace

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  LIPS_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                   std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                       bounds_.end(),
               "histogram bounds must be strictly increasing");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double v) {
  // First bound >= v, Prometheus `le` semantics; past-the-end means +Inf.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

std::uint64_t Histogram::total_count() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    n += counts_[i].load(std::memory_order_relaxed);
  return n;
}

// --- MetricRegistry --------------------------------------------------------

MetricRegistry::Key MetricRegistry::make_key(std::string_view name,
                                             Labels labels) {
  LIPS_REQUIRE(valid_name(name, /*allow_colon=*/true),
               "invalid metric name: " + std::string(name));
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    LIPS_REQUIRE(valid_name(labels[i].first, /*allow_colon=*/false),
                 "invalid label key: " + labels[i].first);
    LIPS_REQUIRE(i == 0 || labels[i - 1].first != labels[i].first,
                 "duplicate label key: " + labels[i].first);
  }
  return Key{std::string(name), std::move(labels)};
}

Counter& MetricRegistry::counter(std::string_view name, Labels labels) {
  Key key = make_key(name, std::move(labels));
  MutexLock lock(mu_);
  const auto [kit, fresh] = kind_of_name_.try_emplace(key.name, Kind::Counter);
  LIPS_REQUIRE(kit->second == Kind::Counter,
               "metric '" + key.name + "' already registered as another kind");
  (void)fresh;
  auto& slot = counters_[std::move(key)];
  if (!slot) slot.reset(new Counter());
  return *slot;
}

Gauge& MetricRegistry::gauge(std::string_view name, Labels labels) {
  Key key = make_key(name, std::move(labels));
  MutexLock lock(mu_);
  const auto [kit, fresh] = kind_of_name_.try_emplace(key.name, Kind::Gauge);
  LIPS_REQUIRE(kit->second == Kind::Gauge,
               "metric '" + key.name + "' already registered as another kind");
  (void)fresh;
  auto& slot = gauges_[std::move(key)];
  if (!slot) slot.reset(new Gauge());
  return *slot;
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds,
                                     Labels labels) {
  Key key = make_key(name, std::move(labels));
  MutexLock lock(mu_);
  const auto [kit, fresh] =
      kind_of_name_.try_emplace(key.name, Kind::Histogram);
  LIPS_REQUIRE(kit->second == Kind::Histogram,
               "metric '" + key.name + "' already registered as another kind");
  (void)fresh;
  auto& slot = histograms_[std::move(key)];
  if (!slot) {
    slot.reset(new Histogram(std::move(bounds)));
  } else {
    LIPS_REQUIRE(slot->bounds() == bounds,
                 "histogram '" + kit->first +
                     "' re-registered with different bounds");
  }
  return *slot;
}

std::vector<MetricRegistry::Sample> MetricRegistry::snapshot() const {
  MutexLock lock(mu_);
  std::vector<Sample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, c] : counters_) {
    Sample s;
    s.name = key.name;
    s.labels = key.labels;
    s.kind = Kind::Counter;
    s.value = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, g] : gauges_) {
    Sample s;
    s.name = key.name;
    s.labels = key.labels;
    s.kind = Kind::Gauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, h] : histograms_) {
    Sample s;
    s.name = key.name;
    s.labels = key.labels;
    s.kind = Kind::Histogram;
    s.bounds = h->bounds();
    s.counts.reserve(s.bounds.size() + 1);
    for (std::size_t i = 0; i <= s.bounds.size(); ++i)
      s.counts.push_back(h->bucket_count(i));
    s.sum = h->sum();
    s.count = h->total_count();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return out;
}

void MetricRegistry::restore(const std::vector<Sample>& samples) {
  for (const Sample& s : samples) {
    switch (s.kind) {
      case Kind::Counter:
        counter(s.name, s.labels).v_.store(s.value, std::memory_order_relaxed);
        break;
      case Kind::Gauge:
        gauge(s.name, s.labels).v_.store(s.value, std::memory_order_relaxed);
        break;
      case Kind::Histogram: {
        LIPS_REQUIRE(s.counts.size() == s.bounds.size() + 1,
                     "restore: histogram '" + s.name +
                         "' sample has a bucket-count mismatch");
        Histogram& h = histogram(s.name, s.bounds, s.labels);
        for (std::size_t i = 0; i < s.counts.size(); ++i)
          h.counts_[i].store(s.counts[i], std::memory_order_relaxed);
        h.sum_.store(s.sum, std::memory_order_relaxed);
        break;
      }
    }
  }
}

void MetricRegistry::merge(const std::vector<Sample>& samples,
                           const Labels& extra) {
  for (const Sample& s : samples) {
    Labels labels = s.labels;
    labels.insert(labels.end(), extra.begin(), extra.end());
    switch (s.kind) {
      case Kind::Counter:
        counter(s.name, std::move(labels)).inc(s.value);
        break;
      case Kind::Gauge:
        gauge(s.name, std::move(labels)).add(s.value);
        break;
      case Kind::Histogram: {
        LIPS_REQUIRE(s.counts.size() == s.bounds.size() + 1,
                     "merge: histogram '" + s.name +
                         "' sample has a bucket-count mismatch");
        Histogram& h = histogram(s.name, s.bounds, std::move(labels));
        LIPS_REQUIRE(h.bounds() == s.bounds,
                     "merge: histogram '" + s.name + "' bounds mismatch");
        for (std::size_t i = 0; i < s.counts.size(); ++i)
          h.counts_[i].fetch_add(s.counts[i], std::memory_order_relaxed);
        detail::atomic_add(h.sum_, s.sum);
        break;
      }
    }
  }
}

std::size_t MetricRegistry::series_count() const {
  MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::vector<MetricRegistry::Sample> deterministic_samples(
    std::vector<MetricRegistry::Sample> samples) {
  std::erase_if(samples, [](const MetricRegistry::Sample& s) {
    return s.name == "lips_lp_solve_duration_ms";
  });
  return samples;
}

}  // namespace lips::obs
