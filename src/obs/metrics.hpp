#pragma once
// MetricsRegistry: process-wide named counters, gauges, and histograms with
// lock-free hot-path updates and pull-time merge (DESIGN.md §14).
//
// The serving stack previously kept a scatter of ad-hoc atomics and mutexed
// per-worker LatencyHistograms, each with its own snapshot logic. This layer
// gives every subsystem one vocabulary:
//
//   Counter    monotone uint64, relaxed fetch_add — the only write a request
//              ever pays for a count.
//   Gauge      last-value double (set/add), plus pull-time callback gauges
//              for values owned elsewhere (resident bytes, live domains).
//   Histogram  the log-bucket layout of util/latency.hpp re-expressed as
//              striped atomic buckets: record() is a relaxed fetch_add into
//              the recording thread's stripe, snapshot() merges stripes into
//              a plain LatencyHistogram. This is the torn-read fix — the old
//              pattern mutated a plain histogram while the stats path copied
//              it; here every word crossing threads is atomic.
//
// Identity: a metric is (name, sorted label set). Registration get-or-creates
// under a mutex and returns a handle that stays valid for the registry's
// lifetime; the hot path never touches the map again. Label values carry the
// fleet dimensions (tenant, shard, backend, kernel tier).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/latency.hpp"
#include "util/mutex.hpp"

namespace smore::obs {

/// Sorted-at-registration label pairs; part of a metric's identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone counter. value() is exact at quiesce and never torn.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value gauge (doubles; lock-free on every 64-bit target we build for).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Concurrent log-bucket histogram: LatencyHistogram's bucket layout behind
/// striped atomics. One stripe suffices for per-tenant series; fleet-level
/// histograms stripe by the worker count to keep hot buckets from
/// ping-ponging between cores. count is derived from the buckets at snapshot
/// time, so a snapshot's count always equals its bucket sum even mid-record.
class Histogram {
 public:
  explicit Histogram(std::size_t stripes = 1);

  void record(double seconds) noexcept;

  /// Merge all stripes into a plain histogram (the pull-time view).
  [[nodiscard]] LatencyHistogram snapshot() const;

  [[nodiscard]] std::size_t stripes() const noexcept {
    return stripes_.size();
  }

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets>
        counts{};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};  // valid only when the stripe has records
    std::atomic<double> max{0.0};
    std::atomic<std::uint64_t> has_records{0};
  };

  Stripe& stripe_of_thread() noexcept;

  std::vector<Stripe> stripes_;
};

enum class MetricType { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricType t) noexcept;

/// Pull-time view of one metric series (what exporters consume).
struct MetricSample {
  std::string name;
  MetricType type = MetricType::kCounter;
  Labels labels;
  double value = 0.0;        ///< counter / gauge
  LatencyHistogram hist;     ///< histogram only
};

/// Named-metric owner. Handles are stable raw pointers owned by the
/// registry; the mutex guards only registration and snapshot.
class MetricsRegistry {
 public:
  /// Get-or-create. Throws std::invalid_argument when the same
  /// (name, labels) key was registered as a different type.
  Counter* counter(const std::string& name, Labels labels = {});
  Gauge* gauge(const std::string& name, Labels labels = {});
  Histogram* histogram(const std::string& name, Labels labels = {},
                       std::size_t stripes = 1);

  /// A metric whose value is computed at snapshot time — for quantities owned
  /// by another subsystem (cache residency, hit counts). Re-registering the
  /// same key replaces the callback. `type` may be kCounter when the callback
  /// reads a monotone count; kHistogram is not a callback type. The owner of
  /// the callback's captures MUST remove() the series before dying.
  void gauge_callback(const std::string& name, Labels labels,
                      std::function<double()> fn,
                      MetricType type = MetricType::kGauge);

  /// Drop a series. Mandatory for callback metrics whose captures are dying;
  /// handle-backed series normally live as long as the registry (their raw
  /// handles dangle after removal).
  void remove(const std::string& name, Labels labels);

  /// Pull-time merge of everything registered, sorted by (name, labels).
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

 private:
  struct Entry {
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
    std::function<double()> callback;  // callback gauges only
  };
  using Key = std::pair<std::string, Labels>;

  mutable Mutex m_;
  std::map<Key, Entry> entries_ SMORE_GUARDED_BY(m_);
};

}  // namespace smore::obs
