#pragma once
// Measurement helpers shared by the smorebench workloads: order statistics
// with a tail-sample rule, the seeded Zipf sampler, due-time latency
// accounting for open-loop traffic, the rate-ladder stop rule, and the
// result/fingerprint output. Everything here is pure (no threads, no
// clocks read) so smorebench_selftest can pin it down exactly.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "util/rng.hpp"

namespace smorebench {

/// Samples a tail percentile needs beyond it before it is reported.
inline constexpr std::size_t kTailSamples = 10;

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile q in (0, 1) of `v`, reported only when at least
/// kTailSamples observations lie strictly beyond its rank: with n samples
/// the q-th percentile is the ceil(q·n)-th smallest, and n − ceil(q·n) must
/// be >= kTailSamples. Infinite samples (missed requests) sort last.
inline std::optional<double> tail_percentile(std::vector<double> v, double q) {
  const std::size_t n = v.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (rank == 0 || n - rank < kTailSamples) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

/// Windowed percentile: split `v` (in send order) into consecutive windows
/// of `window` samples (a short final window is dropped), take each
/// window's q-th percentile, and report the median of those (nearest rank,
/// the lower middle for an even count). It is the tail a typical stretch
/// of traffic sees: a slowdown that reaches half the windows or more moves
/// it, one host stall does not. nullopt when there is no full window or a
/// window is too small for q.
inline std::optional<double> windowed_percentile(const std::vector<double>& v,
                                                 double q,
                                                 std::size_t window) {
  std::vector<double> per_window;
  for (std::size_t first = 0; window > 0 && first + window <= v.size();
       first += window) {
    const auto p = tail_percentile(
        {v.begin() + static_cast<std::ptrdiff_t>(first),
         v.begin() + static_cast<std::ptrdiff_t>(first + window)},
        q);
    if (!p) return std::nullopt;
    per_window.push_back(*p);
  }
  if (per_window.empty()) return std::nullopt;
  std::sort(per_window.begin(), per_window.end());
  return per_window[(per_window.size() - 1) / 2];
}

/// A measured quantity as it is reported: `scale` × `v`. A quantity that
/// could not be measured (no value, or an infinite one: a latency
/// percentile that falls among missed requests) is an error, never a
/// number: reporting 0 would read as the best possible latency.
inline double reported(std::optional<double> v, double scale,
                       const std::string& what) {
  if (!v || !std::isfinite(*v)) {
    throw std::runtime_error(what + " could not be measured" +
                             (v ? " (it falls among missed requests)" : ""));
  }
  return scale * *v;
}

/// Zipf(s) over ranks 0..n-1 (rank 0 is the most popular), drawn by
/// inverting the CDF with the caller's seeded generator.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(std::max<std::size_t>(1, n)) {
    double sum = 0.0;
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  [[nodiscard]] std::size_t operator()(smore::Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Open-loop latency accounting. Every request is timed from the moment it
/// was DUE on the schedule, not from when the generator got round to
/// sending it, so a stalled generator or a full queue charges its wait to
/// every request behind it. A request that was shed or failed counts as an
/// infinite latency: it misses any limit.
class DueTimeLatency {
 public:
  /// Room for `n` requests, with its pages already touched, so recording
  /// during a phase allocates nothing.
  void reserve(std::size_t n) {
    latency_s_.resize(n);
    late_s_.resize(n);
    latency_s_.clear();
    late_s_.clear();
  }
  /// An answered request: `late_s` is send time − due time (>= 0 when the
  /// generator ran late), `served_s` is send → result.
  void answered(double late_s, double served_s) {
    latency_s_.push_back(std::max(0.0, late_s) + served_s);
    late_s_.push_back(std::max(0.0, late_s));
  }
  /// A shed or failed request (it still had a due time and a send attempt).
  void missed(double late_s) {
    latency_s_.push_back(std::numeric_limits<double>::infinity());
    late_s_.push_back(std::max(0.0, late_s));
    ++missed_;
  }

  [[nodiscard]] std::size_t attempted() const { return latency_s_.size(); }
  [[nodiscard]] std::size_t missed() const { return missed_; }
  [[nodiscard]] double missed_share() const {
    return latency_s_.empty() ? 0.0
                              : static_cast<double>(missed_) /
                                    static_cast<double>(latency_s_.size());
  }
  /// Due-time latency percentile in seconds (see tail_percentile); may be
  /// +inf when the percentile falls among missed requests.
  [[nodiscard]] std::optional<double> latency(double q) const {
    return tail_percentile(latency_s_, q);
  }
  /// Windowed percentiles (see windowed_percentile): the reported p99 and
  /// the generator's schedule check.
  [[nodiscard]] std::optional<double> windowed_latency(
      double q, std::size_t window) const {
    return windowed_percentile(latency_s_, q, window);
  }
  [[nodiscard]] std::optional<double> windowed_lateness(
      double q, std::size_t window) const {
    return windowed_percentile(late_s_, q, window);
  }
  /// How late the generator ran, percentile in seconds.
  [[nodiscard]] std::optional<double> lateness(double q) const {
    return tail_percentile(late_s_, q);
  }

 private:
  std::vector<double> latency_s_;
  std::vector<double> late_s_;
  std::size_t missed_ = 0;
};

/// What one rung of the rate ladder observed.
struct RungObservation {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;    ///< results per second over the rung
  std::optional<double> p99_s;  ///< due-time p99 (nullopt: too few samples)
  double failed_share = 0.0;    ///< shed + failed over attempted
  /// Requests in flight, the median over instants of the rung's first half
  /// and of its second half: one stall at one instant moves neither.
  double backlog_early = 0.0;
  double backlog_late = 0.0;
  std::optional<double> late_p99_s;  ///< generator lateness p99
};

/// Pass/fail limits of one rung (fixed in protocol.json).
struct RungLimits {
  double p99_limit_s = 2e-3;
  double max_failed_share = 0.01;
  /// The backlog "grows" when the second half's in-flight count exceeds the
  /// requests offered in this many seconds AND the first half's count.
  double backlog_slack_s = 2e-3;
  /// The generator "kept to its schedule" when its p99 lateness is within
  /// this (seconds).
  double late_limit_s = 1e-3;
};

/// The rung verdict: p99 within the limit, failed share within the budget,
/// no growing backlog, and the generator on schedule. A p99 that cannot be
/// reported (too few samples) fails the rung.
inline bool rung_meets(const RungObservation& r, const RungLimits& lim) {
  if (!r.p99_s || !(*r.p99_s <= lim.p99_limit_s)) return false;
  if (r.failed_share > lim.max_failed_share) return false;
  const double slack = lim.backlog_slack_s * r.offered_qps;
  if (r.backlog_late > slack && r.backlog_late > r.backlog_early) {
    return false;
  }
  if (!r.late_p99_s || *r.late_p99_s > lim.late_limit_s) return false;
  return true;
}

/// The verdict on one rung from `votes` runs of it (odd): the majority
/// decides, and the runs stop as soon as it is reached. One host stall can
/// neither sink a rung the plane sustains nor lift one it does not.
inline bool majority(const std::function<bool()>& run, std::size_t votes) {
  const std::size_t need = votes / 2 + 1;
  std::size_t pass = 0;
  std::size_t miss = 0;
  while (pass < need && miss < need) ++(run() ? pass : miss);
  return pass >= need;
}

/// The ladder stop rule: the highest rung of the ascending `rungs` that
/// meets the limits, found by bisection (the verdict is assumed monotone:
/// if a rate fails, every higher rate fails). `verdict(i)` decides rung i.
/// Returns the passing rung index, or nullopt when even the lowest rung
/// fails. Decides O(log rungs) rungs.
inline std::optional<std::size_t> highest_passing_rung(
    std::size_t rungs, const std::function<bool(std::size_t)>& verdict) {
  std::optional<std::size_t> best;
  std::size_t lo = 0;
  std::size_t hi = rungs;  // candidates are [lo, hi)
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (verdict(mid)) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return best;
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The run's outcome: what the benchmark prints as its last line. `failed`
/// counts every failed operation (shed, errored, or wrong); `correct` is
/// false only when an output check found a wrong answer.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;  ///< output-check failures (stderr)
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record an output-check failure: one failed operation.
  void mismatch(std::string what) {
    ++failed;
    mismatches.push_back(std::move(what));
  }
};

/// The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
/// Throws on a non-finite value: JSON has no number for it, and no stand-in
/// is honest.
inline smore::obs::JsonValue result_json(const Result& r) {
  smore::obs::JsonValue metrics = smore::obs::JsonValue::object();
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    smore::obs::JsonValue v = smore::obs::JsonValue::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  smore::obs::JsonValue out = smore::obs::JsonValue::object();
  out.set("correct", r.mismatches.empty());
  out.set("attempted", static_cast<double>(r.attempted));
  out.set("failed", static_cast<double>(r.failed));
  out.set("metrics", std::move(metrics));
  return out;
}

}  // namespace smorebench
