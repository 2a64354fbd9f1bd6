// Self-test of the benchmark's own measurement helpers (harness.hpp): the
// tail-percentile sample rule, the seeded Zipf sampler, due-time latency
// accounting (missed requests are never reported as a latency), the rung
// verdict, the majority vote and the ladder stop rule.
//
//   ./smorebench_selftest        (or: python3 smorebench/run.py --selftest)
//
// Exits 0 when every check holds, 1 otherwise (each failure is printed).

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {  // 1, 2, ..., n (shuffled order)
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<double>((i * 7919) % n + 1));
  }
  return v;
}

void test_tail_percentile() {
  using smorebench::tail_percentile;
  // p99 needs ceil(0.99 n) <= n - 10: n = 1000 is the smallest sample.
  check(!tail_percentile(ramp(999), 0.99), "p99 withheld at n=999");
  const auto p99 = tail_percentile(ramp(1000), 0.99);
  check(p99 && *p99 == 990.0, "p99 of 1..1000 is the 990th value");
  // The median needs only 10 samples beyond it.
  check(!tail_percentile(ramp(19), 0.5), "p50 withheld at n=19");
  const auto p50 = tail_percentile(ramp(20), 0.5);
  check(p50 && *p50 == 10.0, "p50 of 1..20 is the 10th value");
  check(!tail_percentile({}, 0.5), "empty sample has no percentile");
  // Missed requests (+inf) sort last and can become the percentile.
  std::vector<double> v = ramp(1000);
  for (std::size_t i = 0; i < 11; ++i) {
    v[i] = std::numeric_limits<double>::infinity();
  }
  const auto tail = tail_percentile(v, 0.99);
  check(tail && std::isinf(*tail), "11 misses in 1000 push p99 to +inf");
  check(smorebench::median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even median");
}

void test_zipf() {
  const smorebench::ZipfSampler zipf(64, 1.0);
  smore::Rng a(7), b(7);
  bool same = true;
  for (int i = 0; i < 1000; ++i) same = same && zipf(a) == zipf(b);
  check(same, "same seed, same Zipf draws");
  smore::Rng c(8);
  std::vector<std::size_t> counts(64, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf(c)];
  double harmonic = 0.0;
  for (int i = 1; i <= 64; ++i) harmonic += 1.0 / i;
  const double head = static_cast<double>(counts[0]) / n;
  check(std::fabs(head - 1.0 / harmonic) < 0.005, "head mass is 1/H_64");
  check(std::fabs(static_cast<double>(counts[1]) / n - 0.5 / harmonic) < 0.005,
        "rank-1 mass is 1/(2 H_64)");
  check(counts[0] > counts[1] && counts[1] > counts[3] &&
            counts[3] > counts[63],
        "popularity falls with rank");
}

void test_due_time_latency() {
  smorebench::DueTimeLatency lat;
  // Sent 3 ms late, served in 1 ms: 4 ms from the due time.
  lat.answered(3e-3, 1e-3);
  // Early sends (negative lateness) are not credited.
  lat.answered(-1e-3, 2e-3);
  lat.missed(5e-3);
  check(lat.attempted() == 3 && lat.missed() == 1, "attempted/missed counts");
  check(std::fabs(lat.missed_share() - 1.0 / 3.0) < 1e-12, "missed share");
  smorebench::DueTimeLatency big;
  for (int i = 0; i < 100; ++i) big.answered(1e-3 * i, 1e-3);
  const auto p50 = big.latency(0.5);
  check(p50 && std::fabs(*p50 - 50e-3) < 1e-12,
        "latency counts the generator's lateness");
  // Windowed p99: one stalled window out of three does not move it, a
  // stall in two of three does.
  smorebench::DueTimeLatency win;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) {
      win.answered(0.0, w == 1 && i < 50 ? 10e-3 : 1e-3 * (1 + i % 2));
    }
  }
  const auto wp99 = win.windowed_latency(0.99, 1000);
  check(wp99 && std::fabs(*wp99 - 2e-3) < 1e-12,
        "windowed p99 is the median window's p99");
  const auto all_p99 = win.latency(0.99);
  check(all_p99 && *all_p99 == 10e-3, "a stall moves the plain p99");
  smorebench::DueTimeLatency two;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) {
      two.answered(0.0, w > 0 && i < 50 ? 10e-3 : 1e-3);
    }
  }
  const auto two_p99 = two.windowed_latency(0.99, 1000);
  check(two_p99 && *two_p99 == 10e-3,
        "a stall in most windows moves the windowed p99");
  check(!win.windowed_latency(0.99, 999), "windows of 999 cannot give a p99");
  check(!win.windowed_latency(0.99, 4000), "no full window, no p99");
  // Of four windows the median is the lower middle one.
  std::vector<double> four;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 20; ++i) four.push_back(w + 1.0);
  }
  const auto mid = smorebench::windowed_percentile(four, 0.5, 20);
  check(mid && *mid == 2.0, "median window of four is the second lowest");
  const auto late = big.lateness(0.5);
  check(late && std::fabs(*late - 49e-3) < 1e-12, "lateness percentile");
}

void test_unmeasurable_latency() {
  // 2% of requests shed: the p99 falls among them. It must never be
  // reported, least of all as 0 (the best a lower-is-better metric reads).
  smorebench::DueTimeLatency lat;
  for (int i = 0; i < 2000; ++i) {
    if (i % 50 == 0) {
      lat.missed(0.0);
    } else {
      lat.answered(0.0, 1e-3);
    }
  }
  check(lat.missed_share() == 0.02, "2% missed");
  bool threw = false;
  try {
    (void)smorebench::reported(lat.latency(0.99), 1e3, "p99");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "a p99 among missed requests is an error, not a number");
  threw = false;
  try {
    (void)smorebench::reported(lat.windowed_latency(0.99, 1000), 1e3, "p99");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "a windowed p99 among missed requests is an error");
  threw = false;
  try {
    (void)smorebench::reported(std::nullopt, 1e3, "p99");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "a p99 with too few samples is an error");
  check(smorebench::reported(lat.latency(0.5), 1e3, "p50") == 1.0,
        "the p50 below the misses is reported in ms");
  smorebench::Result r;
  r.attempted = 1;
  r.add("p99_ms", std::numeric_limits<double>::infinity(), "ms");
  threw = false;
  try {
    (void)smorebench::result_json(r);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "the result line refuses a non-finite metric");
}

void test_ladder() {
  using smorebench::RungLimits;
  using smorebench::RungObservation;
  const RungLimits lim;  // 2 ms, 1 %, slack 2 ms of traffic, 1 ms late
  RungObservation ok;
  ok.offered_qps = 100000.0;  // slack: 200 requests
  ok.p99_s = 1.5e-3;
  ok.failed_share = 0.0;
  ok.backlog_early = 1.0;
  ok.backlog_late = 3.0;  // tiny backlog: growth ignored
  ok.late_p99_s = 0.1e-3;
  check(smorebench::rung_meets(ok, lim), "a healthy rung meets");
  RungObservation r = ok;
  r.p99_s = 2.5e-3;
  check(!smorebench::rung_meets(r, lim), "p99 over the limit misses");
  r = ok;
  r.p99_s.reset();
  check(!smorebench::rung_meets(r, lim), "an unreportable p99 misses");
  r = ok;
  r.failed_share = 0.02;
  check(!smorebench::rung_meets(r, lim), "over 1% failed misses");
  r = ok;
  r.backlog_early = 75.0;
  r.backlog_late = 150.0;
  check(smorebench::rung_meets(r, lim),
        "a backlog within 2 ms of traffic may grow");
  r.backlog_late = 500.0;
  check(!smorebench::rung_meets(r, lim), "a growing backlog misses");
  r.backlog_early = 600.0;
  check(smorebench::rung_meets(r, lim), "a large but shrinking backlog meets");
  r = ok;
  r.late_p99_s = 3e-3;
  check(!smorebench::rung_meets(r, lim), "a late generator misses");

  // Bisection finds the highest passing rung of a monotone verdict with
  // O(log n) probes, for every knee position.
  for (std::size_t n = 1; n <= 20; ++n) {
    for (std::size_t knee = 0; knee <= n; ++knee) {  // rungs < knee pass
      std::size_t probes = 0;
      const auto best = smorebench::highest_passing_rung(n, [&](std::size_t i) {
        ++probes;
        return i < knee;
      });
      const bool right = knee == 0 ? !best.has_value()
                                   : best.has_value() && *best == knee - 1;
      check(right, "bisection finds the last passing rung");
      check(probes <= 1 + static_cast<std::size_t>(std::ceil(std::log2(n + 1))),
            "bisection probes O(log n) rungs");
    }
  }
  // The rung verdict is the majority of three runs, stopping once decided.
  std::size_t runs = 0;
  std::vector<bool> outcomes = {false, true, true};
  check(smorebench::majority([&] { return outcomes[runs++]; }, 3) && runs == 3,
        "one spurious miss of three does not sink a rung");
  runs = 0;
  outcomes = {true, false, false};
  check(!smorebench::majority([&] { return outcomes[runs++]; }, 3) && runs == 3,
        "one lucky pass of three does not lift a rung");
  runs = 0;
  outcomes = {false, false, true};
  check(!smorebench::majority([&] { return outcomes[runs++]; }, 3) && runs == 2,
        "two misses decide without a third run");
  runs = 0;
  check(smorebench::majority([&] { ++runs; return true; }, 1) && runs == 1,
        "one vote is one run");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_zipf();
  test_due_time_latency();
  test_unmeasurable_latency();
  test_ladder();
  if (failures != 0) {
    std::fprintf(stderr, "smorebench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("smorebench_selftest: all checks passed\n");
  return 0;
}
