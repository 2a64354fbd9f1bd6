// Serving-runtime throughput/latency: what micro-batching buys over
// per-request dispatch (DESIGN.md §9).
//
// Spawns a one-tenant MultiTenantServer (the single-model deployment: the
// registry opener returns the prebuilt snapshot), drives it from
// `--producers` threads that each keep `--window` requests in flight
// (open-loop pipelined submission — the shape of real concurrent clients),
// and sweeps the two scheduler knobs:
//
//   batch=1/delay=0      — the per-request baseline: every request pays its
//                          own queue hop, worker wakeup, kernel setup, and
//                          result allocations;
//   batch=N/delay=D      — micro-batching: those fixed costs amortize over
//                          up to N coalesced requests served by ONE
//                          predict_batch_full pass.
//
// Reports queries/sec plus p50/p95/p99 submit→fulfill latency from the
// server's own LatencyHistogram, for the float and the packed backend, and
// the direct-batched ceiling (one predict over the whole set, no server).
// The serving PR's acceptance figure is micro-batched ≥ 5× the batch-size-1
// submit loop at 8 producers, 4096-d float.
//
// Scale note (same caveat as bench_common.hpp): that 5× is a SCHEDULING
// claim — it needs per-request dispatch overhead (worker wakeups, futex
// contention across cores, serialized single-query kernels) to dominate
// per-request compute, which holds on a multicore server (the paper's has
// 24 hardware threads) where micro-batches also fan out across `--workers`.
// On a single core every stage is compute-bound, the worker never sleeps
// under pipelined load, and the ratio is capped by ceiling_vs_batch1 =
// direct_qps / batch1_qps (~1.1-1.6× there) no matter the scheduler. The
// bench therefore reports the measured speedup AND that compute ceiling so
// the comparison reads as a shape claim; rerun with more workers (e.g.
// --workers=4 --producers=8) for the paper-scale figure.
// Emits BENCH_serving.json for CI tracking.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/smore.hpp"
#include "eval/timer.hpp"
#include "hdc/hv_matrix.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {
using namespace smore;

struct RunResult {
  std::string label;
  std::string backend;
  std::size_t max_batch = 0;
  std::uint32_t max_delay_us = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double mean_batch_fill = 0.0;
  LatencySummary latency;
};

/// Drive `total` requests through a server from `producers` open-loop
/// threads with `window` requests in flight each. The snapshot's own
/// backend (float or packed — it was built with or without quantization)
/// answers the queries; the server never knows which.
RunResult run_config(const char* label, std::size_t max_batch,
                     std::uint32_t max_delay_us, std::size_t workers,
                     const std::shared_ptr<const ModelSnapshot>& snap,
                     const HvMatrix& queries, std::size_t total,
                     std::size_t producers, std::size_t window,
                     const std::shared_ptr<obs::Telemetry>& hub = nullptr) {
  MultiTenantConfig cfg;
  cfg.max_batch = max_batch;
  cfg.max_delay_us = max_delay_us;
  cfg.workers_per_shard = workers;
  cfg.shard_queue_capacity =
      std::max<std::size_t>(1024, producers * window * 2);
  cfg.telemetry = hub;  // shared across configs when --metrics-json is on
  MultiTenantServer server(
      std::make_shared<ModelRegistry>(
          [snap](const std::string&) { return snap; }),
      cfg);

  const double seconds =
      bench::drive_closed_loop(total, producers, window, [&](std::size_t) {
        return [&](std::size_t idx) -> bench::Submitted {
          const auto row = queries.row(idx % queries.rows());
          return server.submit("model", {row.begin(), row.end()});
        };
      }).seconds;
  server.shutdown();
  const MultiTenantStats stats = server.stats();

  RunResult r;
  r.label = label;
  r.backend = snap->backend->name();
  r.max_batch = max_batch;
  r.max_delay_us = max_delay_us;
  r.seconds = seconds;
  r.qps = static_cast<double>(stats.completed) / seconds;
  r.mean_batch_fill = stats.mean_batch_fill;
  r.latency = stats.latency;
  std::printf("  %-28s %7zu q in %7.3f s  %9.0f q/s  fill %6.1f  "
              "p50 %7.3f ms  p95 %7.3f ms  p99 %7.3f ms\n",
              label, static_cast<std::size_t>(stats.completed), seconds, r.qps,
              r.mean_batch_fill, 1e3 * r.latency.p50_seconds,
              1e3 * r.latency.p95_seconds, 1e3 * r.latency.p99_seconds);
  std::fflush(stdout);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Serving-runtime bench: micro-batched vs per-request dispatch "
      "(queries/sec, p50/p95/p99) for the float and packed backends; emits "
      "BENCH_serving.json.");
  cli.flag_int("queries", 20000, "total requests per configuration")
      .flag_int("dim", 4096, "hyperdimension")
      .flag_int("classes", 6, "classes")
      .flag_int("domains", 4, "source domains")
      .flag_int("producers", 8, "producer threads")
      .flag_int("window", 64, "in-flight requests per producer")
      .flag_int("workers", 1, "batching worker threads")
      .flag_string("out", "BENCH_serving.json", "JSON output path")
      .flag_bool("metrics-json", false,
                 "embed the telemetry metrics snapshot (cumulative over all "
                 "configs) in the output JSON")
      .flag_int("seed", 42, "data seed");
  bench::add_smoke_flag(cli);
  if (!cli.parse(argc, argv)) return 1;

  auto total = static_cast<std::size_t>(cli.get_int("queries"));
  auto dim = static_cast<std::size_t>(cli.get_int("dim"));
  auto producers = static_cast<std::size_t>(cli.get_int("producers"));
  auto window = static_cast<std::size_t>(cli.get_int("window"));
  const auto workers = static_cast<std::size_t>(cli.get_int("workers"));
  const int classes = static_cast<int>(cli.get_int("classes"));
  const int domains = static_cast<int>(cli.get_int("domains"));
  if (cli.get_bool("smoke")) {
    total = 2000;
    dim = 512;
    window = 16;
  }
  const std::string out_path = cli.get_string("out");
  // One hub shared across every configuration: the embedded snapshot shows
  // cumulative fleet counters, the slow-span tail, and events for the whole
  // sweep (the per-config numbers stay in "configs").
  const std::shared_ptr<obs::Telemetry> hub =
      cli.get_bool("metrics-json") ? obs::Telemetry::make() : nullptr;

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const HvDataset train = bench::make_train(classes, domains, 20, dim, rng);
  SmoreModel model(classes, dim);
  model.fit(train);
  model.calibrate_delta_star(train, 0.05);

  const HvMatrix queries = bench::make_queries(train, rng);

  const auto float_snap = ModelSnapshot::make(model.clone(), false, 1);
  const auto packed_snap = ModelSnapshot::make(model.clone(), true, 1);

  std::printf("[bench] %zu requests/config, d=%zu, K=%d, C=%d, %zu producers "
              "x window %zu, %zu worker(s)\n",
              total, dim, domains, classes, producers, window, workers);

  // Direct-batched ceiling: the whole request set as ONE batch, no server.
  double direct_s;
  {
    WallTimer t;
    std::size_t done = 0;
    while (done < total) {
      const std::size_t n = std::min(queries.rows(), total - done);
      (void)float_snap->model->predict_batch_full(queries.view().slice(0, n));
      done += n;
    }
    direct_s = t.seconds();
  }
  std::printf("  %-28s %7zu q in %7.3f s  %9.0f q/s  (no scheduling: upper "
              "bound)\n",
              "direct predict_batch_full", total, direct_s,
              static_cast<double>(total) / direct_s);

  std::vector<RunResult> results;
  // THE baseline of the acceptance figure: a batch-size-1 submit loop —
  // every producer submits one request and waits for its future before the
  // next (window=1), and the server coalesces nothing.
  results.push_back(run_config("float submit loop (batch=1)", 1, 0, workers,
                               float_snap, queries, total, producers,
                               /*window=*/1, hub));
  results.push_back(run_config("float batch=1 pipelined", 1, 0, workers,
                               float_snap, queries, total, producers, window, hub));
  results.push_back(run_config("float batch=8 delay=100", 8, 100, workers,
                               float_snap, queries, total, producers, window, hub));
  results.push_back(run_config("float batch=32 delay=200", 32, 200, workers,
                               float_snap, queries, total, producers, window, hub));
  results.push_back(run_config("float batch=64 delay=200", 64, 200, workers,
                               float_snap, queries, total, producers, window, hub));
  results.push_back(run_config("float batch=128 delay=500", 128, 500, workers,
                               float_snap, queries, total, producers, window, hub));
  results.push_back(run_config("packed batch=1 (baseline)", 1, 0, workers,
                               packed_snap, queries, total, producers, window, hub));
  results.push_back(run_config("packed batch=64 delay=200", 64, 200, workers,
                               packed_snap, queries, total, producers, window, hub));

  // Acceptance figure: best float micro-batch vs the float submit loop.
  double best_float_qps = 0.0;
  for (const RunResult& r : results) {
    if (r.backend == "float" && r.max_batch > 1 && r.qps > best_float_qps) {
      best_float_qps = r.qps;
    }
  }
  const double baseline_qps = results.front().qps;
  const double direct_qps = static_cast<double>(total) / direct_s;
  const double speedup = best_float_qps / baseline_qps;
  const double ceiling = direct_qps / baseline_qps;
  std::printf("  micro-batched vs submit loop (float): %.2fx   "
              "single-core compute ceiling: %.2fx   (acceptance >= 5x needs "
              "multicore: see the scale note)\n",
              speedup, ceiling);

  obs::JsonValue configs = obs::JsonValue::array();
  for (const RunResult& r : results) {
    configs.push_back(bench::json_object({
        {"backend", r.backend},
        {"max_batch", r.max_batch},
        {"max_delay_us", static_cast<std::uint64_t>(r.max_delay_us)},
        {"seconds", r.seconds},
        {"queries_per_second", r.qps},
        {"mean_batch_fill", r.mean_batch_fill},
        {"p50_ms", 1e3 * r.latency.p50_seconds},
        {"p95_ms", 1e3 * r.latency.p95_seconds},
        {"p99_ms", 1e3 * r.latency.p99_seconds},
        {"max_ms", 1e3 * r.latency.max_seconds},
    }));
  }
  obs::JsonValue doc = bench::json_object({
      {"queries_per_config", total},
      {"dim", dim},
      {"classes", classes},
      {"domains", domains},
      {"producers", producers},
      {"window", window},
      {"workers", workers},
      {"hardware_threads", bench::hardware_threads()},
      {"direct_batched_queries_per_second", direct_qps},
      {"speedup_microbatch_vs_submit_loop_float", speedup},
      {"single_core_ceiling_vs_submit_loop", ceiling},
      {"configs", std::move(configs)},
  });
  if (hub != nullptr) doc.set("telemetry", obs::snapshot_json(*hub));
  return bench::write_json(out_path, doc) ? 0 : 1;
}
