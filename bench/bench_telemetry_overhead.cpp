// Telemetry overhead: what full observability costs on the serving hot path
// (DESIGN.md §14).
//
// Drives the SAME multi-tenant open-loop traffic twice per repeat,
// interleaved A/B so thermal and cache drift hits both arms equally:
//
//   counters-only — telemetry compiled in but detail switched off
//                   (TelemetryConfig{histograms,traces,events = false}).
//                   Counters stay on: they back the stats() views and cannot be
//                   disabled, so this arm is the shipping baseline;
//   full          — histograms + trace spans (default sampling, always-on
//                   slow tail) + the event log, i.e. everything fleet_top
//                   renders.
//
// Reports median served q/s per arm across `--repeats` interleaved pairs
// and the overhead fraction 1 - full/counters_only. Acceptance (ISSUE 9):
// full telemetry costs <= 2% served throughput. Per-request telemetry work
// in the full arm is three histogram records, a sampled span, and no events
// on the happy path — all O(1) against a d-dimensional predict.
//
// Scale note (same caveat as bench_common.hpp): the defaults run one
// batching worker, so this measures the compute-side overhead; with more
// workers the striped histograms keep the cost flat. Emits
// BENCH_telemetry.json.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "hdc/hv_matrix.hpp"
#include "obs/telemetry.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {
using namespace smore;

struct ArmResult {
  double seconds = 0.0;
  double qps = 0.0;
  std::uint64_t completed = 0;
};

/// One timed pass: `producers` open-loop threads, uniform tenant mix.
ArmResult run_arm(const obs::TelemetryConfig& tc,
                  const ModelRegistry::ArtifactOpener& opener,
                  const MultiTenantConfig& base_cfg,
                  const std::vector<std::string>& tenants,
                  const HvMatrix& queries, std::size_t total,
                  std::size_t producers, std::size_t window) {
  MultiTenantConfig cfg = base_cfg;
  cfg.telemetry = obs::Telemetry::make(tc);
  auto registry = std::make_shared<ModelRegistry>(opener);
  MultiTenantServer server(std::move(registry), cfg);

  // Warm every tenant so neither arm pays artifact loads inside the timer.
  for (const std::string& t : tenants) {
    const auto row = queries.row(0);
    server.submit(t, {row.begin(), row.end()}).get();
  }

  const double seconds =
      bench::drive_closed_loop(total, producers, window, [&](std::size_t) {
        return [&](std::size_t idx) -> bench::Submitted {
          const auto row = queries.row(idx % queries.rows());
          return server.submit(tenants[idx % tenants.size()],
                               {row.begin(), row.end()});
        };
      }).seconds;
  server.shutdown();

  ArmResult r;
  r.seconds = seconds;
  r.completed = server.stats().completed;
  r.qps = static_cast<double>(r.completed) / seconds;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Telemetry overhead bench: served q/s with full observability "
      "(histograms + trace spans + events) vs counters-only, interleaved "
      "A/B repeats on a multi-tenant server; emits BENCH_telemetry.json.");
  cli.flag_int("tenants", 8, "number of tenants")
      .flag_int("queries", 24000, "requests per timed arm")
      .flag_int("dim", 2048, "hyperdimension")
      .flag_int("classes", 6, "classes")
      .flag_int("domains", 4, "source domains")
      .flag_int("producers", 4, "producer threads")
      .flag_int("window", 64, "in-flight requests per producer")
      .flag_int("max-batch", 64, "per-tenant micro-batch cap")
      .flag_int("delay-us", 200, "batch-formation wait (us)")
      .flag_int("repeats", 5, "interleaved A/B repeats")
      .flag_string("out", "BENCH_telemetry.json", "JSON output path")
      .flag_int("seed", 42, "data seed");
  bench::add_smoke_flag(cli);
  if (!cli.parse(argc, argv)) return 1;

  auto tenants_n = static_cast<std::size_t>(cli.get_int("tenants"));
  auto total = static_cast<std::size_t>(cli.get_int("queries"));
  auto dim = static_cast<std::size_t>(cli.get_int("dim"));
  auto producers = static_cast<std::size_t>(cli.get_int("producers"));
  auto window = static_cast<std::size_t>(cli.get_int("window"));
  auto repeats = static_cast<std::size_t>(cli.get_int("repeats"));
  const int classes = static_cast<int>(cli.get_int("classes"));
  const int domains = static_cast<int>(cli.get_int("domains"));
  if (cli.get_bool("smoke")) {
    tenants_n = 4;
    total = 3000;
    dim = 512;
    window = 16;
    repeats = 2;
  }
  repeats = std::max<std::size_t>(1, repeats);
  const std::string out_path = cli.get_string("out");

  MultiTenantConfig base_cfg;
  base_cfg.max_batch = static_cast<std::size_t>(cli.get_int("max-batch"));
  base_cfg.max_delay_us = static_cast<std::uint32_t>(cli.get_int("delay-us"));
  base_cfg.shard_queue_capacity =
      std::max<std::size_t>(1024, producers * window * 2);

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const HvDataset train = bench::make_train(classes, domains, 20, dim, rng);
  const ModelRegistry::ArtifactOpener opener =
      bench::artifact_opener(bench::packed_artifact(train));

  std::vector<std::string> tenants;
  for (std::size_t t = 0; t < tenants_n; ++t) {
    tenants.push_back(std::string(1, 't') += std::to_string(t));
  }

  const HvMatrix queries = bench::make_queries(train, rng);

  obs::TelemetryConfig counters_only;
  counters_only.histograms = false;
  counters_only.traces = false;
  counters_only.events = false;
  const obs::TelemetryConfig full;  // defaults: everything on

  std::printf("[bench] %zu tenants, %zu requests/arm, d=%zu, %zu producers x "
              "window %zu, %zu interleaved repeats\n",
              tenants_n, total, dim, producers, window, repeats);

  std::vector<double> baseline_qps, full_qps;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const ArmResult a = run_arm(counters_only, opener, base_cfg, tenants,
                                queries, total, producers, window);
    const ArmResult b = run_arm(full, opener, base_cfg, tenants, queries,
                                total, producers, window);
    baseline_qps.push_back(a.qps);
    full_qps.push_back(b.qps);
    std::printf("  repeat %zu: counters-only %9.0f q/s   full %9.0f q/s   "
                "ratio %.4f\n",
                rep, a.qps, b.qps, a.qps > 0.0 ? b.qps / a.qps : 0.0);
    std::fflush(stdout);
  }

  const double base_med = bench::median(baseline_qps);
  const double full_med = bench::median(full_qps);
  const double overhead =
      base_med > 0.0 ? 1.0 - full_med / base_med : 0.0;
  const bool pass = overhead <= 0.02;
  std::printf("  median counters-only %9.0f q/s   median full %9.0f q/s   "
              "overhead %+.2f%%  (acceptance <= 2%%: %s)\n",
              base_med, full_med, 1e2 * overhead, pass ? "PASS" : "FAIL");

  const obs::JsonValue doc = bench::json_object({
      {"tenants", tenants_n},
      {"queries_per_arm", total},
      {"dim", dim},
      {"producers", producers},
      {"window", window},
      {"repeats", repeats},
      {"hardware_threads", bench::hardware_threads()},
      {"counters_only_qps", bench::json_array(baseline_qps)},
      {"full_telemetry_qps", bench::json_array(full_qps)},
      {"median_counters_only_qps", base_med},
      {"median_full_telemetry_qps", full_med},
      {"overhead_fraction", overhead},
      {"acceptance", bench::json_object({
                         {"overhead_fraction_max", 0.02},
                         {"pass", pass},
                     })},
  });
  return bench::write_json(out_path, doc) ? 0 : 1;
}
