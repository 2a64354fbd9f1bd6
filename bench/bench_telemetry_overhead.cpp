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
// Scale note (same caveat as bench_common.hpp): one core here, so this
// measures the compute-side overhead; on a multicore server the striped
// histograms keep the cost flat as workers scale. Emits BENCH_telemetry.json.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "eval/timer.hpp"
#include "hdc/encoder.hpp"
#include "hdc/hv_matrix.hpp"
#include "obs/telemetry.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {
using namespace smore;

/// Linearly separable encoded dataset (no encoder in the serving loop: the
/// bench isolates scheduling + inference + telemetry, like bench_serving).
HvDataset make_train(int classes, int domains, std::size_t per_cell,
                     std::size_t dim, Rng& rng) {
  std::vector<std::vector<float>> prototypes;
  for (int c = 0; c < classes; ++c) {
    std::vector<float> p(dim);
    for (auto& x : p) x = rng.bipolar();
    prototypes.push_back(std::move(p));
  }
  HvDataset data(dim);
  std::vector<float> row(dim);
  for (int d = 0; d < domains; ++d) {
    for (int c = 0; c < classes; ++c) {
      for (std::size_t i = 0; i < per_cell; ++i) {
        for (std::size_t j = 0; j < dim; ++j) {
          row[j] = prototypes[static_cast<std::size_t>(c)][j] +
                   static_cast<float>(rng.normal(0.0, 0.5));
        }
        data.add(row, c, d);
      }
    }
  }
  return data;
}

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

  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t n = total / producers;
      std::deque<std::future<ServeResult>> inflight;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = p * n + i;
        const auto row = queries.row(idx % queries.rows());
        inflight.push_back(
            server.submit(tenants[idx % tenants.size()],
                          {row.begin(), row.end()}));
        if (inflight.size() >= window) {
          inflight.front().get();
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        inflight.front().get();
        inflight.pop_front();
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = timer.seconds();
  server.shutdown();

  ArmResult r;
  r.seconds = seconds;
  r.completed = server.stats().completed;
  r.qps = static_cast<double>(r.completed) / seconds;
  return r;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
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
  const HvDataset train = make_train(classes, domains, 20, dim, rng);
  EncoderConfig ec;
  ec.dim = dim;
  Pipeline pipeline(std::make_shared<const MultiSensorEncoder>(ec),
                    train.num_classes());
  pipeline.fit_encoded(train);
  pipeline.model().calibrate_delta_star(train, 0.05);
  pipeline.quantize();
  std::string artifact;
  {
    std::ostringstream buffer(std::ios::binary);
    pipeline.save(buffer);
    artifact = buffer.str();
  }
  const ModelRegistry::ArtifactOpener opener =
      [artifact](const std::string&) {
        std::istringstream in(artifact, std::ios::binary);
        return ModelSnapshot::from_artifact(in, /*version=*/1);
      };

  std::vector<std::string> tenants;
  for (std::size_t t = 0; t < tenants_n; ++t) {
    tenants.push_back("t" + std::to_string(t));
  }

  HvMatrix queries(1024, dim);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    if (i % 8 == 7) {
      for (std::size_t j = 0; j < dim; ++j) {
        queries.row(i)[j] = static_cast<float>(rng.normal());
      }
    } else {
      queries.set_row(i, train.row(i % train.size()));
    }
  }

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

  const double base_med = median(baseline_qps);
  const double full_med = median(full_qps);
  const double overhead =
      base_med > 0.0 ? 1.0 - full_med / base_med : 0.0;
  const bool pass = overhead <= 0.02;
  std::printf("  median counters-only %9.0f q/s   median full %9.0f q/s   "
              "overhead %+.2f%%  (acceptance <= 2%%: %s)\n",
              base_med, full_med, 1e2 * overhead, pass ? "PASS" : "FAIL");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"tenants\": %zu,\n"
               "  \"queries_per_arm\": %zu,\n"
               "  \"dim\": %zu,\n"
               "  \"producers\": %zu,\n"
               "  \"window\": %zu,\n"
               "  \"repeats\": %zu,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"counters_only_qps\": [",
               tenants_n, total, dim, producers, window, repeats,
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < baseline_qps.size(); ++i) {
    std::fprintf(f, "%s%.1f", i ? ", " : "", baseline_qps[i]);
  }
  std::fprintf(f, "],\n  \"full_telemetry_qps\": [");
  for (std::size_t i = 0; i < full_qps.size(); ++i) {
    std::fprintf(f, "%s%.1f", i ? ", " : "", full_qps[i]);
  }
  std::fprintf(f,
               "],\n"
               "  \"median_counters_only_qps\": %.1f,\n"
               "  \"median_full_telemetry_qps\": %.1f,\n"
               "  \"overhead_fraction\": %.5f,\n"
               "  \"acceptance\": {\"overhead_fraction_max\": 0.02, "
               "\"pass\": %s}\n"
               "}\n",
               base_med, full_med, overhead, pass ? "true" : "false");
  std::fclose(f);
  std::printf("(json: %s)\n", out_path.c_str());
  return 0;
}
