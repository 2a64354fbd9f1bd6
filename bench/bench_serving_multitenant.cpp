// Multi-tenant serving: fleet throughput, tenant fairness, and registry
// residency under memory pressure (DESIGN.md §12).
//
// Drives a MultiTenantServer over T tenants (each a full .smore artifact
// opened through the ModelRegistry) through five phases:
//
//   direct        — the no-server packed kernel ceiling (one thread, full
//                   batches);
//   single-tenant — ONE tenant at the same total load: what sharding/
//                   routing/registry overhead will be measured against;
//   cold vs warm  — per-tenant first-request latency (includes the lazy
//                   artifact load) against the warm path;
//   zipf fair/unfair — Zipf(s)-distributed open-loop traffic, with
//                   admission control + round-robin drain ON vs the
//                   throughput-greedy baseline (no quota, oldest-first).
//                   Reports aggregate q/s plus head-tenant vs tail-cohort
//                   (ranks T/2..T-1, histograms merged) p99;
//   churn         — uniform traffic against a registry budgeted to ~T/4
//                   resident models: sustained load/evict cycling. The
//                   budget must bound peak resident bytes.
//
// Acceptance (ISSUE 7, at >= 64 tenants, Zipf 1.0): aggregate packed
// throughput >= 0.8x the single-tenant ceiling at equal total load;
// tail-cohort p99 within 3x head p99 with fairness on; peak resident bytes
// <= the configured budget across the churn phase.
//
// Scale note (same caveat as bench_serving.cpp): the defaults run one shard
// and one worker, so all fleet-vs-single ratios are shape claims. Rerun
// with --shards 4 --workers-per-shard 2 for deployment-scale figures.
// Emits BENCH_serving_multitenant.json for CI tracking.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/timer.hpp"
#include "hdc/hv_matrix.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {
using namespace smore;

/// Zipf(s) CDF over ranks 0..n-1 (rank 0 is the head tenant).
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

std::size_t zipf_sample(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

std::string tenant_name(std::size_t rank) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%03u", static_cast<unsigned>(rank));
  return buf;
}

struct ZipfResult {
  double seconds = 0.0;
  double qps = 0.0;
  double mean_batch_fill = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t sheds = 0;
  double head_p99_ms = 0.0;
  double tail_p99_ms = 0.0;
  double tail_head_ratio = 0.0;
  double head_shed_fraction = 0.0;
  double tail_shed_fraction = 0.0;
};

/// One Zipf traffic phase: `producers` open-loop threads, each keeping up
/// to `window` requests in flight, tenant sampled per request.
ZipfResult run_zipf(bool fair, std::size_t quota,
                    const ModelRegistry::ArtifactOpener& opener,
                    const MultiTenantConfig& base_cfg,
                    const std::vector<std::string>& tenants,
                    const std::vector<double>& cdf, const HvMatrix& queries,
                    std::size_t total, std::size_t producers,
                    std::size_t window, const Rng& rng) {
  MultiTenantConfig cfg = base_cfg;
  cfg.fair = fair;
  cfg.tenant_inflight_quota = quota;
  auto registry = std::make_shared<ModelRegistry>(opener);  // unbounded
  MultiTenantServer server(std::move(registry), cfg);

  // Pre-warm every tenant: the cold-start phase measures loads; this one
  // measures steady-state fleet scheduling.
  for (const std::string& t : tenants) {
    const auto row = queries.row(0);
    server.submit(t, {row.begin(), row.end()}).get();
  }

  // Open loop: a shed request is dropped, not retried.
  const bench::ClosedLoopResult load =
      bench::drive_closed_loop(total, producers, window, [&](std::size_t p) {
        return [&, prng = rng.fork(1000 + p)](
                   std::size_t idx) mutable -> bench::Submitted {
          const std::size_t rank = zipf_sample(cdf, prng.uniform());
          const auto row = queries.row(idx % queries.rows());
          return server.try_submit(tenants[rank], {row.begin(), row.end()});
        };
      });
  server.shutdown();

  const MultiTenantStats stats = server.stats();
  const auto per_tenant = server.tenant_stats();  // sorted by name = rank
  const std::size_t T = tenants.size();
  LatencyHistogram tail;
  std::uint64_t tail_attempted = 0, tail_shed = 0;
  for (std::size_t r = T / 2; r < T; ++r) {
    tail.merge(per_tenant[r].latency);
    tail_attempted += per_tenant[r].submitted + per_tenant[r].shed_queue_full +
                      per_tenant[r].shed_tenant_quota;
    tail_shed +=
        per_tenant[r].shed_queue_full + per_tenant[r].shed_tenant_quota;
  }
  const auto& head = per_tenant[0];
  const std::uint64_t head_shed =
      head.shed_queue_full + head.shed_tenant_quota;
  const std::uint64_t head_attempted = head.submitted + head_shed;

  ZipfResult r;
  r.seconds = load.seconds;
  r.completed = stats.completed;
  r.sheds = load.shed;
  r.qps = static_cast<double>(stats.completed) / load.seconds;
  r.mean_batch_fill = stats.mean_batch_fill;
  r.head_p99_ms = 1e3 * head.latency.quantile(0.99);
  r.tail_p99_ms = 1e3 * tail.quantile(0.99);
  r.tail_head_ratio =
      r.head_p99_ms > 0.0 ? r.tail_p99_ms / r.head_p99_ms : 0.0;
  r.head_shed_fraction = head_attempted != 0
                             ? static_cast<double>(head_shed) /
                                   static_cast<double>(head_attempted)
                             : 0.0;
  r.tail_shed_fraction = tail_attempted != 0
                             ? static_cast<double>(tail_shed) /
                                   static_cast<double>(tail_attempted)
                             : 0.0;
  std::printf("  %-28s %7llu q in %7.3f s  %9.0f q/s  fill %5.1f  head p99 "
              "%7.3f ms  tail p99 %7.3f ms  ratio %5.2f  shed head %4.1f%% "
              "tail %4.1f%%\n",
              fair ? "zipf fair (quota+rr)" : "zipf unfair (baseline)",
              static_cast<unsigned long long>(r.completed), r.seconds, r.qps,
              r.mean_batch_fill, r.head_p99_ms, r.tail_p99_ms,
              r.tail_head_ratio, 1e2 * r.head_shed_fraction,
              1e2 * r.tail_shed_fraction);
  std::fflush(stdout);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Multi-tenant serving bench: fleet throughput vs the single-tenant "
      "ceiling, head-vs-tail tenant p99 under Zipf traffic with fairness "
      "on/off, cold-start latency, and registry eviction churn under a byte "
      "budget; emits BENCH_serving_multitenant.json.");
  cli.flag_int("tenants", 64, "number of tenants (>= 2)")
      .flag_int("queries", 40000, "total requests per traffic phase")
      .flag_int("dim", 2048, "hyperdimension")
      .flag_int("classes", 6, "classes")
      .flag_int("domains", 4, "source domains")
      .flag_int("producers", 8, "producer threads")
      .flag_int("window", 64, "in-flight requests per producer")
      .flag_int("shards", 1, "router shards")
      .flag_int("workers-per-shard", 1, "batching workers per shard")
      .flag_int("max-batch", 64, "per-tenant micro-batch cap")
      .flag_int("delay-us", 200, "batch-formation wait (us)")
      .flag_int("quota", 64, "per-tenant in-flight quota (fair phase)")
      .flag_int("churn-queries", 6000, "requests in the eviction-churn phase")
      .flag_string("out", "BENCH_serving_multitenant.json", "JSON output path")
      .flag_bool("metrics-json", false,
                 "embed the telemetry metrics snapshot (cumulative over all "
                 "phases) in the output JSON")
      .flag_int("seed", 42, "data seed");
  bench::add_smoke_flag(cli);
  if (!cli.parse(argc, argv)) return 1;

  auto tenants_n = static_cast<std::size_t>(cli.get_int("tenants"));
  auto total = static_cast<std::size_t>(cli.get_int("queries"));
  auto dim = static_cast<std::size_t>(cli.get_int("dim"));
  auto producers = static_cast<std::size_t>(cli.get_int("producers"));
  auto window = static_cast<std::size_t>(cli.get_int("window"));
  auto churn_total = static_cast<std::size_t>(cli.get_int("churn-queries"));
  const int classes = static_cast<int>(cli.get_int("classes"));
  const int domains = static_cast<int>(cli.get_int("domains"));
  const auto quota = static_cast<std::size_t>(cli.get_int("quota"));
  if (cli.get_bool("smoke")) {
    tenants_n = 12;
    total = 4000;
    dim = 512;
    window = 16;
    churn_total = 1000;
  }
  tenants_n = std::max<std::size_t>(2, tenants_n);
  const std::string out_path = cli.get_string("out");

  MultiTenantConfig base_cfg;
  base_cfg.num_shards = static_cast<std::size_t>(cli.get_int("shards"));
  base_cfg.workers_per_shard =
      static_cast<std::size_t>(cli.get_int("workers-per-shard"));
  base_cfg.max_batch = static_cast<std::size_t>(cli.get_int("max-batch"));
  base_cfg.max_delay_us =
      static_cast<std::uint32_t>(cli.get_int("delay-us"));
  base_cfg.shard_queue_capacity =
      std::max<std::size_t>(1024, producers * window * 2);
  // One hub shared across every phase: the embedded snapshot shows
  // cumulative fleet counters, per-tenant series, the slow-span tail, and
  // shed/evict events for the whole sweep.
  const std::shared_ptr<obs::Telemetry> hub =
      cli.get_bool("metrics-json") ? obs::Telemetry::make() : nullptr;
  base_cfg.telemetry = hub;

  // ---- one trained artifact, shared by every tenant (tenant identity is a
  // routing/residency concern; weights don't change the scheduling cost)
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const HvDataset train = bench::make_train(classes, domains, 20, dim, rng);
  const std::string artifact = bench::packed_artifact(train);
  const ModelRegistry::ArtifactOpener opener = bench::artifact_opener(artifact);
  const std::size_t per_model_bytes = snapshot_resident_bytes(*opener(""));

  std::vector<std::string> tenants;
  tenants.reserve(tenants_n);
  for (std::size_t t = 0; t < tenants_n; ++t) {
    tenants.push_back(tenant_name(t));
  }
  const std::vector<double> cdf = zipf_cdf(tenants_n, 1.0);

  const HvMatrix queries = bench::make_queries(train, rng);

  std::printf("[bench] %zu tenants, %zu requests/phase, d=%zu, artifact "
              "%.0f KiB (%.0f KiB resident), %zu producers x window %zu, "
              "%zu shard(s) x %zu worker(s), zipf 1.0\n",
              tenants_n, total, dim,
              static_cast<double>(artifact.size()) / 1024.0,
              static_cast<double>(per_model_bytes) / 1024.0, producers,
              window, base_cfg.num_shards, base_cfg.workers_per_shard);

  // ---- phase: direct kernel ceiling (no server)
  double direct_qps;
  {
    const auto snap = opener("");
    WallTimer t;
    std::size_t done = 0;
    while (done < total) {
      const std::size_t n = std::min(queries.rows(), total - done);
      (void)snap->backend->predict_batch_full(queries.view().slice(0, n));
      done += n;
    }
    direct_qps = static_cast<double>(total) / t.seconds();
  }
  std::printf("  %-28s %35.0f q/s  (no scheduling: upper bound)\n",
              "direct packed predict", direct_qps);

  // ---- phase: single-tenant server ceiling at equal total load
  double single_qps;
  {
    auto registry = std::make_shared<ModelRegistry>(opener);
    MultiTenantServer server(std::move(registry), base_cfg);
    const auto row0 = queries.row(0);
    server.submit(tenants[0], {row0.begin(), row0.end()}).get();  // warm
    const double seconds =
        bench::drive_closed_loop(total, producers, window, [&](std::size_t) {
          return [&](std::size_t idx) -> bench::Submitted {
            const auto row = queries.row(idx % queries.rows());
            return server.submit(tenants[0], {row.begin(), row.end()});
          };
        }).seconds;
    server.shutdown();
    single_qps = static_cast<double>(server.stats().completed) / seconds;
    std::printf("  %-28s %7llu q in %7.3f s  %9.0f q/s  fill %5.1f\n",
                "single-tenant ceiling",
                static_cast<unsigned long long>(server.stats().completed),
                seconds, single_qps, server.stats().mean_batch_fill);
  }

  // ---- phase: cold-start vs warm (per-tenant first touch)
  double cold_p50_ms, cold_p95_ms, warm_p50_ms;
  {
    auto registry = std::make_shared<ModelRegistry>(opener);
    MultiTenantServer server(std::move(registry), base_cfg);
    std::vector<double> cold_ms, warm_ms;
    const auto row0 = queries.row(0);
    const std::vector<float> q{row0.begin(), row0.end()};
    for (const std::string& t : tenants) {
      WallTimer timer;
      server.submit(t, q).get();
      cold_ms.push_back(1e3 * timer.seconds());
    }
    for (const std::string& t : tenants) {
      WallTimer timer;
      server.submit(t, q).get();
      warm_ms.push_back(1e3 * timer.seconds());
    }
    std::sort(cold_ms.begin(), cold_ms.end());
    std::sort(warm_ms.begin(), warm_ms.end());
    cold_p50_ms = cold_ms[cold_ms.size() / 2];
    cold_p95_ms = cold_ms[cold_ms.size() * 95 / 100];
    warm_p50_ms = warm_ms[warm_ms.size() / 2];
    std::printf("  %-28s cold p50 %7.3f ms  p95 %7.3f ms   warm p50 %7.3f "
                "ms  (%llu loads)\n",
                "cold-start vs warm", cold_p50_ms, cold_p95_ms, warm_p50_ms,
                static_cast<unsigned long long>(
                    server.stats().registry.loads));
  }

  // ---- phases: Zipf traffic, fairness on vs off
  const ZipfResult fair = run_zipf(true, quota, opener, base_cfg, tenants,
                                   cdf, queries, total, producers, window,
                                   rng);
  const ZipfResult unfair = run_zipf(false, 0, opener, base_cfg, tenants,
                                     cdf, queries, total, producers, window,
                                     rng);

  // ---- phase: eviction churn under a ~T/4-model byte budget
  std::size_t churn_budget, churn_peak;
  std::uint64_t churn_loads, churn_evictions;
  double churn_qps;
  bool churn_bounded;
  // Outlives the phase: ~ModelRegistry unregisters its callback metrics, so
  // the registry must still be alive when the shared hub is exported below.
  std::shared_ptr<ModelRegistry> churn_registry;
  {
    RegistryConfig rc;
    rc.byte_budget = per_model_bytes * std::max<std::size_t>(1, tenants_n / 4);
    rc.telemetry = hub;  // churn loads/evictions land in the shared snapshot
    auto registry = churn_registry =
        std::make_shared<ModelRegistry>(opener, rc);
    MultiTenantServer server(std::move(registry), base_cfg);
    const double seconds =
        bench::drive_closed_loop(churn_total, producers, window,
                                 [&](std::size_t p) {
          return [&, prng = rng.fork(5000 + p)](
                     std::size_t idx) mutable -> bench::Submitted {
            const std::size_t rank = prng.index(tenants_n);  // uniform: churns
            const auto row = queries.row(idx % queries.rows());
            return server.submit(tenants[rank], {row.begin(), row.end()});
          };
        }).seconds;
    server.shutdown();
    const RegistryStats rs = server.stats().registry;
    churn_budget = rc.byte_budget;
    churn_peak = rs.peak_resident_bytes;
    churn_loads = rs.loads;
    churn_evictions = rs.evictions;
    churn_qps = static_cast<double>(server.stats().completed) / seconds;
    churn_bounded = churn_peak <= churn_budget;
    std::printf("  %-28s %7llu q in %7.3f s  %9.0f q/s  %llu loads  %llu "
                "evictions  peak %.0f / budget %.0f KiB  %s\n",
                "eviction churn (budget T/4)",
                static_cast<unsigned long long>(server.stats().completed),
                seconds, churn_qps,
                static_cast<unsigned long long>(churn_loads),
                static_cast<unsigned long long>(churn_evictions),
                static_cast<double>(churn_peak) / 1024.0,
                static_cast<double>(churn_budget) / 1024.0,
                churn_bounded ? "BOUNDED" : "OVER BUDGET");
  }

  const double throughput_ratio =
      single_qps > 0.0 ? fair.qps / single_qps : 0.0;
  std::printf("  fleet vs single-tenant throughput: %.2fx (acceptance >= "
              "0.8x)   tail/head p99: fair %.2fx (acceptance <= 3x), unfair "
              "%.2fx   churn residency: %s\n",
              throughput_ratio, fair.tail_head_ratio,
              unfair.tail_head_ratio, churn_bounded ? "bounded" : "VIOLATED");

  const auto zipf_json = [](const ZipfResult& z) {
    return bench::json_object({
        {"queries_per_second", z.qps},
        {"completed", z.completed},
        {"sheds", z.sheds},
        {"mean_batch_fill", z.mean_batch_fill},
        {"head_p99_ms", z.head_p99_ms},
        {"tail_p99_ms", z.tail_p99_ms},
        {"tail_head_p99_ratio", z.tail_head_ratio},
        {"head_shed_fraction", z.head_shed_fraction},
        {"tail_shed_fraction", z.tail_shed_fraction},
    });
  };
  obs::JsonValue doc = bench::json_object({
      {"tenants", tenants_n},
      {"queries_per_phase", total},
      {"dim", dim},
      {"classes", classes},
      {"domains", domains},
      {"producers", producers},
      {"window", window},
      {"shards", base_cfg.num_shards},
      {"workers_per_shard", base_cfg.workers_per_shard},
      {"max_batch", base_cfg.max_batch},
      {"tenant_inflight_quota", quota},
      {"zipf_s", 1.0},
      {"hardware_threads", bench::hardware_threads()},
      {"artifact_bytes", artifact.size()},
      {"resident_bytes_per_model", per_model_bytes},
      {"direct_packed_queries_per_second", direct_qps},
      {"single_tenant_queries_per_second", single_qps},
      {"cold_start_p50_ms", cold_p50_ms},
      {"cold_start_p95_ms", cold_p95_ms},
      {"warm_p50_ms", warm_p50_ms},
      {"zipf_fair", zipf_json(fair)},
      {"zipf_unfair", zipf_json(unfair)},
      {"churn", bench::json_object({
                    {"byte_budget", churn_budget},
                    {"peak_resident_bytes", churn_peak},
                    {"bounded_by_budget", churn_bounded},
                    {"loads", churn_loads},
                    {"evictions", churn_evictions},
                    {"queries_per_second", churn_qps},
                })},
      {"acceptance", bench::json_object({
                         {"throughput_ratio_vs_single_tenant",
                          throughput_ratio},
                         {"throughput_ratio_min", 0.8},
                         {"tail_head_p99_ratio_fair", fair.tail_head_ratio},
                         {"tail_head_p99_ratio_max", 3.0},
                         {"churn_resident_bounded", churn_bounded},
                     })},
  });
  if (hub != nullptr) doc.set("telemetry", obs::snapshot_json(*hub));
  return bench::write_json(out_path, doc) ? 0 : 1;
}
