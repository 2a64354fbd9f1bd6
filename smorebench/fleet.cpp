// Workloads fleet_zipf and fleet_drift: the serving plane under open-loop
// traffic, driven through the MultiTenantServer router and ModelRegistry.
//
// fleet_zipf   64 tenants (8 distinct packed artifacts, tenant t serves
//              artifact t mod 8), Zipf(1.0) tenant popularity, pre-encoded
//              queries (7/8 in-distribution for the tenant's model, 1/8
//              noise), fair mode, every tenant loaded during setup.
// fleet_drift  8 uniform tenants, float artifacts already grown to the
//              lifecycle cap, per-tenant adaptation with the bounded
//              lifecycle on. Each tenant's stream cycles through abrupt,
//              gradual and recurring drift worlds in encoded space.
//
// One generator thread sends on a precomputed schedule (evenly spaced at
// the phase's rate); the main thread collects results in send order. Each
// request is timed from its due time (see DueTimeLatency). A run is a
// reference-rate phase (p50/p99/online accuracy) followed by the rate
// ladder (max_rate_qps); the traced run replaces both with an untraced and
// a traced reference phase on fresh servers.
//
// Direct (no server) measurements and setup are timed in process CPU time,
// which excludes what the hypervisor steals from a shared virtual machine;
// served latencies are wall time from the due time.
//
// Output check: every answered request equals a direct predict_batch_full
// of the same row on the snapshot generation that answered it (compared
// bit for bit: label, OOD verdict, δ_max, ensemble weights).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/domain_lifecycle.hpp"
#include "core/pipeline.hpp"
#include "hdc/encoder.hpp"
#include "serve/backend.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace smorebench {
namespace {

double max_of(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

std::vector<float> bipolar(std::size_t dim, Rng& rng) {
  std::vector<float> v(dim);
  for (float& x : v) x = rng.bipolar();
  return v;
}

// ------------------------------------------------------------- artifacts

/// A trained artifact and the encoded rows it was trained on.
struct Artifact {
  std::string bytes;
  HvDataset train;
};

/// One training from encoded rows through the Pipeline facade (the encoder
/// travels in the artifact; queries arrive pre-encoded): fit_encoded, the
/// float calibration, quantize. Returns the saved artifact, which carries
/// the packed section only when `packed` is set; `cpu_s` receives the CPU
/// seconds of the three calls.
std::string train_once(const HvDataset& train, int classes, bool packed,
                       double& cpu_s) {
  smore::EncoderConfig ec;
  ec.dim = train.dim();
  smore::Pipeline p(std::make_shared<const smore::MultiSensorEncoder>(ec),
                    classes);
  std::string bytes;
  const CpuTimer t0;
  p.fit_encoded(train);
  p.model().calibrate_delta_star(train, 0.05);
  double untimed = 0.0;
  if (!packed) {
    const CpuTimer t_save;
    bytes = save_bytes(p);
    untimed = t_save.seconds();
  }
  // After the float calibration: the packed model inherits δ*.
  p.quantize();
  cpu_s = t0.seconds() - untimed;
  if (packed) bytes = save_bytes(p);
  return bytes;
}

RungLimits rung_limits(const RunOptions& opt) {
  RungLimits lim;
  lim.p99_limit_s = 1e-3 * param(opt.params, "p99_limit_ms");
  lim.max_failed_share = param(opt.limits, "max_failed_share");
  lim.backlog_slack_s = 1e-3 * param(opt.limits, "backlog_slack_ms");
  lim.late_limit_s = 1e-3 * param(opt.limits, "generator_late_p99_ms");
  return lim;
}

std::vector<double> ladder_rates(const RunOptions& opt) {
  std::vector<double> rates;
  for (const auto& v : opt.params.at("ladder_qps").items()) {
    rates.push_back(v.as_double());
  }
  if (rates.empty() || !std::is_sorted(rates.begin(), rates.end())) {
    throw std::runtime_error("protocol.json: ladder_qps must ascend");
  }
  return rates;
}

/// Rows per CPU second of predict_batch_full over `rows` on `backend`, in
/// the fastest of at least 5 sweeps and at least `budget_s` seconds of
/// them. Called on blocks of at most one kernel row tile (64 rows) so the
/// kernels run serially on the calling thread, like the served plane's
/// worker, and timed in that thread's CPU time (a server thread still
/// winding down does not count). The computation is deterministic, so what
/// a shared host adds to a sweep (a stolen slice, a neighbour's cache
/// traffic) only ever slows it: the fastest sweep is the figure least
/// moved by the host.
double direct_rows_per_s(const smore::InferenceBackend& backend,
                         smore::HvView rows, double budget_s) {
  constexpr std::size_t kTile = 64;
  std::vector<double> s;
  const auto t_start = Clock::now();
  while (s.size() < 5 || seconds_since(t_start) < budget_s) {
    const CpuTimer t0(CpuTimer::kThread);
    for (std::size_t first = 0; first < rows.rows; first += kTile) {
      (void)backend.predict_batch_full(
          rows.slice(first, std::min(kTile, rows.rows - first)));
    }
    s.push_back(t0.seconds());
  }
  return static_cast<double>(rows.rows) /
         *std::min_element(s.begin(), s.end());
}

/// Everything a fleet workload defines; drive_fleet() below runs it.
struct FleetSpec {
  std::size_t tenants = 0;
  int classes = 0;
  bool serves_packed = false;  ///< artifacts carry a packed section
  std::vector<Artifact> artifacts;  ///< distinct models
  std::vector<std::size_t> artifact_of;  ///< tenant → artifact index
  smore::MultiTenantConfig config;
  /// Per-artifact labelled in-distribution rows (accuracy, ceilings).
  std::vector<HvDataset> eval_rows;
  /// Builds the seeded request stream (fresh per server).
  std::function<std::unique_ptr<Traffic>()> traffic;
  /// Direct backends per artifact: float and packed views.
  std::function<std::shared_ptr<const smore::InferenceBackend>(
      std::size_t artifact, bool packed)>
      backend;
  /// Adapting workloads only: one lifecycle round's worth of this
  /// workload's traffic for a tenant's live snapshot (pseudo-labeled by it),
  /// for the core.lifecycle.round.ms replay.
  std::function<std::vector<smore::OodSample>(const ModelSnapshot&)> round;
};

/// The traced run: an untraced reference phase on the setup fleet, then the
/// same phase on a fresh fleet with the hub switched on; per-layer metrics
/// come from the traced half.
void traced_run(const RunOptions& opt, FleetSpec& spec,
                const std::vector<std::string>& names,
                const std::vector<const std::string*>& tenant_bytes,
                std::optional<Fleet>& fleet, const CpuSplit& cpus,
                Result& result, std::map<std::string, double>& m) {
  const double reference_qps = param(opt.params, "reference_qps");
  const double half = 0.5 * opt.seconds;
  std::unique_ptr<Traffic> plain_traffic = spec.traffic();
  Checker plain_check(*plain_traffic, *fleet->registry, spec.tenants, result);
  const PhaseOutcome plain = run_phase(*fleet->server, *plain_traffic,
                                       plain_check, reference_qps, half, names,
                                       cpus);
  plain_check.flush();
  fleet.reset();

  Fleet traced = make_fleet(tenant_bytes, spec.config, make_hub(true));
  std::unique_ptr<Traffic> traffic = spec.traffic();
  Checker check(*traffic, *traced.registry, spec.tenants, result);
  const PhaseOutcome ph = run_phase(*traced.server, *traffic, check,
                                    reference_qps, half, names, cpus);
  traced.server->shutdown();
  check.flush();
  result.attempted += plain.latency.attempted() + ph.latency.attempted();
  result.failed += plain.latency.missed() + ph.latency.missed();

  // Kernel share of service time: the tenant-0 live snapshot's backend
  // replayed at the measured batch fill on that tenant's rows.
  const auto snap0 = traced.registry->resident(names[0])->snapshot();
  const double fill = traced.server->stats().mean_batch_fill;
  const double small_us = small_batch_us_per_row(
      *snap0->backend, spec.eval_rows[spec.artifact_of[0]].view(),
      static_cast<std::size_t>(std::max(1.0, fill) + 0.5), 0.2);
  serve_layer_metrics(m, ph, traced, small_us);
  if (spec.round) {
    m["serve.live_domains"] = mean_live_domains(traced, spec.tenants);
    m["core.lifecycle.round.ms"] = lifecycle_round_ms(
        *snap0, spec.round(*snap0), spec.config.lifecycle_config);
  }
  m["obs.trace_overhead"] =
      reported(ph.latency.latency(0.5), 1.0, "traced p50") /
          reported(plain.latency.latency(0.5), 1.0, "untraced p50") -
      1.0;
  std::printf("%s: traced %zu answers verified, %zu unverifiable, "
              "%zu threads\n",
              opt.workload.c_str(), check.verified(), check.unverifiable(),
              std::max(plain.threads, ph.threads));
}

Result drive_fleet(const RunOptions& opt, FleetSpec& spec,
                   const CpuSplit& cpus) {
  Result result;
  std::map<std::string, double> m;
  std::vector<std::string> names;
  std::vector<const std::string*> tenant_bytes;
  for (std::size_t t = 0; t < spec.tenants; ++t) {
    names.push_back(tenant_name(t));
    tenant_bytes.push_back(&spec.artifacts[spec.artifact_of[t]].bytes);
  }
  const double reference_qps = param(opt.params, "reference_qps");
  const std::size_t p99_window = param_size(opt.limits, "p99_window");

  // ---- setup: a fresh registry + router with every tenant cold-loaded;
  // the first build also measures the resident memory the fleet holds.
  std::vector<double> setup_s;
  double fleet_mb = 0.0;
  std::optional<Fleet> fleet;
  for (std::size_t i = 0; i < param_size(opt.params, "setup_reps"); ++i) {
    fleet.reset();
    const double rss0 = i == 0 ? trimmed_rss_mb() : 0.0;
    const CpuTimer t0;
    fleet.emplace(make_fleet(tenant_bytes, spec.config, make_hub(false)));
    setup_s.push_back(t0.seconds());
    if (i == 0) fleet_mb = proc_status("VmRSS:") / 1024.0 - rss0;
  }
  std::printf("%s: %zu tenants / %zu artifacts, setup %.3f s, fleet %.2f "
              "MiB\n",
              opt.workload.c_str(), spec.tenants, spec.artifacts.size(),
              median(setup_s), fleet_mb);
  std::fflush(stdout);

  if (opt.trace) {
    traced_run(opt, spec, names, tenant_bytes, fleet, cpus, result, m);
    emit_metrics(result, m, /*trace=*/true);
    return result;
  }

  // ---- accuracies of the distinct artifacts, direct (no server)
  std::vector<double> float_acc, packed_acc;
  for (std::size_t a = 0; a < spec.artifacts.size(); ++a) {
    const HvDataset& rows = spec.eval_rows[a];
    const auto score = [&](bool packed) {
      const SmoreBatchResult r =
          spec.backend(a, packed)->predict_batch_full(rows.view());
      std::size_t ok = 0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ok += r.labels[i] == rows.label(i) ? 1 : 0;
      }
      return static_cast<double>(ok) / static_cast<double>(rows.size());
    };
    float_acc.push_back(score(false));
    packed_acc.push_back(score(true));
  }
  // Direct kernel ceilings and training times, measured in slices (one
  // artifact each, in turn) spread over the whole run: a round of every
  // artifact before the reference phase, after it, between saturation
  // phases and at the end, and a slice after every ladder rung. Both are
  // deterministic computations and the shared host's speed drifts by tens
  // of percent over seconds, so each figure is the fastest sample of the
  // run (see direct_rows_per_s): spread samples make it likely that one of
  // them lands in a quiet stretch.
  std::vector<double> ceiling;
  std::vector<std::vector<double>> train_s(spec.artifacts.size());
  const std::size_t train_reps = param_size(opt.params, "train_reps");
  std::size_t next_slice = 0;
  const auto direct_slice = [&] {
    const std::size_t a = next_slice++ % spec.artifacts.size();
    ceiling.push_back(direct_rows_per_s(*spec.backend(a, spec.serves_packed),
                                        spec.eval_rows[a].view(), 0.1));
    for (std::size_t r = 0; r < train_reps; ++r) {
      double s = 0.0;
      (void)train_once(spec.artifacts[a].train, spec.classes,
                       spec.serves_packed, s);
      train_s[a].push_back(s);
    }
  };
  const auto direct_round = [&] {
    for (std::size_t a = 0; a < spec.artifacts.size(); ++a) direct_slice();
  };
  direct_round();
  std::printf("%s: direct %.0f rows/s, accuracy %.4f float / %.4f packed\n",
              opt.workload.c_str(), max_of(ceiling), median(float_acc),
              median(packed_acc));
  std::fflush(stdout);

  // ---- reference-rate phase, then the ladder, on one continuing stream
  std::unique_ptr<Traffic> traffic = spec.traffic();
  std::optional<Checker> check;
  check.emplace(*traffic, *fleet->registry, spec.tenants, result);
  const PhaseOutcome ref =
      run_phase(*fleet->server, *traffic, *check, reference_qps,
                param(opt.params, "reference_share") * opt.seconds, names,
                cpus);
  check->flush();
  result.attempted += ref.latency.attempted();
  result.failed += ref.latency.missed();
  std::size_t threads = ref.threads;
  direct_round();

  double max_rate = 0.0;
  std::size_t verified = 0, unverifiable = 0;  // by retired checkers
  if (opt.params.has("saturation_qps")) {
    // Offered well above capacity, the shard worker never waits: the
    // plane's capacity is the answers per CPU second of its shard worker,
    // the median over short phases with a direct round between each two,
    // so they too are spread over the run. (The wall-clock rate at
    // saturation follows what the host steals from the worker's CPU.)
    const std::size_t phases = param_size(opt.params, "saturation_phases");
    std::vector<double> achieved;
    for (std::size_t i = 0; i < phases; ++i) {
      if (i > 0) direct_round();
      const double worker_cpu0 = threads_cpu_seconds(fleet->workers);
      const PhaseOutcome ph = run_phase(
          *fleet->server, *traffic, *check, param(opt.params, "saturation_qps"),
          param(opt.params, "saturation_seconds"), names, cpus);
      achieved.push_back(static_cast<double>(ph.answered) /
                         (threads_cpu_seconds(fleet->workers) - worker_cpu0));
      check->flush();
      threads = std::max(threads, ph.threads);
      std::printf("%s: saturation %.0f q/s offered -> %.0f q/s answered, "
                  "%.0f per worker CPU second, failed %.4f\n",
                  opt.workload.c_str(), param(opt.params, "saturation_qps"),
                  ph.achieved_qps, achieved.back(), ph.latency.missed_share());
    }
    max_rate = median(achieved);
  } else {
    // The ladder runs on a fleet of its own with bounded queues, so an
    // overloaded rung sheds and misses the failed-share limit. The
    // reference fleet's queues are deep enough that no host stall sheds a
    // reference-phase request; on the ladder they would let an overloaded
    // rung build a backlog that takes the rungs after it to drain.
    smore::MultiTenantConfig ladder_cfg = spec.config;
    ladder_cfg.shard_queue_capacity =
        param_size(opt.params, "ladder_shard_queue_capacity");
    ladder_cfg.tenant_inflight_quota =
        param_size(opt.params, "ladder_tenant_inflight_quota");
    fleet->server->shutdown();
    verified += check->verified();
    unverifiable += check->unverifiable();
    check.reset();
    fleet.emplace(make_fleet(tenant_bytes, ladder_cfg, make_hub(false)));
    check.emplace(*traffic, *fleet->registry, spec.tenants, result);
    const std::vector<double> rates = ladder_rates(opt);
    const RungLimits lim = rung_limits(opt);
    const double rung_s = param(opt.params, "rung_seconds");
    const double rung_requests = param(opt.params, "rung_min_requests");
    const std::size_t votes = param_size(opt.params, "rung_votes");
    std::map<std::size_t, std::vector<double>> achieved;  // passing runs
    const auto run_rung = [&](std::size_t i) {
      const PhaseOutcome ph =
          run_phase(*fleet->server, *traffic, *check, rates[i],
                    std::max(rung_s, rung_requests / rates[i]), names, cpus);
      check->flush();
      threads = std::max(threads, ph.threads);
      direct_slice();
      RungObservation o;
      o.offered_qps = rates[i];
      o.achieved_qps = ph.achieved_qps;
      o.p99_s = ph.latency.windowed_latency(0.99, p99_window);
      o.failed_share = ph.latency.missed_share();
      const std::size_t half = ph.backlog.size() / 2;
      o.backlog_early = median({ph.backlog.begin(), ph.backlog.begin() + half});
      o.backlog_late = median({ph.backlog.begin() + half, ph.backlog.end()});
      o.late_p99_s = ph.latency.windowed_lateness(0.99, p99_window);
      const bool ok = rung_meets(o, lim);
      std::printf("%s: rung %.0f q/s -> %.0f q/s, p99 %.3f ms, failed %.4f, "
                  "backlog %.0f->%.0f, late p99 %.3f ms: %s\n",
                  opt.workload.c_str(), o.offered_qps, o.achieved_qps,
                  1e3 * o.p99_s.value_or(-1e-3), o.failed_share,
                  o.backlog_early, o.backlog_late,
                  1e3 * o.late_p99_s.value_or(-1e-3), ok ? "meets" : "misses");
      std::fflush(stdout);
      if (ok) achieved[i].push_back(o.achieved_qps);
      return ok;
    };
    // Several searches, the highest rung found reported: a stretch of host
    // stalls makes rungs miss that the plane meets (never the reverse), and
    // a bisection that has wrongly dropped a rung never climbs back to it.
    std::optional<std::size_t> best;
    for (std::size_t s = 0; s < param_size(opt.params, "ladder_searches");
         ++s) {
      const auto found =
          highest_passing_rung(rates.size(), [&](std::size_t i) {
            return majority([&] { return run_rung(i); }, votes);
          });
      if (found && (!best || *found > *best)) best = found;
    }
    max_rate = best ? median(achieved.at(*best)) : 0.0;
  }
  fleet->server->shutdown();
  direct_round();
  double train_rows = 0.0, train_cpu_s = 0.0;
  for (std::size_t a = 0; a < spec.artifacts.size(); ++a) {
    train_rows += static_cast<double>(spec.artifacts[a].train.size());
    train_cpu_s += *std::min_element(train_s[a].begin(), train_s[a].end());
  }

  std::printf("%s: %zu answers verified, %zu unverifiable, reference %.0f "
              "q/s failed %zu/%zu, %zu threads, serving memory %.2f + %.2f "
              "MiB\n",
              opt.workload.c_str(), verified + check->verified(),
              unverifiable + check->unverifiable(),
              reference_qps, ref.latency.missed(), ref.latency.attempted(),
              threads, fleet_mb, ref.rss_growth_mb);
  m["setup_s"] = median(setup_s);
  m["peak_rss_mb"] = fleet_mb + ref.rss_growth_mb;
  m["train_windows_per_s"] = train_rows / train_cpu_s;
  m["infer_windows_per_s"] = max_of(ceiling);
  m["accuracy"] = median(float_acc);
  m["accuracy_packed"] = median(packed_acc);
  m["p50_ms"] = reported(ref.latency.latency(0.50), 1e3, "p50 latency");
  m["p99_ms"] = reported(ref.latency.windowed_latency(0.99, p99_window), 1e3,
                         "p99 latency");
  m["max_rate_qps"] = max_rate;
  m["online_accuracy"] = ref.labelled == 0
                             ? 0.0
                             : static_cast<double>(ref.correct) /
                                   static_cast<double>(ref.labelled);
  emit_metrics(result, m, /*trace=*/false);
  return result;
}

// ============================================================ fleet_zipf

/// Class prototypes + per-domain skews of one tenant model's world.
struct World {
  std::vector<std::vector<float>> protos;  // per class
  std::vector<std::vector<float>> skews;   // per source domain
};

World make_world(std::size_t dim, int classes, int domains, Rng& rng) {
  World w;
  for (int c = 0; c < classes; ++c) w.protos.push_back(bipolar(dim, rng));
  for (int d = 0; d < domains; ++d) w.skews.push_back(bipolar(dim, rng));
  return w;
}

/// One in-distribution row: class prototype + 0.5·domain skew + noise.
void world_row(const World& w, int label, int domain, double noise, Rng& rng,
               std::span<float> out) {
  const auto& p = w.protos[static_cast<std::size_t>(label)];
  const auto& s = w.skews[static_cast<std::size_t>(domain)];
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = p[j] + 0.5f * s[j] + static_cast<float>(rng.normal(0.0, noise));
  }
}

HvDataset world_rows(const World& w, std::size_t per_cell, double noise,
                     Rng& rng) {
  const std::size_t dim = w.protos[0].size();
  HvDataset data(dim);
  std::vector<float> row(dim);
  for (std::size_t d = 0; d < w.skews.size(); ++d) {
    for (std::size_t c = 0; c < w.protos.size(); ++c) {
      for (std::size_t i = 0; i < per_cell; ++i) {
        world_row(w, static_cast<int>(c), static_cast<int>(d), noise, rng, row);
        data.add(row, static_cast<int>(c), static_cast<int>(d));
      }
    }
  }
  return data;
}

}  // namespace

Result run_fleet_zipf(const RunOptions& opt) {
  const CpuSplit cpus;
  cpus.serve();
  const std::size_t dim = param_size(opt.params, "dim");
  const int classes = static_cast<int>(param(opt.params, "classes"));
  const int domains = static_cast<int>(param(opt.params, "domains"));
  const std::size_t models = param_size(opt.params, "artifacts");
  const std::size_t noise_every = param_size(opt.params, "noise_every");
  const double noise = param(opt.params, "row_noise");
  Rng rng(opt.seed);

  FleetSpec spec;
  spec.tenants = param_size(opt.params, "tenants");
  spec.classes = classes;
  spec.serves_packed = true;
  std::vector<HvDataset> pools;
  std::vector<World> worlds;
  for (std::size_t a = 0; a < models; ++a) {
    worlds.push_back(make_world(dim, classes, domains, rng));
    const HvDataset train = world_rows(
        worlds.back(), param_size(opt.params, "train_per_cell"), noise, rng);
    double cpu_s = 0.0;
    spec.artifacts.push_back(
        {train_once(train, classes, /*packed=*/true, cpu_s), train});
    // Query pool: fresh in-distribution rows, every noise_every-th row
    // replaced by pure noise (truth unknown: label -1).
    HvDataset pool = world_rows(worlds.back(),
                                param_size(opt.params, "pool_per_cell"), noise,
                                rng);
    HvDataset labelled(dim), mixed(dim);
    std::vector<float> junk(dim);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      labelled.add(pool.row(i), pool.label(i), pool.domain(i));
      if (i % noise_every == noise_every - 1) {
        for (float& x : junk) x = static_cast<float>(rng.normal());
        mixed.add(junk, -1, -1);
      } else {
        mixed.add(pool.row(i), pool.label(i), pool.domain(i));
      }
    }
    spec.eval_rows.push_back(std::move(labelled));
    pools.push_back(std::move(mixed));
  }
  for (std::size_t t = 0; t < spec.tenants; ++t) {
    spec.artifact_of.push_back(t % models);
  }
  std::vector<std::shared_ptr<const ModelSnapshot>> snaps;
  for (const Artifact& a : spec.artifacts) {
    snaps.push_back(boot_snapshot(a.bytes));
  }
  spec.backend = [&](std::size_t a, bool packed) {
    return packed ? snaps[a]->backend
                  : smore::make_serving_backend(snaps[a]->model, nullptr);
  };

  smore::MultiTenantConfig& cfg = spec.config;
  cfg.num_shards = param_size(opt.params, "shards");
  cfg.workers_per_shard = param_size(opt.params, "workers_per_shard");
  cfg.max_batch = param_size(opt.params, "max_batch");
  cfg.max_delay_us =
      static_cast<std::uint32_t>(param(opt.params, "max_delay_us"));
  cfg.shard_queue_capacity = param_size(opt.params, "shard_queue_capacity");
  cfg.fair = true;
  cfg.tenant_inflight_quota = param_size(opt.params, "tenant_inflight_quota");

  const double zipf_s = param(opt.params, "zipf_s");
  const std::uint64_t traffic_seed = rng();
  spec.traffic = [&, zipf_s, traffic_seed] {
    return std::make_unique<PoolTraffic>(pools, spec.artifact_of, spec.tenants,
                                         zipf_s, traffic_seed);
  };
  return drive_fleet(opt, spec, cpus);
}

// ============================================================ fleet_drift

namespace {

/// Per-tenant drifting stream in encoded space, in the style of
/// bench_adaptation_lifecycle: each cycle is an abrupt phase (a never-seen
/// world), a gradual phase (that world blending into the tenant's
/// recurring world A) and a recurring phase (world A itself).
class DriftTraffic final : public Traffic {
 public:
  struct Tenant {
    World world;                          // class prototypes (+ source skews)
    std::vector<float> skew_a;            // the recurring world
    std::vector<std::vector<float>> fresh;  // abrupt world per cycle
    Rng rng;
    std::size_t cursor = 0;
  };

  DriftTraffic(std::vector<Tenant> tenants, const HvMatrix& noise,
               std::size_t phase_len, double skew_scale, std::uint64_t seed)
      : tenants_(std::move(tenants)), noise_(noise), phase_len_(phase_len),
        skew_scale_(skew_scale), rng_(seed) {}

  Planned plan(double due_s) override {
    Planned p;
    p.due_s = due_s;
    p.tenant = static_cast<std::uint32_t>(rng_.index(tenants_.size()));
    Tenant& t = tenants_[p.tenant];
    const std::size_t c = t.cursor++;
    const std::size_t cycle = c / (3 * phase_len_);
    while (t.fresh.size() <= cycle) {
      t.fresh.push_back(bipolar(t.skew_a.size(), t.rng));
    }
    Req r;
    r.cursor = c;
    r.label = static_cast<int>(rng_.index(t.world.protos.size()));
    r.noise = static_cast<std::uint32_t>(rng_.index(noise_.rows()));
    reqs_.push_back(r);
    p.item = reqs_.size() - 1;
    return p;
  }

  void row(const Planned& p, std::vector<float>& out) const override {
    const Req& r = reqs_[p.item];
    const Tenant& t = tenants_[p.tenant];
    const std::size_t cycle = r.cursor / (3 * phase_len_);
    const std::size_t phase = (r.cursor / phase_len_) % 3;
    const double f = static_cast<double>(r.cursor % phase_len_) /
                     static_cast<double>(phase_len_);
    const std::vector<float>& fresh = t.fresh[cycle];
    // abrupt: fresh; gradual: fresh → A; recurring: A.
    const double to_a = phase == 0 ? 0.0 : phase == 1 ? f : 1.0;
    const auto& proto = t.world.protos[static_cast<std::size_t>(r.label)];
    const auto nz = noise_.row(r.noise);
    out.resize(proto.size());
    for (std::size_t j = 0; j < out.size(); ++j) {
      const double s = (1.0 - to_a) * fresh[j] + to_a * t.skew_a[j];
      out[j] = proto[j] + static_cast<float>(skew_scale_ * s) + nz[j];
    }
  }

  int truth(const Planned& p) const override { return reqs_[p.item].label; }

 private:
  struct Req {
    std::size_t cursor = 0;
    int label = 0;
    std::uint32_t noise = 0;
  };
  std::vector<Tenant> tenants_;
  const HvMatrix& noise_;
  std::size_t phase_len_;
  double skew_scale_;
  Rng rng_;
  std::vector<Req> reqs_;
};

/// `n` rows of class-preserving traffic from world `skew` (pseudo-labels
/// are the model's own predictions, as the serving plane assigns them).
std::vector<smore::OodSample> world_samples(const World& w,
                                            const std::vector<float>& skew,
                                            double skew_scale, double noise,
                                            std::size_t n, Rng& rng) {
  std::vector<smore::OodSample> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto label = rng.index(w.protos.size());
    const auto& p = w.protos[label];
    out[i].hv.resize(p.size());
    for (std::size_t j = 0; j < p.size(); ++j) {
      out[i].hv[j] = p[j] + static_cast<float>(skew_scale * skew[j] +
                                               rng.normal(0.0, noise));
    }
  }
  return out;
}

}  // namespace

Result run_fleet_drift(const RunOptions& opt) {
  const CpuSplit cpus;
  cpus.serve();
  const std::size_t dim = param_size(opt.params, "dim");
  const int classes = static_cast<int>(param(opt.params, "classes"));
  const int domains = static_cast<int>(param(opt.params, "domains"));
  const double noise = param(opt.params, "row_noise");
  const double skew_scale = param(opt.params, "skew_scale");
  const std::size_t round_rows = param_size(opt.params, "adapt_min_batch");
  Rng rng(opt.seed);

  FleetSpec spec;
  spec.tenants = param_size(opt.params, "tenants");
  spec.classes = classes;
  smore::MultiTenantConfig& cfg = spec.config;
  cfg.num_shards = param_size(opt.params, "shards");
  cfg.workers_per_shard = param_size(opt.params, "workers_per_shard");
  cfg.max_batch = param_size(opt.params, "max_batch");
  cfg.max_delay_us =
      static_cast<std::uint32_t>(param(opt.params, "max_delay_us"));
  cfg.shard_queue_capacity = param_size(opt.params, "shard_queue_capacity");
  cfg.fair = true;
  cfg.tenant_inflight_quota = param_size(opt.params, "tenant_inflight_quota");
  cfg.adaptation = true;
  cfg.adapt_min_batch = round_rows;
  cfg.adapt_buffer_capacity = param_size(opt.params, "adapt_buffer_capacity");
  cfg.adapt_poll_ms =
      static_cast<std::uint32_t>(param(opt.params, "adapt_poll_ms"));
  smore::LifecycleConfig& lc = cfg.lifecycle_config;
  lc.max_domains = param_size(opt.params, "lifecycle_cap");
  lc.protected_domains = static_cast<std::size_t>(domains);
  lc.merge_threshold = param(opt.params, "merge_threshold");
  lc.usage_decay = param(opt.params, "usage_decay");
  lc.cluster.max_clusters = param_size(opt.params, "max_clusters");

  // Per tenant: its world, a float artifact trained on the source domains
  // and then grown to the lifecycle cap by rounds of never-seen worlds
  // (plus its recurring world A), the state of a long-running tenant.
  std::vector<DriftTraffic::Tenant> tenants;
  std::vector<std::shared_ptr<const ModelSnapshot>> boots;
  std::vector<std::shared_ptr<const ModelSnapshot>> packed_boots;
  for (std::size_t t = 0; t < spec.tenants; ++t) {
    DriftTraffic::Tenant tn;
    tn.world = make_world(dim, classes, domains, rng);
    tn.skew_a = bipolar(dim, rng);
    tn.rng = rng.fork(t);
    const HvDataset train = world_rows(
        tn.world, param_size(opt.params, "train_per_cell"), noise, rng);
    double cpu_s = 0.0;
    Artifact a{train_once(train, classes, /*packed=*/false, cpu_s), train};
    smore::Pipeline p = load_bytes(a.bytes);
    smore::DomainLifecycle life(lc);
    for (std::size_t round = 0;
         p.model().num_domains() < lc.max_domains && round < 4 * lc.max_domains;
         ++round) {
      const std::vector<float> skew =
          round % 4 == 0 ? tn.skew_a : bipolar(dim, rng);
      std::vector<smore::OodSample> samples =
          world_samples(tn.world, skew, skew_scale, noise, round_rows, rng);
      pseudo_label(p.model(), samples);
      HvMatrix rows(samples.size(), dim);
      std::vector<int> labels;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        std::copy(samples[i].hv.begin(), samples[i].hv.end(),
                  rows.row(i).begin());
        labels.push_back(samples[i].pseudo_label);
      }
      (void)life.run_round(p.model(), rows.view(), labels);
    }
    a.bytes = save_bytes(p);
    boots.push_back(boot_snapshot(a.bytes));
    packed_boots.push_back(
        ModelSnapshot::make(boots.back()->model->clone(), /*quantize=*/true,
                            1));
    spec.eval_rows.push_back(world_rows(
        tn.world, param_size(opt.params, "pool_per_cell"), noise, rng));
    spec.artifacts.push_back(std::move(a));
    spec.artifact_of.push_back(t);
    tenants.push_back(std::move(tn));
  }
  spec.backend = [&](std::size_t a, bool packed) {
    return packed ? packed_boots[a]->backend : boots[a]->backend;
  };

  HvMatrix noise_pool(param_size(opt.params, "noise_rows"), dim);
  for (std::size_t i = 0; i < noise_pool.rows(); ++i) {
    for (float& x : noise_pool.row(i)) {
      x = static_cast<float>(rng.normal(0.0, noise));
    }
  }
  const std::size_t phase_len = param_size(opt.params, "phase_requests");
  const std::uint64_t traffic_seed = rng();
  spec.traffic = [&, phase_len, skew_scale, traffic_seed] {
    return std::make_unique<DriftTraffic>(tenants, noise_pool, phase_len,
                                          skew_scale, traffic_seed);
  };

  // core.lifecycle.round.ms: one round of never-seen-world traffic run on
  // the live snapshot (at the cap), median of several replays.
  Rng replay_rng = rng.fork(0x11fe);
  spec.round = [&](const ModelSnapshot& snap) {
    std::vector<smore::OodSample> samples =
        world_samples(tenants[0].world, bipolar(dim, replay_rng), skew_scale,
                      noise, round_rows, replay_rng);
    pseudo_label(*snap.model, samples);
    return samples;
  };
  return drive_fleet(opt, spec, cpus);
}

}  // namespace smorebench
