// Streaming adaptation: SMORE as it would run on an IoT gateway — a
// deployable Pipeline served through the serving runtime (src/serve/,
// DESIGN.md §9–§10).
//
// A Pipeline trained on K source subjects boots a one-tenant server (its
// snapshot takes the pipeline's model, calibration, and encoder), then
// serves a live stream of windows submitted by concurrent clients.
// Mid-stream, the subject wearing the sensors changes to someone the model
// has never seen (the Fig. 1a scenario). The example shows:
//   * per-request OOD verdicts flipping when the unseen subject appears;
//   * the online-adaptation worker enrolling the new subject CONCURRENTLY
//     with live traffic: OOD windows drain into its side buffer, it clones
//     the live model, absorbs them as a new domain (Sec 3.6 "Model Update"),
//     and publishes a new snapshot — no request is ever blocked by it;
//   * the OOD rate dropping once the published generation knows the new
//     domain, without the serving path ever taking a lock;
//   * the domain LIFECYCLE (DESIGN.md §13) keeping the bank bounded as more
//     strangers appear, and recurring drift — a previously enrolled subject
//     coming back — being served by its existing domain instead of enrolling
//     a duplicate.
//
//   ./build/example_streaming_adaptation

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "data/windowing.hpp"
#include "common.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"

int main() {
  using namespace smore;

  // Training population: subjects 0-3 (four domains). Subject 4 is unseen.
  const SyntheticSpec spec =
      examples::demo_spec("stream", /*activities=*/6, /*subjects=*/5,
                          /*channels=*/4, /*window_steps=*/64,
                          /*windows_per_subject=*/150, /*domain_shift=*/1.5,
                          /*seed=*/7);
  const WindowDataset all = generate_dataset(spec);

  // Fit the deployable pipeline on domains 0-3 only, then calibrate the OOD
  // threshold for a 5% in-distribution false-positive budget (the
  // deployment-grade way to pick δ* instead of hand-tuning).
  const auto fold = examples::lodo_windows(all, /*held_out_domain=*/4);
  Pipeline pipeline(examples::make_encoder(/*dim=*/2048), all.num_classes());
  pipeline.fit(fold.train);
  const double delta = pipeline.calibrate(fold.train, 0.05);
  std::printf("deployed pipeline: %zu source domains, %d activities, "
              "calibrated delta* = %.3f (5%% FP budget)\n",
              pipeline.num_domains(), all.num_classes(), delta);

  // Boot the serving runtime from the pipeline (snapshot v1, the pipeline's
  // encoder shared into it) as a one-tenant fleet, with online adaptation
  // enabled: once 64 OOD windows accumulate, the adaptation worker enrolls
  // them as a new domain and publishes the next generation.
  MultiTenantConfig cfg;
  cfg.max_batch = 32;
  cfg.max_delay_us = 200;
  cfg.adaptation = true;
  cfg.adapt_min_batch = 64;
  cfg.adapt_poll_ms = 1;
  // Bounded lifecycle (DESIGN.md §13): enrollment may never grow the bank
  // past the cap, the source domains are eviction-protected, and recurring
  // drift merges into its old domain instead of enrolling a duplicate.
  cfg.lifecycle_config.max_domains = pipeline.num_domains() + 2;
  cfg.lifecycle_config.protected_domains = pipeline.num_domains();
  const auto boot = ModelSnapshot::make(pipeline, /*version=*/1);
  const auto registry = std::make_shared<ModelRegistry>(
      [boot](const std::string&) { return boot; });
  MultiTenantServer server(registry, cfg);
  const std::string gateway = "gateway";
  const auto model = registry->acquire(gateway);  // its live generations

  // Phase 1: stream windows from a known subject (domain 1).
  const auto known = examples::lodo_windows(all, 1).test;
  // Phase 2: an unseen subject from the same population (the held-out
  // domain) — similar to the training continuum, so the *adaptive test-time
  // model* should absorb it without tripping the detector.
  const WindowDataset& unseen_similar = fold.test;
  // Phase 3: a subject from outside the studied population entirely —
  // identical activities, but a far more extreme personal transform. This is
  // what the OOD detector exists for.
  SyntheticSpec outsider_spec = spec;
  outsider_spec.domain_shift = 6.0;  // way beyond the training population
  const WindowDataset outsider =
      examples::lodo_windows(generate_dataset(outsider_spec), 4).test;

  // Each phase streams `n` single-window requests through the server — raw
  // windows, encoded inside the micro-batches by the pipeline's encoder
  // (the per-request futures carry label + OOD verdict + snapshot version).
  // Returns how many windows were flagged OOD (each one lands in the
  // adaptation side buffer).
  auto run_phase = [&](const char* label, const WindowDataset& phase,
                       std::size_t first, std::size_t n) -> std::size_t {
    const std::size_t end = std::min(first + n, phase.size());
    if (first >= end) return 0;
    std::vector<std::future<ServeResult>> futures;
    futures.reserve(end - first);
    for (std::size_t i = first; i < end; ++i) {
      futures.push_back(server.submit(gateway, phase[i]));
    }
    std::size_t correct = 0;
    std::size_t flagged = 0;
    std::uint64_t version = 0;
    for (std::size_t i = first; i < end; ++i) {
      const ServeResult r = futures[i - first].get();
      correct += r.label == phase[i].label() ? 1 : 0;
      flagged += r.is_ood ? 1 : 0;
      version = std::max(version, r.snapshot_version);
    }
    const auto total = static_cast<double>(end - first);
    std::printf("%-34s accuracy %5.1f%%  OOD flagged %5.1f%%  "
                "(snapshot v%llu, bank K=%zu)\n",
                label, 100.0 * static_cast<double>(correct) / total,
                100.0 * static_cast<double>(flagged) / total,
                static_cast<unsigned long long>(version),
                model->snapshot()->model->num_domains());
    return flagged;
  };

  const std::size_t probe = 120;
  std::printf("\n--- live stream (micro-batched serving) ---\n");
  run_phase("known subject (domain 1):", known, 0, probe);
  run_phase("unseen subject, same population:", unseen_similar, 0, probe);
  run_phase("OUT-OF-POPULATION subject:", outsider, 0, probe);

  // The adaptation worker saw >= adapt_min_batch OOD windows during phase 3
  // and is enrolling them in the background while the server keeps serving.
  // Wait (bounded) for the next generation to be published.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().adaptation_rounds == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const MultiTenantStats mid = server.stats();
  std::printf("\nadaptation worker: %llu round(s), %llu OOD windows enrolled "
              "as domain(s) beyond the source %zu -> serving snapshot v%llu "
              "(%zu domains)\n",
              static_cast<unsigned long long>(mid.adaptation_rounds),
              static_cast<unsigned long long>(mid.adaptation_absorbed),
              pipeline.num_domains(),
              static_cast<unsigned long long>(model->snapshot()->version),
              model->snapshot()->model->num_domains());

  // Stream MORE windows from the same outsider: the published generation
  // now recognizes the enrolled domain, so the OOD rate collapses (and the
  // stream keeps flowing during the whole swap — zero requests dropped).
  run_phase("outsider after enrollment:", outsider, probe, probe);

  // Phase 4: recurring drift. A SECOND stranger appears (another extreme
  // personal transform) and is enrolled; then the FIRST outsider returns.
  // The recurring traffic lands in its previously enrolled domain — served
  // in-distribution, no duplicate enrollment — so the bank size printed for
  // the last phase matches the one before the return, and stays under the
  // lifecycle cap throughout.
  SyntheticSpec outsider2_spec = spec;
  outsider2_spec.domain_shift = 6.0;
  outsider2_spec.seed = spec.seed + 101;
  const WindowDataset outsider2 =
      examples::lodo_windows(generate_dataset(outsider2_spec), 4).test;
  // A round needs adapt_min_batch flagged windows; when the stranger
  // flagged fewer, no round can come, so there is nothing to wait for.
  if (run_phase("a SECOND stranger:", outsider2, 0, probe) >=
      cfg.adapt_min_batch) {
    const auto recurring_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().adaptation_rounds == mid.adaptation_rounds &&
           std::chrono::steady_clock::now() < recurring_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const std::size_t bank_before_return =
      model->snapshot()->model->num_domains();
  // Recurring drift re-streams the outsider's windows — the same subject
  // coming back IS the same data distribution returning.
  run_phase("first outsider RETURNS:", outsider, 0, probe);
  const std::size_t bank_after_return =
      model->snapshot()->model->num_domains();
  std::printf("\nrecurring drift: bank %zu -> %zu domain(s) across the "
              "return (%s duplicate enrollment), cap %zu\n",
              bank_before_return, bank_after_return,
              bank_after_return == bank_before_return ? "no" : "UNEXPECTED",
              cfg.lifecycle_config.max_domains);

  const MultiTenantStats stats = server.stats();
  std::printf("\nserver: %llu requests in %llu batches (mean fill %.1f), "
              "p50 %.2f ms, p99 %.2f ms, %llu rejected\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch_fill, 1e3 * stats.latency.p50_seconds,
              1e3 * stats.latency.p99_seconds,
              static_cast<unsigned long long>(stats.rejected));
  std::printf("lifecycle: %llu round(s), %llu absorbed, %llu merged, "
              "%llu evicted, %llu dropped (%llu side-buffer overflow)\n",
              static_cast<unsigned long long>(stats.adaptation_rounds),
              static_cast<unsigned long long>(stats.adaptation_absorbed),
              static_cast<unsigned long long>(stats.adaptation_merged),
              static_cast<unsigned long long>(stats.adaptation_evicted),
              static_cast<unsigned long long>(stats.adaptation_dropped),
              static_cast<unsigned long long>(stats.adaptation_overflow));
  return 0;
}
