// Edge deployment sizing: what it costs to run SMORE on constrained devices.
//
// For a PAMAP2-like workload this example fits one deployable Pipeline
// (encoder + model + calibration + packed backend), then measures per-window
// encode and inference latency on this host through BOTH serving
// representations behind the InferenceBackend interface, sizes both models,
// and projects latency/energy onto the paper's two edge platforms through
// the documented device model (DESIGN.md §3). It is the "can I ship this?"
// calculation an embedded engineer would run first, including the "can I
// ship it to an MCU?" variant (DESIGN.md §8).
//
//   ./build/example_edge_deployment --dim=2048 --scale=0.02

#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "core/pipeline.hpp"
#include "eval/edge_model.hpp"
#include "eval/reporting.hpp"
#include "eval/timer.hpp"
#include "common.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace smore;

  CliParser cli("Edge deployment sizing for SMORE on a PAMAP2-like workload.");
  cli.flag_double("scale", 0.02, "dataset scale")
      .flag_int("dim", 2048, "hyperdimension")
      .flag_int("probe", 200, "windows to time")
      .flag_int("seed", 1, "seed");
  if (!cli.parse(argc, argv)) return 1;
  const auto dim = static_cast<std::size_t>(cli.get_int("dim"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const SyntheticSpec spec = pamap2_spec(cli.get_double("scale"), seed);
  const WindowDataset raw = generate_dataset(spec);
  const auto fold = examples::lodo_windows(raw, 0);

  // One deployable pipeline: fit + quantize (the artifact an edge gateway
  // would load).
  Pipeline pipeline(examples::make_encoder(dim, seed), raw.num_classes());
  pipeline.fit(fold.train);
  pipeline.quantize();

  // --- model footprint: float backend vs packed binary backend ---
  const SmoreModel& model = pipeline.model();
  const BinarySmoreModel& packed = *pipeline.packed();
  const std::size_t class_bytes = model.num_domains() *
                                  static_cast<std::size_t>(raw.num_classes()) *
                                  dim * sizeof(float);
  const std::size_t desc_bytes = model.num_domains() * dim * sizeof(float);
  print_banner("Model footprint");
  std::printf("domains %zu x classes %d x d %zu  -> class vectors %8.1f KiB\n",
              model.num_domains(), raw.num_classes(), dim,
              static_cast<double>(class_bytes) / 1024.0);
  std::printf("domain descriptors                -> %8.1f KiB\n",
              static_cast<double>(desc_bytes) / 1024.0);
  std::printf("float total                       -> %8.1f KiB (fits an MCU "
              "with external RAM; no weights, no backprop state)\n",
              static_cast<double>(model.footprint_bytes()) / 1024.0);
  std::printf("packed binary total               -> %8.1f KiB (%.0fx smaller: "
              "class banks %.1f KiB + descriptors %.1f KiB, on-chip SRAM "
              "territory)\n",
              static_cast<double>(packed.footprint_bytes()) / 1024.0,
              static_cast<double>(model.footprint_bytes()) /
                  static_cast<double>(packed.footprint_bytes()),
              static_cast<double>(packed.class_bank_bits().bytes()) / 1024.0,
              static_cast<double>(packed.descriptor_bits().bytes()) / 1024.0);

  // --- host timing ---
  // The probe runs through the batched engine end to end (encode_batch +
  // predict through each InferenceBackend): on-device inference services
  // windows in batches, and the reported per-window figures are the
  // amortized batch latency.
  const auto probe = std::min<std::size_t>(
      static_cast<std::size_t>(cli.get_int("probe")), fold.test.size());
  WindowDataset probe_windows("probe", raw.channels(), raw.steps());
  for (std::size_t i = 0; i < probe; ++i) probe_windows.add(fold.test[i]);

  HvMatrix probe_hv;
  WallTimer t1;
  pipeline.encoder().encode_batch(probe_windows, probe_hv);
  const double encode_s = t1.seconds();

  // Both serving representations behind the one interface the server uses
  // (the snapshot picks the backend: packed iff it carries a packed model).
  const auto float_snap =
      ModelSnapshot::make(pipeline, /*version=*/1, /*prefer_packed=*/false);
  const auto packed_snap =
      ModelSnapshot::make(pipeline, /*version=*/1, /*prefer_packed=*/true);
  struct Timed {
    const InferenceBackend* backend;
    std::vector<int> labels;
    double seconds = 0.0;
  };
  Timed variants[] = {{float_snap->backend.get(), {}, 0.0},
                      {packed_snap->backend.get(), {}, 0.0}};
  for (Timed& v : variants) {
    WallTimer t;
    v.labels = v.backend->predict_batch_full(probe_hv.view()).labels;
    v.seconds = t.seconds();
  }
  const double infer_s = variants[0].seconds;
  const double infer_packed_s = variants[1].seconds;
  std::size_t agree = 0;
  for (std::size_t i = 0; i < probe; ++i) {
    agree += variants[0].labels[i] == variants[1].labels[i] ? 1 : 0;
  }
  const double encode_ms = 1e3 * encode_s / static_cast<double>(probe);
  const double infer_ms = 1e3 * infer_s / static_cast<double>(probe);
  const double infer_packed_ms =
      1e3 * infer_packed_s / static_cast<double>(probe);
  print_banner("Measured per-window latency on this host (batched engine)");
  std::printf("encode  %7.3f ms   classify %7.3f ms (float) / %7.3f ms "
              "(packed, %.1fx)   total %7.3f ms   (%zu-window probe, %.0f "
              "windows/s end-to-end float)\n",
              encode_ms, infer_ms, infer_packed_ms,
              infer_packed_s > 0.0 ? infer_s / infer_packed_s : 0.0,
              encode_ms + infer_ms, probe,
              static_cast<double>(probe) / (encode_s + infer_s));
  std::printf("float/packed label agreement on the probe: %.1f%% (%zu/%zu)\n",
              100.0 * static_cast<double>(agree) / static_cast<double>(probe),
              agree, probe);

  // --- serving-runtime tail latency on this host ---
  // A gateway doesn't run one batch: it serves a request stream. Drive the
  // same probe through a one-tenant micro-batching server for both
  // representations — the backend is chosen by the snapshot (packed iff
  // quantized), never by the server — and report the submit→fulfill
  // percentiles a deployment would put in its SLO (util/latency.hpp
  // histogram, not min/mean).
  print_banner("Serving runtime on this host (micro-batched, percentiles)");
  for (const bool use_packed : {false, true}) {
    MultiTenantConfig scfg;
    scfg.max_batch = 32;
    scfg.max_delay_us = 200;
    MultiTenantServer server(
        std::make_shared<ModelRegistry>(
            [snap = use_packed ? packed_snap : float_snap](
                const std::string&) { return snap; }),
        scfg);
    WallTimer serve_timer;
    std::deque<std::future<ServeResult>> inflight;
    for (std::size_t i = 0; i < probe; ++i) {
      const auto row = probe_hv.row(i);
      inflight.push_back(server.submit("gateway", {row.begin(), row.end()}));
      if (inflight.size() >= 32) {
        inflight.front().get();
        inflight.pop_front();
      }
    }
    while (!inflight.empty()) {
      inflight.front().get();
      inflight.pop_front();
    }
    const double serve_s = serve_timer.seconds();
    server.shutdown();
    const MultiTenantStats stats = server.stats();
    std::printf("%-6s backend: %6.0f req/s   p50 %7.3f ms  p95 %7.3f ms  "
                "p99 %7.3f ms   (%llu batches, mean fill %.1f)\n",
                use_packed ? "packed" : "float",
                static_cast<double>(stats.completed) / serve_s,
                1e3 * stats.latency.p50_seconds,
                1e3 * stats.latency.p95_seconds,
                1e3 * stats.latency.p99_seconds,
                static_cast<unsigned long long>(stats.batches),
                stats.mean_batch_fill);
  }

  // --- projection onto the paper's edge platforms (simulated) ---
  print_banner("Projected edge latency & energy (SIMULATED device model)");
  TablePrinter table({"platform", "backend", "per-window latency (ms)",
                      "energy per window (mJ)", "windows/second"});
  for (const EdgePlatform& p : paper_edge_platforms()) {
    const struct {
      const char* backend;
      double infer_seconds;
    } projections[] = {{"float", infer_s}, {"packed", infer_packed_s}};
    for (const auto& v : projections) {
      const double total_s =
          (encode_s + v.infer_seconds) / static_cast<double>(probe);
      const double edge_s =
          p.project_latency(total_s, WorkloadKind::kHdcInference);
      table.row({p.name, v.backend, fmt(1e3 * edge_s, 2),
                 fmt(1e3 * p.project_energy(total_s,
                                            WorkloadKind::kHdcInference),
                     2),
                 fmt(1.0 / edge_s, 0)});
    }
  }
  table.print();
  std::printf("\nA PAMAP2 window spans %.2f s of signal, so real-time factor "
              ">> 1 on both devices.\n",
              static_cast<double>(raw.steps()) / spec.sample_rate_hz);
  return 0;
}
