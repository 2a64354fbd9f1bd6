// Per-window vs batched encode throughput: the headline numbers of the
// batched encoding engine. Times both encoders on identical random windows:
//
//   multi-sensor encoder (Sec 3.3):
//     per-window — the pre-batching path: MultiSensorEncoder::encode per
//                  window with reused scratch (the old encode_dataset body:
//                  level materialization + rotate/hadamard/axpy per gram);
//     batch 1T   — encode_batch with parallelism disabled (adds the level
//                  bank + fused ngram_axpy kernel win);
//     batch MT   — encode_batch over the global ThreadPool (adds the
//                  thread-blocking win; equals 1T on single-core hosts).
//
//   projection encoder (BaselineHD):
//     per-window — the pre-batching loop: one ops::dot per output dimension
//                  per window (D row-dots, projection rows re-streamed for
//                  every window);
//     batch 1T/MT — ops::project_cos_matrix (cache-blocked GEMM + fused cos
//                  epilogue), serial and thread-pooled.
//
// Batch outputs are checked bit-identical to the scalar paths (the
// equivalence tests pin this too; for the projection encoder the reference
// is its batch-of-one encode(), whose fused-kernel dot order differs from
// the legacy loop — the legacy comparison is reported as max |diff|).
// Emits BENCH_batch_encode.json for CI tracking. Defaults match the
// engine's acceptance scenario: 10k windows × 4096 dims.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "data/timeseries.hpp"
#include "hdc/encoder.hpp"
#include "hdc/hv_matrix.hpp"
#include "hdc/ops.hpp"
#include "hdc/projection_encoder.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {
using namespace smore;

bool rows_bit_identical(const HvMatrix& a, const HvMatrix& b) {
  if (a.rows() != b.rows() || a.dim() != b.dim()) return false;
  return std::memcmp(a.data(), b.data(),
                     a.rows() * a.dim() * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Per-window vs batched encode throughput (windows/sec) for the "
      "multi-sensor and projection encoders; emits BENCH_batch_encode.json.");
  cli.flag_int("windows", 10000, "number of windows")
      .flag_int("channels", 3, "sensor channels per window")
      .flag_int("steps", 32, "timesteps per window")
      .flag_int("dim", 4096, "hyperdimension")
      .flag_int("repeats", 2, "timing repeats (best taken)")
      .flag_bool("skip_projection", false, "only bench the multi-sensor encoder")
      .flag_string("out", "BENCH_batch_encode.json", "JSON output path")
      .flag_int("seed", 42, "data seed");
  bench::add_smoke_flag(cli);
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_bool("smoke");
  const auto n =
      smoke ? std::size_t{500} : static_cast<std::size_t>(cli.get_int("windows"));
  const auto channels = static_cast<std::size_t>(cli.get_int("channels"));
  const auto steps = static_cast<std::size_t>(cli.get_int("steps"));
  const auto dim =
      smoke ? std::size_t{512} : static_cast<std::size_t>(cli.get_int("dim"));
  const int repeats = smoke ? 1 : static_cast<int>(cli.get_int("repeats"));
  const std::string out_path = cli.get_string("out");

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  WindowDataset data("bench", channels, steps);
  for (std::size_t i = 0; i < n; ++i) {
    Window w(channels, steps);
    for (float& v : w.values()) v = rng.uniform_f(-2.0f, 2.0f);
    data.add(w);
  }

  std::printf("[bench] %zu windows x %zu ch x %zu steps -> d=%zu (%d repeats)\n",
              n, channels, steps, dim, repeats);

  // ---------------------------------------------------- multi-sensor encoder
  EncoderConfig ec;
  ec.dim = dim;
  const MultiSensorEncoder encoder(ec);
  encoder.prepare(channels);

  HvMatrix scalar_out(n, dim);
  HvMatrix batch_out;

  const double ms_scalar_s = bench::best_seconds(repeats, [&] {
    // The pre-batching hot loop: per-window encode with reused scratch, then
    // a row copy — exactly what encode_dataset did before the batch engine.
    EncodeScratch scratch;
    for (std::size_t i = 0; i < n; ++i) {
      const Hypervector hv = encoder.encode(data[i], scratch, i);
      std::copy(hv.data(), hv.data() + dim, scalar_out.row(i).begin());
    }
  });
  const double ms_batch_1t_s = bench::best_seconds(
      repeats, [&] { encoder.encode_batch(data, batch_out, /*parallel=*/false); });
  const bool ms_identical = rows_bit_identical(scalar_out, batch_out);
  const double ms_batch_mt_s = bench::best_seconds(
      repeats, [&] { encoder.encode_batch(data, batch_out, /*parallel=*/true); });
  const bool ms_mt_identical = rows_bit_identical(scalar_out, batch_out);

  const double nd = static_cast<double>(n);
  const unsigned threads = std::thread::hardware_concurrency();
  std::printf("  multi-sensor per-window: %8.3f s  %10.0f windows/s\n",
              ms_scalar_s, nd / ms_scalar_s);
  std::printf("  multi-sensor batch (1T): %8.3f s  %10.0f windows/s  (%.2fx)\n",
              ms_batch_1t_s, nd / ms_batch_1t_s, ms_scalar_s / ms_batch_1t_s);
  std::printf("  multi-sensor batch (MT): %8.3f s  %10.0f windows/s  (%.2fx, %u hw threads)\n",
              ms_batch_mt_s, nd / ms_batch_mt_s, ms_scalar_s / ms_batch_mt_s,
              threads);
  std::printf("  bit-identical: 1T %s, MT %s\n", ms_identical ? "yes" : "NO",
              ms_mt_identical ? "yes" : "NO");

  // ----------------------------------------------------- projection encoder
  double pj_scalar_s = 0.0;
  double pj_batch_1t_s = 0.0;
  double pj_batch_mt_s = 0.0;
  double pj_legacy_max_diff = 0.0;
  bool pj_identical = true;
  if (!cli.get_bool("skip_projection")) {
    ProjectionEncoderConfig pc;
    pc.dim = dim;
    const ProjectionEncoder proj(pc);

    // The pre-refactor per-window path: D row-dots + cos per window, the
    // projection matrix re-streamed for every window. The matrix is
    // regenerated here from the documented construction (w ~ N(0, 1/sqrt(F)),
    // b ~ U[0, 2π) from Rng(seed)) since the encoder no longer exposes it.
    const std::size_t features = channels * steps;
    std::vector<float> legacy_w(dim * features);
    std::vector<float> legacy_b(dim);
    {
      Rng wrng(pc.seed);
      const double scale = 1.0 / std::sqrt(static_cast<double>(features));
      for (auto& w : legacy_w) w = static_cast<float>(wrng.normal(0.0, scale));
      for (auto& b : legacy_b) {
        b = static_cast<float>(wrng.uniform(0.0, 2.0 * 3.14159265358979323846));
      }
    }
    pj_scalar_s = bench::best_seconds(repeats, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        const float* x = data[i].values().data();
        float* row = scalar_out.row(i).data();
        for (std::size_t j = 0; j < dim; ++j) {
          const double acc =
              legacy_b[j] + ops::dot(legacy_w.data() + j * features, x, features);
          row[j] = static_cast<float>(std::cos(acc));
        }
      }
    });
    pj_batch_1t_s = bench::best_seconds(
        repeats, [&] { proj.encode_batch(data, batch_out, /*parallel=*/false); });
    // Legacy and batch accumulate the dots in a different order, so they
    // agree to rounding, not bitwise; report the max gap.
    for (std::size_t i = 0; i < n * dim; ++i) {
      const double diff = std::fabs(static_cast<double>(scalar_out.data()[i]) -
                                    static_cast<double>(batch_out.data()[i]));
      if (diff > pj_legacy_max_diff) pj_legacy_max_diff = diff;
    }
    const HvMatrix serial_out = batch_out;  // keep the 1T rows for the checks
    pj_batch_mt_s = bench::best_seconds(
        repeats, [&] { proj.encode_batch(data, batch_out, /*parallel=*/true); });
    // Bit-identity holds between today's scalar API (encode(): batch of one
    // through the same kernel) and the batch rows, for any thread count.
    pj_identical = rows_bit_identical(serial_out, batch_out);
    for (std::size_t i = 0; i < std::min<std::size_t>(n, 256); ++i) {
      const Hypervector hv = proj.encode(data[i]);
      pj_identical = pj_identical &&
                     std::memcmp(hv.data(), batch_out.row(i).data(),
                                 dim * sizeof(float)) == 0;
    }

    std::printf("  projection per-window  : %8.3f s  %10.0f windows/s\n",
                pj_scalar_s, nd / pj_scalar_s);
    std::printf("  projection batch (1T)  : %8.3f s  %10.0f windows/s  (%.2fx)\n",
                pj_batch_1t_s, nd / pj_batch_1t_s, pj_scalar_s / pj_batch_1t_s);
    std::printf("  projection batch (MT)  : %8.3f s  %10.0f windows/s  (%.2fx)\n",
                pj_batch_mt_s, nd / pj_batch_mt_s, pj_scalar_s / pj_batch_mt_s);
    std::printf("  scalar/batch bit-identical: %s   max |legacy - batch| = %.3g\n",
                pj_identical ? "yes" : "NO", pj_legacy_max_diff);
  }

  const obs::JsonValue doc = bench::json_object({
      {"windows", n},
      {"channels", channels},
      {"steps", steps},
      {"dim", dim},
      {"hardware_threads", bench::hardware_threads()},
      {"multisensor_per_window_seconds", ms_scalar_s},
      {"multisensor_batch_single_thread_seconds", ms_batch_1t_s},
      {"multisensor_batch_multi_thread_seconds", ms_batch_mt_s},
      {"multisensor_per_window_windows_per_second", nd / ms_scalar_s},
      {"multisensor_batch_single_thread_windows_per_second",
       nd / ms_batch_1t_s},
      {"multisensor_batch_multi_thread_windows_per_second",
       nd / ms_batch_mt_s},
      {"speedup_single_thread", ms_scalar_s / ms_batch_1t_s},
      {"speedup_multi_thread", ms_scalar_s / ms_batch_mt_s},
      {"multisensor_bit_identical", ms_identical && ms_mt_identical},
      {"projection_per_window_seconds", pj_scalar_s},
      {"projection_batch_single_thread_seconds", pj_batch_1t_s},
      {"projection_batch_multi_thread_seconds", pj_batch_mt_s},
      {"projection_speedup_single_thread",
       pj_batch_1t_s > 0.0 ? pj_scalar_s / pj_batch_1t_s : 0.0},
      {"projection_speedup_multi_thread",
       pj_batch_mt_s > 0.0 ? pj_scalar_s / pj_batch_mt_s : 0.0},
      {"projection_bit_identical", pj_identical},
      {"projection_vs_legacy_max_abs_diff", pj_legacy_max_diff},
  });
  return bench::write_json(out_path, doc) ? 0 : 1;
}
