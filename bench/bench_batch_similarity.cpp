// Scalar-vs-batch similarity throughput: the headline numbers of the batched
// similarity engine. Times four implementations of the same
// [queries × prototypes] cosine-similarity problem on identical random data:
//   scalar       — the per-query loop the repo shipped before the engine:
//                  one three-pass cosine (nrm2(a) + nrm2(b) + dot) per
//                  (query, prototype) pair, as the descriptor bank computed;
//   scalar fused — the same loop with today's single-pass ops::cosine
//                  (isolates the norm-fusion win);
//   batch 1T     — ops::similarity_matrix with parallelism disabled
//                  (adds the register/cache-blocking win);
//   batch MT     — ops::similarity_matrix over the global ThreadPool (adds
//                  the thread-blocking win; equals 1T on single-core hosts).
// Emits BENCH_batch_similarity.json for CI tracking. Defaults match the
// engine's acceptance scenario: 10k queries × 4096 dims.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hdc/hv_matrix.hpp"
#include "hdc/ops.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {
using namespace smore;

/// The seed's cosine: three separate sweeps (two norms, then the dot) —
/// kept here as the pre-refactor baseline after ops::cosine was fused.
double three_pass_cosine(const float* a, const float* b, std::size_t n) {
  const double na = ops::nrm2(a, n);
  const double nb = ops::nrm2(b, n);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return ops::dot(a, b, n) / (na * nb);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Scalar vs batched similarity-matrix throughput (queries/sec); emits "
      "BENCH_batch_similarity.json.");
  cli.flag_int("queries", 10000, "number of query hypervectors")
      .flag_int("prototypes", 16, "number of prototype hypervectors")
      .flag_int("dim", 4096, "hyperdimension")
      .flag_int("repeats", 3, "timing repeats (best taken)")
      .flag_string("out", "BENCH_batch_similarity.json", "JSON output path")
      .flag_int("seed", 42, "data seed");
  bench::add_smoke_flag(cli);
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_bool("smoke");
  const auto nq =
      smoke ? std::size_t{2000} : static_cast<std::size_t>(cli.get_int("queries"));
  const auto np =
      smoke ? std::size_t{8} : static_cast<std::size_t>(cli.get_int("prototypes"));
  const auto dim =
      smoke ? std::size_t{512} : static_cast<std::size_t>(cli.get_int("dim"));
  const int repeats = smoke ? 1 : static_cast<int>(cli.get_int("repeats"));
  const std::string out_path = cli.get_string("out");

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  HvMatrix queries(nq, dim);
  HvMatrix protos(np, dim);
  for (std::size_t i = 0; i < nq * dim; ++i) queries.data()[i] = rng.bipolar();
  for (std::size_t i = 0; i < np * dim; ++i) protos.data()[i] = rng.bipolar();

  std::vector<double> scalar_out(nq * np);
  std::vector<double> batch_out(nq * np);

  std::printf("[bench] %zu queries x %zu prototypes x d=%zu (%d repeats)\n",
              nq, np, dim, repeats);

  const double scalar_s = bench::best_seconds(repeats, [&] {
    for (std::size_t q = 0; q < nq; ++q) {
      const float* qrow = queries.row(q).data();
      for (std::size_t p = 0; p < np; ++p) {
        scalar_out[q * np + p] =
            three_pass_cosine(qrow, protos.row(p).data(), dim);
      }
    }
  });

  const double fused_s = bench::best_seconds(repeats, [&] {
    for (std::size_t q = 0; q < nq; ++q) {
      const float* qrow = queries.row(q).data();
      for (std::size_t p = 0; p < np; ++p) {
        scalar_out[q * np + p] =
            ops::cosine(qrow, protos.row(p).data(), dim);
      }
    }
  });

  const double batch_1t_s = bench::best_seconds(repeats, [&] {
    ops::similarity_matrix(queries.data(), nq, protos.data(), np, dim,
                           batch_out.data(), nullptr, /*parallel=*/false);
  });

  const double batch_mt_s = bench::best_seconds(repeats, [&] {
    ops::similarity_matrix(queries.data(), nq, protos.data(), np, dim,
                           batch_out.data(), nullptr, /*parallel=*/true);
  });

  // Sanity: the two paths must agree (the equivalence tests pin this too).
  double max_abs_diff = 0.0;
  for (std::size_t i = 0; i < nq * np; ++i) {
    const double d = scalar_out[i] > batch_out[i]
                         ? scalar_out[i] - batch_out[i]
                         : batch_out[i] - scalar_out[i];
    if (d > max_abs_diff) max_abs_diff = d;
  }

  const double scalar_qps = static_cast<double>(nq) / scalar_s;
  const double fused_qps = static_cast<double>(nq) / fused_s;
  const double batch_1t_qps = static_cast<double>(nq) / batch_1t_s;
  const double batch_mt_qps = static_cast<double>(nq) / batch_mt_s;
  const unsigned threads = std::thread::hardware_concurrency();

  std::printf("  scalar (seed, 3-pass): %8.3f s  %12.0f queries/s\n", scalar_s,
              scalar_qps);
  std::printf("  scalar (fused cosine): %8.3f s  %12.0f queries/s  (%.2fx)\n",
              fused_s, fused_qps, scalar_s / fused_s);
  std::printf("  batch (1T)           : %8.3f s  %12.0f queries/s  (%.2fx)\n",
              batch_1t_s, batch_1t_qps, scalar_s / batch_1t_s);
  std::printf("  batch (MT)           : %8.3f s  %12.0f queries/s  (%.2fx, %u hw threads)\n",
              batch_mt_s, batch_mt_qps, scalar_s / batch_mt_s, threads);
  std::printf("  max |scalar - batch| = %.3g\n", max_abs_diff);

  const obs::JsonValue doc = bench::json_object({
      {"queries", nq},
      {"prototypes", np},
      {"dim", dim},
      {"hardware_threads", bench::hardware_threads()},
      {"scalar_seconds", scalar_s},
      {"scalar_fused_seconds", fused_s},
      {"batch_single_thread_seconds", batch_1t_s},
      {"batch_multi_thread_seconds", batch_mt_s},
      {"scalar_queries_per_second", scalar_qps},
      {"scalar_fused_queries_per_second", fused_qps},
      {"batch_single_thread_queries_per_second", batch_1t_qps},
      {"batch_multi_thread_queries_per_second", batch_mt_qps},
      {"speedup_single_thread", scalar_s / batch_1t_s},
      {"speedup_multi_thread", scalar_s / batch_mt_s},
      {"speedup_single_thread_vs_fused", fused_s / batch_1t_s},
      {"max_abs_diff", max_abs_diff},
  });
  return bench::write_json(out_path, doc) ? 0 : 1;
}
