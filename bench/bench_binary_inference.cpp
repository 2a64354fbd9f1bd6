// Packed-binary vs scalar vs float inference throughput: the headline
// numbers of the packed binary backend (DESIGN.md §8). Times the same
// [queries × classes] Hamming-argmin problem end to end — float query
// hypervectors in, labels out — four ways:
//   scalar        — the per-query loop the repo shipped before the backend:
//                   quantize one BinaryVector per query (bit-by-bit
//                   conditional OR), then one BinaryVector::hamming call per
//                   class. This is the seed's BinaryModel::predict path.
//   packed 1T     — ops::sign_pack_matrix (batch mask-compare quantization)
//                   + ops::hamming_matrix (blocked XOR+popcount) + argmin,
//                   parallelism disabled;
//   packed MT     — the same over the global ThreadPool;
//   float 1T      — ops::similarity_matrix argmax on the unquantized floats
//                   (what the float backend costs on the same problem).
// Also isolates the kernel-only ratio (pre-packed queries, Hamming only) and
// reports the float-vs-packed bytes footprint of the model and the query
// block. Emits BENCH_binary_inference.json for CI tracking. Defaults match
// the backend's acceptance scenario: 10k queries × 4096 dims.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hdc/binary.hpp"
#include "hdc/bit_matrix.hpp"
#include "hdc/hv_matrix.hpp"
#include "hdc/ops.hpp"
#include "hdc/ops_binary.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace smore;

int main(int argc, char** argv) {
  CliParser cli(
      "Scalar vs packed-binary vs float inference throughput (queries/sec) "
      "and float-vs-packed bytes footprint; emits "
      "BENCH_binary_inference.json.");
  cli.flag_int("queries", 10000, "number of query hypervectors")
      .flag_int("classes", 16, "number of class hypervectors")
      .flag_int("dim", 4096, "hyperdimension")
      .flag_int("repeats", 3, "timing repeats (best taken)")
      .flag_string("out", "BENCH_binary_inference.json", "JSON output path")
      .flag_int("seed", 42, "data seed");
  bench::add_smoke_flag(cli);
  if (!cli.parse(argc, argv)) return 1;

  auto nq = static_cast<std::size_t>(cli.get_int("queries"));
  auto nc = static_cast<std::size_t>(cli.get_int("classes"));
  auto dim = static_cast<std::size_t>(cli.get_int("dim"));
  int repeats = static_cast<int>(cli.get_int("repeats"));
  if (cli.get_bool("smoke")) {
    nq = 2000;
    nc = 8;
    dim = 512;
    repeats = 1;
  }
  const std::string out_path = cli.get_string("out");

  // A trained-shaped model: random bipolar class vectors (the kernels only
  // see signs, so this is representative of any trained classifier).
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  OnlineHDClassifier model(static_cast<int>(nc), dim);
  for (std::size_t c = 0; c < nc; ++c) {
    model.set_class_vector(static_cast<int>(c),
                           Hypervector::random_bipolar(dim, rng));
  }
  const BinaryModel binary(model);
  HvMatrix queries(nq, dim);
  for (std::size_t i = 0; i < nq * dim; ++i) {
    queries.data()[i] = static_cast<float>(rng.normal());
  }

  std::printf("[bench] %zu queries x %zu classes x d=%zu (%d repeats)\n", nq,
              nc, dim, repeats);

  // --- scalar: the seed's per-query path (quantize + per-class hamming) ---
  std::vector<BinaryVector> class_bits;
  class_bits.reserve(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    class_bits.emplace_back(model.class_vector(static_cast<int>(c)));
  }
  std::vector<int> scalar_labels(nq);
  const double scalar_s = bench::best_seconds(repeats, [&] {
    for (std::size_t q = 0; q < nq; ++q) {
      const BinaryVector query(queries.row(q));  // bit-by-bit quantization
      int best = 0;
      std::size_t best_distance = dim + 1;
      for (std::size_t c = 0; c < nc; ++c) {
        const std::size_t d = class_bits[c].hamming(query);
        if (d < best_distance) {
          best_distance = d;
          best = static_cast<int>(c);
        }
      }
      scalar_labels[q] = best;
    }
  });

  // --- kernel-only scalar baseline: pre-packed queries, hamming only ------
  std::vector<BinaryVector> query_bits;
  query_bits.reserve(nq);
  for (std::size_t q = 0; q < nq; ++q) query_bits.emplace_back(queries.row(q));
  std::vector<std::size_t> scalar_dist(nq * nc);
  const double scalar_ham_s = bench::best_seconds(repeats, [&] {
    for (std::size_t q = 0; q < nq; ++q) {
      for (std::size_t c = 0; c < nc; ++c) {
        scalar_dist[q * nc + c] = query_bits[q].hamming(class_bits[c]);
      }
    }
  });

  // --- packed: batch quantization + blocked Hamming matrix + argmin -------
  const auto packed_pipeline = [&](bool parallel) {
    BitMatrix qbits(nq, dim);
    ops::sign_pack_matrix(queries.data(), nq, dim, qbits.data(),
                          qbits.words_per_row(), parallel);
    std::vector<std::size_t> dist(nq * nc);
    ops::hamming_matrix(qbits.data(), nq, binary.class_bits().data(), nc,
                        qbits.words_per_row(), dist.data(), parallel);
    std::vector<int> labels(nq);
    for (std::size_t q = 0; q < nq; ++q) {
      const std::size_t* row = dist.data() + q * nc;
      int best = 0;
      std::size_t best_distance = dim + 1;
      for (std::size_t c = 0; c < nc; ++c) {
        if (row[c] < best_distance) {
          best_distance = row[c];
          best = static_cast<int>(c);
        }
      }
      labels[q] = best;
    }
    return labels;
  };
  std::vector<int> packed_labels;
  const double packed_1t_s =
      bench::best_seconds(repeats, [&] { packed_labels = packed_pipeline(false); });
  const double packed_mt_s =
      bench::best_seconds(repeats, [&] { packed_labels = packed_pipeline(true); });

  // Kernel-only packed timing (pre-packed queries, Hamming matrix only).
  const BitMatrix qbits = ops::sign_pack_matrix(queries.view());
  std::vector<std::size_t> kernel_dist(nq * nc);
  const double packed_ham_s = bench::best_seconds(repeats, [&] {
    ops::hamming_matrix(qbits.view(), binary.class_bits().view(),
                        kernel_dist.data(), /*parallel=*/false);
  });

  // --- float backend on the same problem ----------------------------------
  HvMatrix float_classes(nc, dim);
  for (std::size_t c = 0; c < nc; ++c) {
    float_classes.set_row(c, model.class_vector(static_cast<int>(c)));
  }
  std::vector<double> float_sims(nq * nc);
  const double float_1t_s = bench::best_seconds(repeats, [&] {
    ops::similarity_matrix(queries.data(), nq, float_classes.data(), nc, dim,
                           float_sims.data(), nullptr, /*parallel=*/false);
  });

  // --- correctness: kernels must be bit-identical to the scalar loop ------
  std::size_t dist_mismatches = 0;
  for (std::size_t i = 0; i < nq * nc; ++i) {
    dist_mismatches += kernel_dist[i] != scalar_dist[i] ? 1 : 0;
  }
  std::size_t label_mismatches = 0;
  const std::vector<int> model_labels = binary.predict_batch(queries.view());
  for (std::size_t q = 0; q < nq; ++q) {
    label_mismatches += packed_labels[q] != scalar_labels[q] ? 1 : 0;
    label_mismatches += model_labels[q] != scalar_labels[q] ? 1 : 0;
  }

  // --- footprints ----------------------------------------------------------
  const std::size_t model_float_bytes = nc * dim * sizeof(float);
  const std::size_t model_packed_bytes = binary.footprint_bytes();
  const std::size_t query_float_bytes = nq * dim * sizeof(float);
  const std::size_t query_packed_bytes = qbits.bytes();
  const double footprint_ratio = static_cast<double>(model_float_bytes) /
                                 static_cast<double>(model_packed_bytes);

  const double scalar_qps = static_cast<double>(nq) / scalar_s;
  const double scalar_ham_qps = static_cast<double>(nq) / scalar_ham_s;
  const double packed_1t_qps = static_cast<double>(nq) / packed_1t_s;
  const double packed_mt_qps = static_cast<double>(nq) / packed_mt_s;
  const double packed_ham_qps = static_cast<double>(nq) / packed_ham_s;
  const double float_1t_qps = static_cast<double>(nq) / float_1t_s;
  const unsigned threads = std::thread::hardware_concurrency();

  std::printf("  end-to-end (float hv in, label out):\n");
  std::printf("    scalar (seed path)  : %8.4f s  %12.0f queries/s\n",
              scalar_s, scalar_qps);
  std::printf("    packed (1T)         : %8.4f s  %12.0f queries/s  (%.2fx)\n",
              packed_1t_s, packed_1t_qps, scalar_s / packed_1t_s);
  std::printf("    packed (MT)         : %8.4f s  %12.0f queries/s  (%.2fx, "
              "%u hw threads)\n",
              packed_mt_s, packed_mt_qps, scalar_s / packed_mt_s, threads);
  std::printf("    float batch (1T)    : %8.4f s  %12.0f queries/s\n",
              float_1t_s, float_1t_qps);
  std::printf("  kernel only (pre-packed queries, Hamming):\n");
  std::printf("    scalar hamming loop : %8.4f s  %12.0f queries/s\n",
              scalar_ham_s, scalar_ham_qps);
  std::printf("    ops::hamming_matrix : %8.4f s  %12.0f queries/s  (%.2fx)\n",
              packed_ham_s, packed_ham_qps, scalar_ham_s / packed_ham_s);
  std::printf("  footprint: model %zu -> %zu bytes (%.1fx), query block "
              "%zu -> %zu bytes\n",
              model_float_bytes, model_packed_bytes, footprint_ratio,
              query_float_bytes, query_packed_bytes);
  std::printf("  distance mismatches vs scalar: %zu  label mismatches: %zu "
              "(both must be 0)\n",
              dist_mismatches, label_mismatches);

  const obs::JsonValue doc = bench::json_object({
      {"queries", nq},
      {"classes", nc},
      {"dim", dim},
      {"hardware_threads", bench::hardware_threads()},
      {"scalar_seconds", scalar_s},
      {"packed_single_thread_seconds", packed_1t_s},
      {"packed_multi_thread_seconds", packed_mt_s},
      {"float_single_thread_seconds", float_1t_s},
      {"scalar_queries_per_second", scalar_qps},
      {"packed_single_thread_queries_per_second", packed_1t_qps},
      {"packed_multi_thread_queries_per_second", packed_mt_qps},
      {"float_single_thread_queries_per_second", float_1t_qps},
      {"scalar_hamming_queries_per_second", scalar_ham_qps},
      {"hamming_matrix_queries_per_second", packed_ham_qps},
      {"speedup_single_thread_vs_scalar", scalar_s / packed_1t_s},
      {"speedup_multi_thread_vs_scalar", scalar_s / packed_mt_s},
      {"speedup_packed_vs_float", float_1t_s / packed_1t_s},
      {"kernel_speedup_vs_scalar_hamming", scalar_ham_s / packed_ham_s},
      {"model_float_bytes", model_float_bytes},
      {"model_packed_bytes", model_packed_bytes},
      {"query_float_bytes", query_float_bytes},
      {"query_packed_bytes", query_packed_bytes},
      {"footprint_ratio", footprint_ratio},
      {"distance_mismatches", dist_mismatches},
      {"label_mismatches", label_mismatches},
  });
  if (!bench::write_json(out_path, doc)) return 1;
  return dist_mismatches + label_mismatches == 0 ? 0 : 1;
}
