#pragma once
// OnlineHD-style hyperdimensional classifier (Hernandez-Cano et al., DATE'21).
//
// This is simultaneously:
//   * "BaselineHD" — the SOTA single-model HDC baseline of the paper [22]
//     (trained on all source domains pooled, no distribution-shift handling);
//   * the per-domain learner inside SMORE's domain-specific modeling
//     (paper Sec 3.4, Eq. 1-2).
//
// Training has two phases, mirroring the paper's description of "bundling
// data points by scaling a proper weight to each of them":
//   1. adaptive single-pass bootstrap: C_label += (1 - δ(H, C_label)) · H
//   2. iterative refinement: for each mispredicted sample (predicted class i,
//      true class j):
//         C_j ← C_j + η (1 - δ(H, C_j)) H
//         C_i ← C_i - η (1 - δ(H, C_i)) H            (Eq. 2)
// Samples that are already well represented contribute little (1 - δ ≈ 0),
// which prevents model saturation and speeds convergence.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "hdc/hv_dataset.hpp"
#include "hdc/hv_matrix.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/wide_counter.hpp"

namespace smore {

/// Hyperparameters of OnlineHD training.
struct OnlineHDConfig {
  float learning_rate = 0.035f;  ///< η in Eq. 2
  int epochs = 20;               ///< refinement iterations after the bootstrap
  bool shuffle = true;           ///< reshuffle sample order each epoch
  std::uint64_t seed = 0x0d1e;   ///< shuffle seed
};

/// Multi-class HDC classifier: one class hypervector per class, cosine
/// similarity argmax prediction. Class-vector norms are cached and kept
/// in sync by every update, so predictions cost one dot product per class.
///
/// Class banks accumulate in double wide counters (hdc/wide_counter.hpp)
/// mirrored to float for the similarity kernels: a model that lives through
/// unbounded continual bootstrap/refine updates keeps learning instead of
/// saturating float accumulation. Update decisions (δ, argmax) read the
/// float mirror — one [num_classes × dim] HvMatrix, the block the batch
/// kernels read — so quantization and serving behavior are unchanged.
///
/// Concurrency: const methods only read, so a model may be shared across
/// reader threads with no preparation step. Updates (fit/bootstrap/refine/
/// set_class_vector) need exclusive access.
class OnlineHDClassifier {
 public:
  /// Zero-initialized model. Throws std::invalid_argument when
  /// num_classes <= 0 or dim == 0.
  OnlineHDClassifier(int num_classes, std::size_t dim);

  [[nodiscard]] int num_classes() const noexcept {
    return static_cast<int>(classes_.rows());
  }
  [[nodiscard]] std::size_t dim() const noexcept { return classes_.dim(); }

  /// Full training: adaptive bootstrap pass + `config.epochs` refinement
  /// epochs over `train`. Returns per-epoch training accuracy (bootstrap
  /// excluded), useful for convergence studies (paper Fig. 1b).
  std::vector<double> fit(const HvDataset& train, const OnlineHDConfig& config);

  /// Adaptive bootstrap for a single sample (phase 1).
  void bootstrap(std::span<const float> hv, int label);

  /// One Eq.-2 refinement step for a single sample (phase 2); returns true
  /// when the sample was already classified correctly (no update applied).
  bool refine(std::span<const float> hv, int label, float learning_rate);

  /// Predicted class: argmax_c δ(hv, C_c). Thin wrapper over a batch of one.
  [[nodiscard]] int predict(std::span<const float> hv) const;

  /// Cosine similarity of `hv` to every class hypervector. Thin wrapper over
  /// a batch of one.
  [[nodiscard]] std::vector<double> similarities(std::span<const float> hv) const;

  /// Predicted class per query row: one blocked matrix kernel over the class
  /// matrix instead of a per-query similarity loop.
  [[nodiscard]] std::vector<int> predict_batch(HvView queries) const;

  /// Row-major [queries.rows × num_classes] cosine similarity matrix
  /// δ(Q_i, C_c), computed by ops::similarity_matrix against the class matrix
  /// with the cached norms.
  [[nodiscard]] std::vector<double> similarities_batch(HvView queries) const;

  /// Fraction of `data` classified correctly (batched: one matrix kernel over
  /// the whole dataset).
  [[nodiscard]] double accuracy(const HvDataset& data) const;

  /// Class hypervector C_c: row c of the class matrix. Throws
  /// std::out_of_range on a bad class.
  [[nodiscard]] std::span<const float> class_vector(int c) const {
    return classes_.at(static_cast<std::size_t>(c));
  }

  /// Overwrite class hypervector C_c (used by model ensembling; re-syncs the
  /// cached norm).
  void set_class_vector(int c, const Hypervector& hv);

  /// Binary serialization (dimension, class count, raw class vectors).
  void save(std::ostream& out) const;
  /// Throws std::runtime_error on a corrupt or truncated record. Before
  /// allocating, the header is checked against the util/serial.hpp caps and,
  /// where nonzero, `expect_classes` / `expect_dim` (an enclosing shape).
  static OnlineHDClassifier load(std::istream& in, int expect_classes = 0,
                                 std::size_t expect_dim = 0);

 private:
  [[nodiscard]] double cosine_to_class(std::span<const float> hv, double hv_norm,
                                       int c) const;
  /// Re-materialize mirror row c from its double master and refresh its
  /// cached norm.
  void refresh(int c);
  /// C_c += weight · hv on the double master, then refresh row c (the one
  /// write path of bootstrap/refine).
  void update_class(int c, double weight, std::span<const float> hv);

  HvMatrix classes_;                    // float mirror [C × d] (query plane)
  std::vector<WideAccumulator> accum_;  // double masters (update plane)
  std::vector<double> norms_;           // ‖C_c‖, refreshed with each row
};

}  // namespace smore
