#pragma once
// Adaptive test-time modeling (paper Sec 3.6, Eq. 3).
//
// For a query Q the test-time model is a weighted ensemble of the K
// domain-specific models:  M_T = Σ_k w_k · M_k, where w_k derives from the
// descriptor similarities δ(Q, U_k) and the OOD verdict:
//   * OOD query:            every domain participates, w_k = δ(Q, U_k);
//   * in-distribution query: only domains with δ(Q, U_k) ≥ δ* participate
//     (adding dissimilar domains would inject noise — Sec 3.6.2).
//
// Two implementations are provided:
//   * TestTimeModel materializes the ensembled class hypervectors (the
//     paper-literal formulation) — simple, used for verification;
//   * EnsembleEvaluator computes the same argmax without materializing M_T:
//     dot(Q, C_c^T) = Σ_k w_k dot(Q, C_c^k) and ‖C_c^T‖² = w^T G_c w with the
//     per-class Gram matrices G_c[i][j] = <C_c^i, C_c^j> precomputed at fit
//     time. Per query this trades the O(n·d) ensemble materialization (plus
//     its allocation) for O(n·K²) Gram sums; the O(K·n·d) similarity dots
//     dominate both paths, so wall-clock is comparable while the evaluator
//     is allocation-free and skips zero-weight domains entirely. A property
//     test pins both paths to identical argmax.

#include <cstddef>
#include <span>
#include <vector>

#include "hdc/hv_matrix.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/onlinehd.hpp"

namespace smore {

/// How descriptor similarities become ensemble weights (ablation knob;
/// the paper's Eq. 3 uses the raw similarities).
///
/// Eq. 3's raw weights are only as sharp as the similarity spread, and that
/// spread depends on how much common component the encoder leaves in the
/// encodings: bundled n-gram codes compress all cosines into a narrow band
/// (e.g. 0.80-0.82), turning Eq. 3 into a near-uniform ensemble that lets
/// dissimilar domains poison the prediction. kStandardizedSoftmax is the
/// scale-free reading of the same idea: per query, similarities are
/// z-scored across the K domains and exponentiated, so the *ranking and
/// relative spread* decide the weights regardless of the encoder's
/// similarity scale. It reduces toward uniform when all domains are equally
/// similar and toward top-1 when one domain stands out — exactly Eq. 3's
/// intent. Raw mode stays available and is ablated.
enum class WeightMode {
  kStandardizedSoftmax,  ///< w_k = exp(zscore_k(δ)) (default, scale-free)
  kClampedSimilarity,    ///< w_k = max(δ_k, 0)
  kRawSimilarity,        ///< w_k = δ_k  (paper-literal Eq. 3)
  kSoftmax,              ///< w_k = exp(δ_k/τ) / Σ exp(δ_j/τ), τ = 0.1
  kTopOne,               ///< winner-take-all: only the most similar domain
};

/// Compute ensemble weights from descriptor similarities per Algorithm 1.
/// In the in-distribution case only domains with δ_k ≥ δ* keep weight; if the
/// weight vector degenerates to all-zero, it falls back to uniform weights so
/// the ensemble stays well-defined.
[[nodiscard]] std::vector<double> ensemble_weights(
    std::span<const double> similarities, double delta_star, bool is_ood,
    WeightMode mode = WeightMode::kStandardizedSoftmax);

/// Paper-literal materialized test-time model: n ensembled class hypervectors.
class TestTimeModel {
 public:
  /// `models[k]` must all share class count and dimension; `weights` must
  /// have the same arity. Throws std::invalid_argument otherwise.
  TestTimeModel(std::span<const OnlineHDClassifier* const> models,
                std::span<const double> weights);

  [[nodiscard]] int num_classes() const noexcept {
    return static_cast<int>(classes_.size());
  }

  /// Ensembled class hypervector C_c^T.
  [[nodiscard]] const Hypervector& class_vector(int c) const {
    return classes_.at(static_cast<std::size_t>(c));
  }

  /// argmax_c δ(hv, C_c^T)  (Algorithm 1 line 7).
  [[nodiscard]] int predict(std::span<const float> hv) const;

 private:
  std::vector<Hypervector> classes_;
};

/// Materialization-free evaluator over a fixed set of domain models.
class EnsembleEvaluator {
 public:
  /// Marks a model in `previous_position` that `previous` did not see as it
  /// is now (touched since, or new).
  static constexpr std::size_t kChanged = static_cast<std::size_t>(-1);

  /// Precomputes the per-class Gram matrices and copies the class vectors
  /// it reads, keeping no reference to `models`: a copy of the evaluator
  /// serves any deep copy of them.
  ///
  /// Incremental rebuild: when `models` is a successor of the set
  /// `previous` was built over, `previous_position[i]` is model i's position
  /// there if it is unchanged since, else kChanged. The Gram entry of every
  /// pair of unchanged models is then copied from `previous`; dots are
  /// computed only for the rows and columns of changed ones, so an eviction
  /// computes none. Each entry is the same independent dot a full rebuild
  /// computes, so the result is bit-identical to one. Throws
  /// std::invalid_argument on empty or heterogeneous models, and on a
  /// `previous_position` that does not fit `models` and `previous`.
  explicit EnsembleEvaluator(
      const std::vector<const OnlineHDClassifier*>& models,
      const EnsembleEvaluator* previous = nullptr,
      std::span<const std::size_t> previous_position = {});

  [[nodiscard]] std::size_t num_models() const noexcept { return num_models_; }
  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }

  /// argmax_c δ(hv, Σ_k w_k C_c^k) without building the ensemble.
  [[nodiscard]] int predict(std::span<const float> hv,
                            std::span<const double> weights) const;

  /// Cosine similarity of `hv` to every ensembled class hypervector.
  [[nodiscard]] std::vector<double> class_similarities(
      std::span<const float> hv, std::span<const double> weights) const;

  /// Batched argmax with per-query weights (`weights` is row-major
  /// [queries.rows × K]). The K·n class-vector dots of every query come from
  /// one blocked matrix kernel over the packed class vectors; the Gram
  /// combination per (query, class) is O(K²) on top.
  [[nodiscard]] std::vector<int> predict_batch(
      HvView queries, std::span<const double> weights) const;

 private:
  /// Shared ensemble math of the scalar and batch paths: given the K
  /// per-model dots of one class (`class_dots[k] = <Q, C_c^k>`), accumulate
  /// dot(Q, C_c^T) = Σ_k w_k class_dots[k] and ‖C_c^T‖² = w^T G_c w,
  /// skipping zero-weight models.
  void combine_class(const double* class_dots, std::span<const double> w,
                     int c, double& dot_qc, double& norm_sq) const;

  std::size_t num_models_ = 0;
  int num_classes_ = 0;
  std::size_t dim_ = 0;
  // gram_[c] is a K×K matrix, row-major: <C_c^i, C_c^j>.
  std::vector<std::vector<double>> gram_;
  // All K·n class vectors packed row-major, row index c·K + k (the K vectors
  // of one class contiguous); the scalar and batched dots both read it.
  HvMatrix packed_;
};

}  // namespace smore
