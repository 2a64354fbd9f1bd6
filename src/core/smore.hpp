#pragma once
// SMORE: similarity-based hyperdimensional domain adaptation — the paper's
// primary contribution (Sec 3.2-3.6, Figure 2, Algorithm 1).
//
// Training (fit):
//   B  split encoded samples by domain;
//   C  train one OnlineHD domain-specific model M_k per source domain;
//   D  bundle per-domain descriptors U_k = Σ_i H_i^k.
// Inference (predict):
//   E  OOD detection: δ_max = max_k δ(Q, U_k); OOD iff δ_max < δ*;
//   F  test-time model M_T = Σ_k w_k M_k with w from the similarities
//      (all domains when OOD, only domains with δ_k ≥ δ* otherwise);
//   G  label = argmax_c δ(Q, C_c^T).
//
// The encoder is deliberately *outside* this class: SMORE consumes encoded
// HvDatasets, so a dataset is encoded once and shared across folds,
// algorithms, and ablations.
//
// Concurrency: const methods only read, so a const SmoreModel can be shared
// across reader threads as soon as it exists, with no preparation step
// (DESIGN.md §9). The domain models and the ensemble evaluator are immutable
// objects held by shared_ptr<const>: clone() shares them, and a mutating
// call (absorb_labeled, remove_domains) never writes one in place — it
// replaces what it touches with a private copy and rebuilds the evaluator
// before it returns, reusing the Gram entries of untouched models. A clone
// can therefore be adapted while readers keep reading its parent.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "core/domain_descriptor.hpp"
#include "core/inference_backend.hpp"
#include "core/ood.hpp"
#include "core/test_time_model.hpp"
#include "hdc/hv_dataset.hpp"
#include "hdc/hv_matrix.hpp"
#include "hdc/onlinehd.hpp"

namespace smore {

/// SMORE hyperparameters.
struct SmoreConfig {
  double delta_star = 0.65;  ///< OOD threshold δ* (paper Fig. 5 optimum)
  OnlineHDConfig domain_model;  ///< per-domain OnlineHD training parameters
  WeightMode weight_mode = WeightMode::kStandardizedSoftmax;  ///< Eq. 3 variant
};

/// Per-query prediction detail (Algorithm 1 intermediate state), exposed for
/// analysis benches and the streaming example.
struct SmorePrediction {
  int label = -1;
  bool is_ood = false;
  double max_similarity = 0.0;            ///< δ_max
  std::vector<double> domain_similarity;  ///< δ(Q, U_k) for every k
  std::vector<double> weights;            ///< ensemble weights used
};

// SmoreEvaluation and SmoreBatchResult (the batched Algorithm 1 outputs)
// live in core/inference_backend.hpp with the backend interface they are the
// currency of.

/// The SMORE classifier.
class SmoreModel {
 public:
  /// Throws std::invalid_argument when num_classes <= 0 or dim == 0.
  SmoreModel(int num_classes, std::size_t dim, SmoreConfig config = {});

  // Move-only: a copy is made explicitly, with clone().
  SmoreModel(const SmoreModel&) = delete;
  SmoreModel& operator=(const SmoreModel&) = delete;
  SmoreModel(SmoreModel&&) = default;
  SmoreModel& operator=(SmoreModel&&) = default;

  [[nodiscard]] const SmoreConfig& config() const noexcept { return config_; }
  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Train domain-specific models and descriptors on the encoded training
  /// set. Requires at least one sample and at least one domain; the paper
  /// assumes K > 1 source domains but K = 1 degrades gracefully to plain
  /// OnlineHD. Returns per-domain final training accuracy.
  std::vector<double> fit(const HvDataset& train);

  /// Has fit() completed?
  [[nodiscard]] bool trained() const noexcept { return !models_.empty(); }

  /// Algorithm 1 for one encoded query.
  [[nodiscard]] SmorePrediction predict_detail(std::span<const float> hv) const;

  /// Predicted label only. Thin wrapper over a batch of one.
  [[nodiscard]] int predict(std::span<const float> hv) const;

  /// Algorithm 1 over a whole query block: descriptor similarities, OOD
  /// verdicts, and the ensembled argmax each run as one batched matrix-kernel
  /// pass instead of per-query loops.
  [[nodiscard]] std::vector<int> predict_batch(HvView queries) const;

  /// predict_batch plus every per-query intermediate Algorithm 1 exposes
  /// (OOD verdict, δ_max, ensemble weights) from the same single pass — what
  /// the serving layer fulfills responses from.
  [[nodiscard]] SmoreBatchResult predict_batch_full(HvView queries) const;

  /// Row-major [queries.rows × K] descriptor-similarity matrix δ(Q_i, U_k)
  /// (the input of OOD detection and ensemble weighting).
  [[nodiscard]] std::vector<double> similarities_batch(HvView queries) const;

  /// Accuracy and OOD rate of `data` in one batched pass.
  [[nodiscard]] SmoreEvaluation evaluate(const HvDataset& data) const;

  /// Fraction of `data` classified correctly (batched).
  [[nodiscard]] double accuracy(const HvDataset& data) const;

  /// Fraction of `data` flagged OOD (batched; paper's detector diagnostics).
  [[nodiscard]] double ood_rate(const HvDataset& data) const;

  /// Number of source domains K seen at fit time.
  [[nodiscard]] std::size_t num_domains() const noexcept {
    return models_.size();
  }

  /// Serving-state size in bytes: K·C per-domain class vectors plus K
  /// domain descriptors, all float — the float counterpart of
  /// BinarySmoreModel::footprint_bytes (footprint reports derive their
  /// float-vs-packed ratios from these two).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return models_.size() *
           (static_cast<std::size_t>(num_classes_) + 1) * dim_ *
           sizeof(float);
  }

  /// Domain-specific model M_k by position (ascending domain id).
  /// Untouched domain models are shared with the model this one was cloned
  /// from: the same object, not an equal copy.
  [[nodiscard]] const OnlineHDClassifier& domain_model(std::size_t k) const {
    return *models_.at(k);
  }

  /// The descriptor bank U.
  [[nodiscard]] const DomainDescriptorBank& descriptors() const noexcept {
    return descriptors_;
  }

  /// The lifecycle layer's metadata writes, forwarded to the bank (see
  /// DomainDescriptorBank). Structural changes go only through
  /// absorb_labeled/remove_domains, which keep the per-domain models aligned
  /// with the descriptors.
  void advance_round() noexcept { descriptors_.advance_round(); }
  void note_usage(int domain_id, double amount) {
    descriptors_.note_usage(domain_id, amount);
  }
  void decay_usage(double factor) { descriptors_.decay_usage(factor); }
  void note_merge(std::size_t k) { descriptors_.note_merge(k); }

  /// Evict the domains at `positions` (in any order): drops each descriptor
  /// AND its class bank together, so positions stay aligned, then rebuilds
  /// the evaluator once from the previous one's Gram entries (no dots).
  /// Survivors are untouched bit-for-bit. Throws before
  /// changing anything: std::logic_error when untrained or when this would
  /// evict every domain, std::out_of_range on a bad position,
  /// std::invalid_argument on a repeated one.
  void remove_domains(std::span<const std::size_t> positions);

  /// Adjust δ* after training (Fig. 5 sweeps this without refitting).
  void set_delta_star(double delta_star);

  /// Calibrate δ* from in-distribution data: sets the threshold at the
  /// `target_ood_rate` quantile of max-descriptor-similarity over
  /// `in_distribution` (e.g. 0.05 = flag the 5% least typical training
  /// samples), so the detector has a known false-positive budget — the
  /// standard way to pick an OOD threshold in deployment. Returns the chosen
  /// δ*. Throws std::logic_error before fit, std::invalid_argument for an
  /// empty set or a rate outside [0, 1].
  double calibrate_delta_star(const HvDataset& in_distribution,
                              double target_ood_rate = 0.05);

  /// Materialize the paper-literal test-time model for a query (used by
  /// equivalence tests and for inspection; predict() itself uses the
  /// Gram-accelerated path).
  [[nodiscard]] TestTimeModel materialize_test_time_model(
      std::span<const float> hv) const;

  /// Continual learning (the "Model Update" box of the paper's Fig. 2):
  /// absorb each row of `rows` with its label into the domain-specific model
  /// and descriptor of its domain id after fit(), creating both when a
  /// domain is new — the streaming complement to batch fit(). Rows are
  /// absorbed in order, each with the adaptive bootstrap rule (C += (1-δ)·H)
  /// plus one Eq.-2 refinement step. Only the domain models rows land in are
  /// copied and written; the Gram acceleration structures are rebuilt once,
  /// after the block, computing dots only for those models' rows and
  /// columns. Throws std::logic_error before fit(),
  /// std::invalid_argument on a size, label or dimension mismatch (before
  /// changing anything).
  void absorb_labeled(HvView rows, std::span<const int> labels,
                      std::span<const int> domain_ids);

  /// Serialize the trained model (config, per-domain models, descriptors);
  /// load() reconstructs a ready-to-predict model including the Gram
  /// acceleration structures. Throws std::logic_error when untrained,
  /// std::runtime_error on corrupt input — every header is checked against
  /// the util/serial.hpp caps and the enclosing shape before allocation.
  void save(std::ostream& out) const;
  static SmoreModel load(std::istream& in);

  /// Copy-on-write copy (SmoreModel is move-only; copying is deliberate and
  /// explicit): copies the descriptor bank and shares the immutable domain
  /// models and evaluator, so it costs K pointer copies plus the bank. The
  /// adaptation worker clones the live snapshot, mutates the clone (which
  /// copies only the domain models it touches), and publishes it — readers
  /// never observe a half-updated model. Throws std::logic_error when
  /// untrained.
  [[nodiscard]] SmoreModel clone() const;

 private:
  /// Batched Algorithm 1 core; fills `ood_flags` (one per query) and/or the
  /// non-label fields of `full` when non-null.
  [[nodiscard]] std::vector<int> predict_batch_impl(
      HvView queries, std::vector<std::uint8_t>* ood_flags,
      SmoreBatchResult* full) const;
  /// Rebuild the evaluator over models_. `previous` is models_ as the
  /// current evaluator saw it (empty: build from scratch); a model still
  /// held there is unchanged, so its Gram entries are reused. Holding the
  /// previous pointers keeps those objects alive, so the identity test never
  /// meets a reused address.
  void rebuild_evaluator(
      const std::vector<std::shared_ptr<const OnlineHDClassifier>>& previous);

  int num_classes_;
  std::size_t dim_;
  SmoreConfig config_;
  OodDetector detector_;
  // Immutable once published here: shared between clones, replaced (never
  // written) by a mutating call.
  std::vector<std::shared_ptr<const OnlineHDClassifier>> models_;
  DomainDescriptorBank descriptors_;
  // Rebuilt at the end of every call that changes models_; shared by clones.
  std::shared_ptr<const EnsembleEvaluator> evaluator_;
};

}  // namespace smore
