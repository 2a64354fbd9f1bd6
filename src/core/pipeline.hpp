#pragma once
// Pipeline: the deployable SMORE artifact (DESIGN.md §10).
//
// The paper's system (Fig. 2) is ONE pipeline — encode (Sec 3.3), per-domain
// train + descriptors (Sec 3.4–3.5), OOD-gated test-time ensembling
// (Sec 3.6) — but the layers underneath it are deliberately loose parts
// (encoders, SmoreModel, BinarySmoreModel) so benches and ablations can swap
// any one of them. A *deployment* needs the opposite: one object that owns
// everything a serving process must agree on — the encoder (config + seed,
// basis reconstructed deterministically), the trained model, the calibrated
// OOD threshold δ*, and optionally the sign-quantized packed model — and one
// file that round-trips all of it. That object is the Pipeline:
//
//   Pipeline p(encoder, num_classes);
//   p.fit(train_windows);        // encode + per-domain train + descriptors
//   p.calibrate(train_windows);  // δ* at a known false-positive budget
//   p.quantize();                // optional packed edge/serving backend
//   p.save("model.smore");       // ONE self-describing artifact
//   ...
//   Pipeline q = Pipeline::load("model.smore");   // fresh process, no
//   q.predict(window);                            // out-of-band state
//
// Artifact format (versioned, sectioned):
//   header:   magic u32 | format-version u32 | section-count u32
//   section:  id u32 | payload-length u64 | payload
//   sections: 1 = encoder (Encoder::save record, config+seed only)
//             2 = model   (SmoreModel::save record)
//             3 = packed  (BinarySmoreModel::save record, optional)
// Unknown section ids are skipped by length (forward compatibility); known
// sections are parsed by their own loaders and the consumed byte count is
// checked against the declared length, so a garbled length is rejected
// without ever allocating memory proportional to it.
//
// The low-level classes stay public — the Pipeline is a facade, not a wall.
// Serving wraps the Pipeline's models behind the InferenceBackend interface
// (core/inference_backend.hpp, adapters in src/serve/backend.hpp).

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/binary_smore.hpp"
#include "core/inference_backend.hpp"
#include "core/smore.hpp"
#include "data/timeseries.hpp"
#include "hdc/encoder_base.hpp"
#include "hdc/hv_dataset.hpp"

namespace smore {

/// Section ids of the `.smore` artifact (the format note above) — the ONE
/// numbering shared by save()/load()/probe() and ArtifactInfo::has_packed().
inline constexpr std::uint32_t kSectionEncoder = 1;
inline constexpr std::uint32_t kSectionModel = 2;
inline constexpr std::uint32_t kSectionPacked = 3;

/// One section of a probed `.smore` artifact (id + declared payload bytes).
struct ArtifactSection {
  std::uint32_t id = 0;
  std::uint64_t bytes = 0;
};

/// Cheap artifact metadata: what Pipeline::probe() learns from the header
/// and the section table alone — no model is deserialized, no allocation is
/// proportional to the file. The multi-tenant ModelRegistry uses this to
/// validate an artifact and size it for its memory budget before paying for
/// a full load (serve/registry.hpp); `payload_bytes` is the registry's
/// resident-cost proxy when nothing better is known.
struct ArtifactInfo {
  std::uint32_t format_version = 0;
  std::vector<ArtifactSection> sections;
  std::uint64_t payload_bytes = 0;  ///< sum of declared section payloads

  [[nodiscard]] bool has_section(std::uint32_t id) const noexcept {
    for (const ArtifactSection& s : sections) {
      if (s.id == id) return true;
    }
    return false;
  }
  /// True when the artifact carries a packed (quantized) model section.
  [[nodiscard]] bool has_packed() const noexcept {
    return has_section(kSectionPacked);
  }
};

/// The end-to-end SMORE pipeline: encoder + model + calibration (+ packed).
/// Move-only; the encoder is shared (serving snapshots alias it).
class Pipeline {
 public:
  /// `encoder` must be non-null; `num_classes` positive. The model is
  /// created untrained with the encoder's dimension. Throws
  /// std::invalid_argument otherwise.
  Pipeline(std::shared_ptr<const Encoder> encoder, int num_classes,
           SmoreConfig config = {});

  Pipeline(Pipeline&&) noexcept = default;
  Pipeline& operator=(Pipeline&&) noexcept = default;

  /// Encode `train` and fit the SMORE model (per-domain OnlineHD models +
  /// descriptors). Drops any previously quantized packed model — it would
  /// describe the old weights. Returns per-domain final training accuracy.
  std::vector<double> fit(const WindowDataset& train);

  /// Fit from an already-encoded dataset — the shared-encoding escape hatch
  /// for callers that encode once and train many models over it (LODO folds,
  /// algorithm comparisons). The rows MUST come from this pipeline's own
  /// encoder (typically via encode()); the pipeline cannot verify provenance
  /// beyond the dimension, and an artifact fit on foreign encodings will
  /// mispredict after load. Same contract as fit() otherwise.
  std::vector<double> fit_encoded(const HvDataset& train);

  /// Calibrate δ* so that `target_ood_rate` of `in_distribution` windows are
  /// flagged (a known false-positive budget; see
  /// SmoreModel::calibrate_delta_star). Calibrates the packed model too when
  /// present — Hamming similarities live on their own scale, so the
  /// canonical order is quantize() THEN calibrate(). Returns the float δ*.
  double calibrate(const WindowDataset& in_distribution,
                   double target_ood_rate = 0.05);

  /// Sign-quantize the trained model into the packed binary backend
  /// (replaces any previous quantization). The fresh packed model inherits
  /// the float (cosine-scale) δ*; if calibrate() had already run, that
  /// calibration does NOT transfer to the Hamming scale — the pipeline is
  /// then marked packed-calibration-stale, and save() / serving snapshots
  /// refuse it until calibrate() runs again. Throws std::logic_error before
  /// fit().
  void quantize();

  /// True when quantize() discarded an earlier calibration: the packed δ*
  /// is the cosine-scale float value, not a Hamming-scale quantile. Cleared
  /// by calibrate().
  [[nodiscard]] bool packed_calibration_stale() const noexcept {
    return packed_calibration_stale_;
  }

  [[nodiscard]] bool trained() const noexcept { return model_->trained(); }
  [[nodiscard]] bool quantized() const noexcept { return packed_ != nullptr; }

  /// Classify one raw window (encode + Algorithm 1, float backend).
  [[nodiscard]] int predict(const Window& window) const;

  /// Per-query Algorithm 1 detail for one raw window (float backend).
  [[nodiscard]] SmorePrediction predict_detail(const Window& window) const;

  /// Classify a window block: one encode_batch + one batched Algorithm 1
  /// pass on the selected backend.
  [[nodiscard]] std::vector<int> predict_batch(
      const WindowDataset& windows,
      ServeBackend backend = ServeBackend::kFloat) const;

  /// predict_batch plus every per-query intermediate, on the selected
  /// backend. Throws std::logic_error for kPacked before quantize().
  [[nodiscard]] SmoreBatchResult predict_batch_full(
      const WindowDataset& windows,
      ServeBackend backend = ServeBackend::kFloat) const;

  /// Accuracy + OOD rate against the windows' own labels, on the selected
  /// backend.
  [[nodiscard]] SmoreEvaluation evaluate(
      const WindowDataset& windows,
      ServeBackend backend = ServeBackend::kFloat) const;

  /// Encode windows with the pipeline's encoder (labels/domains carried
  /// through) — the escape hatch to the batch-first encoded-domain APIs.
  [[nodiscard]] HvDataset encode(const WindowDataset& windows) const;

  /// Serialize the whole artifact (see the format note above). Throws
  /// std::logic_error when untrained.
  void save(std::ostream& out) const;
  void save(const std::string& path) const;

  /// Reconstruct an artifact written by save(): encoder (basis rebuilt from
  /// config+seed), model, δ*, and the packed model when present. Throws
  /// std::runtime_error on corrupt input.
  static Pipeline load(std::istream& in);
  static Pipeline load(const std::string& path);

  /// Walk the header and section table WITHOUT parsing any payload: the
  /// cheap open used by lazy loaders (the registry's cold-tenant path) to
  /// reject a corrupt artifact and learn its size before committing to a
  /// full deserialization. Validates magic/version, the section count, each
  /// declared length against the actual bytes present, and the
  /// no-trailing-bytes rule — the same structural checks as load(), minus
  /// the section parsers. Throws std::runtime_error on corrupt input.
  static ArtifactInfo probe(std::istream& in);
  static ArtifactInfo probe(const std::string& path);

  [[nodiscard]] const Encoder& encoder() const noexcept { return *encoder_; }
  [[nodiscard]] std::shared_ptr<const Encoder> encoder_ptr() const noexcept {
    return encoder_;
  }
  /// The float model (writable for post-load tweaks: set_delta_star,
  /// absorb_labeled). After mutating, call quantize() again before save() —
  /// the packed model is NOT auto-refreshed, and save() rejects the one
  /// staleness it can detect (a domain-count mismatch).
  [[nodiscard]] const SmoreModel& model() const noexcept { return *model_; }
  [[nodiscard]] SmoreModel& model() noexcept { return *model_; }
  /// The packed model, or nullptr before quantize().
  [[nodiscard]] const BinarySmoreModel* packed() const noexcept {
    return packed_.get();
  }

  [[nodiscard]] std::size_t dim() const noexcept { return encoder_->dim(); }
  [[nodiscard]] int num_classes() const noexcept {
    return model_->num_classes();
  }
  [[nodiscard]] std::size_t num_domains() const noexcept {
    return model_->num_domains();
  }

 private:
  Pipeline() = default;  // load() assembles the state section by section

  void require_trained(const char* what) const;

  std::shared_ptr<const Encoder> encoder_;
  std::unique_ptr<SmoreModel> model_;
  std::unique_ptr<BinarySmoreModel> packed_;
  bool calibrated_ = false;  // calibrate() has run since the last fit
  bool packed_calibration_stale_ = false;  // see packed_calibration_stale()
};

}  // namespace smore
