#pragma once
// The two InferenceBackend adapters (DESIGN.md §10).
//
// These are the ONLY places in the serving and evaluation layers that name a
// concrete backend: everything else — the micro-batching server, the
// snapshot registry, the evaluation harness, the deployment examples —
// holds a `shared_ptr<const InferenceBackend>` and calls through the
// interface. Adding a third representation (e.g. an int8 model) means
// writing one more adapter here and touching nothing else.
//
// Adapters share ownership of their model: a serving snapshot and the
// adaptation worker can alias the same immutable float model without any
// lifetime choreography.

#include <memory>

#include "core/binary_smore.hpp"
#include "core/inference_backend.hpp"
#include "core/smore.hpp"

namespace smore {

class Pipeline;

/// Float SmoreModel (cosine ensembling) behind the backend interface.
class FloatBackend final : public InferenceBackend {
 public:
  /// `model` must be non-null and trained. Throws std::invalid_argument on
  /// nullptr, std::logic_error when untrained.
  explicit FloatBackend(std::shared_ptr<const SmoreModel> model);

  [[nodiscard]] SmoreBatchResult predict_batch_full(
      HvView queries) const override;
  [[nodiscard]] std::size_t footprint_bytes() const noexcept override;
  [[nodiscard]] std::size_t dim() const noexcept override;
  [[nodiscard]] std::size_t num_domains() const noexcept override;
  [[nodiscard]] ServeBackend kind() const noexcept override;
  [[nodiscard]] const char* name() const noexcept override;

 private:
  std::shared_ptr<const SmoreModel> model_;
};

/// Packed BinarySmoreModel (XOR+popcount Hamming ensembling) behind the
/// backend interface. Queries are float blocks; quantization happens inside
/// the packed model's batched kernels.
class PackedBackend final : public InferenceBackend {
 public:
  /// Throws std::invalid_argument on nullptr.
  explicit PackedBackend(std::shared_ptr<const BinarySmoreModel> model);

  [[nodiscard]] SmoreBatchResult predict_batch_full(
      HvView queries) const override;
  [[nodiscard]] std::size_t footprint_bytes() const noexcept override;
  [[nodiscard]] std::size_t dim() const noexcept override;
  [[nodiscard]] std::size_t num_domains() const noexcept override;
  [[nodiscard]] ServeBackend kind() const noexcept override;
  [[nodiscard]] const char* name() const noexcept override;

 private:
  std::shared_ptr<const BinarySmoreModel> model_;
};

/// The snapshot rule: serve the packed model when one is present, the float
/// model otherwise. `model` must be non-null.
[[nodiscard]] std::shared_ptr<const InferenceBackend> make_serving_backend(
    std::shared_ptr<const SmoreModel> model,
    std::shared_ptr<const BinarySmoreModel> packed);

}  // namespace smore
