#pragma once
// InferenceBackend: the backend-agnostic inference interface (DESIGN.md §10).
//
// SMORE ships in two serving representations — the float SmoreModel (cosine
// ensembling) and the packed BinarySmoreModel (XOR+popcount Hamming
// ensembling) — that answer the same question: run Algorithm 1 over a query
// block and return every per-query intermediate. Consumers that only *serve*
// (the micro-batching server, the evaluation harness, deployment tooling)
// must not care which representation is underneath; this interface is the
// one seam they talk through. Concrete adapters over the two model types
// live in src/serve/backend.hpp — nothing outside those two adapters names
// a concrete backend.
//
// The interface is deliberately small: one batched predict (the serving
// currency), plus the three introspection calls deployment reports need
// (footprint, dimension, domain count). Training, calibration, and continual
// updates stay on the concrete types — backends are read-only serving views.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hdc/hv_matrix.hpp"

namespace smore {

/// Which serving representation answers queries.
enum class ServeBackend {
  kFloat,   ///< SmoreModel cosine ensembling
  kPacked,  ///< BinarySmoreModel XOR+popcount Hamming ensembling
};

/// Batched evaluation summary: accuracy and OOD rate from one pass of the
/// matrix kernels (the two metrics share the descriptor-similarity matrix,
/// which separate accuracy()/ood_rate() calls would compute twice).
struct SmoreEvaluation {
  double accuracy = 0.0;
  double ood_rate = 0.0;
};

/// Full per-query output of one batched Algorithm 1 pass — the result
/// currency of the backend interface (every field a ServeResult carries
/// comes from here, for the float and the packed backend alike).
struct SmoreBatchResult {
  std::vector<int> labels;             ///< [n] predicted class per query
  std::vector<std::uint8_t> ood;       ///< [n] 1 = flagged OOD (step E)
  std::vector<double> max_similarity;  ///< [n] δ_max per query
  std::vector<double> weights;         ///< [n × K] ensemble weights (step F)
  std::size_t num_domains = 0;         ///< K (row stride of `weights`)
};

/// Abstract read-only serving view of a trained SMORE model. All methods are
/// const and data-race-free — const methods of both model types only read
/// (DESIGN.md §9) — so a backend can be shared across any number of threads.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  /// Algorithm 1 over a float query block: labels, OOD verdicts, δ_max, and
  /// ensemble weights in one batched pass. Packed implementations quantize
  /// the block internally.
  [[nodiscard]] virtual SmoreBatchResult predict_batch_full(
      HvView queries) const = 0;

  /// Serving-state size in bytes (descriptors + class banks in the backend's
  /// own representation).
  [[nodiscard]] virtual std::size_t footprint_bytes() const noexcept = 0;

  /// Hyperdimensional size d of the queries this backend accepts.
  [[nodiscard]] virtual std::size_t dim() const noexcept = 0;

  /// Number of source domains K.
  [[nodiscard]] virtual std::size_t num_domains() const noexcept = 0;

  /// Which representation this is (reports/labels only — never branch on it
  /// at a call site; that is what the virtual calls are for).
  [[nodiscard]] virtual ServeBackend kind() const noexcept = 0;

  /// Short display name ("float" / "packed").
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

}  // namespace smore
