#pragma once
// Domain descriptors (paper Sec 3.5.1) + lifecycle state (DESIGN.md §13).
//
// For each source domain k, the descriptor U_k = Σ_i H_i^k bundles every
// encoded training sample of the domain. By the bundling property (Sec 3.1),
// U_k stays cosine-similar to the samples that contributed to it and nearly
// orthogonal to samples that did not — which is exactly what the OOD detector
// and the test-time ensembling weights need.
//
// Under continual adaptation a descriptor is not built once: it is bundled
// into on every merge, forever. The bank therefore keeps each U_k as a
// wide-counter accumulator (hdc/wide_counter.hpp) — double-precision master,
// float mirror for the similarity kernels — so repeated bundling stays exact
// instead of saturating float accumulation, plus per-domain lifecycle
// metadata (usage, rounds, merges) that the eviction policy scores. The
// float mirrors form one [K × dim] HvMatrix, the block the similarity kernel
// reads, with squared norms refreshed whenever a row is rewritten.

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

/// Per-domain lifecycle bookkeeping (DESIGN.md §13). Rounds are ticks of the
/// bank's own clock (advance_round()), not wall time, so the state is
/// deterministic and serializes with the model.
struct DomainMeta {
  std::uint64_t enrolled_round = 0;   ///< bank clock when first absorbed
  std::uint64_t last_used_round = 0;  ///< bank clock at last usage credit
  std::uint64_t merge_count = 0;      ///< lifecycle merges bundled into U_k
  double usage = 0.0;                 ///< decayed served-query credit
};

/// The bank of K domain descriptors, built during training and mutated by
/// the adaptation lifecycle (absorb/merge/remove).
///
/// Concurrency: const methods only read, so a bank may be shared across any
/// number of reader threads with no preparation step. Mutations
/// (absorb/remove/usage updates) need exclusive access.
class DomainDescriptorBank {
 public:
  DomainDescriptorBank() = default;

  /// Bundle the rows of `train` into one descriptor per distinct domain id
  /// (ascending id order). Throws std::invalid_argument when `train` is empty.
  explicit DomainDescriptorBank(const HvDataset& train);

  /// Number of domains K.
  [[nodiscard]] std::size_t size() const noexcept { return descriptors_.rows(); }
  [[nodiscard]] bool empty() const noexcept { return descriptors_.empty(); }
  [[nodiscard]] std::size_t dim() const noexcept {
    return empty() ? 0 : descriptors_.dim();
  }

  /// Descriptor U_k by position (not domain id) — row k of the float mirror
  /// of the wide-counter masters, always in sync. Throws std::out_of_range
  /// on a bad position.
  [[nodiscard]] std::span<const float> descriptor(std::size_t k) const {
    return descriptors_.at(k);
  }

  /// Original domain id of position k (LODO training sets have a hole in the
  /// id range, so positions and ids can differ).
  [[nodiscard]] int domain_id(std::size_t k) const { return ids_.at(k); }
  [[nodiscard]] const std::vector<int>& domain_ids() const noexcept {
    return ids_;
  }

  /// Number of samples bundled into descriptor k.
  [[nodiscard]] std::size_t sample_count(std::size_t k) const {
    return counts_.at(k);
  }

  /// Lifecycle metadata of descriptor k.
  [[nodiscard]] const DomainMeta& meta(std::size_t k) const {
    return meta_.at(k);
  }

  /// The bank's lifecycle clock (number of advance_round() calls).
  [[nodiscard]] std::uint64_t clock() const noexcept { return clock_; }

  /// Smallest id strictly above every id EVER enrolled — monotone across
  /// evictions, so a fresh pseudo-domain never aliases a dead one's usage
  /// history.
  [[nodiscard]] int next_domain_id() const noexcept { return next_id_; }

  /// δ(query, U_k) for every k. Thin wrapper over a batch of one.
  [[nodiscard]] std::vector<double> similarities(
      std::span<const float> query) const;

  /// Row-major [queries.rows × K] matrix of δ(Q_i, U_k): one blocked matrix
  /// kernel over the descriptor matrix instead of a per-query loop.
  [[nodiscard]] std::vector<double> similarities_batch(HvView queries) const;

  /// Incremental construction (streaming/adaptation use cases): bundle row i
  /// of `rows` into the descriptor of `domain_ids[i]`, creating descriptors
  /// for new ids (kept sorted by id); each touched row is refreshed once.
  /// Throws std::invalid_argument on a row/id count or dimension mismatch.
  void absorb(HvView rows, std::span<const int> domain_ids);

  /// One-sample form of absorb.
  void absorb(std::span<const float> hv, int domain_id) {
    absorb(HvView(hv), std::span<const int>(&domain_id, 1));
  }

  /// Drop the descriptors at `positions` (not ids, any order) — the evict
  /// half of the lifecycle. Survivors are untouched bit-for-bit; the caller
  /// must drop the matching class banks itself (SmoreModel::remove_domains
  /// does both). Throws std::out_of_range on a bad position and
  /// std::invalid_argument on a repeated one, before removing anything.
  void remove(std::span<const std::size_t> positions);

  /// Credit served queries to the domain with this id (no-op for unknown
  /// ids — the domain may have been evicted since the batch was scored).
  /// Also stamps last_used_round with the current clock.
  void note_usage(int domain_id, double amount);

  /// Record a lifecycle merge into descriptor k (position).
  void note_merge(std::size_t k);

  /// Multiply every usage score by `factor` (exponential forgetting — recent
  /// traffic outweighs history when the eviction policy ranks domains).
  void decay_usage(double factor);

  /// Tick the lifecycle clock (once per adaptation round).
  void advance_round() noexcept { ++clock_; }

  /// Binary serialization: versioned record with ids, sample counts,
  /// lifecycle metadata and the DOUBLE wide-counter masters (the float
  /// mirrors are derived state). Format is stable within a library version.
  void save(std::ostream& out) const;
  /// Throws std::runtime_error on a corrupt or truncated record. Before
  /// allocating, the header is checked against the util/serial.hpp caps and,
  /// where nonzero, `expect_domains` / `expect_dim` (an enclosing shape).
  static DomainDescriptorBank load(std::istream& in,
                                   std::size_t expect_domains = 0,
                                   std::size_t expect_dim = 0);

 private:
  /// Position of `domain_id`, inserting an empty descriptor (sorted by id)
  /// when new.
  std::size_t locate_or_create(int domain_id, std::size_t dim);
  /// Re-materialize mirror row k from its double master and refresh its
  /// squared norm.
  void refresh(std::size_t k);

  HvMatrix descriptors_;                // float mirror [K × d] (query plane)
  std::vector<double> norms_sq_;        // ‖U_k‖², refreshed with each row
  std::vector<WideAccumulator> accum_;  // double masters (update plane)
  std::vector<int> ids_;
  std::vector<std::size_t> counts_;
  std::vector<DomainMeta> meta_;
  std::uint64_t clock_ = 0;
  int next_id_ = 0;
};

}  // namespace smore
