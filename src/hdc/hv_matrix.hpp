#pragma once
// HvView / HvMatrix: contiguous row-major blocks of hypervectors.
//
// The batched similarity engine (ops::similarity_matrix and the *_batch APIs
// built on it) operates on [rows × dim] float blocks rather than individual
// hypervectors. HvView is the non-owning currency every batch API accepts —
// an HvDataset, an HvMatrix, or a single hypervector (batch of one) all
// convert to it for free. HvMatrix owns such a block; classifiers store their
// prototypes (class vectors, domain descriptors) in one, so one matrix
// kernel replaces a loop of per-vector dots.

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace smore {

/// Non-owning view over a row-major [rows × dim] block of floats. The
/// pointed-to storage must outlive the view. A dimension-consistent span is a
/// precondition, not a runtime check: views are built by the owning
/// containers below, whose layout is an invariant.
struct HvView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t dim = 0;

  HvView() = default;
  HvView(const float* data_, std::size_t rows_, std::size_t dim_) noexcept
      : data(data_), rows(rows_), dim(dim_) {}

  /// Batch-of-one view over a raw hypervector span.
  explicit HvView(std::span<const float> hv) noexcept
      : data(hv.data()), rows(hv.empty() ? 0 : 1), dim(hv.size()) {}

  [[nodiscard]] bool empty() const noexcept { return rows == 0; }

  [[nodiscard]] std::span<const float> row(std::size_t i) const noexcept {
    return {data + i * dim, dim};
  }

  /// Rows [first, first + count) as a sub-view (used for tiling).
  [[nodiscard]] HvView slice(std::size_t first, std::size_t count) const noexcept {
    return {data + first * dim, count, dim};
  }
};

/// Owning contiguous row-major [rows × dim] hypervector block.
class HvMatrix {
 public:
  HvMatrix() = default;

  /// Zero-initialized block.
  HvMatrix(std::size_t rows, std::size_t dim)
      : rows_(rows), dim_(dim), data_(rows * dim, 0.0f) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }

  /// Re-shape to a zero-filled [rows × dim] block (the batch-encode output
  /// contract: encoders accumulate into freshly zeroed rows).
  void resize(std::size_t rows, std::size_t dim) {
    rows_ = rows;
    dim_ = dim;
    data_.assign(rows * dim, 0.0f);
  }

  /// Insert a zero row before row i (i == rows() appends).
  void insert_row(std::size_t i) {
    data_.insert(data_.begin() + static_cast<std::ptrdiff_t>(i * dim_), dim_,
                 0.0f);
    ++rows_;
  }

  /// Remove row i; the rows after it move up by one.
  void erase_row(std::size_t i) {
    const auto first = data_.begin() + static_cast<std::ptrdiff_t>(i * dim_);
    data_.erase(first, first + static_cast<std::ptrdiff_t>(dim_));
    --rows_;
  }

  /// Move the backing storage out (the matrix becomes empty). Lets HvDataset
  /// adopt a batch-encode result without copying rows.
  [[nodiscard]] std::vector<float> release() noexcept {
    rows_ = 0;
    dim_ = 0;
    return std::move(data_);
  }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }

  [[nodiscard]] std::span<float> row(std::size_t i) noexcept {
    return {data_.data() + i * dim_, dim_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t i) const noexcept {
    return {data_.data() + i * dim_, dim_};
  }
  /// Row i, bounds-checked: throws std::out_of_range.
  [[nodiscard]] std::span<const float> at(std::size_t i) const {
    if (i >= rows_) throw std::out_of_range("HvMatrix::at: bad row");
    return row(i);
  }

  /// Overwrite row i. Throws std::invalid_argument on dimension mismatch.
  void set_row(std::size_t i, std::span<const float> hv) {
    if (hv.size() != dim_) {
      throw std::invalid_argument("HvMatrix::set_row: dimension mismatch");
    }
    std::copy(hv.begin(), hv.end(), data_.data() + i * dim_);
  }

  [[nodiscard]] HvView view() const noexcept { return {data_.data(), rows_, dim_}; }

 private:
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  std::vector<float> data_;
};

}  // namespace smore
