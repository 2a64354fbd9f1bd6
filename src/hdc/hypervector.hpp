#pragma once
// Hypervector: the basic value type of the HDC layer (Sec 3.1 of the paper).
//
// A hypervector is a dense real-valued vector of (typically thousands of)
// elements. Random base hypervectors are bipolar (+1/-1); bundling accumulates
// arbitrary reals, so the element type is float throughout.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hdc/ops.hpp"
#include "util/rng.hpp"

namespace smore {

/// Dense real-valued hypervector supporting the four canonical HDC
/// operations: bundling (+), binding (*), permutation (ρ), and cosine
/// similarity (δ). Dimensional agreement between operands is an invariant;
/// mixed-dimension arithmetic throws std::invalid_argument.
class Hypervector {
 public:
  /// An empty (dimension-0) hypervector; useful as a placeholder.
  Hypervector() = default;

  /// Zero hypervector of the given dimension.
  explicit Hypervector(std::size_t dim) : v_(dim, 0.0f) {}

  /// Take ownership of raw values.
  explicit Hypervector(std::vector<float> values) : v_(std::move(values)) {}

  /// Copy of a row view (e.g. a class vector or descriptor of a model).
  explicit Hypervector(std::span<const float> values)
      : v_(values.begin(), values.end()) {}

  /// Random bipolar (+1/-1) hypervector: the paper's "randomly generated
  /// hypervector". Two random bipolar hypervectors of the same (large)
  /// dimension are nearly orthogonal with overwhelming probability.
  static Hypervector random_bipolar(std::size_t dim, Rng& rng) {
    std::vector<float> v(dim);
    for (auto& x : v) x = rng.bipolar();
    return Hypervector(std::move(v));
  }

  /// Random Gaussian hypervector (used by projection-style encoders).
  static Hypervector random_gaussian(std::size_t dim, Rng& rng) {
    std::vector<float> v(dim);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    return Hypervector(std::move(v));
  }

  [[nodiscard]] std::size_t dim() const noexcept { return v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }

  [[nodiscard]] float* data() noexcept { return v_.data(); }
  [[nodiscard]] const float* data() const noexcept { return v_.data(); }
  [[nodiscard]] std::span<const float> span() const noexcept { return v_; }
  [[nodiscard]] std::span<float> span() noexcept { return v_; }

  float& operator[](std::size_t i) noexcept { return v_[i]; }
  float operator[](std::size_t i) const noexcept { return v_[i]; }

  /// Bundling: element-wise accumulation.
  Hypervector& operator+=(const Hypervector& other) {
    check_same_dim(other);
    ops::axpy(1.0f, other.data(), data(), dim());
    return *this;
  }

  Hypervector& operator-=(const Hypervector& other) {
    check_same_dim(other);
    ops::axpy(-1.0f, other.data(), data(), dim());
    return *this;
  }

  /// Binding: element-wise multiplication.
  Hypervector& operator*=(const Hypervector& other) {
    check_same_dim(other);
    ops::hadamard_inplace(other.data(), data(), dim());
    return *this;
  }

  Hypervector& operator*=(float scalar) noexcept {
    ops::scale(scalar, data(), dim());
    return *this;
  }

  /// this += alpha * other (the classifier update primitive, Eq. 2).
  void add_scaled(const Hypervector& other, float alpha) {
    check_same_dim(other);
    ops::axpy(alpha, other.data(), data(), dim());
  }

  /// Euclidean norm.
  [[nodiscard]] double norm() const noexcept { return ops::nrm2(data(), dim()); }

  /// Scale to unit norm; a zero vector stays zero.
  void normalize() noexcept {
    const double n = norm();
    if (n > 0.0) ops::scale(static_cast<float>(1.0 / n), data(), dim());
  }

  /// Set every element to zero.
  void clear() noexcept {
    for (auto& x : v_) x = 0.0f;
  }

  friend Hypervector operator+(Hypervector a, const Hypervector& b) {
    a += b;
    return a;
  }
  friend Hypervector operator-(Hypervector a, const Hypervector& b) {
    a -= b;
    return a;
  }
  friend Hypervector operator*(Hypervector a, const Hypervector& b) {
    a *= b;
    return a;
  }
  friend Hypervector operator*(Hypervector a, float s) {
    a *= s;
    return a;
  }
  friend Hypervector operator*(float s, Hypervector a) {
    a *= s;
    return a;
  }

  friend bool operator==(const Hypervector& a, const Hypervector& b) {
    return a.v_ == b.v_;
  }

 private:
  void check_same_dim(const Hypervector& other) const {
    if (dim() != other.dim()) {
      throw std::invalid_argument(
          "Hypervector: dimension mismatch (" + std::to_string(dim()) +
          " vs " + std::to_string(other.dim()) + ")");
    }
  }

  std::vector<float> v_;
};

/// Cosine similarity δ(a, b). Returns 0 for zero vectors.
/// Throws std::invalid_argument on dimension mismatch.
inline double cosine_similarity(const Hypervector& a, const Hypervector& b) {
  if (a.dim() != b.dim()) {
    throw std::invalid_argument("cosine_similarity: dimension mismatch");
  }
  return ops::cosine(a.data(), b.data(), a.dim());
}

/// Permutation ρ^k: circular shift by k positions (Sec 3.1). ρ moves the last
/// element to the front, so element i goes to (i + k) mod dim.
inline Hypervector permute(const Hypervector& h, std::size_t k = 1) {
  Hypervector out(h.dim());
  if (h.dim() != 0) ops::rotate(h.data(), h.dim(), k, out.data());
  return out;
}

/// Bind two hypervectors: H_bind = a * b (element-wise).
inline Hypervector bind(const Hypervector& a, const Hypervector& b) {
  Hypervector out = a;
  out *= b;
  return out;
}

/// Bundle a set of hypervectors: Σ_i hs[i].
/// Throws std::invalid_argument when `hs` is empty or dimensions disagree.
inline Hypervector bundle(std::span<const Hypervector> hs) {
  if (hs.empty()) {
    throw std::invalid_argument("bundle: empty input");
  }
  Hypervector out(hs.front().dim());
  for (const auto& h : hs) out += h;
  return out;
}

}  // namespace smore
