#pragma once
// Fixture: INV-F must fire — a const query that repacks a lazily rebuilt
// cache through mutable members, so concurrent readers race on the rebuild.
#include <cstddef>
#include <vector>

namespace smore {

class LazyBank {
 public:
  void add(float v) {
    values_.push_back(v);
    stale_ = true;
  }

  [[nodiscard]] double sum() const {
    if (stale_) {
      cached_sum_ = 0.0;
      for (const float v : values_) cached_sum_ += v;
      stale_ = false;
    }
    return cached_sum_;
  }

 private:
  std::vector<float> values_;
  mutable double cached_sum_ = 0.0;
  mutable bool stale_ = true;
};

}  // namespace smore
