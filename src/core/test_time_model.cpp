#include "core/test_time_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace smore {

std::vector<double> ensemble_weights(std::span<const double> similarities,
                                     double delta_star, bool is_ood,
                                     WeightMode mode) {
  std::vector<double> w(similarities.begin(), similarities.end());

  // Algorithm 1 lines 5-6: in-distribution queries drop dissimilar domains.
  if (!is_ood) {
    for (auto& x : w) {
      if (x < delta_star) x = 0.0;
    }
  }

  switch (mode) {
    case WeightMode::kStandardizedSoftmax: {
      // z-score across domains, then exponentiate: scale-free contrast.
      // Dropped (gated) domains keep weight 0 and are excluded from the
      // statistics.
      double sum = 0.0;
      double sum_sq = 0.0;
      int live = 0;
      for (std::size_t k = 0; k < w.size(); ++k) {
        if (!is_ood && similarities[k] < delta_star) continue;
        sum += similarities[k];
        sum_sq += similarities[k] * similarities[k];
        ++live;
      }
      if (live == 0) break;  // degenerate; handled by the uniform fallback
      const double mean = sum / live;
      const double var = std::max(0.0, sum_sq / live - mean * mean);
      const double sd = std::sqrt(var);
      for (std::size_t k = 0; k < w.size(); ++k) {
        if (!is_ood && similarities[k] < delta_star) {
          w[k] = 0.0;
          continue;
        }
        const double z =
            sd > 1e-12 ? std::clamp((similarities[k] - mean) / sd, -4.0, 4.0)
                       : 0.0;
        w[k] = std::exp(0.5 * z);
      }
      break;
    }
    case WeightMode::kRawSimilarity:
      break;
    case WeightMode::kClampedSimilarity:
      for (auto& x : w) x = std::max(x, 0.0);
      break;
    case WeightMode::kSoftmax: {
      constexpr double kTau = 0.1;
      double max_w = -2.0;
      for (std::size_t k = 0; k < w.size(); ++k) {
        // Dropped domains must stay dropped: mark with -inf before softmax.
        if (!is_ood && similarities[k] < delta_star) {
          w[k] = -std::numeric_limits<double>::infinity();
        } else {
          w[k] = similarities[k];
          max_w = std::max(max_w, w[k]);
        }
      }
      double sum = 0.0;
      for (auto& x : w) {
        x = std::isinf(x) ? 0.0 : std::exp((x - max_w) / kTau);
        sum += x;
      }
      if (sum > 0.0) {
        for (auto& x : w) x /= sum;
      }
      break;
    }
    case WeightMode::kTopOne: {
      std::size_t best = 0;
      for (std::size_t k = 1; k < similarities.size(); ++k) {
        if (similarities[k] > similarities[best]) best = k;
      }
      for (std::size_t k = 0; k < w.size(); ++k) w[k] = (k == best) ? 1.0 : 0.0;
      break;
    }
  }

  // Degenerate all-zero weights (e.g., every similarity negative under
  // clamping): fall back to a uniform ensemble so M_T stays well-defined.
  double total = 0.0;
  for (const double x : w) total += std::abs(x);
  if (total == 0.0) {
    for (auto& x : w) x = 1.0;
  }
  return w;
}

TestTimeModel::TestTimeModel(std::span<const OnlineHDClassifier* const> models,
                             std::span<const double> weights) {
  if (models.empty() || models.size() != weights.size()) {
    throw std::invalid_argument("TestTimeModel: model/weight arity mismatch");
  }
  const int n = models.front()->num_classes();
  const std::size_t d = models.front()->dim();
  for (const auto* m : models) {
    if (m->num_classes() != n || m->dim() != d) {
      throw std::invalid_argument("TestTimeModel: heterogeneous models");
    }
  }
  classes_.assign(static_cast<std::size_t>(n), Hypervector(d));
  for (int c = 0; c < n; ++c) {
    Hypervector& out = classes_[static_cast<std::size_t>(c)];
    for (std::size_t k = 0; k < models.size(); ++k) {
      ops::axpy(static_cast<float>(weights[k]),
                models[k]->class_vector(c).data(), out.data(), d);
    }
  }
}

int TestTimeModel::predict(std::span<const float> hv) const {
  int best = 0;
  double best_sim = -2.0;
  for (int c = 0; c < num_classes(); ++c) {
    const auto& cls = classes_[static_cast<std::size_t>(c)];
    if (hv.size() != cls.dim()) {
      throw std::invalid_argument("TestTimeModel::predict: dim mismatch");
    }
    const double s = ops::cosine(hv.data(), cls.data(), cls.dim());
    if (s > best_sim) {
      best_sim = s;
      best = c;
    }
  }
  return best;
}

EnsembleEvaluator::EnsembleEvaluator(
    const std::vector<const OnlineHDClassifier*>& models,
    const EnsembleEvaluator* previous,
    std::span<const std::size_t> previous_position)
    : num_models_(models.size()) {
  if (models.empty()) {
    throw std::invalid_argument("EnsembleEvaluator: no models");
  }
  num_classes_ = models.front()->num_classes();
  dim_ = models.front()->dim();
  for (const auto* m : models) {
    if (m == nullptr || m->num_classes() != num_classes_ || m->dim() != dim_) {
      throw std::invalid_argument("EnsembleEvaluator: heterogeneous models");
    }
  }
  const std::size_t k = num_models_;
  if (previous != nullptr) {
    if (previous_position.size() != k ||
        previous->num_classes_ != num_classes_ || previous->dim_ != dim_) {
      throw std::invalid_argument("EnsembleEvaluator: previous arity mismatch");
    }
    for (const std::size_t p : previous_position) {
      if (p != kChanged && p >= previous->num_models_) {
        throw std::invalid_argument(
            "EnsembleEvaluator: previous position out of range");
      }
    }
  }
  const auto reused = [&](std::size_t i) {
    return previous != nullptr && previous_position[i] != kChanged;
  };
  gram_.assign(static_cast<std::size_t>(num_classes_),
               std::vector<double>(k * k, 0.0));
  for (int c = 0; c < num_classes_; ++c) {
    auto& g = gram_[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i; j < k; ++j) {
        const double v =
            reused(i) && reused(j)
                ? previous->gram_[static_cast<std::size_t>(c)]
                                 [previous_position[i] * previous->num_models_ +
                                  previous_position[j]]
                : ops::dot(models[i]->class_vector(c).data(),
                           models[j]->class_vector(c).data(), dim_);
        g[i * k + j] = v;
        g[j * k + i] = v;
      }
    }
  }
  // Pack every class vector of every model contiguously (row c·K + k) so the
  // batched path computes all K·n dots of a query block with one kernel.
  packed_ = HvMatrix(static_cast<std::size_t>(num_classes_) * k, dim_);
  for (int c = 0; c < num_classes_; ++c) {
    for (std::size_t i = 0; i < k; ++i) {
      packed_.set_row(static_cast<std::size_t>(c) * k + i,
                      models[i]->class_vector(c));
    }
  }
}

void EnsembleEvaluator::combine_class(const double* class_dots,
                                      std::span<const double> w, int c,
                                      double& dot_qc, double& norm_sq) const {
  const std::size_t k = num_models_;
  dot_qc = 0.0;
  norm_sq = 0.0;
  // dot(Q, C_c^T) = Σ_k w_k <Q, C_c^k>
  for (std::size_t i = 0; i < k; ++i) {
    if (w[i] == 0.0) continue;
    dot_qc += w[i] * class_dots[i];
  }
  // ‖C_c^T‖² = w^T G_c w
  const auto& g = gram_[static_cast<std::size_t>(c)];
  for (std::size_t i = 0; i < k; ++i) {
    if (w[i] == 0.0) continue;
    for (std::size_t j = 0; j < k; ++j) {
      if (w[j] == 0.0) continue;
      norm_sq += w[i] * w[j] * g[i * k + j];
    }
  }
}

std::vector<double> EnsembleEvaluator::class_similarities(
    std::span<const float> hv, std::span<const double> weights) const {
  if (hv.size() != dim_) {
    throw std::invalid_argument("EnsembleEvaluator: query dim mismatch");
  }
  if (weights.size() != num_models_) {
    throw std::invalid_argument("EnsembleEvaluator: weight arity mismatch");
  }
  const std::size_t k = num_models_;
  const double q_norm = ops::nrm2(hv.data(), dim_);
  std::vector<double> class_dots(k);
  std::vector<double> sims(static_cast<std::size_t>(num_classes_), 0.0);
  for (int c = 0; c < num_classes_; ++c) {
    for (std::size_t i = 0; i < k; ++i) {
      class_dots[i] =
          weights[i] == 0.0
              ? 0.0
              : ops::dot(hv.data(),
                         packed_.row(static_cast<std::size_t>(c) * k + i).data(),
                         dim_);
    }
    double dot_qc = 0.0;
    double norm_sq = 0.0;
    combine_class(class_dots.data(), weights, c, dot_qc, norm_sq);
    const double denom = q_norm * std::sqrt(std::max(norm_sq, 0.0));
    sims[static_cast<std::size_t>(c)] = denom > 0.0 ? dot_qc / denom : 0.0;
  }
  return sims;
}

int EnsembleEvaluator::predict(std::span<const float> hv,
                               std::span<const double> weights) const {
  const std::vector<double> sims = class_similarities(hv, weights);
  int best = 0;
  for (int c = 1; c < num_classes_; ++c) {
    if (sims[static_cast<std::size_t>(c)] >
        sims[static_cast<std::size_t>(best)]) {
      best = c;
    }
  }
  return best;
}

std::vector<int> EnsembleEvaluator::predict_batch(
    HvView queries, std::span<const double> weights) const {
  if (queries.rows == 0) return {};
  if (queries.dim != dim_) {
    throw std::invalid_argument("EnsembleEvaluator: query dim mismatch");
  }
  const std::size_t k = num_models_;
  if (weights.size() != queries.rows * k) {
    throw std::invalid_argument("EnsembleEvaluator: weight arity mismatch");
  }
  const auto n = static_cast<std::size_t>(num_classes_);
  // One blocked kernel for all <Q_q, C_c^k> dots, then the cheap per-query
  // Gram combination. The query norm scales every class score equally, so
  // the argmax skips it.
  std::vector<double> dots(queries.rows * n * k);
  ops::dot_matrix(queries.data, queries.rows, packed_.data(), n * k, dim_,
                  dots.data());
  std::vector<int> labels(queries.rows);
  for (std::size_t q = 0; q < queries.rows; ++q) {
    const double* qdots = dots.data() + q * n * k;
    const std::span<const double> w(weights.data() + q * k, k);
    std::size_t best = 0;
    // Unnormalized scores are unbounded below (no division by the query
    // norm), so a cosine-range sentinel like -2 would be wrong here.
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < n; ++c) {
      double dot_qc = 0.0;
      double norm_sq = 0.0;
      combine_class(qdots + c * k, w, static_cast<int>(c), dot_qc, norm_sq);
      const double score =
          norm_sq > 0.0 ? dot_qc / std::sqrt(norm_sq) : 0.0;
      if (score > best_score) {
        best_score = score;
        best = c;
      }
    }
    labels[q] = static_cast<int>(best);
  }
  return labels;
}

}  // namespace smore
