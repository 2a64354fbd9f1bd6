#include "hdc/onlinehd.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/serial.hpp"

namespace smore {

OnlineHDClassifier::OnlineHDClassifier(int num_classes, std::size_t dim) {
  if (num_classes <= 0) {
    throw std::invalid_argument("OnlineHDClassifier: num_classes must be > 0");
  }
  if (dim == 0) {
    throw std::invalid_argument("OnlineHDClassifier: dim must be > 0");
  }
  classes_ = HvMatrix(static_cast<std::size_t>(num_classes), dim);
  accum_.assign(static_cast<std::size_t>(num_classes), WideAccumulator(dim));
  norms_.assign(static_cast<std::size_t>(num_classes), 0.0);
}

double OnlineHDClassifier::cosine_to_class(std::span<const float> hv,
                                           double hv_norm, int c) const {
  const double cn = norms_[static_cast<std::size_t>(c)];
  if (hv_norm == 0.0 || cn == 0.0) return 0.0;
  return ops::dot(hv.data(), classes_.row(static_cast<std::size_t>(c)).data(),
                  dim()) /
         (hv_norm * cn);
}

void OnlineHDClassifier::refresh(int c) {
  const auto i = static_cast<std::size_t>(c);
  accum_[i].materialize(classes_.row(i).data());
  norms_[i] = ops::nrm2(classes_.row(i).data(), dim());
}

void OnlineHDClassifier::bootstrap(std::span<const float> hv, int label) {
  if (hv.size() != dim()) {
    throw std::invalid_argument("bootstrap: dimension mismatch");
  }
  const double hv_norm = ops::nrm2(hv.data(), dim());
  const double delta = cosine_to_class(hv, hv_norm, label);
  // The weight is float-rounded (as the float-only path used it), then the
  // update lands on the double master and re-materializes the float mirror.
  const float w = static_cast<float>(1.0 - delta);
  update_class(label, static_cast<double>(w), hv);
}

bool OnlineHDClassifier::refine(std::span<const float> hv, int label,
                                float learning_rate) {
  if (hv.size() != dim()) {
    throw std::invalid_argument("refine: dimension mismatch");
  }
  const double hv_norm = ops::nrm2(hv.data(), dim());
  int best = 0;
  double best_sim = -2.0;
  for (int c = 0; c < num_classes(); ++c) {
    const double s = cosine_to_class(hv, hv_norm, c);
    if (s > best_sim) {
      best_sim = s;
      best = c;
    }
  }
  if (best == label) return true;

  const double delta_true = cosine_to_class(hv, hv_norm, label);
  const float w_true = learning_rate * static_cast<float>(1.0 - delta_true);
  update_class(label, static_cast<double>(w_true), hv);
  const float w_pred = learning_rate * static_cast<float>(1.0 - best_sim);
  update_class(best, -static_cast<double>(w_pred), hv);
  return false;
}

void OnlineHDClassifier::update_class(int c, double weight,
                                      std::span<const float> hv) {
  accum_[static_cast<std::size_t>(c)].axpy(weight, hv);
  refresh(c);
}

std::vector<double> OnlineHDClassifier::fit(const HvDataset& train,
                                            const OnlineHDConfig& config) {
  if (train.dim() != dim()) {
    throw std::invalid_argument("fit: dataset dimension mismatch");
  }
  Rng rng(config.seed);
  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (const std::size_t i : order) bootstrap(train.row(i), train.label(i));

  std::vector<double> history;
  history.reserve(static_cast<std::size_t>(config.epochs));
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle) rng.shuffle(order);
    std::size_t correct = 0;
    for (const std::size_t i : order) {
      correct += refine(train.row(i), train.label(i), config.learning_rate)
                     ? 1
                     : 0;
    }
    history.push_back(train.size() == 0
                          ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(train.size()));
  }
  return history;
}

int OnlineHDClassifier::predict(std::span<const float> hv) const {
  if (hv.size() != dim()) {
    throw std::invalid_argument("predict: dimension mismatch");
  }
  return predict_batch(HvView(hv)).front();
}

std::vector<double> OnlineHDClassifier::similarities(
    std::span<const float> hv) const {
  if (hv.size() != dim()) {
    throw std::invalid_argument("similarities: dimension mismatch");
  }
  return similarities_batch(HvView(hv));
}

std::vector<int> OnlineHDClassifier::predict_batch(HvView queries) const {
  if (queries.rows == 0) return {};
  if (queries.dim != dim()) {
    throw std::invalid_argument("predict_batch: dimension mismatch");
  }
  const auto k = static_cast<std::size_t>(num_classes());
  // Raw dots suffice for the argmax: cosine divides every class score by the
  // same positive query norm, so only the per-class 1/‖C_c‖ factor matters.
  std::vector<double> dots(queries.rows * k);
  ops::dot_matrix(queries.data, queries.rows, classes_.data(), k, dim(),
                  dots.data());
  std::vector<double> inv_norm(k);
  for (std::size_t c = 0; c < k; ++c) {
    inv_norm[c] = norms_[c] > 0.0 ? 1.0 / norms_[c] : 0.0;
  }
  std::vector<int> labels(queries.rows);
  for (std::size_t q = 0; q < queries.rows; ++q) {
    const double* row = dots.data() + q * k;
    std::size_t best = 0;
    double best_score = row[0] * inv_norm[0];
    for (std::size_t c = 1; c < k; ++c) {
      const double s = row[c] * inv_norm[c];
      if (s > best_score) {
        best_score = s;
        best = c;
      }
    }
    labels[q] = static_cast<int>(best);
  }
  return labels;
}

std::vector<double> OnlineHDClassifier::similarities_batch(
    HvView queries) const {
  if (queries.rows == 0) return {};
  if (queries.dim != dim()) {
    throw std::invalid_argument("similarities_batch: dimension mismatch");
  }
  const auto k = static_cast<std::size_t>(num_classes());
  std::vector<double> norms_sq(k);
  for (std::size_t c = 0; c < k; ++c) norms_sq[c] = norms_[c] * norms_[c];
  std::vector<double> sims(queries.rows * k);
  ops::similarity_matrix(queries.data, queries.rows, classes_.data(), k, dim(),
                         sims.data(), norms_sq.data());
  return sims;
}

double OnlineHDClassifier::accuracy(const HvDataset& data) const {
  if (data.empty()) return 0.0;
  const std::vector<int> labels = predict_batch(data.view());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    correct += labels[i] == data.label(i) ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

void OnlineHDClassifier::set_class_vector(int c, const Hypervector& hv) {
  if (hv.dim() != dim()) {
    throw std::invalid_argument("set_class_vector: dimension mismatch");
  }
  // The float value IS the new state: reset the wide counter to it exactly
  // (refresh then re-materializes the same floats).
  accum_.at(static_cast<std::size_t>(c)).assign_from(hv.span());
  refresh(c);
}

void OnlineHDClassifier::save(std::ostream& out) const {
  const std::uint64_t d = dim();
  const std::uint64_t k = classes_.rows();
  out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  out.write(reinterpret_cast<const char*>(&k), sizeof(k));
  out.write(reinterpret_cast<const char*>(classes_.data()),
            static_cast<std::streamsize>(sizeof(float) * k * d));
}

OnlineHDClassifier OnlineHDClassifier::load(std::istream& in,
                                            int expect_classes,
                                            std::size_t expect_dim) {
  std::uint64_t d = 0;
  std::uint64_t k = 0;
  in.read(reinterpret_cast<char*>(&d), sizeof(d));
  in.read(reinterpret_cast<char*>(&k), sizeof(k));
  // Validate before allocating: the model holds a float mirror plus a double
  // master per class, so a corrupt header must throw, not OOM.
  if (!in || d == 0 || d > serial::kMaxDim || k == 0 ||
      k > serial::kMaxClasses ||
      !serial::within_model_bytes(k, d * (sizeof(float) + sizeof(double))) ||
      (expect_classes != 0 && k != static_cast<std::uint64_t>(expect_classes)) ||
      (expect_dim != 0 && d != expect_dim)) {
    throw std::runtime_error("OnlineHDClassifier::load: corrupt header");
  }
  OnlineHDClassifier model(static_cast<int>(k), static_cast<std::size_t>(d));
  in.read(reinterpret_cast<char*>(model.classes_.data()),
          static_cast<std::streamsize>(sizeof(float) * k * d));
  if (!in) {
    throw std::runtime_error("OnlineHDClassifier::load: truncated payload");
  }
  for (int c = 0; c < model.num_classes(); ++c) {
    model.accum_[static_cast<std::size_t>(c)].assign_from(
        model.classes_.row(static_cast<std::size_t>(c)));
    model.refresh(c);
  }
  return model;
}

}  // namespace smore
