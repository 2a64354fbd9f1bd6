#include "core/binary_smore.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "hdc/ops_binary.hpp"
#include "util/serial.hpp"

namespace smore {

BinarySmoreModel::BinarySmoreModel(const SmoreModel& model)
    : num_classes_(model.num_classes()),
      dim_(model.dim()),
      weight_mode_(model.config().weight_mode),
      detector_(model.config().delta_star) {
  if (!model.trained()) {
    throw std::logic_error("BinarySmoreModel: model is untrained");
  }
  const std::size_t k = model.num_domains();
  const auto classes = static_cast<std::size_t>(num_classes_);
  descriptors_.resize(k, dim_);
  class_bank_.resize(k * classes, dim_);
  for (std::size_t d = 0; d < k; ++d) {
    ops::sign_pack_row(model.descriptors().descriptor(d).data(), dim_,
                       descriptors_.row(d));
    const OnlineHDClassifier& domain_model = model.domain_model(d);
    for (int c = 0; c < num_classes_; ++c) {
      ops::sign_pack_row(domain_model.class_vector(c).data(), dim_,
                         class_bank_.row(d * classes +
                                         static_cast<std::size_t>(c)));
    }
  }
}

void BinarySmoreModel::set_delta_star(double delta_star) {
  detector_.set_delta_star(delta_star);
}

double BinarySmoreModel::calibrate_delta_star(const HvDataset& in_distribution,
                                              double target_ood_rate) {
  if (in_distribution.empty()) {
    throw std::invalid_argument("calibrate_delta_star: empty calibration set");
  }
  const BitMatrix packed = ops::sign_pack_matrix(in_distribution.view());
  const std::vector<double> sims = similarities_batch(packed.view());
  const std::size_t k = num_domains();
  std::vector<double> max_sims;
  max_sims.reserve(in_distribution.size());
  for (std::size_t i = 0; i < in_distribution.size(); ++i) {
    const std::span<const double> row(sims.data() + i * k, k);
    max_sims.push_back(detector_.evaluate(row).max_similarity);
  }
  set_delta_star(
      calibrate_threshold_quantile(std::move(max_sims), target_ood_rate));
  return detector_.delta_star();
}

int BinarySmoreModel::predict(std::span<const float> hv) const {
  if (hv.size() != dim_) {
    throw std::invalid_argument("BinarySmoreModel::predict: dim mismatch");
  }
  return predict_batch(HvView(hv)).at(0);
}

std::vector<int> BinarySmoreModel::predict_batch(HvView queries) const {
  if (queries.rows == 0) return {};
  if (queries.dim != dim_) {
    throw std::invalid_argument(
        "BinarySmoreModel::predict_batch: dim mismatch");
  }
  return predict_batch(ops::sign_pack_matrix(queries).view());
}

std::vector<int> BinarySmoreModel::predict_batch(BitView queries) const {
  return predict_batch_impl(queries, nullptr, nullptr);
}

SmoreBatchResult BinarySmoreModel::predict_batch_full(BitView queries) const {
  SmoreBatchResult out;
  out.labels = predict_batch_impl(queries, nullptr, &out);
  return out;
}

SmoreBatchResult BinarySmoreModel::predict_batch_full(HvView queries) const {
  if (queries.rows != 0 && queries.dim != dim_) {
    throw std::invalid_argument(
        "BinarySmoreModel::predict_batch_full: dim mismatch");
  }
  return predict_batch_full(ops::sign_pack_matrix(queries).view());
}

std::vector<double> BinarySmoreModel::similarities_batch(
    BitView queries) const {
  if (queries.rows == 0) return {};
  if (queries.dim != dim_ ||
      queries.words_per_row != descriptors_.words_per_row()) {
    throw std::invalid_argument(
        "BinarySmoreModel::similarities_batch: dim mismatch");
  }
  std::vector<double> sims(queries.rows * num_domains());
  ops::binary_similarity_matrix(queries, descriptors_.view(), sims.data());
  return sims;
}

std::vector<int> BinarySmoreModel::predict_batch_impl(
    BitView queries, std::vector<std::uint8_t>* ood_flags,
    SmoreBatchResult* full) const {
  const std::size_t k = num_domains();
  if (full != nullptr) full->num_domains = k;
  if (queries.rows == 0) return {};
  if (queries.dim != dim_ ||
      queries.words_per_row != descriptors_.words_per_row()) {
    throw std::invalid_argument(
        "BinarySmoreModel::predict_batch: dim mismatch");
  }
  const auto classes = static_cast<std::size_t>(num_classes_);

  // E: one packed kernel for every δ_H(Q_i, U_k) (Algorithm 1 lines 1-2).
  const std::vector<double> sims = similarities_batch(queries);
  // G's inputs: one packed kernel for every δ_H(Q_i, C_c^k).
  std::vector<double> class_sims(queries.rows * k * classes);
  ops::binary_similarity_matrix(queries, class_bank_.view(),
                                class_sims.data());
  if (ood_flags != nullptr) ood_flags->assign(queries.rows, 0);
  if (full != nullptr) {
    full->ood.assign(queries.rows, 0);
    full->max_similarity.assign(queries.rows, 0.0);
    full->weights.assign(queries.rows * k, 0.0);
  }

  std::vector<int> labels(queries.rows);
  for (std::size_t q = 0; q < queries.rows; ++q) {
    // F: verdict and ensemble weights from the Hamming similarities.
    const std::span<const double> row(sims.data() + q * k, k);
    const OodVerdict verdict = detector_.evaluate(row);
    if (ood_flags != nullptr && verdict.is_ood) (*ood_flags)[q] = 1;
    const std::vector<double> w = ensemble_weights(
        row, detector_.delta_star(), verdict.is_ood, weight_mode_);
    if (full != nullptr) {
      if (verdict.is_ood) full->ood[q] = 1;
      full->max_similarity[q] = verdict.max_similarity;
      std::copy(w.begin(), w.end(), full->weights.begin() + q * k);
    }

    // G: similarity-ensembled argmax, skipping zero-weight domains.
    const double* qsims = class_sims.data() + q * k * classes;
    int best = 0;
    double best_score = 0.0;
    for (int c = 0; c < num_classes_; ++c) {
      double score = 0.0;
      for (std::size_t d = 0; d < k; ++d) {
        if (w[d] == 0.0) continue;
        score += w[d] * qsims[d * classes + static_cast<std::size_t>(c)];
      }
      if (c == 0 || score > best_score) {
        best_score = score;
        best = c;
      }
    }
    labels[q] = best;
  }
  return labels;
}

namespace {
constexpr std::uint32_t kBinarySmoreMagic = 0x42534d52;  // "BSMR"
constexpr std::uint32_t kBinarySmoreVersion = 1;

void write_bits(std::ostream& out, const BitMatrix& m) {
  const std::uint64_t rows = m.rows();
  const std::uint64_t dim = m.dim();
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.bytes()));
}

BitMatrix read_bits(std::istream& in, std::uint64_t expected_dim,
                    std::uint64_t expected_rows) {
  std::uint64_t rows = 0;
  std::uint64_t dim = 0;
  in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in.read(reinterpret_cast<char*>(&dim), sizeof(dim));
  if (!in) throw std::runtime_error("BinarySmoreModel::load: truncated block");
  // Validate before allocating: a truncated stream must throw, not OOM.
  if (dim != expected_dim || rows != expected_rows) {
    throw std::runtime_error("BinarySmoreModel::load: inconsistent blocks");
  }
  BitMatrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(dim));
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.bytes()));
  if (!in) throw std::runtime_error("BinarySmoreModel::load: truncated words");
  return m;
}
}  // namespace

void BinarySmoreModel::save(std::ostream& out) const {
  out.write(reinterpret_cast<const char*>(&kBinarySmoreMagic),
            sizeof(kBinarySmoreMagic));
  out.write(reinterpret_cast<const char*>(&kBinarySmoreVersion),
            sizeof(kBinarySmoreVersion));
  const std::int32_t classes = num_classes_;
  const std::uint64_t dim = dim_;
  const double delta = detector_.delta_star();
  const std::int32_t mode = static_cast<std::int32_t>(weight_mode_);
  const std::uint64_t domains = num_domains();
  out.write(reinterpret_cast<const char*>(&classes), sizeof(classes));
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  out.write(reinterpret_cast<const char*>(&delta), sizeof(delta));
  out.write(reinterpret_cast<const char*>(&mode), sizeof(mode));
  out.write(reinterpret_cast<const char*>(&domains), sizeof(domains));
  write_bits(out, descriptors_);
  write_bits(out, class_bank_);
}

BinarySmoreModel BinarySmoreModel::load(std::istream& in) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || magic != kBinarySmoreMagic || version != kBinarySmoreVersion) {
    throw std::runtime_error("BinarySmoreModel::load: bad magic/version");
  }
  std::int32_t classes = 0;
  std::uint64_t dim = 0;
  double delta = 0.0;
  std::int32_t mode = 0;
  std::uint64_t domains = 0;
  in.read(reinterpret_cast<char*>(&classes), sizeof(classes));
  in.read(reinterpret_cast<char*>(&dim), sizeof(dim));
  in.read(reinterpret_cast<char*>(&delta), sizeof(delta));
  in.read(reinterpret_cast<char*>(&mode), sizeof(mode));
  in.read(reinterpret_cast<char*>(&domains), sizeof(domains));
  // Reject absurd header values before any allocation is sized from them
  // (util/serial.hpp caps): a corrupt (not merely truncated) stream must
  // throw, not OOM. Per-field caps alone still admit a huge product (2^20
  // domains of 2^24 bits ≈ 2 TB), so the packed payload the header implies
  // is bounded too.
  const std::uint64_t words = BitMatrix::words_for(dim);
  if (!in || classes <= 0 ||
      static_cast<std::uint64_t>(classes) > serial::kMaxClasses || dim == 0 ||
      dim > serial::kMaxDim || domains > serial::kMaxDomains || delta < -1.0 ||
      delta > 1.0 || mode < 0 ||
      mode > static_cast<std::int32_t>(WeightMode::kTopOne) ||
      !serial::within_model_bytes(
          domains * (1 + static_cast<std::uint64_t>(classes)),
          words * sizeof(std::uint64_t))) {
    throw std::runtime_error("BinarySmoreModel::load: corrupt header");
  }
  BinarySmoreModel model;
  model.num_classes_ = classes;
  model.dim_ = static_cast<std::size_t>(dim);
  model.weight_mode_ = static_cast<WeightMode>(mode);
  model.detector_.set_delta_star(delta);
  model.descriptors_ = read_bits(in, dim, domains);
  model.class_bank_ =
      read_bits(in, dim, domains * static_cast<std::uint64_t>(classes));
  return model;
}

SmoreEvaluation BinarySmoreModel::evaluate(const HvDataset& data) const {
  if (data.empty()) return {};
  if (data.dim() != dim_) {
    throw std::invalid_argument("BinarySmoreModel::evaluate: dim mismatch");
  }
  return evaluate(ops::sign_pack_matrix(data.view()).view(), data.labels());
}

SmoreEvaluation BinarySmoreModel::evaluate(
    BitView queries, std::span<const int> labels) const {
  SmoreEvaluation out;
  if (queries.rows == 0) return out;
  if (labels.size() != queries.rows) {
    throw std::invalid_argument(
        "BinarySmoreModel::evaluate: label arity mismatch");
  }
  std::vector<std::uint8_t> flags;
  const std::vector<int> predicted =
      predict_batch_impl(queries, &flags, nullptr);
  std::size_t correct = 0;
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < queries.rows; ++i) {
    correct += predicted[i] == labels[i] ? 1 : 0;
    flagged += flags[i];
  }
  out.accuracy =
      static_cast<double>(correct) / static_cast<double>(queries.rows);
  out.ood_rate =
      static_cast<double>(flagged) / static_cast<double>(queries.rows);
  return out;
}

}  // namespace smore
