#include "core/smore.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/serial.hpp"

namespace smore {

SmoreModel::SmoreModel(int num_classes, std::size_t dim, SmoreConfig config)
    : num_classes_(num_classes),
      dim_(dim),
      config_(config),
      detector_(config.delta_star) {
  if (num_classes <= 0) {
    throw std::invalid_argument("SmoreModel: num_classes must be positive");
  }
  if (dim == 0) {
    throw std::invalid_argument("SmoreModel: dim must be positive");
  }
}

std::vector<double> SmoreModel::fit(const HvDataset& train) {
  if (train.empty()) {
    throw std::invalid_argument("SmoreModel::fit: empty training set");
  }
  if (train.dim() != dim_) {
    throw std::invalid_argument("SmoreModel::fit: dataset dimension mismatch");
  }

  // D: domain descriptors (bundles every sample per domain, sorted by id).
  descriptors_ = DomainDescriptorBank(train);

  // B + C: split by domain and train one model per domain.
  models_.clear();
  std::vector<double> final_accuracy;
  for (std::size_t k = 0; k < descriptors_.size(); ++k) {
    const int domain_id = descriptors_.domain_id(k);
    const auto idx = train.indices_of_domain(domain_id);
    const HvDataset domain_data = train.select(idx);

    auto model = std::make_shared<OnlineHDClassifier>(num_classes_, dim_);
    const auto history = model->fit(domain_data, config_.domain_model);
    final_accuracy.push_back(history.empty() ? 0.0 : history.back());
    models_.push_back(std::move(model));
  }

  // Precompute the Gram matrices for materialization-free ensembling.
  rebuild_evaluator({});

  return final_accuracy;
}

void SmoreModel::rebuild_evaluator(
    const std::vector<std::shared_ptr<const OnlineHDClassifier>>& previous) {
  std::vector<const OnlineHDClassifier*> ptrs;
  ptrs.reserve(models_.size());
  for (const auto& m : models_) ptrs.push_back(m.get());
  // Positions only shift (sorted ids; inserts and removals keep order), so
  // one forward scan finds each surviving model's previous position.
  std::vector<std::size_t> previous_position(models_.size(),
                                             EnsembleEvaluator::kChanged);
  std::size_t j = 0;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    std::size_t p = j;
    while (p < previous.size() && previous[p] != models_[i]) ++p;
    if (p < previous.size()) {
      previous_position[i] = p;
      j = p + 1;
    }
  }
  evaluator_ = std::make_shared<const EnsembleEvaluator>(
      ptrs, previous.empty() ? nullptr : evaluator_.get(), previous_position);
}

void SmoreModel::absorb_labeled(HvView rows, std::span<const int> labels,
                                std::span<const int> domain_ids) {
  if (!trained()) {
    throw std::logic_error("SmoreModel::absorb_labeled before fit");
  }
  if (labels.size() != rows.rows || domain_ids.size() != rows.rows) {
    throw std::invalid_argument("absorb_labeled: row/label/id count mismatch");
  }
  if (rows.empty()) return;
  if (rows.dim != dim_) {
    throw std::invalid_argument("absorb_labeled: dimension mismatch");
  }
  for (const int label : labels) {
    if (label < 0 || label >= num_classes_) {
      throw std::invalid_argument("absorb_labeled: label out of range");
    }
  }
  // The bank creates descriptors for new ids at their sorted positions;
  // a fresh domain model goes in at each of them so positions stay aligned.
  // Models may be shared with other generations, so a domain a row lands in
  // is written only through a private copy (or its fresh model), made once.
  const auto previous = models_;
  const std::vector<int> before = descriptors_.domain_ids();
  descriptors_.absorb(rows, domain_ids);
  const std::vector<int>& ids = descriptors_.domain_ids();
  std::vector<std::shared_ptr<OnlineHDClassifier>> writable(ids.size());
  for (std::size_t pos = 0; pos < ids.size(); ++pos) {
    if (!std::binary_search(before.begin(), before.end(), ids[pos])) {
      writable[pos] = std::make_shared<OnlineHDClassifier>(num_classes_, dim_);
      models_.insert(models_.begin() + static_cast<std::ptrdiff_t>(pos),
                     writable[pos]);
    }
  }
  for (std::size_t i = 0; i < rows.rows; ++i) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), domain_ids[i]);
    const auto pos = static_cast<std::size_t>(it - ids.begin());
    if (!writable[pos]) {
      writable[pos] = std::make_shared<OnlineHDClassifier>(*models_[pos]);
      models_[pos] = writable[pos];
    }
    writable[pos]->bootstrap(rows.row(i), labels[i]);
    writable[pos]->refine(rows.row(i), labels[i],
                          config_.domain_model.learning_rate);
  }
  rebuild_evaluator(previous);
}

void SmoreModel::remove_domains(std::span<const std::size_t> positions) {
  if (!trained()) {
    throw std::logic_error("SmoreModel::remove_domains before fit");
  }
  if (positions.size() >= models_.size()) {
    throw std::logic_error(
        "SmoreModel::remove_domains: cannot evict the last domain");
  }
  descriptors_.remove(positions);  // validates every position first
  const auto previous = models_;
  std::vector<bool> drop(models_.size(), false);
  for (const std::size_t k : positions) drop[k] = true;
  for (std::size_t k = models_.size(); k-- > 0;) {
    if (drop[k]) models_.erase(models_.begin() + static_cast<std::ptrdiff_t>(k));
  }
  rebuild_evaluator(previous);
}

SmorePrediction SmoreModel::predict_detail(std::span<const float> hv) const {
  if (!trained()) {
    throw std::logic_error("SmoreModel::predict before fit");
  }
  SmorePrediction out;
  // E: OOD detection from descriptor similarities (Algorithm 1 lines 1-2).
  out.domain_similarity = descriptors_.similarities(hv);
  const OodVerdict verdict = detector_.evaluate(out.domain_similarity);
  out.is_ood = verdict.is_ood;
  out.max_similarity = verdict.max_similarity;

  // F: ensemble weights (lines 3-6).
  out.weights = ensemble_weights(out.domain_similarity, detector_.delta_star(),
                                 verdict.is_ood, config_.weight_mode);

  // G: argmax over ensembled class hypervectors (line 7).
  out.label = evaluator_->predict(hv, out.weights);
  return out;
}

int SmoreModel::predict(std::span<const float> hv) const {
  if (hv.size() != dim_) {
    throw std::invalid_argument("SmoreModel::predict: dimension mismatch");
  }
  return predict_batch(HvView(hv)).at(0);
}

std::vector<double> SmoreModel::similarities_batch(HvView queries) const {
  if (!trained()) {
    throw std::logic_error("SmoreModel::similarities_batch before fit");
  }
  return descriptors_.similarities_batch(queries);
}

std::vector<int> SmoreModel::predict_batch_impl(
    HvView queries, std::vector<std::uint8_t>* ood_flags,
    SmoreBatchResult* full) const {
  if (!trained()) {
    throw std::logic_error("SmoreModel::predict before fit");
  }
  const std::size_t k = descriptors_.size();
  if (full != nullptr) full->num_domains = k;
  if (queries.rows == 0) return {};
  if (queries.dim != dim_) {
    throw std::invalid_argument("SmoreModel::predict_batch: dim mismatch");
  }
  // E: one matrix kernel for every δ(Q_i, U_k) (Algorithm 1 lines 1-2).
  const std::vector<double> sims = descriptors_.similarities_batch(queries);
  if (ood_flags != nullptr) ood_flags->assign(queries.rows, 0);
  if (full != nullptr) {
    full->ood.assign(queries.rows, 0);
    full->max_similarity.assign(queries.rows, 0.0);
  }

  // F: per-query verdicts and ensemble weights (lines 3-6) — O(K) each.
  std::vector<double> weights(queries.rows * k);
  for (std::size_t q = 0; q < queries.rows; ++q) {
    const std::span<const double> row(sims.data() + q * k, k);
    const OodVerdict verdict = detector_.evaluate(row);
    if (ood_flags != nullptr && verdict.is_ood) (*ood_flags)[q] = 1;
    if (full != nullptr) {
      if (verdict.is_ood) full->ood[q] = 1;
      full->max_similarity[q] = verdict.max_similarity;
    }
    const std::vector<double> w = ensemble_weights(
        row, detector_.delta_star(), verdict.is_ood, config_.weight_mode);
    std::copy(w.begin(), w.end(), weights.begin() + q * k);
  }

  // G: batched ensembled argmax (line 7).
  std::vector<int> labels = evaluator_->predict_batch(queries, weights);
  if (full != nullptr) full->weights = std::move(weights);
  return labels;
}

std::vector<int> SmoreModel::predict_batch(HvView queries) const {
  return predict_batch_impl(queries, nullptr, nullptr);
}

SmoreBatchResult SmoreModel::predict_batch_full(HvView queries) const {
  SmoreBatchResult out;
  out.labels = predict_batch_impl(queries, nullptr, &out);
  return out;
}

SmoreEvaluation SmoreModel::evaluate(const HvDataset& data) const {
  SmoreEvaluation out;
  if (data.empty()) return out;
  std::vector<std::uint8_t> flags;
  const std::vector<int> labels =
      predict_batch_impl(data.view(), &flags, nullptr);
  std::size_t correct = 0;
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    correct += labels[i] == data.label(i) ? 1 : 0;
    flagged += flags[i];
  }
  out.accuracy = static_cast<double>(correct) / static_cast<double>(data.size());
  out.ood_rate = static_cast<double>(flagged) / static_cast<double>(data.size());
  return out;
}

double SmoreModel::accuracy(const HvDataset& data) const {
  if (data.empty()) return 0.0;
  return evaluate(data).accuracy;
}

double SmoreModel::ood_rate(const HvDataset& data) const {
  if (data.empty()) return 0.0;
  if (!trained()) {
    throw std::logic_error("SmoreModel::ood_rate before fit");
  }
  // Detector-only path: skips the classifier stage entirely.
  const std::vector<double> sims = descriptors_.similarities_batch(data.view());
  const std::size_t k = descriptors_.size();
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::span<const double> row(sims.data() + i * k, k);
    flagged += detector_.evaluate(row).is_ood ? 1 : 0;
  }
  return static_cast<double>(flagged) / static_cast<double>(data.size());
}

void SmoreModel::set_delta_star(double delta_star) {
  detector_.set_delta_star(delta_star);
  config_.delta_star = delta_star;
}

double SmoreModel::calibrate_delta_star(const HvDataset& in_distribution,
                                        double target_ood_rate) {
  if (!trained()) {
    throw std::logic_error("SmoreModel::calibrate_delta_star before fit");
  }
  if (in_distribution.empty()) {
    throw std::invalid_argument("calibrate_delta_star: empty calibration set");
  }
  const std::vector<double> sims =
      descriptors_.similarities_batch(in_distribution.view());
  const std::size_t k = descriptors_.size();
  std::vector<double> max_sims;
  max_sims.reserve(in_distribution.size());
  for (std::size_t i = 0; i < in_distribution.size(); ++i) {
    const std::span<const double> row(sims.data() + i * k, k);
    max_sims.push_back(detector_.evaluate(row).max_similarity);
  }
  set_delta_star(
      calibrate_threshold_quantile(std::move(max_sims), target_ood_rate));
  return config_.delta_star;
}

namespace {
constexpr std::uint32_t kSmoreMagic = 0x534d4f52;  // "SMOR"
constexpr std::uint32_t kSmoreVersion = 2;  // v2: wide-counter bank payload
}  // namespace

void SmoreModel::save(std::ostream& out) const {
  if (!trained()) {
    throw std::logic_error("SmoreModel::save before fit");
  }
  out.write(reinterpret_cast<const char*>(&kSmoreMagic), sizeof(kSmoreMagic));
  out.write(reinterpret_cast<const char*>(&kSmoreVersion),
            sizeof(kSmoreVersion));
  const std::int32_t classes = num_classes_;
  const std::uint64_t dim = dim_;
  const double delta = config_.delta_star;
  const std::int32_t mode = static_cast<std::int32_t>(config_.weight_mode);
  const std::uint64_t domains = models_.size();
  out.write(reinterpret_cast<const char*>(&classes), sizeof(classes));
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  out.write(reinterpret_cast<const char*>(&delta), sizeof(delta));
  out.write(reinterpret_cast<const char*>(&mode), sizeof(mode));
  out.write(reinterpret_cast<const char*>(&domains), sizeof(domains));
  for (const auto& model : models_) model->save(out);
  descriptors_.save(out);
}

SmoreModel SmoreModel::load(std::istream& in) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || magic != kSmoreMagic || version != kSmoreVersion) {
    throw std::runtime_error("SmoreModel::load: bad magic/version");
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
  // Validate before allocating: K class banks plus K descriptors, each row a
  // float mirror and a double master; the records must match this shape.
  if (!in || classes <= 0 ||
      static_cast<std::uint64_t>(classes) > serial::kMaxClasses ||
      dim == 0 || dim > serial::kMaxDim || domains == 0 ||
      domains > serial::kMaxDomains ||
      !serial::within_model_bytes(
          domains * (static_cast<std::uint64_t>(classes) + 1),
          dim * (sizeof(float) + sizeof(double)))) {
    throw std::runtime_error("SmoreModel::load: corrupt header");
  }
  SmoreConfig config;
  config.delta_star = delta;
  config.weight_mode = static_cast<WeightMode>(mode);
  SmoreModel model(classes, static_cast<std::size_t>(dim), config);
  for (std::uint64_t k = 0; k < domains; ++k) {
    model.models_.push_back(std::make_shared<const OnlineHDClassifier>(
        OnlineHDClassifier::load(in, classes, model.dim_)));
  }
  model.descriptors_ = DomainDescriptorBank::load(
      in, static_cast<std::size_t>(domains), model.dim_);
  model.rebuild_evaluator({});
  return model;
}

SmoreModel SmoreModel::clone() const {
  if (!trained()) {
    throw std::logic_error("SmoreModel::clone before fit");
  }
  // config_ carries the current δ* (set_delta_star keeps it in sync), so the
  // constructor rebuilds an identical detector. The domain models and the
  // evaluator are immutable: share them. Only the bank, whose lifecycle
  // metadata every round writes, is copied.
  SmoreModel out(num_classes_, dim_, config_);
  out.descriptors_ = descriptors_;
  out.models_ = models_;
  out.evaluator_ = evaluator_;
  return out;
}

TestTimeModel SmoreModel::materialize_test_time_model(
    std::span<const float> hv) const {
  if (!trained()) {
    throw std::logic_error("SmoreModel::materialize before fit");
  }
  const auto sims = descriptors_.similarities(hv);
  const OodVerdict verdict = detector_.evaluate(sims);
  const auto weights = ensemble_weights(sims, detector_.delta_star(),
                                        verdict.is_ood, config_.weight_mode);
  std::vector<const OnlineHDClassifier*> ptrs;
  ptrs.reserve(models_.size());
  for (const auto& m : models_) ptrs.push_back(m.get());
  return TestTimeModel(ptrs, weights);
}

}  // namespace smore
