// Unit tests for the SMORE model (Sec 3.2-3.6, Algorithm 1): training
// structure, OOD behaviour on held-out domains, the DA win over a pooled
// baseline under shift, and δ* semantics.

#include "core/smore.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace smore {
namespace {

using testing::separable_hv_dataset;

TEST(Smore, ConstructionValidation) {
  EXPECT_THROW(SmoreModel(0, 16), std::invalid_argument);
  EXPECT_THROW(SmoreModel(3, 0), std::invalid_argument);
}

TEST(Smore, PredictBeforeFitThrows) {
  SmoreModel model(2, 16);
  const std::vector<float> q(16, 0.0f);
  EXPECT_THROW((void)model.predict(q), std::logic_error);
  EXPECT_FALSE(model.trained());
}

TEST(Smore, FitValidation) {
  SmoreModel model(2, 16);
  EXPECT_THROW(model.fit(HvDataset(16)), std::invalid_argument);
  const HvDataset wrong_dim = separable_hv_dataset(2, 2, 4, 32);
  EXPECT_THROW(model.fit(wrong_dim), std::invalid_argument);
}

TEST(Smore, TrainsOneModelPerDomain) {
  const HvDataset data = separable_hv_dataset(3, 4, 10, 256, 0.4, 0.4);
  SmoreModel model(3, 256);
  const auto acc = model.fit(data);
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(model.num_domains(), 4u);
  EXPECT_EQ(acc.size(), 4u);
  EXPECT_EQ(model.descriptors().size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(model.domain_model(k).num_classes(), 3);
  }
}

TEST(Smore, HighAccuracyInDistribution) {
  const HvDataset data = separable_hv_dataset(4, 3, 30, 512, 0.4, 0.4);
  SmoreModel model(4, 512);
  model.fit(data);
  EXPECT_GT(model.accuracy(data), 0.9);
}

TEST(Smore, PredictDetailExposesAlgorithmState) {
  const HvDataset data = separable_hv_dataset(2, 3, 15, 256, 0.4, 0.4);
  SmoreModel model(2, 256);
  model.fit(data);
  const SmorePrediction p = model.predict_detail(data.row(0));
  EXPECT_GE(p.label, 0);
  EXPECT_LT(p.label, 2);
  EXPECT_EQ(p.domain_similarity.size(), 3u);
  EXPECT_EQ(p.weights.size(), 3u);
  double max_sim = -2.0;
  for (const double s : p.domain_similarity) max_sim = std::max(max_sim, s);
  EXPECT_DOUBLE_EQ(p.max_similarity, max_sim);
}

TEST(Smore, HeldOutDomainFlaggedOodMoreOften) {
  // Samples from a skewed unseen domain must trip the OOD detector more
  // often than training-domain samples.
  const HvDataset all = separable_hv_dataset(3, 4, 25, 1024, 0.35, 1.0);
  const auto train_idx = all.indices_excluding_domain(3);
  const auto test_idx = all.indices_of_domain(3);
  SmoreConfig cfg;
  cfg.delta_star = 0.65;
  SmoreModel model(3, 1024, cfg);
  model.fit(all.select(train_idx));
  const double ood_train = model.ood_rate(all.select(train_idx));
  const double ood_test = model.ood_rate(all.select(test_idx));
  EXPECT_GT(ood_test, ood_train);
}

TEST(Smore, BeatsPooledBaselineUnderShift) {
  // The paper's core claim at unit-test scale: under per-domain skew, SMORE's
  // domain-aware ensemble beats a single pooled OnlineHD on the held-out
  // domain.
  const HvDataset all = separable_hv_dataset(4, 4, 30, 1024, 0.45, 1.3, 0xabc);
  const auto train_idx = all.indices_excluding_domain(0);
  const auto test_idx = all.indices_of_domain(0);
  const HvDataset train = all.select(train_idx);
  const HvDataset test = all.select(test_idx);

  SmoreModel smore(4, 1024);
  smore.fit(train);

  OnlineHDClassifier pooled(4, 1024);
  OnlineHDConfig cfg;
  cfg.epochs = 20;
  pooled.fit(train, cfg);

  EXPECT_GE(smore.accuracy(test), pooled.accuracy(test) - 0.02);
}

TEST(Smore, DeltaStarExtremesChangeOodRate) {
  const HvDataset data = separable_hv_dataset(2, 3, 15, 256, 0.4, 0.5);
  SmoreModel model(2, 256);
  model.fit(data);
  model.set_delta_star(-1.0);  // nothing can be OOD
  EXPECT_DOUBLE_EQ(model.ood_rate(data), 0.0);
  model.set_delta_star(1.0);  // everything is OOD (cosine < 1 in practice)
  EXPECT_GT(model.ood_rate(data), 0.99);
}

TEST(Smore, SetDeltaStarValidates) {
  SmoreModel model(2, 16);
  EXPECT_THROW(model.set_delta_star(1.5), std::invalid_argument);
}

TEST(Smore, CalibrateDeltaStarHitsTargetRate) {
  const HvDataset data = separable_hv_dataset(3, 3, 40, 512, 0.4, 0.5);
  SmoreModel model(3, 512);
  model.fit(data);
  const double delta = model.calibrate_delta_star(data, 0.10);
  EXPECT_DOUBLE_EQ(model.config().delta_star, delta);
  // The measured in-distribution OOD rate must be close to the budget.
  EXPECT_NEAR(model.ood_rate(data), 0.10, 0.03);
}

TEST(Smore, CalibrateDeltaStarValidates) {
  SmoreModel model(2, 64);
  const HvDataset data = separable_hv_dataset(2, 2, 5, 64);
  EXPECT_THROW((void)model.calibrate_delta_star(data, 0.1), std::logic_error);
  model.fit(data);
  EXPECT_THROW((void)model.calibrate_delta_star(HvDataset(64), 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)model.calibrate_delta_star(data, 1.5),
               std::invalid_argument);
}

TEST(Smore, AbsorbLabeledValidates) {
  SmoreModel model(3, 64);
  const std::vector<float> hv(64, 1.0f);
  const HvView row(hv);
  const std::vector<int> zero{0};
  EXPECT_THROW(model.absorb_labeled(row, zero, zero), std::logic_error);
  const HvDataset data = separable_hv_dataset(3, 2, 10, 64);
  model.fit(data);
  const std::vector<float> bad_dim(32, 1.0f);
  EXPECT_THROW(model.absorb_labeled(HvView(bad_dim), zero, zero),
               std::invalid_argument);
  EXPECT_THROW(model.absorb_labeled(row, std::vector<int>{9}, zero),
               std::invalid_argument);
  EXPECT_THROW(model.absorb_labeled(row, std::vector<int>{}, zero),
               std::invalid_argument);
  // A bad label anywhere in the block rejects the whole block up front: the
  // new domain of its first row is never created.
  const std::vector<float> two(128, 1.0f);
  EXPECT_THROW(model.absorb_labeled(HvView(two.data(), 2, 64),
                                    std::vector<int>{0, 9},
                                    std::vector<int>{5, 5}),
               std::invalid_argument);
  EXPECT_EQ(model.num_domains(), 2u);
}

TEST(Smore, AbsorbLabeledUpdatesExistingDomain) {
  const HvDataset data = separable_hv_dataset(3, 2, 15, 256, 0.4, 0.4);
  SmoreModel model(3, 256);
  model.fit(data);
  const std::size_t domains_before = model.num_domains();
  // Drift domain 1 with fresh labeled samples; the model must keep working
  // and keep its domain count.
  const HvDataset extra = separable_hv_dataset(3, 2, 5, 256, 0.6, 0.4, 99);
  const HvDataset drift = extra.select(extra.indices_of_domain(1));
  model.absorb_labeled(drift.view(), drift.labels(),
                       std::vector<int>(drift.size(), 1));
  EXPECT_EQ(model.num_domains(), domains_before);
  EXPECT_GT(model.accuracy(data), 0.8);  // no catastrophic forgetting
}

TEST(Smore, AbsorbLabeledCreatesNewDomain) {
  // Enroll a brand-new domain online: K grows, predictions stay valid, and
  // the new domain's samples classify well afterwards.
  const HvDataset data = separable_hv_dataset(3, 3, 20, 512, 0.4, 0.8);
  const auto train_idx = data.indices_excluding_domain(2);
  const auto new_idx = data.indices_of_domain(2);
  SmoreModel model(3, 512);
  model.fit(data.select(train_idx));
  EXPECT_EQ(model.num_domains(), 2u);

  const HvDataset new_domain = data.select(new_idx);
  const std::size_t head = new_domain.size() - 10;
  model.absorb_labeled(
      new_domain.view().slice(0, head),
      std::span<const int>(new_domain.labels()).first(head),
      std::vector<int>(head, 2));
  EXPECT_EQ(model.num_domains(), 3u);
  // The held-back tail of the new domain must classify correctly now.
  std::size_t correct = 0;
  std::size_t total = 0;
  for (std::size_t i = new_domain.size() - 10; i < new_domain.size(); ++i) {
    correct += model.predict(new_domain.row(i)) == new_domain.label(i) ? 1 : 0;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.6);
}

TEST(Smore, CalibrateZeroRateFlagsAlmostNothing) {
  const HvDataset data = separable_hv_dataset(3, 2, 30, 256, 0.4, 0.4);
  SmoreModel model(3, 256);
  model.fit(data);
  model.calibrate_delta_star(data, 0.0);
  EXPECT_LT(model.ood_rate(data), 0.05);
}

TEST(Smore, MaterializedModelAgreesWithFastPath) {
  const HvDataset data = separable_hv_dataset(3, 3, 20, 512, 0.4, 0.6);
  SmoreModel model(3, 512);
  model.fit(data);
  for (std::size_t i = 0; i < data.size(); i += 7) {
    const TestTimeModel ttm = model.materialize_test_time_model(data.row(i));
    EXPECT_EQ(ttm.predict(data.row(i)), model.predict(data.row(i)));
  }
}

TEST(Smore, SingleDomainDegradesGracefully) {
  // K = 1: every weight collapses to the single model — behaves like
  // OnlineHD.
  const HvDataset data = separable_hv_dataset(3, 1, 30, 256, 0.4);
  SmoreModel model(3, 256);
  model.fit(data);
  EXPECT_EQ(model.num_domains(), 1u);
  EXPECT_GT(model.accuracy(data), 0.9);
}

TEST(Smore, WeightModesAllPredictReasonably) {
  const HvDataset all = separable_hv_dataset(3, 3, 25, 512, 0.4, 0.6);
  const auto train_idx = all.indices_excluding_domain(2);
  const auto test_idx = all.indices_of_domain(2);
  for (const WeightMode mode :
       {WeightMode::kStandardizedSoftmax, WeightMode::kClampedSimilarity,
        WeightMode::kRawSimilarity, WeightMode::kSoftmax,
        WeightMode::kTopOne}) {
    SmoreConfig cfg;
    cfg.weight_mode = mode;
    SmoreModel model(3, 512, cfg);
    model.fit(all.select(train_idx));
    EXPECT_GT(model.accuracy(all.select(test_idx)), 1.0 / 3.0)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(Smore, OodSampleUsesAllDomainsInDistributionUsesSubset) {
  const HvDataset data = separable_hv_dataset(2, 3, 20, 512, 0.3, 0.8);
  // Clamped mode makes the weight/similarity relationship directly
  // assertable (the default standardized softmax transforms the scale).
  SmoreConfig clamped;
  clamped.weight_mode = WeightMode::kClampedSimilarity;
  SmoreModel model(2, 512, clamped);
  model.fit(data);

  // Find one in-distribution prediction (non-OOD) and check that weights of
  // sub-threshold domains are zero; find an OOD one and check all weights
  // participate (clamped at 0).
  bool checked_in = false;
  bool checked_ood = false;
  for (std::size_t i = 0; i < data.size() && !(checked_in && checked_ood);
       ++i) {
    const SmorePrediction p = model.predict_detail(data.row(i));
    if (!p.is_ood) {
      for (std::size_t k = 0; k < p.weights.size(); ++k) {
        if (p.domain_similarity[k] < model.config().delta_star) {
          EXPECT_DOUBLE_EQ(p.weights[k], 0.0);
        }
      }
      checked_in = true;
    } else {
      for (std::size_t k = 0; k < p.weights.size(); ++k) {
        EXPECT_DOUBLE_EQ(p.weights[k],
                         std::max(p.domain_similarity[k], 0.0));
      }
      checked_ood = true;
    }
  }
  EXPECT_TRUE(checked_in);
}

}  // namespace
}  // namespace smore
