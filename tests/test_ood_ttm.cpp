// Unit tests for OOD detection (Algorithm 1 lines 1-2) and the test-time
// model / ensemble weighting (Sec 3.6, Eq. 3).

#include "core/ood.hpp"
#include "core/test_time_model.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace smore {
namespace {

using testing::separable_hv_dataset;

// ----- OodDetector -----

TEST(Ood, ThresholdValidation) {
  EXPECT_THROW(OodDetector(1.5), std::invalid_argument);
  EXPECT_THROW(OodDetector(-1.5), std::invalid_argument);
  OodDetector d(0.5);
  EXPECT_THROW(d.set_delta_star(2.0), std::invalid_argument);
  d.set_delta_star(0.7);
  EXPECT_DOUBLE_EQ(d.delta_star(), 0.7);
}

TEST(Ood, FlagsBelowThreshold) {
  const OodDetector d(0.65);
  const std::vector<double> sims{0.2, 0.5, 0.64};
  const OodVerdict v = d.evaluate(sims);
  EXPECT_TRUE(v.is_ood);
  EXPECT_DOUBLE_EQ(v.max_similarity, 0.64);
  EXPECT_EQ(v.best_domain, 2u);
}

TEST(Ood, PassesAtOrAboveThreshold) {
  const OodDetector d(0.65);
  const std::vector<double> sims{0.1, 0.65};
  EXPECT_FALSE(d.evaluate(sims).is_ood);  // δ_max == δ* is in-distribution
}

TEST(Ood, EmptySimilaritiesThrow) {
  const OodDetector d(0.5);
  EXPECT_THROW((void)d.evaluate(std::vector<double>{}), std::invalid_argument);
}

TEST(Ood, ThresholdMonotonicity) {
  // Raising δ* can only turn in-distribution verdicts into OOD, never the
  // other way.
  const std::vector<double> sims{0.3, 0.55};
  bool was_ood = false;
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    const bool now = OodDetector(t).evaluate(sims).is_ood;
    EXPECT_TRUE(!was_ood || now) << "monotonicity violated at " << t;
    was_ood = now;
  }
}

// ----- ensemble_weights -----

TEST(EnsembleWeights, OodUsesAllDomains) {
  const std::vector<double> sims{0.3, 0.5, 0.1};
  const auto w = ensemble_weights(sims, 0.65, /*is_ood=*/true,
                                  WeightMode::kRawSimilarity);
  EXPECT_EQ(w, sims);  // Eq. 3 verbatim
}

TEST(EnsembleWeights, InDistributionDropsDissimilar) {
  const std::vector<double> sims{0.3, 0.7, 0.66};
  const auto w = ensemble_weights(sims, 0.65, /*is_ood=*/false,
                                  WeightMode::kRawSimilarity);
  EXPECT_DOUBLE_EQ(w[0], 0.0);  // below δ*
  EXPECT_DOUBLE_EQ(w[1], 0.7);
  EXPECT_DOUBLE_EQ(w[2], 0.66);
}

TEST(EnsembleWeights, ClampedRemovesNegatives) {
  const std::vector<double> sims{-0.2, 0.4};
  const auto w = ensemble_weights(sims, 0.65, true,
                                  WeightMode::kClampedSimilarity);
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[1], 0.4);
}

TEST(EnsembleWeights, SoftmaxNormalizedAndOrdered) {
  const std::vector<double> sims{0.2, 0.6, 0.4};
  const auto w = ensemble_weights(sims, 0.0, true, WeightMode::kSoftmax);
  double sum = 0.0;
  for (const double x : w) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(w[1], w[2]);
  EXPECT_GT(w[2], w[0]);
}

TEST(EnsembleWeights, SoftmaxRespectsInDistributionDrop) {
  const std::vector<double> sims{0.3, 0.7, 0.8};
  const auto w = ensemble_weights(sims, 0.65, false, WeightMode::kSoftmax);
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_NEAR(w[1] + w[2], 1.0, 1e-9);
}

TEST(EnsembleWeights, TopOneWinnerTakeAll) {
  const std::vector<double> sims{0.3, 0.9, 0.5};
  const auto w = ensemble_weights(sims, 0.65, false, WeightMode::kTopOne);
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[1], 1.0);
  EXPECT_DOUBLE_EQ(w[2], 0.0);
}

TEST(EnsembleWeights, DegenerateAllZeroFallsBackToUniform) {
  const std::vector<double> sims{-0.5, -0.7};
  const auto w = ensemble_weights(sims, 0.65, true,
                                  WeightMode::kClampedSimilarity);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 1.0);
}

// ----- TestTimeModel & EnsembleEvaluator -----

class TtmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = separable_hv_dataset(3, 2, 25, 512, 0.4, 0.6);
    for (int d = 0; d < 2; ++d) {
      auto model = std::make_unique<OnlineHDClassifier>(3, 512);
      OnlineHDConfig cfg;
      cfg.epochs = 5;
      model->fit(data_.select(data_.indices_of_domain(d)), cfg);
      models_.push_back(std::move(model));
    }
    ptrs_ = {models_[0].get(), models_[1].get()};
  }

  HvDataset data_{512};
  std::vector<std::unique_ptr<OnlineHDClassifier>> models_;
  std::vector<const OnlineHDClassifier*> ptrs_;
};

TEST_F(TtmTest, MaterializedEnsembleIsWeightedSum) {
  const std::vector<double> w{0.25, 0.75};
  const TestTimeModel ttm(ptrs_, w);
  for (int c = 0; c < 3; ++c) {
    Hypervector expected(512);
    expected.add_scaled(Hypervector(models_[0]->class_vector(c)), 0.25f);
    expected.add_scaled(Hypervector(models_[1]->class_vector(c)), 0.75f);
    EXPECT_EQ(ttm.class_vector(c), expected);
  }
}

TEST_F(TtmTest, ArityMismatchThrows) {
  const std::vector<double> w{1.0};
  EXPECT_THROW(TestTimeModel(ptrs_, w), std::invalid_argument);
}

TEST_F(TtmTest, EvaluatorMatchesMaterializedArgmax) {
  // The Gram-matrix fast path must agree with the paper-literal materialized
  // model on every sample and several weightings.
  const EnsembleEvaluator eval(ptrs_);
  const std::vector<std::vector<double>> weightings{
      {1.0, 1.0}, {0.9, 0.1}, {0.0, 1.0}, {0.3, 0.6}};
  for (const auto& w : weightings) {
    const TestTimeModel ttm(ptrs_, w);
    for (std::size_t i = 0; i < data_.size(); ++i) {
      EXPECT_EQ(eval.predict(data_.row(i), w), ttm.predict(data_.row(i)))
          << "sample " << i;
    }
  }
}

TEST_F(TtmTest, EvaluatorSimilaritiesMatchMaterializedCosines) {
  const EnsembleEvaluator eval(ptrs_);
  const std::vector<double> w{0.4, 0.8};
  const TestTimeModel ttm(ptrs_, w);
  const auto sims = eval.class_similarities(data_.row(0), w);
  for (int c = 0; c < 3; ++c) {
    const double direct = ops::cosine(data_.row(0).data(),
                                      ttm.class_vector(c).data(), 512);
    EXPECT_NEAR(sims[static_cast<std::size_t>(c)], direct, 1e-6);
  }
}

TEST_F(TtmTest, EvaluatorValidatesInputs) {
  const EnsembleEvaluator eval(ptrs_);
  const std::vector<double> w{0.5, 0.5};
  const std::vector<float> bad_dim(64, 0.0f);
  EXPECT_THROW((void)eval.predict(bad_dim, w), std::invalid_argument);
  const std::vector<double> bad_w{1.0};
  EXPECT_THROW((void)eval.predict(data_.row(0), bad_w), std::invalid_argument);
}

TEST(EnsembleEvaluatorStandalone, IncrementalRebuildEqualsAFullRebuild) {
  // Four trained models, then two successors of that set: one touches a
  // model (a copy with one more update) and adds a new one, one only drops
  // models. Reusing the previous Gram entries must give, bit for bit, what
  // a rebuild from scratch gives.
  const HvDataset data = separable_hv_dataset(3, 5, 10, 256, 0.4, 0.6);
  std::vector<OnlineHDClassifier> models;
  for (int d = 0; d < 5; ++d) {
    OnlineHDClassifier m(3, 256);
    OnlineHDConfig cfg;
    cfg.epochs = 3;
    m.fit(data.select(data.indices_of_domain(d)), cfg);
    models.push_back(std::move(m));
  }
  const EnsembleEvaluator first(
      {&models[0], &models[1], &models[2], &models[3]});
  OnlineHDClassifier touched = models[2];
  touched.bootstrap(data.row(0), data.label(0));
  constexpr std::size_t kChanged = EnsembleEvaluator::kChanged;
  const auto expect_same = [&](const std::vector<const OnlineHDClassifier*>& set,
                               const std::vector<std::size_t>& positions) {
    const EnsembleEvaluator incremental(set, &first, positions);
    const EnsembleEvaluator full(set);
    ASSERT_EQ(incremental.num_models(), set.size());
    std::vector<double> w(set.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      for (std::size_t k = 0; k < w.size(); ++k) {
        w[k] = (i + k) % 3 == 0 ? 0.0 : 0.25 * static_cast<double>(k + 1);
      }
      EXPECT_EQ(incremental.class_similarities(data.row(i), w),
                full.class_similarities(data.row(i), w))
          << "sample " << i;
    }
  };
  expect_same({&models[0], &touched, &models[3], &models[4]},
              {0, kChanged, 3, kChanged});
  expect_same({&models[1], &models[3]}, {1, 3});

  // A mapping that does not fit the previous set is rejected.
  EXPECT_THROW(EnsembleEvaluator({&models[0]}, &first,
                                 std::vector<std::size_t>{0, 1}),
               std::invalid_argument);
  EXPECT_THROW(EnsembleEvaluator({&models[0]}, &first,
                                 std::vector<std::size_t>{4}),
               std::invalid_argument);
}

TEST(EnsembleEvaluatorStandalone, RejectsEmptyAndHeterogeneous) {
  EXPECT_THROW(EnsembleEvaluator({}), std::invalid_argument);
  OnlineHDClassifier a(2, 16);
  OnlineHDClassifier b(3, 16);
  EXPECT_THROW(EnsembleEvaluator({&a, &b}), std::invalid_argument);
}

}  // namespace
}  // namespace smore
