// Unit tests for the OnlineHD classifier (BaselineHD / SMORE's per-domain
// learner): Eq. 1-2 semantics, convergence on separable data, serialization.

#include "hdc/onlinehd.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.hpp"

namespace smore {
namespace {

using testing::separable_hv_dataset;

TEST(OnlineHD, RejectsBadConstruction) {
  EXPECT_THROW(OnlineHDClassifier(0, 16), std::invalid_argument);
  EXPECT_THROW(OnlineHDClassifier(-2, 16), std::invalid_argument);
  EXPECT_THROW(OnlineHDClassifier(3, 0), std::invalid_argument);
}

TEST(OnlineHD, BootstrapPullsClassVectorTowardSample) {
  OnlineHDClassifier model(2, 64);
  std::vector<float> hv(64, 0.0f);
  hv[0] = 1.0f;
  hv[1] = -1.0f;
  model.bootstrap(hv, 1);
  EXPECT_GT(model.class_vector(1)[0], 0.9f);
  EXPECT_LT(model.class_vector(1)[1], -0.9f);
  // Untouched class stays zero.
  EXPECT_DOUBLE_EQ(Hypervector(model.class_vector(0)).norm(), 0.0);
}

TEST(OnlineHD, BootstrapAdaptiveWeightShrinks) {
  // Second identical sample adds (1 - δ) ≈ 0: norm barely changes.
  OnlineHDClassifier model(1, 64);
  std::vector<float> hv(64, 1.0f);
  model.bootstrap(hv, 0);
  const double n1 = Hypervector(model.class_vector(0)).norm();
  model.bootstrap(hv, 0);
  const double n2 = Hypervector(model.class_vector(0)).norm();
  EXPECT_NEAR(n2, n1, 1e-3 * n1);
}

TEST(OnlineHD, RefineCorrectSampleIsNoop) {
  OnlineHDClassifier model(2, 32);
  std::vector<float> hv(32, 0.0f);
  hv[0] = 1.0f;
  model.bootstrap(hv, 0);
  const Hypervector before(model.class_vector(0));
  EXPECT_TRUE(model.refine(hv, 0, 0.1f));  // already correct
  EXPECT_EQ(Hypervector(model.class_vector(0)), before);
}

TEST(OnlineHD, RefineMispredictionMovesBothClasses) {
  // Eq. 2: true class reinforced, wrongly-predicted class repelled.
  OnlineHDClassifier model(2, 32);
  std::vector<float> hv(32, 0.0f);
  hv[0] = 1.0f;
  model.bootstrap(hv, 0);  // class 0 owns the pattern
  const double sim_before = model.similarities(hv)[1];
  EXPECT_FALSE(model.refine(hv, 1, 0.5f));  // label says class 1
  const auto sims = model.similarities(hv);
  EXPECT_GT(sims[1], sim_before);  // pulled toward class 1
}

TEST(OnlineHD, FitLearnsSeparableData) {
  const HvDataset data = separable_hv_dataset(4, 1, 40, 512, 0.5);
  OnlineHDClassifier model(4, 512);
  OnlineHDConfig cfg;
  cfg.epochs = 10;
  model.fit(data, cfg);
  EXPECT_GT(model.accuracy(data), 0.95);
}

TEST(OnlineHD, FitHistoryConverges) {
  const HvDataset data = separable_hv_dataset(3, 1, 30, 256, 0.5);
  OnlineHDClassifier model(3, 256);
  OnlineHDConfig cfg;
  cfg.epochs = 8;
  const auto history = model.fit(data, cfg);
  ASSERT_EQ(history.size(), 8u);
  EXPECT_GT(history.back(), history.front() - 0.05);
  EXPECT_GT(history.back(), 0.9);
}

TEST(OnlineHD, FitDimensionMismatchThrows) {
  const HvDataset data = separable_hv_dataset(2, 1, 5, 64);
  OnlineHDClassifier model(2, 128);
  EXPECT_THROW(model.fit(data, {}), std::invalid_argument);
}

TEST(OnlineHD, PredictUnseenSimilarPattern) {
  // Generalization: class prototypes classify noisy variants.
  const HvDataset train = separable_hv_dataset(3, 1, 50, 512, 0.4, 0.0, 1);
  const HvDataset test = separable_hv_dataset(3, 1, 20, 512, 0.4, 0.0, 2);
  OnlineHDClassifier model(3, 512);
  OnlineHDConfig cfg;
  cfg.epochs = 10;
  model.fit(train, cfg);
  // Same prototypes (same base seed inside helper) — wait: different seeds
  // produce different prototypes, so regenerate with the train seed and use
  // fresh noise only. separable_hv_dataset draws prototypes from `seed`, so
  // seed 1 vs 2 differ entirely; instead test on train-noise level data from
  // the same seed by re-sampling:
  const HvDataset retest = separable_hv_dataset(3, 1, 20, 512, 0.6, 0.0, 1);
  EXPECT_GT(model.accuracy(retest), 0.9);
  (void)test;
}

TEST(OnlineHD, SimilaritiesSizeAndRange) {
  const HvDataset data = separable_hv_dataset(5, 1, 10, 128);
  OnlineHDClassifier model(5, 128);
  model.fit(data, {});
  const auto sims = model.similarities(data.row(0));
  ASSERT_EQ(sims.size(), 5u);
  for (const double s : sims) {
    EXPECT_GE(s, -1.0001);
    EXPECT_LE(s, 1.0001);
  }
}

TEST(OnlineHD, DeterministicGivenSeed) {
  const HvDataset data = separable_hv_dataset(3, 1, 20, 128);
  OnlineHDConfig cfg;
  cfg.epochs = 5;
  cfg.seed = 42;
  OnlineHDClassifier m1(3, 128);
  OnlineHDClassifier m2(3, 128);
  const auto h1 = m1.fit(data, cfg);
  const auto h2 = m2.fit(data, cfg);
  EXPECT_EQ(h1, h2);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(Hypervector(m1.class_vector(c)), Hypervector(m2.class_vector(c)));
  }
}

TEST(OnlineHD, SaveLoadRoundTrip) {
  const HvDataset data = separable_hv_dataset(3, 1, 20, 128);
  OnlineHDClassifier model(3, 128);
  model.fit(data, {});
  std::stringstream buffer;
  model.save(buffer);
  const OnlineHDClassifier loaded = OnlineHDClassifier::load(buffer);
  EXPECT_EQ(loaded.num_classes(), 3);
  EXPECT_EQ(loaded.dim(), 128u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(loaded.predict(data.row(i)), model.predict(data.row(i)));
  }
}

TEST(OnlineHD, LoadCorruptHeaderThrows) {
  std::stringstream buffer;
  buffer.write("xx", 2);
  EXPECT_THROW(OnlineHDClassifier::load(buffer), std::runtime_error);
}

TEST(OnlineHD, SetClassVectorUpdatesPrediction) {
  OnlineHDClassifier model(2, 16);
  Hypervector proto(16);
  proto[3] = 1.0f;
  model.set_class_vector(1, proto);
  std::vector<float> query(16, 0.0f);
  query[3] = 2.0f;
  EXPECT_EQ(model.predict(query), 1);
}

TEST(OnlineHD, AccuracyOnEmptyDatasetIsZero) {
  OnlineHDClassifier model(2, 16);
  EXPECT_DOUBLE_EQ(model.accuracy(HvDataset(16)), 0.0);
}

}  // namespace
}  // namespace smore
