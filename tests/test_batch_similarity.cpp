// Equivalence tests for the batched similarity engine: every *_batch API and
// the underlying matrix kernels must agree with the per-query scalar path —
// bit-identical for integer predictions, within 1e-6 for similarities (the
// kernels accumulate in double but in a different order than the scalar
// loop). Covers OnlineHD, the descriptor bank, full SMORE predict, and the
// empty / batch-of-one edge cases.

#include "core/smore.hpp"
#include "hdc/hv_matrix.hpp"
#include "hdc/onlinehd.hpp"
#include "hdc/ops.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace smore {
namespace {

constexpr double kTol = 1e-6;

HvMatrix random_block(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  HvMatrix m(rows, dim);
  for (std::size_t i = 0; i < rows * dim; ++i) {
    m.data()[i] = static_cast<float>(rng.normal());
  }
  return m;
}

TEST(BatchKernels, DotBatchMatchesScalarDot) {
  const std::size_t dim = 513;  // odd: exercises the unroll tails
  const std::size_t np = 7;     // not a multiple of the register block
  const HvMatrix q = random_block(1, dim, 1);
  const HvMatrix p = random_block(np, dim, 2);
  std::vector<double> batch(np);
  ops::dot_batch(q.data(), p.data(), np, dim, batch.data());
  for (std::size_t i = 0; i < np; ++i) {
    EXPECT_NEAR(batch[i], ops::dot(q.data(), p.row(i).data(), dim), kTol);
  }
}

TEST(BatchKernels, SimilarityMatrixMatchesCosine) {
  const std::size_t nq = 67;
  const std::size_t np = 5;
  const std::size_t dim = 256;
  const HvMatrix q = random_block(nq, dim, 3);
  const HvMatrix p = random_block(np, dim, 4);
  std::vector<double> serial(nq * np);
  std::vector<double> parallel(nq * np);
  ops::similarity_matrix(q.data(), nq, p.data(), np, dim, serial.data(),
                         nullptr, /*parallel=*/false);
  ops::similarity_matrix(q.data(), nq, p.data(), np, dim, parallel.data(),
                         nullptr, /*parallel=*/true);
  for (std::size_t i = 0; i < nq; ++i) {
    for (std::size_t j = 0; j < np; ++j) {
      const double ref = ops::cosine(q.row(i).data(), p.row(j).data(), dim);
      EXPECT_NEAR(serial[i * np + j], ref, kTol) << i << "," << j;
      // Serial and thread-pooled runs are bit-identical by construction.
      EXPECT_EQ(serial[i * np + j], parallel[i * np + j]);
    }
  }
}

TEST(BatchKernels, SimilarityMatrixZeroVectors) {
  const std::size_t dim = 64;
  HvMatrix q(2, dim);  // row 0 stays zero
  HvMatrix p(2, dim);  // row 1 stays zero
  for (std::size_t j = 0; j < dim; ++j) {
    q.row(1)[j] = 1.0f;
    p.row(0)[j] = 1.0f;
  }
  std::vector<double> sims(4, -7.0);
  ops::similarity_matrix(q.data(), 2, p.data(), 2, dim, sims.data());
  EXPECT_EQ(sims[0], 0.0);  // zero query
  EXPECT_EQ(sims[1], 0.0);
  EXPECT_EQ(sims[3], 0.0);  // zero prototype
  EXPECT_NEAR(sims[2], 1.0, kTol);
}

class BatchModelTest : public ::testing::Test {
 protected:
  static constexpr int kClasses = 4;
  static constexpr int kDomains = 3;
  static constexpr std::size_t kDim = 512;

  void SetUp() override {
    data_ = testing::separable_hv_dataset(kClasses, kDomains, 12, kDim, 0.4,
                                          0.3);
    holdout_ = testing::separable_hv_dataset(kClasses, kDomains, 5, kDim, 0.5,
                                             0.3, 0xbeef);
  }

  HvDataset data_{0};
  HvDataset holdout_{0};
};

TEST_F(BatchModelTest, OnlineHdBatchMatchesScalar) {
  OnlineHDClassifier model(kClasses, kDim);
  OnlineHDConfig cfg;
  cfg.epochs = 3;
  model.fit(data_, cfg);

  const std::vector<int> batch = model.predict_batch(holdout_.view());
  const std::vector<double> sims = model.similarities_batch(holdout_.view());
  ASSERT_EQ(batch.size(), holdout_.size());
  ASSERT_EQ(sims.size(), holdout_.size() * kClasses);
  for (std::size_t i = 0; i < holdout_.size(); ++i) {
    // Independent scalar reference: argmax over per-class cosines.
    int ref = 0;
    double best = -2.0;
    for (int c = 0; c < kClasses; ++c) {
      const double s = cosine_similarity(
          Hypervector(std::vector<float>(holdout_.row(i).begin(),
                                         holdout_.row(i).end())),
          Hypervector(model.class_vector(c)));
      EXPECT_NEAR(sims[i * kClasses + static_cast<std::size_t>(c)], s, kTol);
      if (s > best) {
        best = s;
        ref = c;
      }
    }
    EXPECT_EQ(batch[i], ref) << "query " << i;
    EXPECT_EQ(model.predict(holdout_.row(i)), batch[i]);
  }
}

TEST_F(BatchModelTest, DescriptorBankBatchMatchesScalar) {
  const DomainDescriptorBank bank(data_);
  const std::vector<double> batch = bank.similarities_batch(holdout_.view());
  ASSERT_EQ(batch.size(), holdout_.size() * bank.size());
  for (std::size_t i = 0; i < holdout_.size(); ++i) {
    for (std::size_t k = 0; k < bank.size(); ++k) {
      const double ref = ops::cosine(holdout_.row(i).data(),
                                     bank.descriptor(k).data(), kDim);
      EXPECT_NEAR(batch[i * bank.size() + k], ref, kTol);
    }
  }
}

TEST_F(BatchModelTest, SmorePredictBatchMatchesScalarDetail) {
  SmoreModel model(kClasses, kDim);
  model.fit(data_);

  const std::vector<int> batch = model.predict_batch(holdout_.view());
  const SmoreEvaluation eval = model.evaluate(holdout_);
  ASSERT_EQ(batch.size(), holdout_.size());

  std::size_t correct = 0;
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < holdout_.size(); ++i) {
    // predict_detail runs the scalar Gram path (one query at a time).
    const SmorePrediction detail = model.predict_detail(holdout_.row(i));
    EXPECT_EQ(batch[i], detail.label) << "query " << i;
    correct += detail.label == holdout_.label(i) ? 1 : 0;
    flagged += detail.is_ood ? 1 : 0;
  }
  const auto n = static_cast<double>(holdout_.size());
  EXPECT_DOUBLE_EQ(eval.accuracy, static_cast<double>(correct) / n);
  EXPECT_DOUBLE_EQ(eval.ood_rate, static_cast<double>(flagged) / n);
  EXPECT_DOUBLE_EQ(model.accuracy(holdout_), eval.accuracy);
  EXPECT_DOUBLE_EQ(model.ood_rate(holdout_), eval.ood_rate);
}

TEST_F(BatchModelTest, BatchOfOneEqualsScalar) {
  SmoreModel model(kClasses, kDim);
  model.fit(data_);
  const HvView one(holdout_.row(0));
  EXPECT_EQ(one.rows, 1u);
  const std::vector<int> batch = model.predict_batch(one);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], model.predict(holdout_.row(0)));
}

TEST_F(BatchModelTest, EmptyBatchReturnsEmpty) {
  SmoreModel model(kClasses, kDim);
  model.fit(data_);
  OnlineHDClassifier hd(kClasses, kDim);
  hd.bootstrap(data_.row(0), data_.label(0));

  const HvView empty;
  EXPECT_TRUE(model.predict_batch(empty).empty());
  EXPECT_TRUE(model.similarities_batch(empty).empty());
  EXPECT_TRUE(hd.predict_batch(empty).empty());
  EXPECT_TRUE(hd.similarities_batch(empty).empty());

  const HvDataset no_rows(kDim);
  const SmoreEvaluation eval = model.evaluate(no_rows);
  EXPECT_EQ(eval.accuracy, 0.0);
  EXPECT_EQ(eval.ood_rate, 0.0);
}

TEST_F(BatchModelTest, DimensionMismatchThrows) {
  SmoreModel model(kClasses, kDim);
  model.fit(data_);
  const HvMatrix wrong = random_block(3, kDim / 2, 9);
  EXPECT_THROW(model.predict_batch(wrong.view()), std::invalid_argument);
  OnlineHDClassifier hd(kClasses, kDim);
  EXPECT_THROW(hd.predict_batch(wrong.view()), std::invalid_argument);
  EXPECT_THROW(hd.similarities_batch(wrong.view()), std::invalid_argument);
}

TEST(EnsembleEvaluatorBatch, AllNegativeScoresStillFindArgmax) {
  // Regression: predict_batch scores are unnormalized by the query norm, so
  // with a large-norm query and all-negative cosines every score can fall
  // below the cosine range — a -2 argmax sentinel would freeze on class 0.
  const std::size_t dim = 8;
  OnlineHDClassifier model(2, dim);
  std::vector<float> q(dim, 2.0f);  // ‖q‖ ≈ 5.7
  std::vector<float> anti(dim);
  for (std::size_t j = 0; j < dim; ++j) anti[j] = -q[j];
  std::vector<float> mild(dim, 0.0f);
  mild[0] = -0.1f;
  model.set_class_vector(0, Hypervector(anti));   // cosine(q, C_0) = -1
  model.set_class_vector(1, Hypervector(mild));   // cosine(q, C_1) ≈ -0.35
  const EnsembleEvaluator evaluator({&model});
  const std::vector<double> w{1.0};
  const HvView query{std::span<const float>(q)};
  const std::vector<int> batch = evaluator.predict_batch(query, w);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[0], evaluator.predict(q, w));
}

TEST_F(BatchModelTest, BatchCachesFollowContinualUpdates) {
  SmoreModel model(kClasses, kDim);
  model.fit(data_);
  const std::vector<int> before = model.predict_batch(holdout_.view());
  // Absorb a labeled sample into a brand-new domain: the descriptor matrix
  // and the evaluator must reflect it on the very next batch call.
  model.absorb_labeled(holdout_.view().slice(0, 1),
                       std::vector<int>{holdout_.label(0)}, std::vector<int>{99});
  const std::vector<int> after = model.predict_batch(holdout_.view());
  ASSERT_EQ(after.size(), holdout_.size());
  for (std::size_t i = 0; i < holdout_.size(); ++i) {
    EXPECT_EQ(after[i], model.predict_detail(holdout_.row(i)).label);
  }
  (void)before;
}

}  // namespace
}  // namespace smore
