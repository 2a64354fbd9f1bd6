// Unit tests for binarized inference: bit packing, Hamming algebra, the
// blocked packed kernels (ops::hamming_matrix / sign_pack_matrix vs the
// scalar BinaryVector reference), and accuracy retention after sign
// quantization of BinaryModel and BinarySmoreModel.

#include "hdc/binary.hpp"

#include <gtest/gtest.h>

#include "core/binary_smore.hpp"
#include "hdc/bit_matrix.hpp"
#include "hdc/ops_binary.hpp"
#include "test_util.hpp"

namespace smore {
namespace {

using testing::separable_hv_dataset;

/// Random float matrix with positive and negative entries.
HvMatrix random_block(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  HvMatrix block(rows, dim);
  for (std::size_t i = 0; i < rows * dim; ++i) {
    block.data()[i] = static_cast<float>(rng.normal());
  }
  return block;
}

TEST(BinaryVector, PacksBitsBySign) {
  const std::vector<float> v{1.0f, -2.0f, 0.0f, -0.5f, 3.0f};
  const BinaryVector b{v};
  EXPECT_EQ(b.dim(), 5u);
  EXPECT_EQ(b.bit(0), 1);
  EXPECT_EQ(b.bit(1), 0);
  EXPECT_EQ(b.bit(2), 1);  // >= 0 maps to 1
  EXPECT_EQ(b.bit(3), 0);
  EXPECT_EQ(b.bit(4), 1);
}

TEST(BinaryVector, HammingBasics) {
  const std::vector<float> a{1.0f, 1.0f, -1.0f, -1.0f};
  const std::vector<float> b{1.0f, -1.0f, -1.0f, 1.0f};
  const BinaryVector ba{a};
  const BinaryVector bb{b};
  EXPECT_EQ(ba.hamming(ba), 0u);
  EXPECT_EQ(ba.hamming(bb), 2u);
  EXPECT_EQ(bb.hamming(ba), 2u);  // symmetric
}

TEST(BinaryVector, HammingDimMismatchThrows) {
  const std::vector<float> a(8, 1.0f);
  const std::vector<float> b(16, 1.0f);
  EXPECT_THROW((void)BinaryVector{a}.hamming(BinaryVector{b}),
               std::invalid_argument);
}

TEST(BinaryVector, SimilarityMatchesBipolarCosine) {
  // For exactly bipolar vectors, 1 - 2h/d equals the cosine.
  Rng rng(3);
  const auto a = Hypervector::random_bipolar(512, rng);
  const auto b = Hypervector::random_bipolar(512, rng);
  const BinaryVector ba(a.span());
  const BinaryVector bb(b.span());
  EXPECT_NEAR(ba.similarity(bb), cosine_similarity(a, b), 1e-9);
  EXPECT_NEAR(ba.similarity(ba), 1.0, 1e-12);
}

TEST(BinaryVector, CrossesWordBoundaries) {
  // dim = 130 spans three 64-bit words; flip one bit in the last word.
  std::vector<float> a(130, 1.0f);
  std::vector<float> b(130, 1.0f);
  b[129] = -1.0f;
  EXPECT_EQ(BinaryVector{a}.hamming(BinaryVector{b}), 1u);
}

TEST(BinaryModel, FootprintIs32xSmaller) {
  OnlineHDClassifier model(4, 2048);
  const BinaryModel binary(model);
  EXPECT_EQ(binary.footprint_bytes(), 4u * 2048 / 8);
  EXPECT_EQ(binary.num_classes(), 4);
  EXPECT_EQ(binary.dim(), 2048u);
}

TEST(BinaryModel, RetainsMostAccuracyOnSeparableData) {
  const HvDataset data = separable_hv_dataset(4, 1, 40, 2048, 0.5);
  OnlineHDClassifier model(4, 2048);
  OnlineHDConfig cfg;
  cfg.epochs = 10;
  model.fit(data, cfg);
  const double full = model.accuracy(data);
  const BinaryModel binary(model);
  EXPECT_GT(binary.accuracy(data), full - 0.08);
}

TEST(BinaryModel, PredictsQuantizedQueriesConsistently) {
  const HvDataset data = separable_hv_dataset(3, 1, 10, 256, 0.4);
  OnlineHDClassifier model(3, 256);
  model.fit(data, {});
  const BinaryModel binary(model);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const BinaryVector q(data.row(i));
    EXPECT_EQ(binary.predict(q), binary.predict(data.row(i)));
  }
}

TEST(BinaryModel, DimMismatchThrows) {
  OnlineHDClassifier model(2, 64);
  const BinaryModel binary(model);
  const std::vector<float> bad(32, 1.0f);
  EXPECT_THROW((void)binary.predict(bad), std::invalid_argument);
}

// --- packed kernel layer -------------------------------------------------

TEST(OpsSignPack, MatrixMatchesBinaryVectorAtAwkwardDims) {
  // Round-trip at non-multiple-of-64 dims: the packed rows must equal the
  // scalar BinaryVector packing word for word (padding bits included).
  for (const std::size_t dim : {1u, 63u, 64u, 65u, 127u, 130u, 192u}) {
    const HvMatrix block = random_block(9, dim, 0xbeef + dim);
    const BitMatrix packed = ops::sign_pack_matrix(block.view());
    ASSERT_EQ(packed.rows(), 9u);
    ASSERT_EQ(packed.dim(), dim);
    ASSERT_EQ(packed.words_per_row(), (dim + 63) / 64);
    for (std::size_t r = 0; r < packed.rows(); ++r) {
      const BinaryVector reference(block.row(r));
      for (std::size_t w = 0; w < packed.words_per_row(); ++w) {
        ASSERT_EQ(packed.row(r)[w], reference.words()[w])
            << "dim " << dim << " row " << r << " word " << w;
      }
      for (std::size_t j = 0; j < dim; ++j) {
        ASSERT_EQ(packed.bit(r, j), block.row(r)[j] >= 0.0f ? 1 : 0);
      }
    }
  }
}

TEST(OpsHamming, MatrixBitIdenticalToScalarLoopAnyThreading) {
  // nq = 150 crosses the kBitRowTile boundary, np = 19 exercises both the
  // 4-wide register block and its remainder, dim = 130 has padding bits.
  const std::size_t nq = 150, np = 19, dim = 130;
  const HvMatrix queries = random_block(nq, dim, 0x9a);
  const HvMatrix protos = random_block(np, dim, 0x9b);
  const BitMatrix qbits = ops::sign_pack_matrix(queries.view());
  const BitMatrix pbits = ops::sign_pack_matrix(protos.view());

  std::vector<std::size_t> serial(nq * np);
  std::vector<std::size_t> parallel(nq * np);
  ops::hamming_matrix(qbits.view(), pbits.view(), serial.data(),
                      /*parallel=*/false);
  ops::hamming_matrix(qbits.view(), pbits.view(), parallel.data(),
                      /*parallel=*/true);
  EXPECT_EQ(serial, parallel);  // integer distances: bit-identical

  for (std::size_t q = 0; q < nq; ++q) {
    const BinaryVector bq(queries.row(q));
    for (std::size_t p = 0; p < np; ++p) {
      ASSERT_EQ(serial[q * np + p], bq.hamming(BinaryVector(protos.row(p))))
          << "q " << q << " p " << p;
    }
  }
}

TEST(OpsHamming, SimilarityMatrixMatchesScalarSimilarity) {
  const std::size_t nq = 70, np = 5, dim = 512;
  const HvMatrix queries = random_block(nq, dim, 0x11);
  const HvMatrix protos = random_block(np, dim, 0x12);
  const BitMatrix qbits = ops::sign_pack_matrix(queries.view());
  const BitMatrix pbits = ops::sign_pack_matrix(protos.view());
  std::vector<double> sims(nq * np);
  ops::binary_similarity_matrix(qbits.view(), pbits.view(), sims.data());
  for (std::size_t q = 0; q < nq; ++q) {
    const BinaryVector bq(queries.row(q));
    for (std::size_t p = 0; p < np; ++p) {
      EXPECT_DOUBLE_EQ(sims[q * np + p],
                       bq.similarity(BinaryVector(protos.row(p))));
    }
  }
}

TEST(BinaryModel, BatchMatchesScalarPredict) {
  const HvDataset data = separable_hv_dataset(5, 1, 12, 320, 0.5);
  OnlineHDClassifier model(5, 320);
  model.fit(data, {});
  const BinaryModel binary(model);

  const std::vector<int> batch = binary.predict_batch(data.view());
  const BitMatrix packed = ops::sign_pack_matrix(data.view());
  const std::vector<int> packed_batch = binary.predict_batch(packed.view());
  ASSERT_EQ(batch.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const int scalar = binary.predict(BinaryVector(data.row(i)));
    EXPECT_EQ(batch[i], scalar);
    EXPECT_EQ(packed_batch[i], scalar);
    EXPECT_EQ(binary.predict(data.row(i)), scalar);
  }
  EXPECT_DOUBLE_EQ(binary.accuracy(data),
                   binary.evaluate(packed.view(), data.labels()));
}

// --- quantized SMORE ------------------------------------------------------

TEST(BinarySmoreModel, RequiresTrainedModel) {
  const SmoreModel model(3, 256);
  EXPECT_THROW((void)BinarySmoreModel(model), std::logic_error);
}

TEST(BinarySmoreModel, QuantizedAccuracyGapBoundOnMultiDomainData) {
  // Synthetic multi-domain dataset with controlled shift: the packed model
  // must stay within a small gap of the float model it was quantized from.
  const HvDataset data =
      separable_hv_dataset(4, 3, 25, 2048, 0.5, /*domain_skew=*/0.3);
  SmoreConfig cfg;
  cfg.domain_model.epochs = 8;
  SmoreModel model(4, 2048, cfg);
  model.fit(data);
  const SmoreEvaluation full = model.evaluate(data);

  BinarySmoreModel binary(model);
  binary.calibrate_delta_star(data, 0.05);
  const SmoreEvaluation quant = binary.evaluate(data);
  EXPECT_GT(full.accuracy, 0.9);  // the float model must be competent here
  EXPECT_GT(quant.accuracy, full.accuracy - 0.08);
  EXPECT_GE(quant.ood_rate, 0.0);
  EXPECT_LE(quant.ood_rate, 1.0);
}

TEST(BinarySmoreModel, CalibratedOodRateTracksTarget) {
  const HvDataset data =
      separable_hv_dataset(3, 3, 20, 1024, 0.4, /*domain_skew=*/0.2);
  SmoreModel model(3, 1024);
  model.fit(data);
  BinarySmoreModel binary(model);
  const double delta = binary.calibrate_delta_star(data, 0.10);
  EXPECT_EQ(delta, binary.delta_star());
  const SmoreEvaluation eval = binary.evaluate(data);
  // Quantile calibration: the in-distribution OOD rate lands near target.
  EXPECT_NEAR(eval.ood_rate, 0.10, 0.05);
}

TEST(BinarySmoreModel, PackedEntitiesAndFootprint) {
  const HvDataset data = separable_hv_dataset(4, 2, 10, 2048, 0.4, 0.2);
  SmoreModel model(4, 2048);
  model.fit(data);
  const BinarySmoreModel binary(model);
  EXPECT_EQ(binary.num_domains(), model.num_domains());
  EXPECT_EQ(binary.num_classes(), 4);
  EXPECT_EQ(binary.dim(), 2048u);
  // Descriptors K×d bits + class banks K·C×d bits.
  const std::size_t expected =
      model.num_domains() * (2048 / 8) + model.num_domains() * 4 * (2048 / 8);
  EXPECT_EQ(binary.footprint_bytes(), expected);
  // Packed bits must equal the scalar quantization of the float prototypes.
  for (std::size_t k = 0; k < model.num_domains(); ++k) {
    const BinaryVector ref(model.descriptors().descriptor(k));
    for (std::size_t w = 0; w < binary.descriptor_bits().words_per_row(); ++w) {
      ASSERT_EQ(binary.descriptor_bits().row(k)[w], ref.words()[w]);
    }
  }
  // Scalar predict is the batch of one.
  const std::vector<int> batch = binary.predict_batch(data.view());
  EXPECT_EQ(binary.predict(data.row(0)), batch[0]);
}

}  // namespace
}  // namespace smore
