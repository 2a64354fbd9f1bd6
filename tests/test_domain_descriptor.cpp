// Unit tests for domain descriptors (Sec 3.5.1): membership similarity,
// id ordering, incremental absorption.

#include "core/domain_descriptor.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace smore {
namespace {

using testing::separable_hv_dataset;

TEST(DomainDescriptor, EmptyTrainingSetThrows) {
  EXPECT_THROW(DomainDescriptorBank{HvDataset(16)}, std::invalid_argument);
}

TEST(DomainDescriptor, OneDescriptorPerDomain) {
  const HvDataset data = separable_hv_dataset(2, 3, 10, 128);
  const DomainDescriptorBank bank(data);
  EXPECT_EQ(bank.size(), 3u);
  EXPECT_EQ(bank.dim(), 128u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(bank.domain_id(k), static_cast<int>(k));
    EXPECT_EQ(bank.sample_count(k), 20u);  // 2 classes × 10
  }
}

TEST(DomainDescriptor, DescriptorIsBundleOfDomainRows) {
  const HvDataset data = separable_hv_dataset(2, 2, 5, 64);
  const DomainDescriptorBank bank(data);
  // The bank accumulates in double wide counters and mirrors to float, so
  // the reference bundle is the float cast of the exact double sum.
  std::vector<double> acc(64, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.domain(i) == 1) {
      const auto row = data.row(i);
      for (std::size_t j = 0; j < 64; ++j) acc[j] += row[j];
    }
  }
  Hypervector expected(64);
  for (std::size_t j = 0; j < 64; ++j) {
    expected[j] = static_cast<float>(acc[j]);
  }
  EXPECT_EQ(Hypervector(bank.descriptor(1)), expected);
}

TEST(DomainDescriptor, MembersMoreSimilarThanOutsiders) {
  // The core Sec 3.5.1 property: U_k is cosine-similar to its own samples
  // and much less similar to samples of other (skewed) domains.
  const HvDataset data = separable_hv_dataset(3, 3, 20, 2048, 0.3, 1.2);
  const DomainDescriptorBank bank(data);
  double own = 0.0;
  double other = 0.0;
  std::size_t n_own = 0;
  std::size_t n_other = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto sims = bank.similarities(data.row(i));
    for (std::size_t k = 0; k < bank.size(); ++k) {
      if (bank.domain_id(k) == data.domain(i)) {
        own += sims[k];
        ++n_own;
      } else {
        other += sims[k];
        ++n_other;
      }
    }
  }
  EXPECT_GT(own / n_own, other / n_other + 0.1);
}

TEST(DomainDescriptor, IdsSortedRegardlessOfInsertionOrder) {
  HvDataset data(8);
  const std::vector<float> row(8, 1.0f);
  data.add(row, 0, 5);
  data.add(row, 0, 1);
  data.add(row, 0, 3);
  const DomainDescriptorBank bank(data);
  ASSERT_EQ(bank.size(), 3u);
  EXPECT_EQ(bank.domain_id(0), 1);
  EXPECT_EQ(bank.domain_id(1), 3);
  EXPECT_EQ(bank.domain_id(2), 5);
}

TEST(DomainDescriptor, LodoGapIdsPreserved) {
  // LODO training sets miss one domain id; positions must still map back to
  // original ids.
  const HvDataset all = separable_hv_dataset(2, 4, 5, 64);
  const auto idx = all.indices_excluding_domain(2);
  const DomainDescriptorBank bank(all.select(idx));
  ASSERT_EQ(bank.size(), 3u);
  EXPECT_EQ(bank.domain_id(0), 0);
  EXPECT_EQ(bank.domain_id(1), 1);
  EXPECT_EQ(bank.domain_id(2), 3);  // id 2 held out
}

TEST(DomainDescriptor, AbsorbIncrementalMatchesBatch) {
  const HvDataset data = separable_hv_dataset(2, 2, 8, 64);
  const DomainDescriptorBank batch(data);
  DomainDescriptorBank streaming;
  for (std::size_t i = 0; i < data.size(); ++i) {
    streaming.absorb(data.row(i), data.domain(i));
  }
  ASSERT_EQ(streaming.size(), batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    EXPECT_EQ(Hypervector(streaming.descriptor(k)),
              Hypervector(batch.descriptor(k)));
  }
}

TEST(DomainDescriptor, AbsorbDimMismatchThrows) {
  DomainDescriptorBank bank;
  const std::vector<float> a(8, 1.0f);
  const std::vector<float> b(16, 1.0f);
  bank.absorb(a, 0);
  EXPECT_THROW(bank.absorb(b, 0), std::invalid_argument);
}

TEST(DomainDescriptor, SimilaritiesDimMismatchThrows) {
  const HvDataset data = separable_hv_dataset(2, 2, 4, 64);
  const DomainDescriptorBank bank(data);
  const std::vector<float> bad(32, 0.0f);
  EXPECT_THROW(bank.similarities(bad), std::invalid_argument);
}

}  // namespace
}  // namespace smore
