// Const reads need no preparation step (DESIGN.md §9): right after any
// mutating call — with no other call in between — a model, a class bank or
// a descriptor bank can be read from several threads at once, and every
// thread's answer equals, bit for bit, a serial call made afterwards. The
// tsan CI job runs this binary under ThreadSanitizer, where any write from
// a const read (a lazy rebuild) shows up as a race.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/domain_descriptor.hpp"
#include "core/smore.hpp"
#include "hdc/onlinehd.hpp"
#include "test_util.hpp"

namespace smore {
namespace {

using testing::separable_hv_dataset;

constexpr std::size_t kReaders = 4;

/// Run `read` on kReaders threads at once; returns each thread's result.
template <typename Read>
auto read_concurrently(const Read& read) {
  std::vector<decltype(read())> results(kReaders);
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (std::size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&results, &read, t] { results[t] = read(); });
  }
  for (std::thread& th : threads) th.join();
  return results;
}

void expect_same(const SmoreBatchResult& a, const SmoreBatchResult& b) {
  EXPECT_EQ(a.num_domains, b.num_domains);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.ood, b.ood);
  EXPECT_EQ(a.max_similarity, b.max_similarity);
  EXPECT_EQ(a.weights, b.weights);
}

class ModelSharingTest : public ::testing::Test {
 protected:
  static constexpr int kClasses = 3;
  static constexpr std::size_t kDim = 256;
  const HvDataset data_ =
      separable_hv_dataset(kClasses, 4, 12, kDim, 0.4, 0.8, 0x5a7e);
  const HvDataset queries_ =
      separable_hv_dataset(kClasses, 4, 6, kDim, 0.5, 0.8, 0x0e11);
};

TEST_F(ModelSharingTest, AbsorbAndRemoveThenReadFromFourThreads) {
  SmoreModel model(kClasses, kDim);
  model.fit(data_.select(data_.indices_excluding_domain(3)));
  // One block that grows an existing domain and enrolls a new one, then an
  // eviction: both rebuild what the readers use before returning.
  const HvDataset block = data_.select(data_.indices_of_domain(3));
  std::vector<int> ids(block.size(), 7);
  for (std::size_t i = 0; i < ids.size(); i += 3) ids[i] = 1;
  model.absorb_labeled(block.view(), block.labels(), ids);
  model.remove_domains(std::vector<std::size_t>{0});
  ASSERT_EQ(model.num_domains(), 3u);

  const SmoreModel& shared = model;
  const auto results = read_concurrently(
      [&] { return shared.predict_batch_full(queries_.view()); });
  const SmoreBatchResult serial = shared.predict_batch_full(queries_.view());
  ASSERT_EQ(serial.labels.size(), queries_.size());
  for (const SmoreBatchResult& r : results) expect_same(r, serial);
}

TEST_F(ModelSharingTest, LoadedAndClonedModelsReadFromFourThreads) {
  SmoreModel trained(kClasses, kDim);
  trained.fit(data_);
  std::stringstream buffer;
  trained.save(buffer);
  const SmoreModel loaded = SmoreModel::load(buffer);
  const SmoreModel cloned = trained.clone();
  for (const SmoreModel* m : {&loaded, &cloned}) {
    const auto results = read_concurrently(
        [&] { return m->predict_batch_full(queries_.view()); });
    const SmoreBatchResult serial = m->predict_batch_full(queries_.view());
    for (const SmoreBatchResult& r : results) expect_same(r, serial);
    expect_same(serial, trained.predict_batch_full(queries_.view()));
  }
}

/// Grow an existing domain and enroll a new one in one block, then evict
/// the first domain: the two structural edits of a lifecycle round.
void absorb_and_evict(SmoreModel& model, const HvDataset& block, int new_id) {
  std::vector<int> ids(block.size(), new_id);
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    ids[i] = model.descriptors().domain_id(model.num_domains() - 1);
  }
  model.absorb_labeled(block.view(), block.labels(), ids);
  model.remove_domains(std::vector<std::size_t>{0});
}

std::string bytes_of(const SmoreModel& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

TEST_F(ModelSharingTest, AdaptingACloneLeavesItsParentUnchanged) {
  // Clones share the parent's domain models and evaluator: absorb and evict
  // on the clone must copy what they write, never write through.
  SmoreModel parent(kClasses, kDim);
  parent.fit(data_.select(data_.indices_excluding_domain(3)));
  const std::string saved = bytes_of(parent);
  const SmoreBatchResult served = parent.predict_batch_full(queries_.view());

  SmoreModel child = parent.clone();
  absorb_and_evict(child, data_.select(data_.indices_of_domain(3)), 7);
  ASSERT_EQ(child.num_domains(), parent.num_domains());
  EXPECT_NE(bytes_of(child), saved);

  EXPECT_EQ(bytes_of(parent), saved);
  expect_same(parent.predict_batch_full(queries_.view()), served);
}

TEST_F(ModelSharingTest, ReadersOfAGenerationRaceAWriterAdaptingItsClones) {
  // The serving shape: readers predict on generation N while a writer runs
  // rounds on a chain of clones of it, dropping each older clone — so the
  // models N shares are copied from and released concurrently with reads.
  // Readers also serialize N, which reads every domain model it shares.
  SmoreModel trained(kClasses, kDim);
  trained.fit(data_.select(data_.indices_excluding_domain(3)));
  const SmoreModel& generation = trained;
  const SmoreBatchResult served = generation.predict_batch_full(queries_.view());
  const std::string saved = bytes_of(generation);
  const HvDataset block = data_.select(data_.indices_of_domain(3));

  std::atomic<bool> writing{true};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders - 1; ++t) {
    readers.emplace_back([&] {
      std::size_t reads = 0;
      while (writing.load() || reads < 4) {
        const SmoreBatchResult r = generation.predict_batch_full(queries_.view());
        if (r.labels != served.labels || r.ood != served.ood ||
            r.max_similarity != served.max_similarity ||
            r.weights != served.weights || bytes_of(generation) != saved) {
          mismatches.fetch_add(1);
        }
        ++reads;
      }
    });
  }
  SmoreModel next = generation.clone();
  for (int round = 0; round < 8; ++round) {
    SmoreModel child = next.clone();
    absorb_and_evict(child, block, 10 + round);
    next = std::move(child);
  }
  writing.store(false);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  expect_same(generation.predict_batch_full(queries_.view()), served);
  EXPECT_EQ(bytes_of(generation), saved);
}

TEST_F(ModelSharingTest, BanksReadFromFourThreadsRightAfterAnUpdate) {
  OnlineHDClassifier classes(kClasses, kDim);
  classes.fit(data_, {});
  classes.bootstrap(queries_.row(0), queries_.label(0));
  const OnlineHDClassifier& shared_classes = classes;
  const auto sims = read_concurrently(
      [&] { return shared_classes.similarities_batch(queries_.view()); });
  const std::vector<double> serial_sims =
      shared_classes.similarities_batch(queries_.view());
  for (const auto& s : sims) EXPECT_EQ(s, serial_sims);

  DomainDescriptorBank bank(data_);
  bank.absorb(queries_.view(), queries_.domains());
  const DomainDescriptorBank& shared_bank = bank;
  const auto bank_sims = read_concurrently(
      [&] { return shared_bank.similarities_batch(queries_.view()); });
  const std::vector<double> serial_bank =
      shared_bank.similarities_batch(queries_.view());
  for (const auto& s : bank_sims) EXPECT_EQ(s, serial_bank);
}

}  // namespace
}  // namespace smore
