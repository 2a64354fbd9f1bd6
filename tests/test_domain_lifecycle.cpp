// Domain lifecycle tests (DESIGN.md §13): wide-counter losslessness under
// sustained bundling, merge/evict invariants (survivors untouched bit for
// bit), the max_domains cap, recurring-drift re-enrollment, lifecycle-state
// persistence, and the serving integration under concurrency (tsan job).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/domain_lifecycle.hpp"
#include "core/smore.hpp"
#include "hdc/cluster.hpp"
#include "hdc/hv_matrix.hpp"
#include "hdc/wide_counter.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace smore {
namespace {

using testing::separable_hv_dataset;

// ---------------------------------------------------------------------------
// Wide counters
// ---------------------------------------------------------------------------

TEST(WideCounter, LosslessUnderAMillionBundles) {
  // One million bundles of the integer value 100 per coordinate. The exact
  // sum, 1e8, is representable in float (ulp 8 at that magnitude, 1e8 % 8
  // == 0) — but the float partial sums past 2^26 are NOT: plain float
  // accumulation demonstrably drifts, while the wide-counter mirror equals
  // the exact sum bit for bit. This is the property that keeps a descriptor
  // honest after years of merge rounds.
  constexpr std::size_t kDim = 8;
  constexpr std::size_t kRounds = 1'000'000;
  const std::vector<float> x(kDim, 100.0f);

  WideAccumulator acc(kDim);
  std::vector<float> float_sum(kDim, 0.0f);
  for (std::size_t r = 0; r < kRounds; ++r) {
    acc.axpy(1.0, x);
    for (std::size_t j = 0; j < kDim; ++j) float_sum[j] += x[j];
  }

  std::vector<float> mirror(kDim);
  acc.materialize(mirror.data());
  const float exact = 100'000'000.0f;  // 1e8, exactly representable
  for (std::size_t j = 0; j < kDim; ++j) {
    EXPECT_EQ(mirror[j], exact) << "coordinate " << j;
    EXPECT_NE(float_sum[j], exact)
        << "float accumulation was expected to drift at coordinate " << j
        << " — the wide counter would be pointless otherwise";
  }
}

TEST(WideCounter, WeightedAxpyMatchesClosedForm) {
  // OnlineHD updates are weighted bundles C += w·H with w = float(1-δ).
  // Integer-valued H and a dyadic weight make the closed form exact.
  constexpr std::size_t kDim = 4;
  constexpr std::size_t kRounds = 100'000;
  const std::vector<float> x = {3.0f, -2.0f, 5.0f, 1.0f};
  WideAccumulator acc(kDim);
  for (std::size_t r = 0; r < kRounds; ++r) acc.axpy(0.5, x);
  std::vector<float> mirror(kDim);
  acc.materialize(mirror.data());
  for (std::size_t j = 0; j < kDim; ++j) {
    EXPECT_EQ(mirror[j], static_cast<float>(0.5 * kRounds) * x[j]);
  }
}

TEST(WideCounter, AddAndAssignRoundTrip) {
  const std::vector<float> a = {1.5f, -2.25f, 0.0f};
  const std::vector<float> b = {4.0f, 8.0f, -1.0f};
  WideAccumulator left(3);
  WideAccumulator right(3);
  left.assign_from(a);
  right.assign_from(b);
  left.add(right);
  std::vector<float> out(3);
  left.materialize(out.data());
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(out[j], a[j] + b[j]);
}

// ---------------------------------------------------------------------------
// Descriptor bank: order-independence and evict invariants
// ---------------------------------------------------------------------------

/// Integer-valued (bipolar) rows: double accumulation of integers is exact,
/// so bundling order cannot change the result — bit for bit.
HvMatrix bipolar_rows(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  HvMatrix m(rows, dim);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < dim; ++j) m.row(i)[j] = rng.bipolar();
  }
  return m;
}

TEST(DomainLifecycle, AbsorbOrderCannotChangeTheDescriptor) {
  const HvMatrix rows = bipolar_rows(64, 96, 0xabcd);
  DomainDescriptorBank forward;
  DomainDescriptorBank backward;
  DomainDescriptorBank batched;
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    forward.absorb(rows.row(i), /*domain_id=*/7);
  }
  for (std::size_t i = rows.rows(); i-- > 0;) {
    backward.absorb(rows.row(i), /*domain_id=*/7);
  }
  batched.absorb(rows.view(), std::vector<int>(rows.rows(), /*domain_id=*/7));
  EXPECT_EQ(Hypervector(forward.descriptor(0)),
            Hypervector(backward.descriptor(0)));
  EXPECT_EQ(Hypervector(forward.descriptor(0)),
            Hypervector(batched.descriptor(0)));
  EXPECT_EQ(forward.sample_count(0), 64u);
  EXPECT_EQ(batched.sample_count(0), 64u);
}

TEST(DomainLifecycle, EvictNeverPerturbsSurvivors) {
  const HvDataset data = separable_hv_dataset(3, 4, 15, 128, 0.3, 0.8);
  SmoreModel model(3, 128);
  model.fit(data);
  ASSERT_EQ(model.num_domains(), 4u);

  using Positions = std::vector<std::size_t>;
  const SmoreModel original = model.clone();
  model.remove_domains(Positions{1});

  ASSERT_EQ(model.num_domains(), 3u);
  const std::vector<std::size_t> survivors = {0, 2, 3};
  for (std::size_t pos = 0; pos < survivors.size(); ++pos) {
    const std::size_t was = survivors[pos];
    EXPECT_EQ(model.descriptors().domain_id(pos),
              original.descriptors().domain_id(was));
    EXPECT_EQ(Hypervector(model.descriptors().descriptor(pos)),
              Hypervector(original.descriptors().descriptor(was)));
    EXPECT_EQ(model.descriptors().sample_count(pos),
              original.descriptors().sample_count(was));
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(Hypervector(model.domain_model(pos).class_vector(c)),
                Hypervector(original.domain_model(was).class_vector(c)));
    }
  }
  // The shrunk ensemble still serves.
  EXPECT_NO_THROW((void)model.predict(data.row(0)));

  // Bad batches throw before removing anything.
  EXPECT_THROW(model.remove_domains(Positions{99}), std::out_of_range);
  EXPECT_THROW(model.remove_domains(Positions{0, 0}), std::invalid_argument);
  EXPECT_THROW(model.remove_domains(Positions{0, 1, 2}), std::logic_error);
  ASSERT_EQ(model.num_domains(), 3u);
  // One batch, in any order, drops exactly the named positions.
  model.remove_domains(Positions{2, 0});
  ASSERT_EQ(model.num_domains(), 1u);
  EXPECT_EQ(model.descriptors().domain_id(0),
            original.descriptors().domain_id(2));
  EXPECT_THROW(model.remove_domains(Positions{0}), std::logic_error);  // never the last
}

// ---------------------------------------------------------------------------
// Lifecycle rounds: cap, recurring drift, usage-ranked eviction
// ---------------------------------------------------------------------------

/// A coherent OOD cluster: one bipolar prototype plus small noise, far from
/// the training distribution of `separable_hv_dataset(seed=0xfeed)`.
HvMatrix drift_cluster(std::size_t rows, std::size_t dim, std::uint64_t seed,
                       double noise = 0.25) {
  Rng rng(seed);
  std::vector<float> proto(dim);
  for (auto& v : proto) v = rng.bipolar();
  HvMatrix m(rows, dim);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      m.row(i)[j] =
          proto[j] + static_cast<float>(rng.normal(0.0, noise));
    }
  }
  return m;
}

SmoreModel lifecycle_fixture_model(std::size_t dim = 256) {
  const HvDataset data =
      separable_hv_dataset(3, 3, 20, dim, 0.3, 0.8);
  SmoreModel model(3, dim);
  model.fit(data);
  return model;
}

TEST(DomainLifecycle, BankNeverExceedsTheCap) {
  SmoreModel model = lifecycle_fixture_model();
  LifecycleConfig cfg;
  cfg.max_domains = 5;
  cfg.merge_threshold = 0.95;  // distinct prototypes never merge
  DomainLifecycle engine(cfg);

  const std::vector<int> labels(24, 0);
  for (std::uint64_t round = 0; round < 12; ++round) {
    const HvMatrix burst = drift_cluster(24, model.dim(), 0x1000 + round);
    const LifecycleRoundStats stats =
        engine.run_round(model, burst.view(), labels);
    EXPECT_LE(model.num_domains(), cfg.max_domains) << "round " << round;
    EXPECT_EQ(model.descriptors().size(), model.num_domains());
    EXPECT_EQ(stats.absorbed, 24u);
  }
  // After 12 novel bursts the cap must have actually fired.
  EXPECT_EQ(model.num_domains(), cfg.max_domains);
}

TEST(DomainLifecycle, RecurringDriftMergesInsteadOfEnrolling) {
  SmoreModel model = lifecycle_fixture_model();
  LifecycleConfig cfg;
  cfg.max_domains = 8;
  cfg.merge_threshold = 0.80;
  DomainLifecycle engine(cfg);
  const std::vector<int> labels(32, 1);

  // First sight of the drift: enrolls (it matches nothing).
  const HvMatrix first = drift_cluster(32, model.dim(), 0x5eed, 0.2);
  const LifecycleRoundStats round1 =
      engine.run_round(model, first.view(), labels);
  EXPECT_GE(round1.enrolled_new, 1u);
  const std::size_t bank_after_first = model.num_domains();
  const int frontier = model.descriptors().next_domain_id();

  // The same drift recurs (fresh noise, same prototype): the round must
  // bundle into the existing pseudo-domain — no new id, no bank growth.
  const HvMatrix again = drift_cluster(32, model.dim(), 0x5eed, 0.2);
  const LifecycleRoundStats round2 =
      engine.run_round(model, again.view(), labels);
  EXPECT_GE(round2.merged, 1u);
  EXPECT_EQ(round2.enrolled_new, 0u);
  EXPECT_EQ(model.num_domains(), bank_after_first);
  EXPECT_EQ(model.descriptors().next_domain_id(), frontier);

  // The merged descriptor carries the evidence.
  bool saw_merge = false;
  for (std::size_t k = 0; k < model.descriptors().size(); ++k) {
    saw_merge = saw_merge || model.descriptors().meta(k).merge_count > 0;
  }
  EXPECT_TRUE(saw_merge);
}

TEST(DomainLifecycle, EvictionPrefersTheUnusedDomain) {
  SmoreModel model = lifecycle_fixture_model();
  LifecycleConfig cfg;
  cfg.max_domains = 4;  // fixture has 3 → one free slot
  cfg.merge_threshold = 0.95;
  cfg.protected_domains = 3;  // source domains are sacred
  DomainLifecycle engine(cfg);
  const std::vector<int> labels(24, 2);

  // Enroll drift A into the free slot, then keep crediting usage to A while
  // novel drift keeps arriving: every new burst must evict the NEWCOMER
  // (usage 0), never A (used) and never a protected source domain.
  const HvMatrix a = drift_cluster(24, model.dim(), 0xa11ce, 0.2);
  (void)engine.run_round(model, a.view(), labels);
  ASSERT_EQ(model.num_domains(), 4u);
  const int id_a = model.descriptors().domain_id(3);

  for (std::uint64_t round = 0; round < 4; ++round) {
    const std::vector<std::pair<int, double>> usage = {{id_a, 50.0}};
    const HvMatrix novel = drift_cluster(24, model.dim(), 0xb000 + round);
    const LifecycleRoundStats stats =
        engine.run_round(model, novel.view(), labels, usage);
    EXPECT_EQ(stats.evicted, 1u) << "round " << round;
    ASSERT_EQ(model.num_domains(), 4u);
    // A survives every time; the protected source domains 0..2 do too.
    EXPECT_EQ(model.descriptors().domain_id(0), 0);
    EXPECT_EQ(model.descriptors().domain_id(1), 1);
    EXPECT_EQ(model.descriptors().domain_id(2), 2);
    bool a_alive = false;
    for (std::size_t k = 0; k < model.descriptors().size(); ++k) {
      a_alive = a_alive || model.descriptors().domain_id(k) == id_a;
    }
    EXPECT_TRUE(a_alive) << "round " << round;
  }
}

TEST(DomainLifecycle, EnrollEveryRoundConfigMatchesTheLegacyLoop) {
  // The pre-lifecycle adaptation policy enrolled each OOD round as ONE new
  // domain: absorb_labeled of every sample under id max(ids)+1, no cap. One
  // lifecycle round with a single cluster, an unreachable merge threshold
  // and no cap is that policy — the same enrolled ids and bit-identical
  // predict_batch_full output, round after round. This pins what the
  // "unbounded" baseline of bench_adaptation_lifecycle measures.
  SmoreModel legacy = lifecycle_fixture_model();
  SmoreModel bounded = legacy.clone();
  LifecycleConfig cfg;
  cfg.max_domains = std::numeric_limits<std::size_t>::max();
  cfg.merge_threshold = 2.0;  // cosine never reaches it: never merge
  cfg.cluster.max_clusters = 1;
  DomainLifecycle engine(cfg);
  const HvDataset probe = separable_hv_dataset(3, 3, 4, legacy.dim(), 0.3,
                                               0.8);
  const auto expect_same = [](const SmoreBatchResult& a,
                              const SmoreBatchResult& b) {
    EXPECT_EQ(a.num_domains, b.num_domains);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.ood, b.ood);
    EXPECT_EQ(a.max_similarity, b.max_similarity);
    EXPECT_EQ(a.weights, b.weights);
  };

  for (std::uint64_t round = 0; round < 6; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    // A mixed round: two drift prototypes interleaved, mixed pseudo-labels.
    const HvMatrix a = drift_cluster(12, legacy.dim(), 0x600 + round);
    const HvMatrix b = drift_cluster(12, legacy.dim(), 0x700 + round);
    HvMatrix rows(24, legacy.dim());
    std::vector<int> labels(24);
    for (std::size_t i = 0; i < 12; ++i) {
      rows.set_row(2 * i, a.row(i));
      rows.set_row(2 * i + 1, b.row(i));
      labels[2 * i] = static_cast<int>(i % 3);
      labels[2 * i + 1] = static_cast<int>((i + 1) % 3);
    }

    const std::vector<int>& ids = legacy.descriptors().domain_ids();
    const int new_id = *std::max_element(ids.begin(), ids.end()) + 1;
    legacy.absorb_labeled(rows.view(), labels,
                          std::vector<int>(rows.rows(), new_id));
    const LifecycleRoundStats stats =
        engine.run_round(bounded, rows.view(), labels);

    EXPECT_EQ(stats.enrolled_ids, std::vector<int>{new_id});
    EXPECT_EQ(stats.merged, 0u);
    EXPECT_EQ(stats.evicted, 0u);
    EXPECT_EQ(bounded.descriptors().domain_ids(),
              legacy.descriptors().domain_ids());
    expect_same(bounded.predict_batch_full(rows.view()),
                legacy.predict_batch_full(rows.view()));
    expect_same(bounded.predict_batch_full(probe.view()),
                legacy.predict_batch_full(probe.view()));
  }
  EXPECT_EQ(bounded.num_domains(), 3u + 6u);
}

TEST(DomainLifecycle, IncrementalRoundsEqualAFreshRebuildAndShareUntouched) {
  // A stream of rounds at a small cap: one recurring drift (merges after
  // its first round) plus 1-3 novel ones per round (enrolls, and evictions
  // of up to three victims). Each round runs on a clone of the previous
  // generation, the way the serving worker runs it. After every round the
  // incrementally maintained model must serve exactly what a model rebuilt
  // from its own bytes serves (load builds the evaluator from scratch), and
  // the round must have copied only the domain models it wrote to.
  SmoreModel parent = lifecycle_fixture_model(128);
  LifecycleConfig cfg;
  cfg.max_domains = 5;
  cfg.merge_threshold = 0.80;
  cfg.protected_domains = 2;
  DomainLifecycle engine(cfg);
  const HvDataset sources = separable_hv_dataset(3, 3, 4, parent.dim(), 0.3,
                                                 0.8);
  const auto expect_same = [](const SmoreBatchResult& a,
                              const SmoreBatchResult& b) {
    EXPECT_EQ(a.num_domains, b.num_domains);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.ood, b.ood);
    EXPECT_EQ(a.max_similarity, b.max_similarity);
    EXPECT_EQ(a.weights, b.weights);
  };

  constexpr std::size_t kPerCluster = 12;
  std::size_t merges = 0;
  std::size_t enrolls = 0;
  std::size_t max_victims = 0;
  for (std::uint64_t round = 0; round < 12; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const std::size_t novel = 1 + round % 3;
    HvMatrix rows((novel + 1) * kPerCluster, parent.dim());
    std::vector<int> labels(rows.rows());
    const HvMatrix recurring =
        drift_cluster(kPerCluster, parent.dim(), 0x5eed, 0.2);
    for (std::size_t c = 0; c <= novel; ++c) {
      const HvMatrix fresh =
          drift_cluster(kPerCluster, parent.dim(), 0x9000 + 8 * round + c, 0.2);
      const HvMatrix& src = c == 0 ? recurring : fresh;
      for (std::size_t i = 0; i < kPerCluster; ++i) {
        rows.set_row(c * kPerCluster + i, src.row(i));
        labels[c * kPerCluster + i] = static_cast<int>((i + c) % 3);
      }
    }

    SmoreModel child = parent.clone();
    const LifecycleRoundStats stats =
        engine.run_round(child, rows.view(), labels);
    merges += stats.merged;
    enrolls += stats.enrolled_new;
    max_victims = std::max(max_victims, stats.evicted);
    ASSERT_LE(child.num_domains(), cfg.max_domains);

    // Sharing: a surviving domain no row landed in is the parent's object;
    // a merged-into or enrolled domain is a new one.
    std::vector<int> touched = stats.merged_ids;
    touched.insert(touched.end(), stats.enrolled_ids.begin(),
                   stats.enrolled_ids.end());
    const std::vector<int>& parent_ids = parent.descriptors().domain_ids();
    for (std::size_t k = 0; k < child.num_domains(); ++k) {
      const int id = child.descriptors().domain_id(k);
      const auto it = std::find(parent_ids.begin(), parent_ids.end(), id);
      const bool was_touched =
          std::find(touched.begin(), touched.end(), id) != touched.end();
      if (it == parent_ids.end()) {
        EXPECT_TRUE(was_touched) << "domain " << id;
        continue;
      }
      const OnlineHDClassifier& before = parent.domain_model(
          static_cast<std::size_t>(it - parent_ids.begin()));
      if (was_touched) {
        EXPECT_NE(&child.domain_model(k), &before) << "domain " << id;
      } else {
        EXPECT_EQ(&child.domain_model(k), &before) << "domain " << id;
      }
    }

    std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
    child.save(buffer);
    const SmoreModel rebuilt = SmoreModel::load(buffer);
    expect_same(child.predict_batch_full(rows.view()),
                rebuilt.predict_batch_full(rows.view()));
    expect_same(child.predict_batch_full(sources.view()),
                rebuilt.predict_batch_full(sources.view()));
    parent = std::move(child);
  }
  // The stream exercised every structural edit the incremental path reuses
  // Gram entries across.
  EXPECT_GE(merges, 1u);
  EXPECT_GE(enrolls, 1u);
  EXPECT_GE(max_victims, 2u);
}

// ---------------------------------------------------------------------------
// Persistence: lifecycle state survives save/load exactly
// ---------------------------------------------------------------------------

TEST(DomainLifecycle, LifecycleStateRoundTripsThroughSerialization) {
  SmoreModel model = lifecycle_fixture_model(128);
  LifecycleConfig cfg;
  cfg.max_domains = 6;
  DomainLifecycle engine(cfg);
  const std::vector<int> labels(24, 0);
  const HvMatrix burst = drift_cluster(24, model.dim(), 0x5eed, 0.2);
  const std::vector<std::pair<int, double>> usage = {{0, 3.0}, {2, 7.0}};
  (void)engine.run_round(model, burst.view(), labels, usage);
  const HvMatrix again = drift_cluster(24, model.dim(), 0x5eed, 0.2);
  (void)engine.run_round(model, again.view(), labels);

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  model.save(buffer);
  SmoreModel loaded = SmoreModel::load(buffer);

  const DomainDescriptorBank& a = model.descriptors();
  const DomainDescriptorBank& b = loaded.descriptors();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.clock(), b.clock());
  EXPECT_EQ(a.next_domain_id(), b.next_domain_id());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a.domain_id(k), b.domain_id(k));
    EXPECT_EQ(a.sample_count(k), b.sample_count(k));
    EXPECT_EQ(Hypervector(a.descriptor(k)), Hypervector(b.descriptor(k)));
    EXPECT_EQ(a.meta(k).enrolled_round, b.meta(k).enrolled_round);
    EXPECT_EQ(a.meta(k).last_used_round, b.meta(k).last_used_round);
    EXPECT_EQ(a.meta(k).merge_count, b.meta(k).merge_count);
    EXPECT_DOUBLE_EQ(a.meta(k).usage, b.meta(k).usage);
  }

  // The DOUBLE masters survived, not just the mirrors: absorbing the same
  // row into copies of both banks must keep them bitwise identical.
  const HvMatrix extra = bipolar_rows(1, model.dim(), 0x900d);
  const int id = a.domain_id(0);
  DomainDescriptorBank grown_a = a;
  DomainDescriptorBank grown_b = b;
  grown_a.absorb(extra.row(0), id);
  grown_b.absorb(extra.row(0), id);
  EXPECT_EQ(Hypervector(grown_a.descriptor(0)),
            Hypervector(grown_b.descriptor(0)));
}

// ---------------------------------------------------------------------------
// Serving integration (these run under tsan in CI)
// ---------------------------------------------------------------------------

TEST(DomainLifecycleServe, ServerKeepsTheBankBoundedUnderConcurrentLoad) {
  // The single-model deployment: one tenant, two workers on its shard.
  constexpr std::size_t kDim = 128;
  const HvDataset train = separable_hv_dataset(3, 3, 20, kDim, 0.4, 0.5);
  SmoreModel model(3, kDim);
  model.fit(train);
  model.calibrate_delta_star(train, 0.05);
  const auto snap = ModelSnapshot::make(model.clone(), false, 1);
  const auto registry = std::make_shared<ModelRegistry>(
      [snap](const std::string&) { return snap; });

  MultiTenantConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  cfg.workers_per_shard = 2;
  cfg.adaptation = true;
  cfg.adapt_min_batch = 8;
  cfg.adapt_poll_ms = 1;
  cfg.lifecycle_config.max_domains = 4;
  cfg.lifecycle_config.cluster.max_clusters = 2;
  MultiTenantServer server(registry, cfg);

  // Three producers: two stream in-distribution rows, one streams pure
  // noise (OOD) that keeps the lifecycle enrolling and evicting.
  constexpr std::size_t kPerProducer = 120;
  std::atomic<std::size_t> fulfilled{0};
  auto produce = [&](std::uint64_t seed, bool noisy) {
    Rng rng(seed);
    std::vector<float> hv(kDim);
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      if (noisy) {
        for (auto& v : hv) v = static_cast<float>(rng.normal());
      } else {
        const auto row = train.row(i % train.size());
        hv.assign(row.begin(), row.end());
      }
      auto fut = server.submit("model", std::vector<float>(hv));
      (void)fut.get();
      fulfilled.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread t1(produce, 0x111, false);
  std::thread t2(produce, 0x222, false);
  std::thread t3(produce, 0x333, true);
  t1.join();
  t2.join();
  t3.join();

  // Give the adaptation worker a moment to drain a final round, then stop.
  for (int spin = 0; spin < 200 && server.stats().adaptation_rounds == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.shutdown();

  const MultiTenantStats stats = server.stats();
  EXPECT_EQ(fulfilled.load(), 3 * kPerProducer);
  EXPECT_EQ(stats.completed, 3 * kPerProducer);
  EXPECT_GE(stats.adaptation_rounds, 1u);
  EXPECT_LE(registry->resident("model")->snapshot()->model->num_domains(),
            cfg.lifecycle_config.max_domains);
  // Every buffered OOD window is accounted for, absorbed or shed.
  EXPECT_GE(stats.ood_flagged,
            stats.adaptation_absorbed + stats.adaptation_dropped);
}

TEST(DomainLifecycleServe, RouterAdaptsTenantsIndependently) {
  constexpr std::size_t kDim = 128;
  const HvDataset train = separable_hv_dataset(3, 3, 20, kDim, 0.4, 0.5);
  auto model = std::make_shared<SmoreModel>(3, kDim);
  model->fit(train);
  model->calibrate_delta_star(train, 0.05);

  const auto opener = [model](const std::string&) {
    return ModelSnapshot::make(model->clone(), false, 1);
  };
  const auto registry =
      std::make_shared<ModelRegistry>(opener, RegistryConfig{});

  MultiTenantConfig cfg;
  cfg.num_shards = 2;
  cfg.workers_per_shard = 1;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  cfg.adaptation = true;
  cfg.adapt_min_batch = 8;
  cfg.adapt_poll_ms = 1;
  cfg.lifecycle_config.max_domains = 4;
  cfg.lifecycle_config.cluster.max_clusters = 2;
  MultiTenantServer server(registry, cfg);

  // Tenant "drifty" streams noise (all OOD); tenant "steady" streams
  // training rows. Only drifty's model may gain domains.
  constexpr std::size_t kPerTenant = 160;
  auto produce = [&](const std::string& tenant, std::uint64_t seed,
                     bool noisy) {
    Rng rng(seed);
    std::vector<float> hv(kDim);
    for (std::size_t i = 0; i < kPerTenant; ++i) {
      if (noisy) {
        for (auto& v : hv) v = static_cast<float>(rng.normal());
      } else {
        const auto row = train.row(i % train.size());
        hv.assign(row.begin(), row.end());
      }
      (void)server.submit(tenant, std::vector<float>(hv)).get();
    }
  };
  std::thread t1(produce, "drifty", 0xd41f7, true);
  std::thread t2(produce, "steady", 0x57ead, false);
  t1.join();
  t2.join();

  for (int spin = 0; spin < 200 && server.stats().adaptation_rounds == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.shutdown();

  const MultiTenantStats fleet = server.stats();
  EXPECT_GE(fleet.adaptation_rounds, 1u);
  EXPECT_EQ(fleet.completed, 2 * kPerTenant);

  bool saw_drifty = false;
  for (const TenantServerStats& t : server.tenant_stats()) {
    if (t.tenant == "drifty") {
      saw_drifty = true;
      EXPECT_GE(t.adaptation_rounds, 1u);
    } else if (t.tenant == "steady") {
      // A steady tenant sees few stray OOD flags; whatever it buffered is
      // accounted (absorbed or shed), and overflow is a subset of shed.
      EXPECT_LE(t.adaptation_overflow, t.adaptation_dropped);
      EXPECT_LE(t.adaptation_absorbed + t.adaptation_dropped, t.ood_flagged);
    }
  }
  EXPECT_TRUE(saw_drifty);

  // The drifty tenant's LIVE generation respects the cap.
  const auto tm = registry->resident("drifty");
  ASSERT_NE(tm, nullptr);
  EXPECT_LE(tm->snapshot()->model->num_domains(),
            cfg.lifecycle_config.max_domains);
  EXPECT_GE(tm->snapshot()->version, 2u);  // at least one published round
}

}  // namespace
}  // namespace smore
