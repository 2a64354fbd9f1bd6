// Serialization round-trip tests: OnlineHD models (covered in
// test_onlinehd), descriptor banks, the full SMORE model, the packed
// BinarySmoreModel, and the Pipeline artifact container — a deployed
// edge/serving model must reload bit-identically without retraining (the
// server boots snapshots from disk), and a corrupt artifact must be
// rejected without unbounded allocations.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "core/binary_smore.hpp"
#include "core/domain_descriptor.hpp"
#include "core/pipeline.hpp"
#include "core/smore.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "test_util.hpp"

namespace smore {
namespace {

using testing::separable_hv_dataset;

TEST(DescriptorSerialization, RoundTripPreservesEverything) {
  const HvDataset data = separable_hv_dataset(3, 4, 8, 128);
  const DomainDescriptorBank bank(data);
  std::stringstream buffer;
  bank.save(buffer);
  const DomainDescriptorBank loaded = DomainDescriptorBank::load(buffer);
  ASSERT_EQ(loaded.size(), bank.size());
  for (std::size_t k = 0; k < bank.size(); ++k) {
    EXPECT_EQ(loaded.domain_id(k), bank.domain_id(k));
    EXPECT_EQ(loaded.sample_count(k), bank.sample_count(k));
    EXPECT_EQ(Hypervector(loaded.descriptor(k)),
              Hypervector(bank.descriptor(k)));
  }
  // Similarities must be identical.
  const auto s1 = bank.similarities(data.row(0));
  const auto s2 = loaded.similarities(data.row(0));
  EXPECT_EQ(s1, s2);
}

TEST(DescriptorSerialization, EmptyBankRoundTrips) {
  DomainDescriptorBank bank;
  std::stringstream buffer;
  bank.save(buffer);
  EXPECT_EQ(DomainDescriptorBank::load(buffer).size(), 0u);
}

TEST(DescriptorSerialization, CorruptStreamThrows) {
  std::stringstream buffer;
  buffer.write("junk", 4);
  EXPECT_THROW(DomainDescriptorBank::load(buffer), std::runtime_error);
}

class SmoreSerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = separable_hv_dataset(3, 3, 20, 256, 0.4, 0.5);
    SmoreConfig cfg;
    cfg.delta_star = 0.42;
    cfg.weight_mode = WeightMode::kSoftmax;
    model_ = std::make_unique<SmoreModel>(3, 256, cfg);
    model_->fit(data_);
  }

  HvDataset data_{256};
  std::unique_ptr<SmoreModel> model_;
};

TEST_F(SmoreSerializationTest, RoundTripPredictsIdentically) {
  std::stringstream buffer;
  model_->save(buffer);
  const SmoreModel loaded = SmoreModel::load(buffer);
  EXPECT_EQ(loaded.num_classes(), 3);
  EXPECT_EQ(loaded.dim(), 256u);
  EXPECT_EQ(loaded.num_domains(), 3u);
  EXPECT_DOUBLE_EQ(loaded.config().delta_star, 0.42);
  EXPECT_EQ(loaded.config().weight_mode, WeightMode::kSoftmax);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const SmorePrediction a = model_->predict_detail(data_.row(i));
    const SmorePrediction b = loaded.predict_detail(data_.row(i));
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.is_ood, b.is_ood);
    EXPECT_DOUBLE_EQ(a.max_similarity, b.max_similarity);
  }
}

TEST_F(SmoreSerializationTest, AccuracyPreserved) {
  std::stringstream buffer;
  model_->save(buffer);
  const SmoreModel loaded = SmoreModel::load(buffer);
  EXPECT_DOUBLE_EQ(loaded.accuracy(data_), model_->accuracy(data_));
}

TEST_F(SmoreSerializationTest, UntrainedSaveThrows) {
  SmoreModel fresh(2, 64);
  std::stringstream buffer;
  EXPECT_THROW(fresh.save(buffer), std::logic_error);
}

TEST_F(SmoreSerializationTest, BadMagicThrows) {
  std::stringstream buffer;
  buffer.write("XXXXXXXXXXXXXXXX", 16);
  EXPECT_THROW(SmoreModel::load(buffer), std::runtime_error);
}

TEST_F(SmoreSerializationTest, TruncatedPayloadThrows) {
  std::stringstream buffer;
  model_->save(buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(SmoreModel::load(truncated), std::runtime_error);
}

TEST_F(SmoreSerializationTest, BinaryModelRoundTripsBitIdentically) {
  const BinarySmoreModel packed(*model_);
  std::stringstream buffer;
  packed.save(buffer);
  const BinarySmoreModel loaded = BinarySmoreModel::load(buffer);
  EXPECT_EQ(loaded.num_classes(), packed.num_classes());
  EXPECT_EQ(loaded.dim(), packed.dim());
  EXPECT_EQ(loaded.num_domains(), packed.num_domains());
  EXPECT_DOUBLE_EQ(loaded.delta_star(), packed.delta_star());
  EXPECT_EQ(loaded.footprint_bytes(), packed.footprint_bytes());
  // Every packed word must survive: descriptors and class banks.
  const BitMatrix& d1 = packed.descriptor_bits();
  const BitMatrix& d2 = loaded.descriptor_bits();
  ASSERT_EQ(d1.rows(), d2.rows());
  for (std::size_t r = 0; r < d1.rows(); ++r) {
    for (std::size_t w = 0; w < d1.words_per_row(); ++w) {
      ASSERT_EQ(d1.row(r)[w], d2.row(r)[w]);
    }
  }
  const BitMatrix& c1 = packed.class_bank_bits();
  const BitMatrix& c2 = loaded.class_bank_bits();
  ASSERT_EQ(c1.rows(), c2.rows());
  for (std::size_t r = 0; r < c1.rows(); ++r) {
    for (std::size_t w = 0; w < c1.words_per_row(); ++w) {
      ASSERT_EQ(c1.row(r)[w], c2.row(r)[w]);
    }
  }
  // And therefore predictions are identical.
  const std::vector<int> a = packed.predict_batch(data_.view());
  const std::vector<int> b = loaded.predict_batch(data_.view());
  EXPECT_EQ(a, b);
}

TEST_F(SmoreSerializationTest, BinaryModelCorruptStreamThrows) {
  std::stringstream buffer;
  buffer.write("XXXXXXXXXXXXXXXX", 16);
  EXPECT_THROW(BinarySmoreModel::load(buffer), std::runtime_error);
}

TEST_F(SmoreSerializationTest, BinaryModelTruncatedPayloadThrows) {
  const BinarySmoreModel packed(*model_);
  std::stringstream buffer;
  packed.save(buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(BinarySmoreModel::load(truncated), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Crafted headers: every loader checks its header against the util/serial.hpp
// caps, and an inner record against the enclosing record's shape, before it
// allocates. Oversized fields are 2^62 — beyond vector::max_size(), so not
// even a loader that skipped those checks could allocate them.

constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;

// SmoreModel record: magic, version (u32 each), classes (i32), dim (u64),
// δ* (f64), weight mode (i32), domains (u64); then one OnlineHD record per
// domain — dim (u64), classes (u64), floats — then the descriptor bank:
// magic, version (u32 each), K (u64), dim (u64), ...
constexpr std::size_t kSmoreClassesAt = 8;
constexpr std::size_t kSmoreDimAt = 12;
constexpr std::size_t kSmoreDomainsAt = 32;
constexpr std::size_t kSmoreHeaderBytes = 40;
constexpr std::size_t kBankDomainsAt = 8;
constexpr std::size_t kBankDimAt = 16;

template <typename T>
void patch(std::string& bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(value), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

TEST_F(SmoreSerializationTest, DomainModelHeaderBeyondTheCapsThrows) {
  std::stringstream buffer;
  model_->domain_model(0).save(buffer);
  const std::string record = buffer.str();
  for (const std::size_t field : {0u, 8u}) {  // dim, class count
    std::string crafted = record;
    patch(crafted, field, kHuge);
    std::stringstream in(crafted);
    EXPECT_THROW(OnlineHDClassifier::load(in), std::runtime_error) << field;
  }
}

TEST_F(SmoreSerializationTest, DescriptorBankHeaderBeyondTheCapsThrows) {
  std::stringstream buffer;
  model_->descriptors().save(buffer);
  const std::string record = buffer.str();
  for (const std::size_t field : {kBankDomainsAt, kBankDimAt}) {
    std::string crafted = record;
    patch(crafted, field, kHuge);
    std::stringstream in(crafted);
    EXPECT_THROW(DomainDescriptorBank::load(in), std::runtime_error) << field;
  }
}

TEST_F(SmoreSerializationTest, ModelHeaderBeyondTheCapsThrows) {
  std::stringstream buffer;
  model_->save(buffer);
  // Only the header is kept: the loader must throw before it reads (or
  // allocates for) any domain record.
  const std::string header = buffer.str().substr(0, kSmoreHeaderBytes);
  struct Shape {
    std::int32_t classes;
    std::uint64_t dim;
    std::uint64_t domains;
  };
  const Shape shapes[] = {
      {3, kHuge, 3},
      {3, 256, kHuge},
      {(1 << 20) + 1, 256, 3},
      // Every field within its cap, the total far above 1 GiB.
      {1 << 20, std::uint64_t{1} << 24, std::uint64_t{1} << 20},
  };
  for (const Shape& shape : shapes) {
    std::string crafted = header;
    patch(crafted, kSmoreClassesAt, shape.classes);
    patch(crafted, kSmoreDimAt, shape.dim);
    patch(crafted, kSmoreDomainsAt, shape.domains);
    std::stringstream in(crafted);
    EXPECT_THROW(SmoreModel::load(in), std::runtime_error)
        << shape.classes << " " << shape.dim << " " << shape.domains;
  }
}

TEST_F(SmoreSerializationTest, InnerRecordMustMatchTheModelHeader) {
  std::stringstream buffer;
  model_->save(buffer);
  const std::string full = buffer.str();
  const std::size_t domain_record = 16 + 3 * 256 * sizeof(float);
  const std::size_t bank_at =
      kSmoreHeaderBytes + model_->num_domains() * domain_record;
  // The first domain model's dim, then the bank's dim, beyond the caps while
  // the enclosing header still says 256.
  for (const std::size_t field : {kSmoreHeaderBytes, bank_at + kBankDimAt}) {
    std::string crafted = full;
    patch(crafted, field, kHuge);
    std::stringstream in(crafted);
    EXPECT_THROW(SmoreModel::load(in), std::runtime_error) << field;
  }
  // A domain model well within the caps whose class count disagrees with
  // the header (4 under a 3-class model).
  std::string crafted = full;
  patch(crafted, kSmoreHeaderBytes + 8, std::uint64_t{4});
  std::stringstream in(crafted);
  EXPECT_THROW(SmoreModel::load(in), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Pipeline artifact container (DESIGN.md §10): header + encoder section +
// model section + optional packed section.

class PipelineSerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    windows_ = generate_dataset(testing::tiny_spec());
    EncoderConfig ec;
    ec.dim = 192;  // not a multiple of 64: exercises packed-row padding
    pipeline_ = std::make_unique<Pipeline>(
        std::make_shared<const MultiSensorEncoder>(ec),
        windows_.num_classes());
    pipeline_->fit(windows_);
    pipeline_->quantize();
    pipeline_->calibrate(windows_, 0.08);  // both scales, after quantize
  }

  [[nodiscard]] std::string artifact() const {
    std::stringstream buffer;
    pipeline_->save(buffer);
    return buffer.str();
  }

  /// Expect each per-query output of one batched Algorithm 1 pass to be
  /// bit-identical between two pipelines, on the given backend.
  void expect_identical(const Pipeline& a, const Pipeline& b,
                        ServeBackend backend) const {
    const SmoreBatchResult ra = a.predict_batch_full(windows_, backend);
    const SmoreBatchResult rb = b.predict_batch_full(windows_, backend);
    ASSERT_EQ(ra.labels.size(), rb.labels.size());
    EXPECT_EQ(ra.labels, rb.labels);
    EXPECT_EQ(ra.ood, rb.ood);
    EXPECT_EQ(ra.num_domains, rb.num_domains);
    for (std::size_t i = 0; i < ra.labels.size(); ++i) {
      EXPECT_DOUBLE_EQ(ra.max_similarity[i], rb.max_similarity[i]) << i;
    }
    for (std::size_t i = 0; i < ra.weights.size(); ++i) {
      EXPECT_DOUBLE_EQ(ra.weights[i], rb.weights[i]) << i;
    }
  }

  WindowDataset windows_;
  std::unique_ptr<Pipeline> pipeline_;
};

TEST_F(PipelineSerializationTest, RoundTripIsBitIdenticalOnBothBackends) {
  std::stringstream buffer;
  pipeline_->save(buffer);
  const Pipeline loaded = Pipeline::load(buffer);
  EXPECT_EQ(loaded.dim(), pipeline_->dim());
  EXPECT_EQ(loaded.num_classes(), pipeline_->num_classes());
  EXPECT_EQ(loaded.num_domains(), pipeline_->num_domains());
  ASSERT_TRUE(loaded.quantized());
  EXPECT_DOUBLE_EQ(loaded.model().config().delta_star,
                   pipeline_->model().config().delta_star);
  EXPECT_DOUBLE_EQ(loaded.packed()->delta_star(),
                   pipeline_->packed()->delta_star());
  expect_identical(*pipeline_, loaded, ServeBackend::kFloat);
  expect_identical(*pipeline_, loaded, ServeBackend::kPacked);
}

TEST_F(PipelineSerializationTest, UnquantizedArtifactHasNoPackedSection) {
  Pipeline plain(pipeline_->encoder_ptr(), windows_.num_classes());
  plain.fit(windows_);
  std::stringstream buffer;
  plain.save(buffer);
  const Pipeline loaded = Pipeline::load(buffer);
  EXPECT_FALSE(loaded.quantized());
  expect_identical(plain, loaded, ServeBackend::kFloat);
}

TEST_F(PipelineSerializationTest, TruncatedHeaderThrows) {
  const std::string full = artifact();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 std::size_t{7}, std::size_t{11}}) {
    std::stringstream truncated(full.substr(0, keep));
    EXPECT_THROW(Pipeline::load(truncated), std::runtime_error)
        << "kept " << keep << " bytes";
  }
}

TEST_F(PipelineSerializationTest, GarbledMagicThrows) {
  std::string full = artifact();
  full[0] = 'X';
  std::stringstream garbled(full);
  EXPECT_THROW(Pipeline::load(garbled), std::runtime_error);
}

TEST_F(PipelineSerializationTest, ImplausibleSectionCountThrows) {
  std::string full = artifact();
  const std::uint32_t bogus = 0x7fffffff;
  std::memcpy(full.data() + 8, &bogus, sizeof(bogus));  // section-count field
  std::stringstream garbled(full);
  EXPECT_THROW(Pipeline::load(garbled), std::runtime_error);
}

TEST_F(PipelineSerializationTest, OversizedSectionLengthIsRejected) {
  // Blow up the first section's declared length. The loader must reject via
  // the consumed-vs-declared check (or EOF) — it never allocates memory
  // proportional to the declared length, so a 2^60-byte claim is safe.
  std::string full = artifact();
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(full.data() + 12 + 4, &huge, sizeof(huge));
  std::stringstream garbled(full);
  EXPECT_THROW(Pipeline::load(garbled), std::runtime_error);
}

TEST_F(PipelineSerializationTest, UndersizedSectionLengthIsRejected) {
  std::string full = artifact();
  const std::uint64_t tiny = 1;
  std::memcpy(full.data() + 12 + 4, &tiny, sizeof(tiny));
  std::stringstream garbled(full);
  EXPECT_THROW(Pipeline::load(garbled), std::runtime_error);
}

TEST_F(PipelineSerializationTest, TruncatedPayloadThrows) {
  const std::string full = artifact();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(Pipeline::load(truncated), std::runtime_error);
}

TEST_F(PipelineSerializationTest, UnknownSectionIsSkipped) {
  // Forward compatibility: a newer writer may append sections this reader
  // does not know. Rebuild the artifact with an extra trailing section and
  // expect a clean load.
  std::string full = artifact();
  const std::uint32_t count = 4;
  std::memcpy(full.data() + 8, &count, sizeof(count));
  const std::uint32_t unknown_id = 99;
  const std::string payload = "future-section-payload";
  const std::uint64_t length = payload.size();
  full.append(reinterpret_cast<const char*>(&unknown_id), sizeof(unknown_id));
  full.append(reinterpret_cast<const char*>(&length), sizeof(length));
  full.append(payload);
  std::stringstream extended(full);
  const Pipeline loaded = Pipeline::load(extended);
  expect_identical(*pipeline_, loaded, ServeBackend::kPacked);
}

TEST_F(PipelineSerializationTest, UnderstatedSectionCountThrows) {
  // A quantized artifact's count corrupted from 3 to 2 must NOT load as a
  // float-only pipeline (silently dropping the packed section and its
  // calibration) — trailing bytes after the declared sections are rejected.
  std::string full = artifact();
  const std::uint32_t count = 2;
  std::memcpy(full.data() + 8, &count, sizeof(count));
  std::stringstream garbled(full);
  EXPECT_THROW(Pipeline::load(garbled), std::runtime_error);
}

TEST_F(PipelineSerializationTest, SaveRejectsAStaleQuantization) {
  // Mutating the float model after quantize() (here: absorbing a new
  // domain) must not persist an artifact whose two backends disagree.
  const HvDataset encoded = pipeline_->encode(windows_);
  pipeline_->model().absorb_labeled(encoded.view().slice(0, 1),
                                    std::vector<int>{encoded.label(0)},
                                    /*domain_ids=*/std::vector<int>{999});
  std::stringstream buffer;
  EXPECT_THROW(pipeline_->save(buffer), std::logic_error);
  pipeline_->quantize();               // refresh the weights…
  pipeline_->calibrate(windows_, 0.08);  // …and the discarded calibration
  std::stringstream ok;
  pipeline_->save(ok);
  EXPECT_TRUE(Pipeline::load(ok).quantized());
}

TEST_F(PipelineSerializationTest, ModelSectionRecordBeyondTheCapsThrows) {
  // The section length is only checked after the model parser returns, so
  // the parser itself must reject the record before allocating for it.
  std::string full = artifact();
  std::size_t at = 12;  // first section header
  for (;;) {
    ASSERT_LT(at + 12, full.size());
    std::uint32_t id = 0;
    std::uint64_t length = 0;
    std::memcpy(&id, full.data() + at, sizeof(id));
    std::memcpy(&length, full.data() + at + 4, sizeof(length));
    if (id == kSectionModel) break;
    at += 12 + static_cast<std::size_t>(length);
  }
  // The first domain model's dim.
  patch(full, at + 12 + kSmoreHeaderBytes, kHuge);
  std::stringstream in(full);
  EXPECT_THROW(Pipeline::load(in), std::runtime_error);
}

TEST_F(PipelineSerializationTest, MissingModelSectionThrows) {
  // Header claims one section (the encoder) and the stream ends there: a
  // structurally valid but incomplete artifact must be rejected.
  std::string full = artifact();
  // Keep header + first section only, patch count to 1.
  std::uint64_t first_len = 0;
  std::memcpy(&first_len, full.data() + 12 + 4, sizeof(first_len));
  std::string clipped = full.substr(0, 12 + 4 + 8 + first_len);
  const std::uint32_t count = 1;
  std::memcpy(clipped.data() + 8, &count, sizeof(count));
  std::stringstream incomplete(clipped);
  EXPECT_THROW(Pipeline::load(incomplete), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Pipeline::probe — the cheap artifact open (header + section table only).

TEST_F(PipelineSerializationTest, ProbeReportsSectionsAndSizes) {
  const std::string full = artifact();
  std::stringstream in(full);
  const ArtifactInfo info = Pipeline::probe(in);
  EXPECT_EQ(info.format_version, 1u);
  ASSERT_EQ(info.sections.size(), 3u);  // encoder, model, packed
  EXPECT_TRUE(info.has_section(1));
  EXPECT_TRUE(info.has_section(2));
  EXPECT_TRUE(info.has_packed());
  // Declared payloads + header (12 B) + 3 section headers (12 B each) must
  // tile the artifact exactly.
  EXPECT_EQ(info.payload_bytes + 12 + 3 * 12, full.size());
}

TEST_F(PipelineSerializationTest, ProbeUnquantizedArtifactHasNoPacked) {
  Pipeline plain(pipeline_->encoder_ptr(), windows_.num_classes());
  plain.fit(windows_);
  std::stringstream buffer;
  plain.save(buffer);
  const ArtifactInfo info = Pipeline::probe(buffer);
  EXPECT_EQ(info.sections.size(), 2u);
  EXPECT_FALSE(info.has_packed());
}

TEST_F(PipelineSerializationTest, ProbeRejectsWhatLoadRejects) {
  const std::string full = artifact();
  {
    std::string garbled = full;
    garbled[0] = 'X';  // magic
    std::stringstream in(garbled);
    EXPECT_THROW(Pipeline::probe(in), std::runtime_error);
  }
  {
    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_THROW(Pipeline::probe(truncated), std::runtime_error);
  }
  {
    std::string garbled = full;
    const std::uint32_t count = 2;  // understate: trailing packed section
    std::memcpy(garbled.data() + 8, &count, sizeof(count));
    std::stringstream in(garbled);
    EXPECT_THROW(Pipeline::probe(in), std::runtime_error);
  }
}

}  // namespace
}  // namespace smore
