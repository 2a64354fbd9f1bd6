#include "core/pipeline.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/serial.hpp"

namespace smore {

namespace {

constexpr std::uint32_t kPipelineMagic = 0x4c504d53;  // "SMPL"
constexpr std::uint32_t kPipelineFormatVersion = 1;
// Section ids (kSectionEncoder/Model/Packed) live in pipeline.hpp: the
// header's ArtifactInfo::has_packed() reads the same numbering.
// Artifacts hold a handful of sections; anything larger is a garbled header.
constexpr std::uint32_t kMaxSections = 64;

}  // namespace

Pipeline::Pipeline(std::shared_ptr<const Encoder> encoder, int num_classes,
                   SmoreConfig config)
    : encoder_(std::move(encoder)) {
  if (encoder_ == nullptr) {
    throw std::invalid_argument("Pipeline: null encoder");
  }
  model_ = std::make_unique<SmoreModel>(num_classes, encoder_->dim(), config);
}

void Pipeline::require_trained(const char* what) const {
  if (!trained()) {
    throw std::logic_error(std::string(what) + " before fit()");
  }
}

std::vector<double> Pipeline::fit(const WindowDataset& train) {
  return fit_encoded(encode(train));
}

std::vector<double> Pipeline::fit_encoded(const HvDataset& train) {
  packed_.reset();  // quantized off the old weights; re-quantize after fit
  calibrated_ = false;
  packed_calibration_stale_ = false;
  return model_->fit(train);
}

double Pipeline::calibrate(const WindowDataset& in_distribution,
                           double target_ood_rate) {
  require_trained("Pipeline::calibrate");
  const HvDataset encoded = encode(in_distribution);
  const double delta = model_->calibrate_delta_star(encoded, target_ood_rate);
  if (packed_ != nullptr) {
    // Hamming similarities live on their own scale: the packed model gets
    // its own quantile, not the float δ*.
    packed_->calibrate_delta_star(encoded, target_ood_rate);
  }
  calibrated_ = true;
  packed_calibration_stale_ = false;
  return delta;
}

void Pipeline::quantize() {
  require_trained("Pipeline::quantize");
  packed_ = std::make_unique<BinarySmoreModel>(*model_);
  // The fresh quantization transfers the float δ* verbatim; an existing
  // calibration is meaningless on the Hamming scale (it can over-flag an
  // in-distribution set by an order of magnitude), so flag the pipeline
  // until calibrate() derives a packed quantile.
  packed_calibration_stale_ = calibrated_;
}

int Pipeline::predict(const Window& window) const {
  require_trained("Pipeline::predict");
  const Hypervector hv = encoder_->encode_one(window);
  return model_->predict(std::span<const float>(hv.data(), hv.dim()));
}

SmorePrediction Pipeline::predict_detail(const Window& window) const {
  require_trained("Pipeline::predict_detail");
  const Hypervector hv = encoder_->encode_one(window);
  return model_->predict_detail(std::span<const float>(hv.data(), hv.dim()));
}

std::vector<int> Pipeline::predict_batch(const WindowDataset& windows,
                                         ServeBackend backend) const {
  require_trained("Pipeline::predict_batch");
  HvMatrix block;
  encoder_->encode_batch(windows, block);
  if (backend == ServeBackend::kPacked) {
    if (!quantized()) {
      throw std::logic_error("Pipeline::predict_batch: packed backend before "
                             "quantize()");
    }
    return packed_->predict_batch(block.view());
  }
  return model_->predict_batch(block.view());
}

SmoreBatchResult Pipeline::predict_batch_full(const WindowDataset& windows,
                                              ServeBackend backend) const {
  require_trained("Pipeline::predict_batch_full");
  HvMatrix block;
  encoder_->encode_batch(windows, block);
  if (backend == ServeBackend::kPacked) {
    if (!quantized()) {
      throw std::logic_error(
          "Pipeline::predict_batch_full: packed backend before quantize()");
    }
    return packed_->predict_batch_full(block.view());
  }
  return model_->predict_batch_full(block.view());
}

SmoreEvaluation Pipeline::evaluate(const WindowDataset& windows,
                                   ServeBackend backend) const {
  require_trained("Pipeline::evaluate");
  const HvDataset encoded = encode(windows);
  if (backend == ServeBackend::kPacked) {
    if (!quantized()) {
      throw std::logic_error(
          "Pipeline::evaluate: packed backend before quantize()");
    }
    return packed_->evaluate(encoded);
  }
  return model_->evaluate(encoded);
}

HvDataset Pipeline::encode(const WindowDataset& windows) const {
  return encoder_->encode_dataset(windows);
}

void Pipeline::save(std::ostream& out) const {
  require_trained("Pipeline::save");
  if (packed_ != nullptr && packed_->num_domains() != model_->num_domains()) {
    // The writable model() accessor allows post-quantize updates (e.g.
    // absorb_labeled of a new domain); persisting the stale quantization
    // next to the updated float model would ship an artifact whose two
    // backends disagree. (Same-domain-count staleness cannot be detected
    // here — re-quantize after any float-model mutation.)
    throw std::logic_error(
        "Pipeline::save: packed model is stale (the float model gained "
        "domains since quantize()) — call quantize() again");
  }
  if (packed_calibration_stale_) {
    throw std::logic_error(
        "Pipeline::save: quantize() discarded the calibration — call "
        "calibrate() again (canonical order: quantize, then calibrate) so "
        "the packed δ* is a Hamming-scale quantile, not the cosine-scale "
        "float value");
  }
  // Each section is rendered to its own buffer first so the header can
  // declare exact payload lengths (load() verifies them byte for byte).
  std::ostringstream encoder_section(std::ios::binary);
  encoder_->save(encoder_section);
  std::ostringstream model_section(std::ios::binary);
  model_->save(model_section);
  std::ostringstream packed_section(std::ios::binary);
  if (packed_ != nullptr) packed_->save(packed_section);

  serial::write_pod(out, kPipelineMagic);
  serial::write_pod(out, kPipelineFormatVersion);
  serial::write_pod(out,
                    static_cast<std::uint32_t>(packed_ != nullptr ? 3 : 2));
  const auto write_section = [&out](std::uint32_t id,
                                    const std::string& payload) {
    serial::write_pod(out, id);
    serial::write_pod(out, static_cast<std::uint64_t>(payload.size()));
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
  };
  write_section(kSectionEncoder, encoder_section.str());
  write_section(kSectionModel, model_section.str());
  if (packed_ != nullptr) write_section(kSectionPacked, packed_section.str());
  if (!out) {
    throw std::runtime_error("Pipeline::save: stream write failed");
  }
}

void Pipeline::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("Pipeline::save: cannot open " + path);
  }
  save(out);
  // Flush before the destructor would: a full disk at destructor-flush time
  // has no way to report, and a silently truncated artifact surfaces only
  // at load on the deployment host.
  out.flush();
  if (!out) {
    throw std::runtime_error("Pipeline::save: flush failed for " + path);
  }
}

Pipeline Pipeline::load(std::istream& in) {
  constexpr const char* ctx = "Pipeline::load";
  const auto magic = serial::read_pod<std::uint32_t>(in, ctx);
  const auto version = serial::read_pod<std::uint32_t>(in, ctx);
  if (magic != kPipelineMagic || version != kPipelineFormatVersion) {
    throw std::runtime_error("Pipeline::load: bad magic/version");
  }
  const auto sections = serial::read_pod<std::uint32_t>(in, ctx);
  if (sections < 2 || sections > kMaxSections) {
    throw std::runtime_error("Pipeline::load: implausible section count");
  }

  Pipeline out;
  for (std::uint32_t s = 0; s < sections; ++s) {
    const auto id = serial::read_pod<std::uint32_t>(in, ctx);
    const auto length = serial::read_pod<std::uint64_t>(in, ctx);
    const std::istream::pos_type start = in.tellg();
    switch (id) {
      case kSectionEncoder:
        if (out.encoder_ != nullptr) {
          throw std::runtime_error("Pipeline::load: duplicate encoder section");
        }
        out.encoder_ = std::shared_ptr<const Encoder>(load_encoder(in));
        break;
      case kSectionModel:
        if (out.model_ != nullptr) {
          throw std::runtime_error("Pipeline::load: duplicate model section");
        }
        out.model_ = std::make_unique<SmoreModel>(SmoreModel::load(in));
        break;
      case kSectionPacked:
        if (out.packed_ != nullptr) {
          throw std::runtime_error("Pipeline::load: duplicate packed section");
        }
        out.packed_ =
            std::make_unique<BinarySmoreModel>(BinarySmoreModel::load(in));
        break;
      default:
        // Unknown section from a newer writer: skip by declared length.
        // ignore() streams past without allocating, so an oversized length
        // just runs into EOF — never a giant allocation. gcount (not the
        // stream state: EOF mid-ignore sets only eofbit) detects a
        // truncated section even on non-seekable streams, where the
        // tellg-based length check below cannot run.
        in.ignore(static_cast<std::streamsize>(length));
        if (in.bad() ||
            static_cast<std::uint64_t>(in.gcount()) != length) {
          throw std::runtime_error(
              "Pipeline::load: truncated unknown section");
        }
        break;
    }
    // Consumed must equal declared: a garbled length (too long or too
    // short) is a corrupt artifact even when the section itself parsed.
    if (start != std::istream::pos_type(-1)) {
      const std::istream::pos_type end = in.tellg();
      if (end == std::istream::pos_type(-1) ||
          static_cast<std::uint64_t>(end - start) != length) {
        throw std::runtime_error("Pipeline::load: section length mismatch");
      }
    }
  }

  // The format is count-driven, so bytes after the last declared section
  // can only mean a garbled count (e.g. 3 corrupted to 2, which would
  // silently drop the packed section and serve the wrong backend).
  if (in.peek() != std::istream::traits_type::eof()) {
    throw std::runtime_error(
        "Pipeline::load: trailing bytes after the declared sections");
  }
  if (out.encoder_ == nullptr || out.model_ == nullptr) {
    throw std::runtime_error(
        "Pipeline::load: artifact is missing the encoder or model section");
  }
  if (out.encoder_->dim() != out.model_->dim()) {
    throw std::runtime_error(
        "Pipeline::load: encoder/model dimension mismatch");
  }
  if (out.packed_ != nullptr &&
      (out.packed_->dim() != out.model_->dim() ||
       out.packed_->num_classes() != out.model_->num_classes())) {
    throw std::runtime_error(
        "Pipeline::load: packed/model shape mismatch");
  }
  return out;
}

Pipeline Pipeline::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("Pipeline::load: cannot open " + path);
  }
  return load(in);
}

ArtifactInfo Pipeline::probe(std::istream& in) {
  constexpr const char* ctx = "Pipeline::probe";
  const auto magic = serial::read_pod<std::uint32_t>(in, ctx);
  const auto version = serial::read_pod<std::uint32_t>(in, ctx);
  if (magic != kPipelineMagic || version != kPipelineFormatVersion) {
    throw std::runtime_error("Pipeline::probe: bad magic/version");
  }
  const auto sections = serial::read_pod<std::uint32_t>(in, ctx);
  if (sections < 2 || sections > kMaxSections) {
    throw std::runtime_error("Pipeline::probe: implausible section count");
  }

  ArtifactInfo info;
  info.format_version = version;
  info.sections.reserve(sections);
  for (std::uint32_t s = 0; s < sections; ++s) {
    ArtifactSection section;
    section.id = serial::read_pod<std::uint32_t>(in, ctx);
    section.bytes = serial::read_pod<std::uint64_t>(in, ctx);
    if (info.has_section(section.id)) {
      throw std::runtime_error("Pipeline::probe: duplicate section");
    }
    // Skip the payload the same way load() skips unknown sections: ignore()
    // streams past without allocating, and gcount catches truncation even
    // on non-seekable streams.
    in.ignore(static_cast<std::streamsize>(section.bytes));
    if (in.bad() ||
        static_cast<std::uint64_t>(in.gcount()) != section.bytes) {
      throw std::runtime_error("Pipeline::probe: truncated section");
    }
    info.sections.push_back(section);
    info.payload_bytes += section.bytes;
  }
  if (in.peek() != std::istream::traits_type::eof()) {
    throw std::runtime_error(
        "Pipeline::probe: trailing bytes after the declared sections");
  }
  if (!info.has_section(kSectionEncoder) || !info.has_section(kSectionModel)) {
    throw std::runtime_error(
        "Pipeline::probe: artifact is missing the encoder or model section");
  }
  return info;
}

ArtifactInfo Pipeline::probe(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("Pipeline::probe: cannot open " + path);
  }
  return probe(in);
}

}  // namespace smore
