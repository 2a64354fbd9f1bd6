#include "core/domain_descriptor.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/serial.hpp"

namespace smore {

namespace {
constexpr std::uint32_t kBankMagic = 0x4b4e4244;  // "DBNK"
constexpr std::uint32_t kBankVersion = 2;  // v2: wide counters + lifecycle meta
}  // namespace

DomainDescriptorBank::DomainDescriptorBank(const HvDataset& train) {
  if (train.empty()) {
    throw std::invalid_argument("DomainDescriptorBank: empty training set");
  }
  absorb(train.view(), train.domains());
}

std::vector<double> DomainDescriptorBank::similarities(
    std::span<const float> query) const {
  if (!empty() && query.size() != dim()) {
    throw std::invalid_argument(
        "DomainDescriptorBank::similarities: dimension mismatch");
  }
  return similarities_batch(HvView(query));
}

std::vector<double> DomainDescriptorBank::similarities_batch(
    HvView queries) const {
  if (queries.rows == 0 || empty()) return {};
  if (queries.dim != dim()) {
    throw std::invalid_argument(
        "DomainDescriptorBank::similarities: dimension mismatch");
  }
  std::vector<double> sims(queries.rows * size());
  ops::similarity_matrix(queries.data, queries.rows, descriptors_.data(),
                         size(), dim(), sims.data(), norms_sq_.data());
  return sims;
}

std::size_t DomainDescriptorBank::locate_or_create(int domain_id,
                                                   std::size_t dim) {
  const auto it = std::find(ids_.begin(), ids_.end(), domain_id);
  if (it != ids_.end()) return static_cast<std::size_t>(it - ids_.begin());
  // New domain: keep positions sorted by id so construction order does not
  // matter (bit-for-bit reproducibility).
  const auto pos = std::upper_bound(ids_.begin(), ids_.end(), domain_id);
  const auto k = static_cast<std::size_t>(pos - ids_.begin());
  const auto off = static_cast<std::ptrdiff_t>(k);
  ids_.insert(pos, domain_id);
  if (descriptors_.empty()) descriptors_ = HvMatrix(0, dim);
  descriptors_.insert_row(k);
  norms_sq_.insert(norms_sq_.begin() + off, 0.0);
  accum_.insert(accum_.begin() + off, WideAccumulator(dim));
  counts_.insert(counts_.begin() + off, 0);
  DomainMeta meta;
  meta.enrolled_round = clock_;
  meta.last_used_round = clock_;
  meta_.insert(meta_.begin() + off, meta);
  if (domain_id >= next_id_) next_id_ = domain_id + 1;
  return k;
}

void DomainDescriptorBank::refresh(std::size_t k) {
  accum_[k].materialize(descriptors_.row(k).data());
  ops::nrm2_sq_rows(descriptors_.row(k).data(), 1, dim(), &norms_sq_[k]);
}

void DomainDescriptorBank::absorb(HvView rows,
                                  std::span<const int> domain_ids) {
  if (rows.rows != domain_ids.size()) {
    throw std::invalid_argument(
        "DomainDescriptorBank::absorb: row/id count mismatch");
  }
  if (rows.empty()) return;
  if (!empty() && rows.dim != dim()) {
    throw std::invalid_argument("DomainDescriptorBank::absorb: dim mismatch");
  }
  // Create every new descriptor first, so positions are final before any
  // row lands.
  for (const int id : domain_ids) (void)locate_or_create(id, rows.dim);
  std::vector<bool> touched(size(), false);
  for (std::size_t i = 0; i < rows.rows; ++i) {
    const std::size_t k = locate_or_create(domain_ids[i], rows.dim);
    accum_[k].axpy(1.0, rows.row(i));
    ++counts_[k];
    touched[k] = true;
  }
  for (std::size_t k = 0; k < size(); ++k) {
    if (touched[k]) refresh(k);
  }
}

void DomainDescriptorBank::remove(std::span<const std::size_t> positions) {
  std::vector<bool> drop(size(), false);
  for (const std::size_t k : positions) {
    if (k >= size()) {
      throw std::out_of_range("DomainDescriptorBank::remove: bad position");
    }
    if (drop[k]) {
      throw std::invalid_argument(
          "DomainDescriptorBank::remove: repeated position");
    }
    drop[k] = true;
  }
  for (std::size_t k = size(); k-- > 0;) {
    if (!drop[k]) continue;
    const auto off = static_cast<std::ptrdiff_t>(k);
    descriptors_.erase_row(k);
    norms_sq_.erase(norms_sq_.begin() + off);
    accum_.erase(accum_.begin() + off);
    ids_.erase(ids_.begin() + off);
    counts_.erase(counts_.begin() + off);
    meta_.erase(meta_.begin() + off);
  }
}

void DomainDescriptorBank::note_usage(int domain_id, double amount) {
  const auto it = std::find(ids_.begin(), ids_.end(), domain_id);
  if (it == ids_.end()) return;  // evicted between scoring and crediting
  DomainMeta& m = meta_[static_cast<std::size_t>(it - ids_.begin())];
  m.usage += amount;
  m.last_used_round = clock_;
}

void DomainDescriptorBank::note_merge(std::size_t k) {
  DomainMeta& m = meta_.at(k);
  ++m.merge_count;
  m.last_used_round = clock_;
}

void DomainDescriptorBank::decay_usage(double factor) {
  for (DomainMeta& m : meta_) m.usage *= factor;
}

void DomainDescriptorBank::save(std::ostream& out) const {
  out.write(reinterpret_cast<const char*>(&kBankMagic), sizeof(kBankMagic));
  out.write(reinterpret_cast<const char*>(&kBankVersion), sizeof(kBankVersion));
  const std::uint64_t k = size();
  const std::uint64_t d = dim();
  const std::int32_t next_id = next_id_;
  out.write(reinterpret_cast<const char*>(&k), sizeof(k));
  out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  out.write(reinterpret_cast<const char*>(&clock_), sizeof(clock_));
  out.write(reinterpret_cast<const char*>(&next_id), sizeof(next_id));
  for (std::size_t i = 0; i < size(); ++i) {
    const std::int32_t id = ids_[i];
    const std::uint64_t count = counts_[i];
    const DomainMeta& m = meta_[i];
    out.write(reinterpret_cast<const char*>(&id), sizeof(id));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(&m.enrolled_round),
              sizeof(m.enrolled_round));
    out.write(reinterpret_cast<const char*>(&m.last_used_round),
              sizeof(m.last_used_round));
    out.write(reinterpret_cast<const char*>(&m.merge_count),
              sizeof(m.merge_count));
    out.write(reinterpret_cast<const char*>(&m.usage), sizeof(m.usage));
    // The double master is the state of record; the float mirror is derived.
    out.write(reinterpret_cast<const char*>(accum_[i].data()),
              static_cast<std::streamsize>(sizeof(double) * d));
  }
}

DomainDescriptorBank DomainDescriptorBank::load(std::istream& in,
                                                std::size_t expect_domains,
                                                std::size_t expect_dim) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || magic != kBankMagic || version != kBankVersion) {
    throw std::runtime_error(
        "DomainDescriptorBank::load: bad magic/version");
  }
  std::uint64_t k = 0;
  std::uint64_t d = 0;
  std::uint64_t clock = 0;
  std::int32_t next_id = 0;
  in.read(reinterpret_cast<char*>(&k), sizeof(k));
  in.read(reinterpret_cast<char*>(&d), sizeof(d));
  in.read(reinterpret_cast<char*>(&clock), sizeof(clock));
  in.read(reinterpret_cast<char*>(&next_id), sizeof(next_id));
  // Validate before allocating: every record holds a double master plus a
  // float mirror row, so a corrupt header must throw, not OOM.
  if (!in || (k > 0 && d == 0) || d > serial::kMaxDim ||
      k > serial::kMaxDomains ||
      !serial::within_model_bytes(k, d * (sizeof(float) + sizeof(double))) ||
      (expect_domains != 0 && k != expect_domains) ||
      (expect_dim != 0 && d != expect_dim)) {
    throw std::runtime_error("DomainDescriptorBank::load: corrupt header");
  }
  DomainDescriptorBank bank;
  bank.clock_ = clock;
  bank.next_id_ = next_id;
  bank.descriptors_ =
      HvMatrix(static_cast<std::size_t>(k), static_cast<std::size_t>(d));
  bank.norms_sq_.assign(static_cast<std::size_t>(k), 0.0);
  for (std::uint64_t i = 0; i < k; ++i) {
    std::int32_t id = 0;
    std::uint64_t count = 0;
    DomainMeta meta;
    in.read(reinterpret_cast<char*>(&id), sizeof(id));
    in.read(reinterpret_cast<char*>(&count), sizeof(count));
    in.read(reinterpret_cast<char*>(&meta.enrolled_round),
            sizeof(meta.enrolled_round));
    in.read(reinterpret_cast<char*>(&meta.last_used_round),
            sizeof(meta.last_used_round));
    in.read(reinterpret_cast<char*>(&meta.merge_count),
            sizeof(meta.merge_count));
    in.read(reinterpret_cast<char*>(&meta.usage), sizeof(meta.usage));
    WideAccumulator acc(static_cast<std::size_t>(d));
    in.read(reinterpret_cast<char*>(acc.data()),
            static_cast<std::streamsize>(sizeof(double) * d));
    if (!in) {
      throw std::runtime_error("DomainDescriptorBank::load: truncated payload");
    }
    bank.ids_.push_back(id);
    bank.counts_.push_back(static_cast<std::size_t>(count));
    bank.meta_.push_back(meta);
    bank.accum_.push_back(std::move(acc));
    bank.refresh(static_cast<std::size_t>(i));
    if (id >= bank.next_id_) bank.next_id_ = id + 1;
  }
  return bank;
}

}  // namespace smore
