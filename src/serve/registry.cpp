#include "serve/registry.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/pipeline.hpp"

namespace smore {

TenantModel::TenantModel(std::string tenant,
                         std::shared_ptr<const ModelSnapshot> boot)
    : tenant_(std::move(tenant)) {
  if (boot == nullptr || boot->model == nullptr) {
    throw std::invalid_argument("TenantModel: null boot snapshot");
  }
  dim_ = boot->model->dim();
  generations_.publish(std::move(boot));
}

bool TenantModel::publish(std::shared_ptr<const ModelSnapshot> snap) {
  if (snap == nullptr || snap->model == nullptr) {
    throw std::invalid_argument("TenantModel::publish: null snapshot");
  }
  if (snap->model->dim() != dim_) {
    throw std::invalid_argument(
        "TenantModel::publish: snapshot dimension mismatch for tenant " +
        tenant_);
  }
  return generations_.publish(std::move(snap));
}

std::size_t snapshot_resident_bytes(const ModelSnapshot& snap) {
  std::size_t bytes = 0;
  if (snap.model != nullptr) bytes += snap.model->footprint_bytes();
  if (snap.packed != nullptr) bytes += snap.packed->footprint_bytes();
  // Encoder state (item-memory basis, level bank, projection matrix) is
  // charged at its CURRENT materialized size. A freshly loaded artifact
  // carries config+seed only, and a tenant that submits pre-encoded
  // hypervectors never materializes the basis, so near-zero is its true
  // cost. A tenant that encodes raw windows grows its basis AFTER this
  // charge — that growth is outside the registry budget (see
  // RegistryConfig::byte_budget), not silently undercounted at load.
  if (snap.encoder != nullptr) {
    bytes += snap.encoder->footprint_bytes();
  }
  return bytes;
}

namespace {

/// Callback-metric names registered per registry (removed in the dtor so a
/// hub that outlives the registry never calls into a dead object).
const char* const kCallbackCounters[] = {
    "smore_registry_hits_total",          "smore_registry_misses_total",
    "smore_registry_loads_total",         "smore_registry_load_failures_total",
    "smore_registry_evictions_total",
    "smore_registry_single_flight_waits_total"};
const char* const kCallbackGauges[] = {
    "smore_registry_resident_tenants", "smore_registry_resident_bytes",
    "smore_registry_peak_resident_bytes", "smore_registry_byte_budget_bytes"};

}  // namespace

ModelRegistry::ModelRegistry(ArtifactOpener opener, RegistryConfig config)
    : config_(config),
      opener_(std::move(opener)),
      tel_(config.telemetry != nullptr ? config.telemetry
                                       : obs::Telemetry::make()),
      cache_({/*shards=*/config.cache_shards,
              /*byte_budget=*/config.byte_budget,
              /*on_evict=*/
              [this](const std::string& key, std::size_t bytes) {
                tel_->emit(obs::EventType::kRegistryEvict, key, "byte-budget",
                           static_cast<std::int64_t>(bytes));
              }}) {
  if (!opener_) {
    throw std::invalid_argument("ModelRegistry: empty ArtifactOpener");
  }
  // Residency metrics are pull-time callbacks over the cache's own counters:
  // no double accounting, and the exporter always shows what stats() shows.
  obs::MetricsRegistry& m = tel_->metrics();
  const auto counter = [&](const char* name, auto field) {
    m.gauge_callback(
        name, {},
        [this, field] { return static_cast<double>(cache_.stats().*field); },
        obs::MetricType::kCounter);
  };
  counter(kCallbackCounters[0], &ShardedLruStats::hits);
  counter(kCallbackCounters[1], &ShardedLruStats::misses);
  counter(kCallbackCounters[2], &ShardedLruStats::loads);
  counter(kCallbackCounters[3], &ShardedLruStats::load_failures);
  counter(kCallbackCounters[4], &ShardedLruStats::evictions);
  counter(kCallbackCounters[5], &ShardedLruStats::single_flight_waits);
  m.gauge_callback(kCallbackGauges[0], {}, [this] {
    return static_cast<double>(cache_.size());
  });
  m.gauge_callback(kCallbackGauges[1], {}, [this] {
    return static_cast<double>(cache_.resident_bytes());
  });
  m.gauge_callback(kCallbackGauges[2], {}, [this] {
    return static_cast<double>(cache_.stats().peak_resident_bytes);
  });
  m.gauge_callback(kCallbackGauges[3], {}, [budget = config_.byte_budget] {
    return static_cast<double>(budget);
  });
}

ModelRegistry::~ModelRegistry() {
  obs::MetricsRegistry& m = tel_->metrics();
  for (const char* name : kCallbackCounters) m.remove(name, {});
  for (const char* name : kCallbackGauges) m.remove(name, {});
}

ModelRegistry::ArtifactOpener ModelRegistry::directory_source(
    std::string dir) {
  return [dir = std::move(dir)](const std::string& tenant) {
    const std::string path = dir + "/" + tenant + ".smore";
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("ModelRegistry: cannot open artifact " + path);
    }
    // Structural validation first: probe() walks the section table without
    // allocating payload-proportional memory, so a corrupt or truncated
    // artifact is rejected before the expensive deserialization starts.
    (void)Pipeline::probe(in);
    in.clear();
    in.seekg(0, std::ios::beg);
    return ModelSnapshot::from_artifact(in, /*version=*/1);
  };
}

std::shared_ptr<TenantModel> ModelRegistry::acquire(const std::string& tenant) {
  return cache_.get_or_load(tenant, [this](const std::string& key) {
    // One event per load outcome, emitted at the flight that did the work —
    // joiners observe the result through the future, not the event log.
    try {
      std::shared_ptr<const ModelSnapshot> boot = opener_(key);
      auto model = std::make_shared<TenantModel>(key, boot);
      const std::size_t bytes = snapshot_resident_bytes(*boot);
      tel_->emit(obs::EventType::kRegistryLoad, key, "artifact-load",
                 static_cast<std::int64_t>(bytes));
      return std::make_pair(std::move(model), bytes);
    } catch (const std::exception& e) {
      tel_->emit(obs::EventType::kRegistryLoadFailure, key, e.what());
      throw;
    } catch (...) {
      tel_->emit(obs::EventType::kRegistryLoadFailure, key, "unknown error");
      throw;
    }
  });
}

std::shared_ptr<TenantModel> ModelRegistry::resident(
    const std::string& tenant) {
  return cache_.peek(tenant);
}

bool ModelRegistry::publish(const std::string& tenant,
                            std::shared_ptr<const ModelSnapshot> snap) {
  std::shared_ptr<TenantModel> model = cache_.peek(tenant);
  if (model == nullptr) return false;
  const std::uint64_t version = snap != nullptr ? snap->version : 0;
  const bool published = model->publish(std::move(snap));
  if (published) {
    tel_->emit(obs::EventType::kSnapshotPublish, tenant, "operator",
               static_cast<std::int64_t>(version));
  }
  return published;
}

bool ModelRegistry::evict(const std::string& tenant) {
  const bool dropped = cache_.erase(tenant);
  if (dropped) {
    tel_->emit(obs::EventType::kRegistryEvict, tenant, "operator");
  }
  return dropped;
}

RegistryStats ModelRegistry::stats() const {
  const ShardedLruStats c = cache_.stats();
  RegistryStats s;
  s.hits = c.hits;
  s.misses = c.misses;
  s.loads = c.loads;
  s.load_failures = c.load_failures;
  s.evictions = c.evictions;
  s.single_flight_waits = c.single_flight_waits;
  s.resident_tenants = c.resident;
  s.resident_bytes = c.resident_bytes;
  s.peak_resident_bytes = c.peak_resident_bytes;
  s.byte_budget = config_.byte_budget;
  return s;
}

}  // namespace smore
