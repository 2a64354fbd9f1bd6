#pragma once
// Telemetry: the process hub bundling one MetricsRegistry, one Tracer, and
// one EventLog behind a shared_ptr (DESIGN.md §14).
//
// Every serving-layer config (MultiTenantConfig, RegistryConfig) carries a
// `std::shared_ptr<obs::Telemetry>`; passing the SAME hub to the router and
// its registry gives one unified export surface
// (fleet_top, Prometheus). A null pointer means "private hub": the component
// builds its own, so stats views always work and unit tests never collide on
// metric names.
//
// Cost model: counters are always on — they back the public stats structs
// and cost one relaxed fetch_add. The `histograms` / `traces` / `events`
// switches gate everything else, and bench_telemetry_overhead measures
// all-on vs all-off (compiled in, switched off) against the ≤2% budget.

#include <memory>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace smore::obs {

struct TelemetryConfig {
  bool histograms = true;  ///< latency/queue/service histogram recording
  bool traces = true;      ///< tail-sampled span detail
  bool events = true;      ///< discrete-occurrence log
  TracerConfig trace;
  std::size_t event_capacity = 1024;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {});

  static std::shared_ptr<Telemetry> make(TelemetryConfig config = {}) {
    return std::make_shared<Telemetry>(config);
  }

  [[nodiscard]] const TelemetryConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }
  [[nodiscard]] EventLog& events() noexcept { return events_; }
  [[nodiscard]] const EventLog& events() const noexcept { return events_; }

  [[nodiscard]] bool histograms_on() const noexcept {
    return config_.histograms;
  }
  [[nodiscard]] bool traces_on() const noexcept { return config_.traces; }
  [[nodiscard]] bool events_on() const noexcept { return config_.events; }

  /// Emit gated on the events switch — the call sites' one-liner.
  void emit(EventType type, std::string_view scope, std::string_view reason,
            std::int64_t value = 0) noexcept {
    if (config_.events) events_.emit(type, scope, reason, value);
  }

 private:
  TelemetryConfig config_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  EventLog events_;
};

}  // namespace smore::obs
