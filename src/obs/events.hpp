#pragma once
// EventLog: bounded structured ring of discrete fleet occurrences
// (DESIGN.md §14). Where metrics answer "how many / how fast", events answer
// "what happened, to whom, and why": snapshot publishes, registry loads and
// evictions, lifecycle merges/enrolls/evictions, and every shed decision
// with its reason. The serving invariant is one event per occurrence — a
// shed request, an evicted tenant, a merged pseudo-domain each emit exactly
// once, at the layer that made the decision.
//
// Events are flat PODs (fixed char fields, no heap) in a PodRing, so
// emission is lock-free and bounded; a flood of sheds can wrap the ring but
// never block a worker or grow memory.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "obs/ring.hpp"

namespace smore::obs {

enum class EventType : std::uint32_t {
  kSnapshotPublish = 0,  ///< a new model generation went live
  kShed,                 ///< a request was refused (reason = shed reason)
  kRegistryLoad,         ///< tenant artifact loaded (value = bytes)
  kRegistryLoadFailure,  ///< tenant artifact failed to load
  kRegistryEvict,        ///< tenant dropped from residency (value = bytes)
  kLifecycleEnroll,      ///< new pseudo-domain enrolled (value = domain id)
  kLifecycleMerge,       ///< cluster merged into a domain (value = domain id)
  kLifecycleEvict,       ///< domain evicted by the cap (value = domain id)
  kAdaptationShed,       ///< an adaptation round was dropped (value = samples)
};

[[nodiscard]] const char* to_string(EventType t) noexcept;

struct Event {
  std::uint64_t id = 0;    ///< monotone per log
  std::uint64_t t_ns = 0;  ///< since EventLog construction (steady clock)
  EventType type = EventType::kSnapshotPublish;
  std::uint32_t pad_ = 0;
  std::int64_t value = 0;  ///< type-specific payload (bytes, version, id)
  char scope[24] = {};     ///< tenant the event concerns
  char reason[48] = {};
};

class EventLog {
 public:
  explicit EventLog(std::size_t capacity);

  /// Lock-free; truncates scope/reason to the fixed fields.
  void emit(EventType type, std::string_view scope, std::string_view reason,
            std::int64_t value = 0) noexcept;

  /// Total events emitted (monotone, independent of ring wrap).
  [[nodiscard]] std::uint64_t emitted() const noexcept {
    return ids_.load(std::memory_order_relaxed);
  }

  /// Most recent `n` resident events, id ascending.
  [[nodiscard]] std::vector<Event> recent(std::size_t n) const;

 private:
  PodRing<Event> ring_;
  std::atomic<std::uint64_t> ids_{0};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace smore::obs
