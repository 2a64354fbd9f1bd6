#pragma once
// One adaptation round as a pure function (DESIGN.md §13).
//
// The router's adaptation worker drains a tenant's OOD side buffer, clones
// the tenant's live generation, runs one DomainLifecycle round on the clone,
// and publishes the result as the next generation. This header is that one
// round; the router keeps only the buffering, locking, and publish plumbing.
// Benches and tests call it directly to replay a round off the serving path.

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/domain_lifecycle.hpp"
#include "serve/snapshot.hpp"

namespace smore::obs {
class Telemetry;
}  // namespace smore::obs

namespace smore {

/// One OOD window queued for enrollment: the encoded query plus the
/// pseudo-label the serving pass predicted for it (paper Sec 3.6 — the
/// ensemble's own prediction supervises the update).
struct OodSample {
  std::vector<float> hv;
  int pseudo_label = -1;
};

/// Result of one adaptation round: the candidate next generation (null when
/// the round was empty) and what the lifecycle did to produce it.
struct AdaptationOutcome {
  std::shared_ptr<const ModelSnapshot> next;
  LifecycleRoundStats lifecycle;
};

/// Clone `parent`'s model, run one lifecycle round over `round` (usage is
/// the per-domain served-query credit accumulated since the last round), and
/// wrap the result as generation `next_version` with the parent's shape
/// (re-quantized iff the parent was quantized, same shared encoder). The
/// caller publishes the returned snapshot — CAS semantics stay at the
/// publish site, where losing to a newer generation is handled.
[[nodiscard]] AdaptationOutcome run_lifecycle_round(
    const ModelSnapshot& parent, std::span<const OodSample> round,
    std::span<const std::pair<int, double>> usage,
    const LifecycleConfig& config, std::uint64_t next_version);

/// Emit one lifecycle event per merge / enroll / evict decision of a
/// PUBLISHED round (DESIGN.md §14) — call this only after the publish CAS
/// succeeded, so the event log never claims changes that a lost race threw
/// away (a shed round emits kAdaptationShed at its own decision site
/// instead). `scope` is the tenant.
void emit_lifecycle_events(obs::Telemetry& telemetry, std::string_view scope,
                           const LifecycleRoundStats& stats);

}  // namespace smore
