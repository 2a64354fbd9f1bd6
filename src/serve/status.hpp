#pragma once
// ServeStatus and ServeResult: the result plane shared by the router
// (serve/router.hpp) and the telemetry layer (serve/telemetry.hpp), which
// keys shed counters and shed events off the status. Lives in its own
// header so telemetry does not have to pull in the router.

#include <cstdint>
#include <vector>

namespace smore {

/// Disposition of a submission. Shedding reasons are distinct so clients can
/// react differently: a full queue calls for backoff, an exhausted tenant
/// quota means THIS tenant is over its fair share (other tenants would still
/// be admitted), and a shutting-down server will never accept again.
enum class ServeStatus {
  kOk = 0,           ///< served; the result fields are valid
  kShedQueueFull,    ///< try_submit refused: the shard queue is full
  kShedTenantQuota,  ///< try_submit refused: per-tenant in-flight quota hit
  kShuttingDown,     ///< submitted after shutdown() — never enqueued
};

/// Human-readable ServeStatus name (logs, bench output, shed-event reasons).
[[nodiscard]] inline const char* to_string(ServeStatus status) noexcept {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kShedQueueFull: return "shed-queue-full";
    case ServeStatus::kShedTenantQuota: return "shed-tenant-quota";
    case ServeStatus::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

/// Per-request response (the future's value). The non-status fields are
/// meaningful only when `status == ServeStatus::kOk`.
struct ServeResult {
  ServeStatus status = ServeStatus::kOk;
  int label = -1;
  bool is_ood = false;
  double max_similarity = 0.0;     ///< δ_max against the domain descriptors
  std::vector<double> weights;     ///< ensemble weights used (size K)
  double latency_seconds = 0.0;    ///< submit → fulfillment
  std::uint64_t snapshot_version = 0;  ///< model generation that answered
};

}  // namespace smore
