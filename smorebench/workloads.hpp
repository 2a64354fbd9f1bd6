#pragma once
// The three smorebench workloads and what they share: the run options, the
// protocol parameters read from protocol.json, and the metric names.

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/inference_backend.hpp"
#include "harness.hpp"
#include "obs/json.hpp"

namespace smorebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed so far by the whole process, or by the calling
/// thread. On a shared virtual machine they exclude the time the hypervisor
/// stole (wall time does not), so single-threaded offline work is timed by
/// them.
double process_cpu_seconds();
double thread_cpu_seconds();

/// A numeric field of /proc/self/status ("VmRSS:" in kB, "Threads:", ...);
/// 0 if absent.
double proc_status(const char* field);

/// Peak resident set size of this process in MiB (VmHWM).
inline double peak_rss_mb() { return proc_status("VmHWM:") / 1024.0; }

/// A stopwatch over process (or calling-thread) CPU time.
class CpuTimer {
 public:
  enum Scope { kProcess, kThread };
  explicit CpuTimer(Scope scope = kProcess) : scope_(scope), t0_(now()) {}
  [[nodiscard]] double seconds() const { return now() - t0_; }

 private:
  [[nodiscard]] double now() const {
    return scope_ == kThread ? thread_cpu_seconds() : process_cpu_seconds();
  }
  Scope scope_;
  double t0_;
};

/// A stopwatch over wall time (steady clock), for work whose parallel
/// speed-up is part of what it measures.
class WallTimer {
 public:
  [[nodiscard]] double seconds() const { return seconds_since(t0_); }

 private:
  Clock::time_point t0_ = Clock::now();
};

/// One invocation: which workload, its seed and time budget, whether this is
/// the traced run, and the workload's protocol.json section.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  smore::obs::JsonValue params;  ///< protocol.json workloads.<name>
  smore::obs::JsonValue limits;  ///< protocol.json limits
};

/// A required number from a protocol section (throws when absent).
inline double param(const smore::obs::JsonValue& section,
                    const std::string& key) {
  const smore::obs::JsonValue& v = section.at(key);
  if (!v.is_number()) {
    throw std::runtime_error("protocol.json: missing number '" + key + "'");
  }
  return v.as_double();
}

inline std::size_t param_size(const smore::obs::JsonValue& section,
                              const std::string& key) {
  const double v = param(section, key);
  if (v < 0.0) {
    throw std::runtime_error("protocol.json: negative '" + key + "'");
  }
  return static_cast<std::size_t>(v);
}

/// A metric the benchmark reports: name and unit. BENCHMARK.json lists the
/// same names; run.py refuses a result whose names differ.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), printed by every workload; protocol.json
/// says what each one measures on each workload.
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> m = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"train_windows_per_s", "windows/s"},
      {"infer_windows_per_s", "windows/s"},
      {"accuracy", "fraction"},
      {"accuracy_packed", "fraction"},
      {"p50_ms", "ms"},
      {"p99_ms", "ms"},
      {"max_rate_qps", "1/s"},
      {"online_accuracy", "fraction"},
  };
  return m;
}

/// Per-layer metrics (--trace 1), printed by every workload. A layer the
/// workload never calls reads 0: the workload bypasses it.
inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> m = {
      {"hdc.encode.windows_per_s", "windows/s"},
      {"core.fit.s", "s"},
      {"core.quantize.s", "s"},
      {"core.calibrate.s", "s"},
      {"core.predict_float.us_per_row", "us"},
      {"core.predict_packed.us_per_row", "us"},
      {"hdc.sign_pack.us_per_row", "us"},
      {"core.artifact_load.ms", "ms"},
      {"serve.admit.us.p50", "us"},
      {"serve.admit.us.p99", "us"},
      {"serve.queue_wait.ms.p99", "ms"},
      {"serve.service.ms.p50", "ms"},
      {"serve.batch_fill", "rows"},
      {"serve.batches", "count"},
      {"serve.shed", "count"},
      {"serve.gen_late.ms.p99", "ms"},
      {"core.predict_small.us_per_row", "us"},
      {"serve.overhead.us_per_row", "us"},
      {"serve.registry.cold_load.ms.p50", "ms"},
      {"serve.registry.loads", "count"},
      {"serve.adapt.rounds", "count"},
      {"serve.adapt.absorbed", "count"},
      {"serve.adapt.dropped", "count"},
      {"serve.adapt.merged", "count"},
      {"serve.adapt.evicted", "count"},
      {"serve.live_domains", "count"},
      {"core.lifecycle.round.ms", "ms"},
      {"obs.trace_overhead", "ratio"},
  };
  return m;
}

/// Measured values by metric name, emitted in table order. A name the
/// table does not know is a programming error (throws); a table name the
/// workload did not measure reads 0 for per-layer metrics and throws for
/// end-to-end ones (every workload measures every end-to-end metric).
inline void emit_metrics(Result& r, const std::map<std::string, double>& got,
                         bool trace) {
  const auto& table = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, value] : got) {
    bool known = false;
    for (const MetricSpec& m : table) known = known || name == m.name;
    if (!known) throw std::logic_error("unlisted metric " + name);
  }
  for (const MetricSpec& m : table) {
    const auto it = got.find(m.name);
    if (it == got.end() && !trace) {
      throw std::logic_error(std::string("unmeasured metric ") + m.name);
    }
    r.add(m.name, it == got.end() ? 0.0 : it->second, m.unit);
  }
}

/// Row `i` of `a` equals row `j` of `b` exactly: label, OOD verdict, δ_max
/// and every ensemble weight, compared bit for bit.
inline bool same_row(const smore::SmoreBatchResult& a, std::size_t i,
                     const smore::SmoreBatchResult& b, std::size_t j) {
  if (a.num_domains != b.num_domains || a.labels[i] != b.labels[j] ||
      a.ood[i] != b.ood[j] || a.max_similarity[i] != b.max_similarity[j]) {
    return false;
  }
  const std::size_t k = a.num_domains;
  for (std::size_t w = 0; w < k; ++w) {
    if (a.weights[i * k + w] != b.weights[j * k + w]) return false;
  }
  return true;
}

/// Whole-batch equality (same_row over every row).
inline bool same_batch(const smore::SmoreBatchResult& a,
                       const smore::SmoreBatchResult& b) {
  if (a.labels.size() != b.labels.size()) return false;
  for (std::size_t i = 0; i < a.labels.size(); ++i) {
    if (!same_row(a, i, b, i)) return false;
  }
  return true;
}

Result run_lodo_train(const RunOptions& opt);
Result run_fleet_zipf(const RunOptions& opt);
Result run_fleet_drift(const RunOptions& opt);

}  // namespace smorebench
