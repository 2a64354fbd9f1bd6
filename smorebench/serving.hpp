#pragma once
// The serving-side machinery the workloads share: the open-loop generator
// and collector (run_phase), the request streams, the output checker, the
// CPU split between client and server, and the serving per-layer metrics.

#include <sched.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/domain_lifecycle.hpp"
#include "core/pipeline.hpp"
#include "hdc/hv_dataset.hpp"
#include "obs/telemetry.hpp"
#include "serve/adaptation.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace smorebench {

using smore::HvDataset;
using smore::HvMatrix;
using smore::ModelSnapshot;
using smore::Rng;
using smore::ServeResult;
using smore::SmoreBatchResult;

/// "t000", "t001", ...: the registry name of tenant t.
std::string tenant_name(std::size_t t);

// ------------------------------------------------------------- CPUs

/// The load generator and the result collector each run on a CPU of their
/// own (the last two the process may use); everything the server side
/// starts (shard workers, the adaptation worker, the library's thread pool)
/// inherits the remaining CPUs from the main thread, so the client never
/// competes with the plane it measures. With two CPUs the client roles
/// share one; with one, every role shares it.
class CpuSplit {
 public:
  CpuSplit() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) cpus.push_back(c);
    }
    server_ = collector_ = generator_ = all;
    if (cpus.size() < 2) return;
    const std::size_t clients = cpus.size() >= 3 ? 2 : 1;
    CPU_ZERO(&server_);
    for (std::size_t i = 0; i + clients < cpus.size(); ++i) {
      CPU_SET(cpus[i], &server_);
    }
    only(generator_, cpus.back());
    only(collector_, cpus[cpus.size() - clients]);
  }
  /// Pin the calling thread to its role's CPUs.
  void serve() const { pin(server_); }
  void collect() const { pin(collector_); }
  void generate() const { pin(generator_); }

 private:
  static void only(cpu_set_t& set, int cpu) {
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
  }
  static void pin(const cpu_set_t& set) {
    if (CPU_COUNT(&set) > 0) (void)sched_setaffinity(0, sizeof(set), &set);
  }
  cpu_set_t server_{};
  cpu_set_t collector_{};
  cpu_set_t generator_{};
};

/// The process's thread ids, ascending (Linux hands them out in start
/// order).
std::vector<pid_t> thread_ids();

/// CPU seconds the threads `tids` of this process have used so far.
double threads_cpu_seconds(const std::vector<pid_t>& tids);

// ------------------------------------------------------------- traffic

/// One planned request: when it is due, which tenant, and which row.
struct Planned {
  double due_s = 0.0;
  std::uint32_t tenant = 0;
  std::uint64_t item = 0;  ///< traffic-specific row id
};

/// A seeded request source. plan() consumes the stream (called before a
/// phase, in order); row() and truth() are pure functions of the plan.
class Traffic {
 public:
  virtual ~Traffic() = default;
  virtual Planned plan(double due_s) = 0;
  virtual void row(const Planned& p, std::vector<float>& out) const = 0;
  [[nodiscard]] virtual int truth(const Planned& p) const = 0;  // -1: none
};

/// Tenants drawn Zipf(s), rows drawn uniformly from the tenant's pool; a
/// pool row's label is its truth (-1: none).
class PoolTraffic final : public Traffic {
 public:
  PoolTraffic(const std::vector<HvDataset>& pools,
              const std::vector<std::size_t>& artifact_of, std::size_t tenants,
              double zipf_s, std::uint64_t seed)
      : pools_(pools), artifact_of_(artifact_of), zipf_(tenants, zipf_s),
        rng_(seed) {}

  Planned plan(double due_s) override {
    Planned p;
    p.due_s = due_s;
    p.tenant = static_cast<std::uint32_t>(zipf_(rng_));
    p.item = rng_.index(pools_[artifact_of_[p.tenant]].size());
    return p;
  }
  void row(const Planned& p, std::vector<float>& out) const override {
    const auto r = pools_[artifact_of_[p.tenant]].row(p.item);
    out.assign(r.begin(), r.end());
  }
  int truth(const Planned& p) const override {
    return pools_[artifact_of_[p.tenant]].label(p.item);
  }

 private:
  const std::vector<HvDataset>& pools_;
  const std::vector<std::size_t>& artifact_of_;
  ZipfSampler zipf_;
  Rng rng_;
};

/// A Pipeline artifact in memory: save() into bytes, load() back.
std::string save_bytes(const smore::Pipeline& p);
smore::Pipeline load_bytes(const std::string& bytes);

/// Boot snapshot (generation 1) of a Pipeline artifact held in memory.
std::shared_ptr<const ModelSnapshot> boot_snapshot(const std::string& bytes);

/// A router over a fresh registry with every tenant loaded (cold) through
/// the registry, each load timed.
struct Fleet {
  std::shared_ptr<smore::ModelRegistry> registry;
  std::unique_ptr<smore::MultiTenantServer> server;
  std::vector<pid_t> workers;  ///< the router's shard worker threads
  std::vector<double> load_s;
};

Fleet make_fleet(const std::vector<const std::string*>& tenant_bytes,
                 smore::MultiTenantConfig cfg,
                 const std::shared_ptr<smore::obs::Telemetry>& hub);

/// Resident set in MiB after returning free heap to the OS, so what is
/// allocated from here on shows as growth.
double trimmed_rss_mb();

/// A telemetry hub with histograms, traces and events all on or all off
/// (counters are always on).
std::shared_ptr<smore::obs::Telemetry> make_hub(bool on);

// ------------------------------------------------------------- checking

/// Verifies served answers against direct predict_batch_full on the
/// generation that answered. The collector polls every tenant's live
/// snapshot (poll(), at most once a millisecond) and queues each answer
/// under its (tenant, generation); a generation's queue is verified and
/// emptied whenever it holds a block of kBlock answers, and a generation
/// is dropped once an answer from a newer one arrives (or when the tenant
/// holds more than kKeep), so the checker keeps no snapshot alive that the
/// server has retired. flush() verifies the rest at the end of a phase.
class Checker {
 public:
  Checker(const Traffic& traffic, smore::ModelRegistry& registry,
          std::size_t tenants, Result& result)
      : traffic_(traffic), registry_(registry), result_(result),
        gens_(tenants) {}

  void poll() {
    const auto now = Clock::now();
    if (now - last_poll_ < std::chrono::milliseconds(1)) return;
    last_poll_ = now;
    for (std::uint32_t t = 0; t < gens_.size(); ++t) capture(t);
  }

  void record(const Planned& p, ServeResult r) {
    auto& gens = gens_[p.tenant];
    auto it = gens.find(r.snapshot_version);
    if (it == gens.end()) {
      capture(p.tenant);
      it = gens.find(r.snapshot_version);
      if (it == gens.end()) {
        ++unverifiable_;
        return;
      }
    }
    // A tenant's answers arrive in generation order (its queue is FIFO and
    // every batch reads the then-live snapshot), so older generations get
    // no more answers: verify and release them instead of keeping the
    // snapshots the server has already retired.
    while (gens.begin() != it) {
      verify(gens.begin()->second);
      gens.erase(gens.begin());
    }
    Generation& gen = it->second;
    gen.answers.push_back({p, std::move(r)});
    if (gen.answers.size() >= kBlock) verify(gen);
  }

  /// Verify everything recorded so far; each mismatch fails one operation.
  void flush() {
    for (auto& gens : gens_) {
      for (auto& [version, gen] : gens) verify(gen);
      gens.clear();
    }
  }

  [[nodiscard]] std::size_t verified() const { return verified_; }
  [[nodiscard]] std::size_t unverifiable() const { return unverifiable_; }

 private:
  static constexpr std::size_t kKeep = 4;
  /// Rows per verification call: at most one kernel row tile (64), so the
  /// kernels run serially on the collector's CPU instead of fanning out to
  /// the library's thread pool on the server's CPUs.
  static constexpr std::size_t kBlock = 64;

  struct Generation {
    std::shared_ptr<const ModelSnapshot> snap;
    std::vector<std::pair<Planned, ServeResult>> answers;
  };

  void capture(std::uint32_t tenant) {
    const auto model = registry_.resident(tenant_name(tenant));
    if (!model) return;
    auto snap = model->snapshot();
    auto& gens = gens_[tenant];
    if (gens.count(snap->version) != 0) return;
    gens[snap->version].snap = std::move(snap);
    while (gens.size() > kKeep) {
      verify(gens.begin()->second);
      gens.erase(gens.begin());
    }
  }

  /// Check every queued answer of `gen`, then empty its queue.
  void verify(Generation& gen) {
    const ModelSnapshot& snap = *gen.snap;
    const auto& answers = gen.answers;
    std::vector<float> row;
    for (std::size_t first = 0; first < answers.size(); first += kBlock) {
      const std::size_t n = std::min(kBlock, answers.size() - first);
      HvMatrix rows(n, snap.backend->dim());
      for (std::size_t i = 0; i < n; ++i) {
        traffic_.row(answers[first + i].first, row);
        std::copy(row.begin(), row.end(), rows.row(i).begin());
      }
      const SmoreBatchResult want =
          snap.backend->predict_batch_full(rows.view());
      for (std::size_t i = 0; i < n; ++i) {
        const ServeResult& got = answers[first + i].second;
        ++verified_;
        bool same = got.label == want.labels[i] &&
                    got.is_ood == (want.ood[i] != 0) &&
                    got.max_similarity == want.max_similarity[i] &&
                    got.weights.size() == want.num_domains;
        for (std::size_t k = 0; same && k < want.num_domains; ++k) {
          same = got.weights[k] == want.weights[i * want.num_domains + k];
        }
        if (!same) {
          result_.mismatch("tenant " +
                           tenant_name(answers[first + i].first.tenant) +
                           " generation " + std::to_string(snap.version) +
                           ": served answer differs from direct "
                           "predict_batch_full");
        }
      }
    }
    gen.answers.clear();
  }

  const Traffic& traffic_;
  smore::ModelRegistry& registry_;
  Result& result_;
  /// Per tenant: held generations by version (oldest first).
  std::vector<std::map<std::uint64_t, Generation>> gens_;
  Clock::time_point last_poll_{};
  std::size_t verified_ = 0;
  std::size_t unverifiable_ = 0;
};

// ------------------------------------------------------------- one phase

struct PhaseOutcome {
  DueTimeLatency latency;
  std::vector<double> admit_s;  ///< try_submit durations
  std::size_t answered = 0;
  std::size_t labelled = 0;  ///< answered with a known truth
  std::size_t correct = 0;
  /// Answers per second of the server: answered over the span from the
  /// schedule's start to the last server-side completion.
  double achieved_qps = 0.0;
  /// Requests admitted by each of kBacklogInstants evenly spaced due times
  /// (the last is the schedule's end) whose result came after it.
  static constexpr std::size_t kBacklogInstants = 8;
  std::array<std::size_t, kBacklogInstants> backlog{};
  /// Largest resident-set growth sampled while the phase ran, over the
  /// resident set once its own buffers were in place (MiB).
  double rss_growth_mb = 0.0;
  /// Most threads the process had while the phase ran.
  std::size_t threads = 0;
};

/// Offer `rate` requests per second for `seconds` from `traffic`, collect
/// and check every answer.
PhaseOutcome run_phase(smore::MultiTenantServer& server, Traffic& traffic,
                       Checker& checker, double rate, double seconds,
                       const std::vector<std::string>& names,
                       const CpuSplit& cpus);

/// Median µs per row of predict_batch_full at batch size `batch` (the
/// served batch fill), cycling through `rows`.
double small_batch_us_per_row(const smore::InferenceBackend& backend,
                              smore::HvView rows, std::size_t batch,
                              double budget_s);

/// The serving-plane per-layer metrics of one traced phase.
void serve_layer_metrics(std::map<std::string, double>& m,
                         const PhaseOutcome& ph, const Fleet& fleet,
                         double small_us_per_row);

/// Mean live K over the fleet's resident tenants.
double mean_live_domains(Fleet& fleet, std::size_t tenants);

/// Pseudo-label each sample with `model`'s own prediction, as the serving
/// plane does before a lifecycle round.
void pseudo_label(const smore::SmoreModel& model,
                  std::vector<smore::OodSample>& samples);

/// CPU milliseconds of run_lifecycle_round on `snap` over `round`, median
/// of several replays (each on a fresh clone, the snapshot is unchanged).
double lifecycle_round_ms(const ModelSnapshot& snap,
                          const std::vector<smore::OodSample>& round,
                          const smore::LifecycleConfig& config);

}  // namespace smorebench
