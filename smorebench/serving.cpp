// Implementation of serving.hpp: the open-loop phase runner and the
// serving per-layer metrics shared by the workloads.

#include "serving.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <future>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace smorebench {

std::string tenant_name(std::size_t t) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%03zu", t);
  return buf;
}

std::string save_bytes(const smore::Pipeline& p) {
  std::ostringstream out(std::ios::binary);
  p.save(out);
  return out.str();
}

smore::Pipeline load_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return smore::Pipeline::load(in);
}

std::shared_ptr<const ModelSnapshot> boot_snapshot(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return ModelSnapshot::from_artifact(in, /*version=*/1);
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.push_back(static_cast<pid_t>(std::stol(entry.path().filename())));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

double threads_cpu_seconds(const std::vector<pid_t>& tids) {
  double sum = 0.0;
  for (const pid_t tid : tids) {
    // The kernel's per-thread CPU clock of `tid` (the encoding behind
    // pthread_getcpuclockid: CPUCLOCK_SCHED | CPUCLOCK_PERTHREAD_MASK).
    const auto clock =
        static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6U);
    timespec ts{};
    if (clock_gettime(clock, &ts) != 0) {
      throw std::runtime_error("no CPU clock for thread " +
                               std::to_string(tid));
    }
    sum += static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
  return sum;
}

Fleet make_fleet(const std::vector<const std::string*>& tenant_bytes,
                 smore::MultiTenantConfig cfg,
                 const std::shared_ptr<smore::obs::Telemetry>& hub) {
  std::map<std::string, const std::string*> by_name;
  for (std::size_t t = 0; t < tenant_bytes.size(); ++t) {
    by_name[tenant_name(t)] = tenant_bytes[t];
  }
  smore::RegistryConfig rc;
  rc.telemetry = hub;
  Fleet f;
  f.registry = std::make_shared<smore::ModelRegistry>(
      [by_name](const std::string& tenant) {
        return boot_snapshot(*by_name.at(tenant));
      },
      rc);
  cfg.telemetry = hub;
  const std::vector<pid_t> before = thread_ids();
  f.server = std::make_unique<smore::MultiTenantServer>(f.registry, cfg);
  std::vector<pid_t> started;
  std::ranges::set_difference(thread_ids(), before,
                              std::back_inserter(started));
  // The constructor starts its shard workers first, then the adaptation
  // worker.
  const std::size_t workers = cfg.num_shards * cfg.workers_per_shard;
  if (started.size() < workers) {
    throw std::runtime_error("the router started " +
                             std::to_string(started.size()) +
                             " threads, fewer than its " +
                             std::to_string(workers) + " shard workers");
  }
  f.workers.assign(started.begin(),
                   started.begin() + static_cast<std::ptrdiff_t>(workers));
  for (const auto& [name, bytes] : by_name) {
    const CpuTimer t0;
    (void)f.registry->acquire(name);
    f.load_s.push_back(t0.seconds());
  }
  return f;
}

double trimmed_rss_mb() {
  (void)malloc_trim(0);
  return proc_status("VmRSS:") / 1024.0;
}

std::shared_ptr<smore::obs::Telemetry> make_hub(bool on) {
  smore::obs::TelemetryConfig tc;
  tc.histograms = on;
  tc.traces = on;
  tc.events = on;
  return smore::obs::Telemetry::make(tc);
}

/// Offer `rate` requests per second for `seconds` from `traffic`, collect
/// and check every answer.
PhaseOutcome run_phase(smore::MultiTenantServer& server, Traffic& traffic,
                       Checker& checker, double rate, double seconds,
                       const std::vector<std::string>& names,
                       const CpuSplit& cpus) {
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(rate * seconds + 0.5));
  std::vector<Planned> plan(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan[i] = traffic.plan(static_cast<double>(i) / rate);
  }
  struct Sent {
    double sent_s = 0.0;  // since start
    double late_s = 0.0;
    double admit_s = 0.0;
    std::optional<std::future<ServeResult>> fut;
  };
  std::vector<Sent> sent(n);
  std::atomic<std::size_t> published{0};
  PhaseOutcome out;
  out.admit_s.resize(n);
  out.latency.reserve(n);
  // The phase's own buffers are in place: what the server allocates from
  // here on shows as resident growth.
  const double rss_base_mb = trimmed_rss_mb();
  double rss_max_mb = rss_base_mb;
  auto last_sample = Clock::now();
  const auto sample = [&] {
    rss_max_mb = std::max(rss_max_mb, proc_status("VmRSS:") / 1024.0);
    out.threads = std::max(
        out.threads, static_cast<std::size_t>(proc_status("Threads:")));
    last_sample = Clock::now();
  };
  sample();

  cpus.collect();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  std::atomic<bool> stop{false};
  std::exception_ptr generator_error;
  std::thread generator([&] {
    cpus.generate();
    try {
      std::vector<float> hv;
      for (std::size_t i = 0; i < n && !stop.load(); ++i) {
        traffic.row(plan[i], hv);  // built ahead of the due time
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(plan[i].due_s));
        // Sleep until close to the due time, then yield-spin: a vCPU that
        // goes idle between sends can take milliseconds to be woken by the
        // host. The spin stays on the generator's own CPU.
        for (auto now = Clock::now(); now < due; now = Clock::now()) {
          if (due - now > std::chrono::milliseconds(2)) {
            std::this_thread::sleep_for(due - now -
                                        std::chrono::milliseconds(1));
          } else {
            std::this_thread::yield();
          }
        }
        const auto t_send = Clock::now();
        auto fut = server.try_submit(names[plan[i].tenant], std::move(hv));
        const auto t_done = Clock::now();
        hv = std::vector<float>();
        Sent& s = sent[i];
        s.sent_s = std::chrono::duration<double>(t_send - start).count();
        s.late_s = std::chrono::duration<double>(t_send - due).count();
        s.admit_s = std::chrono::duration<double>(t_done - t_send).count();
        s.fut = std::move(fut);
        published.store(i + 1, std::memory_order_release);
      }
    } catch (...) {
      generator_error = std::current_exception();
    }
    // Unsent slots stay empty: the collector counts them as missed.
    published.store(n, std::memory_order_release);
  });
  // Joins the generator on every exit path, exceptions included.
  struct Joiner {
    std::thread& t;
    std::atomic<bool>& stop;
    ~Joiner() {
      stop.store(true);
      if (t.joinable()) t.join();
    }
  } joiner{generator, stop};

  // Backlog = requests admitted by time t whose result came after t.
  constexpr std::size_t kInstants = PhaseOutcome::kBacklogInstants;
  std::array<double, kInstants> instant_s{};
  for (std::size_t k = 0; k < kInstants; ++k) {
    instant_s[k] = plan[std::max<std::size_t>(1, (k + 1) * n / kInstants) - 1]
                       .due_s;
  }
  double last_done_s = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    while (published.load(std::memory_order_acquire) <= j) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    checker.poll();
    if (Clock::now() - last_sample >= std::chrono::milliseconds(10)) sample();
    Sent& s = sent[j];
    out.admit_s[j] = s.admit_s;
    if (!s.fut) {
      out.latency.missed(s.late_s);
      continue;
    }
    ServeResult r;
    try {
      r = s.fut->get();
    } catch (const std::exception&) {
      r.status = smore::ServeStatus::kShuttingDown;
    }
    s.fut.reset();
    if (r.status != smore::ServeStatus::kOk) {  // admitted but failed
      out.latency.missed(s.late_s);
      continue;
    }
    // Server-side completion time, so the collector's own pace (it also
    // verifies answers) never enters the achieved rate or the backlog.
    const double done_s = s.sent_s + s.admit_s + r.latency_seconds;
    last_done_s = std::max(last_done_s, done_s);
    for (std::size_t k = 0; k < kInstants; ++k) {
      out.backlog[k] += s.sent_s <= instant_s[k] && done_s > instant_s[k];
    }
    out.latency.answered(s.late_s, s.admit_s + r.latency_seconds);
    ++out.answered;
    const int truth = traffic.truth(plan[j]);
    if (truth >= 0) {
      ++out.labelled;
      out.correct += r.label == truth ? 1 : 0;
    }
    checker.record(plan[j], std::move(r));
  }
  generator.join();
  if (generator_error) std::rethrow_exception(generator_error);
  sample();
  cpus.serve();
  out.achieved_qps = last_done_s > 0.0
                         ? static_cast<double>(out.answered) / last_done_s
                         : 0.0;
  out.rss_growth_mb = rss_max_mb - rss_base_mb;
  return out;
}

/// Median µs per row of predict_batch_full at batch size `batch` (the
/// served batch fill), cycling through `rows`.
double small_batch_us_per_row(const smore::InferenceBackend& backend,
                              smore::HvView rows, std::size_t batch,
                              double budget_s) {
  batch = std::clamp<std::size_t>(batch, 1, rows.rows);
  std::vector<double> s;
  const auto t_start = Clock::now();
  for (std::size_t first = 0;
       s.size() < 50 || seconds_since(t_start) < budget_s;
       first = (first + batch) % (rows.rows - batch + 1)) {
    const CpuTimer t0;
    (void)backend.predict_batch_full(rows.slice(first, batch));
    s.push_back(t0.seconds());
  }
  return 1e6 * median(s) / static_cast<double>(batch);
}

/// The serving-plane per-layer metrics of one traced phase.
void serve_layer_metrics(std::map<std::string, double>& m,
                         const PhaseOutcome& ph, const Fleet& fleet,
                         double small_us_per_row) {
  const smore::MultiTenantStats st = fleet.server->stats();
  smore::LatencyHistogram queue_wait, service;
  for (const auto& t : fleet.server->tenant_stats()) {
    queue_wait.merge(t.queue_wait);
    service.merge(t.service);
  }
  m["serve.admit.us.p50"] = 1e6 * tail_percentile(ph.admit_s, 0.50).value_or(0);
  m["serve.admit.us.p99"] = 1e6 * tail_percentile(ph.admit_s, 0.99).value_or(0);
  m["serve.queue_wait.ms.p99"] = 1e3 * queue_wait.quantile(0.99);
  m["serve.service.ms.p50"] = 1e3 * service.quantile(0.50);
  m["serve.batch_fill"] = st.mean_batch_fill;
  m["serve.batches"] = static_cast<double>(st.batches);
  m["serve.shed"] =
      static_cast<double>(st.shed_queue_full + st.shed_tenant_quota);
  m["serve.gen_late.ms.p99"] = 1e3 * ph.latency.lateness(0.99).value_or(0);
  m["core.predict_small.us_per_row"] = small_us_per_row;
  const double fill = std::max(1.0, st.mean_batch_fill);
  m["serve.overhead.us_per_row"] =
      (1e6 * service.quantile(0.50) - small_us_per_row * fill) / fill;
  m["serve.registry.cold_load.ms.p50"] = 1e3 * median(fleet.load_s);
  m["serve.registry.loads"] = static_cast<double>(st.registry.loads);
  m["serve.adapt.rounds"] = static_cast<double>(st.adaptation_rounds);
  m["serve.adapt.absorbed"] = static_cast<double>(st.adaptation_absorbed);
  m["serve.adapt.dropped"] = static_cast<double>(st.adaptation_dropped);
  m["serve.adapt.merged"] = static_cast<double>(st.adaptation_merged);
  m["serve.adapt.evicted"] = static_cast<double>(st.adaptation_evicted);
}

/// Mean live K over the fleet's resident tenants.
double mean_live_domains(Fleet& fleet, std::size_t tenants) {
  double sum = 0.0;
  for (std::size_t t = 0; t < tenants; ++t) {
    const auto model = fleet.registry->resident(tenant_name(t));
    if (model) {
      sum += static_cast<double>(model->snapshot()->model->num_domains());
    }
  }
  return sum / static_cast<double>(tenants);
}

void pseudo_label(const smore::SmoreModel& model,
                  std::vector<smore::OodSample>& samples) {
  HvMatrix rows(samples.size(), model.dim());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::copy(samples[i].hv.begin(), samples[i].hv.end(), rows.row(i).begin());
  }
  const std::vector<int> labels = model.predict_batch(rows.view());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].pseudo_label = labels[i];
  }
}

double lifecycle_round_ms(const ModelSnapshot& snap,
                          const std::vector<smore::OodSample>& round,
                          const smore::LifecycleConfig& config) {
  std::vector<double> s;
  for (int r = 0; r < 7; ++r) {
    const CpuTimer t0;
    (void)smore::run_lifecycle_round(snap, round, {}, config,
                                     snap.version + 1);
    s.push_back(t0.seconds());
  }
  return 1e3 * median(s);
}

}  // namespace smorebench
