#pragma once
// The one home for bench plumbing: dataset construction from flags, timed
// encoding, CSV output locations, best-of / median timing, the separable
// encoded training set and packed artifact the serving benches share, the
// closed-loop load driver, and the JSON writer every BENCH_*.json goes
// through.
//
// Scale note (DESIGN.md §7): the paper's server has 24 hardware threads.
// Every bench defaults to a reduced sample scale and hyperdimension on any
// host, so all claims compared against the paper are *shape* claims
// (ordering, ratios, crossovers); `--scale`, `--dim`, and `--full` rerun at
// paper scale.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "eval/timer.hpp"
#include "hdc/encoder.hpp"
#include "hdc/hv_dataset.hpp"
#include "hdc/hv_matrix.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "serve/registry.hpp"
#include "serve/status.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace smore::bench {

/// Default per-dataset scale: the datasets differ 5× in total size and 1.6×
/// in class count, so a single global fraction starves DSADS (19 classes,
/// 9120 windows) long before USC-HAD (12 classes, 43374 windows). These
/// defaults equalize the windows-per-(class, domain) budget at roughly 30,
/// the smallest regime where all five algorithms are trainable.
inline double default_scale(const std::string& name) {
  if (name == "DSADS") return 0.25;
  if (name == "USC-HAD") return 0.05;
  if (name == "PAMAP2") return 0.10;
  throw std::invalid_argument("unknown dataset: " + name);
}

/// Resolve a dataset spec by paper name; scale <= 0 selects the per-dataset
/// default above.
inline SyntheticSpec spec_by_name(const std::string& name, double scale,
                                  std::uint64_t seed) {
  if (scale <= 0.0) scale = default_scale(name);
  if (name == "DSADS") return dsads_spec(scale, seed);
  if (name == "USC-HAD") return uschad_spec(scale, seed);
  if (name == "PAMAP2") return pamap2_spec(scale, seed);
  throw std::invalid_argument("unknown dataset: " + name +
                              " (expected DSADS, USC-HAD, or PAMAP2)");
}

/// A generated dataset together with its encoding and encode-cost accounting.
struct EncodedBundle {
  WindowDataset raw;
  HvDataset encoded;
  double generate_seconds = 0.0;
  double encode_seconds = 0.0;
  double encode_seconds_per_sample = 0.0;
  /// Batched-encode throughput (the whole dataset through encode_batch).
  double encode_windows_per_second = 0.0;
};

/// Generate and encode one dataset, reporting progress to stdout.
inline EncodedBundle prepare(const SyntheticSpec& spec, std::size_t dim,
                             std::size_t ngram = 3,
                             std::uint64_t encoder_seed = 0x5304e) {
  EncodedBundle bundle;
  {
    WallTimer t;
    bundle.raw = generate_dataset(spec);
    bundle.generate_seconds = t.seconds();
  }
  EncoderConfig ec;
  ec.dim = dim;
  ec.ngram = ngram;
  ec.seed = encoder_seed;
  const MultiSensorEncoder encoder(ec);
  {
    WallTimer t;
    bundle.encoded = encoder.encode_dataset(bundle.raw);
    bundle.encode_seconds = t.seconds();
  }
  bundle.encode_seconds_per_sample =
      bundle.raw.empty() ? 0.0
                         : bundle.encode_seconds /
                               static_cast<double>(bundle.raw.size());
  bundle.encode_windows_per_second =
      bundle.encode_seconds > 0.0
          ? static_cast<double>(bundle.raw.size()) / bundle.encode_seconds
          : 0.0;
  std::printf("[prepare] %-8s N=%zu channels=%zu steps=%zu domains=%d "
              "classes=%d | generate %.2fs encode %.2fs = %.0f windows/s "
              "(batched, d=%zu)\n",
              spec.name.c_str(), bundle.raw.size(), bundle.raw.channels(),
              bundle.raw.steps(), bundle.raw.num_domains(),
              bundle.raw.num_classes(), bundle.generate_seconds,
              bundle.encode_seconds, bundle.encode_windows_per_second, dim);
  std::fflush(stdout);
  return bundle;
}

/// results/<name>.csv next to the current working directory.
inline std::string results_path(const std::string& name) {
  return "results/" + name + ".csv";
}

/// CI smoke mode. Every self-timed bench registers this flag and, when set,
/// shrinks its problem sizes (scale / dim / epochs / repeats) so the whole
/// bench sweep finishes in seconds while still driving every code path. The
/// Release CI job builds all benches and runs each with --smoke, so kernel
/// regressions and bench bit-rot surface in tier-1 instead of at the next
/// manual figure run. Smoke numbers are NOT comparable to the defaults —
/// they only prove the bench still runs end to end.
inline CliParser& add_smoke_flag(CliParser& cli) {
  return cli.flag_bool("smoke", false,
                       "CI smoke run: tiny problem sizes, same code paths");
}

/// Best-of-`repeats` wall-clock seconds for `body`.
template <typename F>
double best_seconds(int repeats, F&& body) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    WallTimer t;
    body();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Median of `v` (the upper middle element for even sizes); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Linearly separable encoded dataset: one bipolar prototype per class, rows
/// = prototype + N(0, 0.5) noise, `per_cell` rows per (domain, class). The
/// serving benches use it to keep the encoder out of the loop and isolate
/// scheduling + inference.
inline HvDataset make_train(int classes, int domains, std::size_t per_cell,
                            std::size_t dim, Rng& rng) {
  std::vector<std::vector<float>> prototypes;
  for (int c = 0; c < classes; ++c) {
    std::vector<float> p(dim);
    for (auto& x : p) x = rng.bipolar();
    prototypes.push_back(std::move(p));
  }
  HvDataset data(dim);
  std::vector<float> row(dim);
  for (int d = 0; d < domains; ++d) {
    for (int c = 0; c < classes; ++c) {
      for (std::size_t i = 0; i < per_cell; ++i) {
        for (std::size_t j = 0; j < dim; ++j) {
          row[j] = prototypes[static_cast<std::size_t>(c)][j] +
                   static_cast<float>(rng.normal(0.0, 0.5));
        }
        data.add(row, c, d);
      }
    }
  }
  return data;
}

/// 1024-row serving query mix: training rows, with every eighth row pure
/// N(0, 1) noise (exercises the OOD branch like real traffic would).
inline HvMatrix make_queries(const HvDataset& train, Rng& rng) {
  HvMatrix queries(1024, train.dim());
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    if (i % 8 == 7) {
      for (float& x : queries.row(i)) x = static_cast<float>(rng.normal());
    } else {
      queries.set_row(i, train.row(i % train.size()));
    }
  }
  return queries;
}

/// A .smore artifact fitted on `train`, δ* calibrated at a 5% FP budget, and
/// quantized so the packed backend serves (δ* transfers pre-calibration).
inline std::string packed_artifact(const HvDataset& train) {
  EncoderConfig ec;
  ec.dim = train.dim();
  Pipeline pipeline(std::make_shared<const MultiSensorEncoder>(ec),
                    train.num_classes());
  pipeline.fit_encoded(train);
  pipeline.model().calibrate_delta_star(train, 0.05);
  pipeline.quantize();
  std::ostringstream buffer(std::ios::binary);
  pipeline.save(buffer);
  return buffer.str();
}

/// Registry opener that deserializes `artifact` afresh for every tenant.
inline ModelRegistry::ArtifactOpener artifact_opener(std::string artifact) {
  return [artifact = std::move(artifact)](const std::string&) {
    std::istringstream in(artifact, std::ios::binary);
    return ModelSnapshot::from_artifact(in, /*version=*/1);
  };
}

/// A submit outcome: the request's future, or nullopt when it was shed.
using Submitted = std::optional<std::future<ServeResult>>;

struct ClosedLoopResult {
  double seconds = 0.0;     ///< wall time from first submit to last answer
  std::uint64_t shed = 0;   ///< submits that returned nullopt
};

/// Closed-loop load: `producers` threads each issue total/producers
/// requests, keeping at most `window` futures in flight and draining the rest
/// at the end. `make_submit(p)` runs on producer p's thread and returns its
/// submit callable; `submit(idx)` sends global request idx = p*n + i. A shed
/// request (nullopt) is dropped, not retried, and never occupies the window.
template <typename MakeSubmit>
ClosedLoopResult drive_closed_loop(std::size_t total, std::size_t producers,
                                   std::size_t window,
                                   MakeSubmit&& make_submit) {
  std::vector<std::uint64_t> shed(producers, 0);
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      auto submit = make_submit(p);
      const std::size_t n = total / producers;
      std::uint64_t my_shed = 0;
      std::deque<std::future<ServeResult>> inflight;
      for (std::size_t i = 0; i < n; ++i) {
        Submitted fut = submit(p * n + i);
        if (!fut.has_value()) {
          ++my_shed;
          continue;
        }
        inflight.push_back(std::move(*fut));
        if (inflight.size() >= window) {
          inflight.front().get();
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        inflight.front().get();
        inflight.pop_front();
      }
      shed[p] = my_shed;
    });
  }
  for (auto& t : threads) t.join();
  ClosedLoopResult r;
  r.seconds = timer.seconds();
  for (const std::uint64_t s : shed) r.shed += s;
  return r;
}

/// std::thread::hardware_concurrency() as a JSON-ready integer.
inline std::uint64_t hardware_threads() {
  return std::thread::hardware_concurrency();
}

/// JSON object with `members` in the given order.
inline obs::JsonValue json_object(
    std::initializer_list<std::pair<const char*, obs::JsonValue>> members) {
  obs::JsonValue obj = obs::JsonValue::object();
  for (const auto& [key, value] : members) obj.set(key, value);
  return obj;
}

/// JSON array of numbers.
inline obs::JsonValue json_array(const std::vector<double>& values) {
  obs::JsonValue arr = obs::JsonValue::array();
  for (const double v : values) arr.push_back(v);
  return arr;
}

/// Write `doc` pretty-printed to `path` atomically and report it on stdout
/// ("(json: path)"); false, with a message on stderr, when the write fails.
inline bool write_json(const std::string& path, const obs::JsonValue& doc) {
  if (!obs::write_file_atomic(path, doc.dump(2) + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("(json: %s)\n", path.c_str());
  return true;
}

}  // namespace smore::bench
