// Workload lodo_train: the paper's own workload, closed loop and offline.
//
// DSADS-shaped synthetic data (19 classes, 45 channels, 125 steps, 4
// domains; one fixed recording, sampled per seed), one held-out domain, a
// d=2048 MultiSensorEncoder, through the
// Pipeline facade: fit → quantize → calibrate → evaluate (float, then
// packed) → save/load. The first pass's artifact, saved and loaded,
// classifies held-out windows one at a time (the deployed single-caller
// path) for the latency, rate and online-accuracy metrics; sweeps of that
// probe alternate with further passes until the time budget is spent, and
// every throughput is the median over passes.
//
// The run may use every CPU of the machine, so the library's thread pool
// (the encoder's and kernels' parallel_for) runs as it would for a user:
// the training and inference passes are timed in wall time. Setup and the
// single-window probe, which run on one thread, are timed in CPU time (the
// process's, and the calling thread's), which excludes what the hypervisor
// steals from a shared virtual machine.
//
// Output checks: every pass reproduces the first pass's accuracies; the
// save→load round trip gives identical predict_batch_full on both backends;
// every single-window answer equals the batch answer for that window.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "hdc/ops_binary.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace smorebench {
namespace {

using smore::Pipeline;
using smore::ServeBackend;
using smore::SmoreBatchResult;
using smore::WindowDataset;

struct LodoData {
  WindowDataset train;
  WindowDataset test;
  std::shared_ptr<const smore::Encoder> encoder;
  int classes = 0;
};

/// Everything before the first measured pass: generate the DSADS-shaped
/// recording (a fixed world, like the real dataset: dataset_seed), split off
/// the held-out domain (all of its windows are the test set), draw this
/// run's stratified sample of the source domains from --seed as the
/// training set, and build the encoder (basis included).
LodoData make_data(const RunOptions& opt) {
  const smore::SyntheticSpec spec = smore::dsads_spec(
      param(opt.params, "generate_scale"),
      static_cast<std::uint64_t>(param(opt.params, "dataset_seed")));
  const WindowDataset recording = smore::generate_dataset(spec);
  const smore::Split split = smore::lodo_split(
      recording, static_cast<int>(param(opt.params, "held_out_domain")));
  const WindowDataset sources = smore::take(recording, split.train);
  LodoData d;
  d.train = smore::take(
      sources, smore::stratified_subsample(
                   sources, param(opt.params, "sample_fraction"), opt.seed));
  d.test = smore::take(recording, split.test);
  d.classes = recording.num_classes();
  smore::EncoderConfig ec;
  ec.dim = param_size(opt.params, "dim");
  d.encoder = std::make_shared<const smore::MultiSensorEncoder>(ec);
  // Materialize any lazily built basis now, not inside the first fit.
  (void)d.encoder->encode_one(d.train[0]);
  return d;
}

smore::SmoreConfig model_config(const RunOptions& opt) {
  smore::SmoreConfig sc;
  sc.domain_model.epochs = static_cast<int>(param(opt.params, "epochs"));
  sc.domain_model.seed = opt.seed;  // per-run training order
  return sc;
}

/// One untraced pass: the Pipeline calls a user makes, timed end to end.
struct Pass {
  double train_s = 0.0;  // fit + quantize + calibrate
  double infer_s = 0.0;  // evaluate float + evaluate packed
  double accuracy = 0.0;
  double accuracy_packed = 0.0;
  std::unique_ptr<Pipeline> pipeline;  // the trained original
};

Pass untraced_pass(const LodoData& d, const smore::SmoreConfig& sc) {
  Pass r;
  r.pipeline = std::make_unique<Pipeline>(d.encoder, d.classes, sc);
  Pipeline& p = *r.pipeline;
  WallTimer t0;
  p.fit(d.train);
  p.quantize();
  p.calibrate(d.train);
  r.train_s = t0.seconds();
  t0 = WallTimer();
  r.accuracy = p.evaluate(d.test, ServeBackend::kFloat).accuracy;
  r.accuracy_packed = p.evaluate(d.test, ServeBackend::kPacked).accuracy;
  r.infer_s = t0.seconds();
  return r;
}

/// One traced pass: the same work with each layer's public call timed on
/// its own (encode split out of fit, backends called on encoded rows).
struct TracedPass {
  double train_s = 0.0;  // encode + fit_encoded + quantize + calibrate
  double encode_s = 0.0, fit_s = 0.0, quantize_s = 0.0, calibrate_s = 0.0;
  double float_us = 0.0, packed_us = 0.0, sign_pack_us = 0.0, load_ms = 0.0;
};

TracedPass traced_pass(const LodoData& d, const smore::SmoreConfig& sc) {
  TracedPass r;
  Pipeline p(d.encoder, d.classes, sc);
  WallTimer t0;
  const smore::HvDataset train_hv = p.encode(d.train);
  r.encode_s = t0.seconds();
  WallTimer t;
  p.fit_encoded(train_hv);
  r.fit_s = t.seconds();
  t = WallTimer();
  p.quantize();
  r.quantize_s = t.seconds();
  t = WallTimer();
  p.calibrate(d.train);
  r.calibrate_s = t.seconds();
  r.train_s = t0.seconds();

  const smore::HvDataset test_hv = p.encode(d.test);
  const double rows = static_cast<double>(test_hv.size());
  t = WallTimer();
  (void)p.model().predict_batch_full(test_hv.view());
  r.float_us = 1e6 * t.seconds() / rows;
  t = WallTimer();
  (void)p.packed()->predict_batch_full(test_hv.view());
  r.packed_us = 1e6 * t.seconds() / rows;
  t = WallTimer();
  (void)smore::ops::sign_pack_matrix(test_hv.view());
  r.sign_pack_us = 1e6 * t.seconds() / rows;
  const std::string artifact = save_bytes(p);
  t = WallTimer();
  (void)load_bytes(artifact);
  r.load_ms = 1e3 * t.seconds();
  return r;
}

/// A one-window dataset (the single-caller request).
WindowDataset one_window(const WindowDataset& from, std::size_t i) {
  WindowDataset one(from.name(), from.channels(), from.steps());
  one.add(from[i]);
  return one;
}

}  // namespace

Result run_lodo_train(const RunOptions& opt) {
  Result result;
  std::map<std::string, double> m;
  const smore::SmoreConfig sc = model_config(opt);
  const std::size_t min_reps = param_size(opt.params, "min_reps");

  std::vector<double> setup_s;
  LodoData data;
  for (std::size_t i = 0; i < param_size(opt.params, "setup_reps"); ++i) {
    CpuTimer t0;
    data = make_data(opt);
    setup_s.push_back(t0.seconds());
  }
  std::printf("lodo_train: %zu train / %zu test windows, %d classes, "
              "setup %.3f s\n",
              data.train.size(), data.test.size(), data.classes,
              median(setup_s));
  std::fflush(stdout);

  if (opt.trace) {
    // Untraced half, then traced half; the overhead compares the training
    // time of the two (the same work, split into layer calls or not).
    const auto t_half = Clock::now();
    std::vector<double> plain_train_s;
    while (plain_train_s.size() < min_reps ||
           seconds_since(t_half) < 0.5 * opt.seconds) {
      plain_train_s.push_back(untraced_pass(data, sc).train_s);
      result.attempted += 1;
    }
    std::vector<TracedPass> passes;
    const auto t_traced = Clock::now();
    while (passes.size() < min_reps ||
           seconds_since(t_traced) < 0.5 * opt.seconds) {
      passes.push_back(traced_pass(data, sc));
      result.attempted += 1;
    }
    auto med = [&](double TracedPass::*field) {
      std::vector<double> v;
      for (const TracedPass& p : passes) v.push_back(p.*field);
      return median(v);
    };
    m["hdc.encode.windows_per_s"] =
        static_cast<double>(data.train.size()) / med(&TracedPass::encode_s);
    m["core.fit.s"] = med(&TracedPass::fit_s);
    m["core.quantize.s"] = med(&TracedPass::quantize_s);
    m["core.calibrate.s"] = med(&TracedPass::calibrate_s);
    m["core.predict_float.us_per_row"] = med(&TracedPass::float_us);
    m["core.predict_packed.us_per_row"] = med(&TracedPass::packed_us);
    m["hdc.sign_pack.us_per_row"] = med(&TracedPass::sign_pack_us);
    m["core.artifact_load.ms"] = med(&TracedPass::load_ms);
    m["obs.trace_overhead"] =
        med(&TracedPass::train_s) / median(plain_train_s) - 1.0;
    emit_metrics(result, m, /*trace=*/true);
    return result;
  }

  // ---- the first pass, and its save → load round trip: identical
  // predict_batch_full on both backends
  std::vector<double> train_s, infer_s;
  const auto t_run = Clock::now();
  const Pass first = untraced_pass(data, sc);
  result.attempted += 1;
  train_s.push_back(first.train_s);
  infer_s.push_back(first.infer_s);
  const Pipeline loaded = load_bytes(save_bytes(*first.pipeline));
  SmoreBatchResult packed_batch;
  for (const ServeBackend b : {ServeBackend::kFloat, ServeBackend::kPacked}) {
    const SmoreBatchResult a = first.pipeline->predict_batch_full(data.test, b);
    const SmoreBatchResult c = loaded.predict_batch_full(data.test, b);
    result.attempted += 1;
    if (!same_batch(a, c)) {
      result.mismatch(std::string("lodo_train: save/load round trip changed "
                                  "predict_batch_full on the ") +
                      (b == ServeBackend::kFloat ? "float" : "packed") +
                      " backend");
    }
    if (b == ServeBackend::kPacked) packed_batch = c;
  }

  // ---- the measured run: probe_sweeps sweeps of the single-window probe
  // of the loaded artifact (packed backend) alternate with further passes,
  // so both are spread over the run and one slow stretch of the shared
  // host weighs on a few samples only. Whole sweeps over the held-out
  // windows keep online_accuracy exact.
  const std::size_t min_probe = param_size(opt.params, "probe_min_samples");
  const std::size_t sweeps = param_size(opt.params, "probe_sweeps");
  std::vector<double> lat_s;
  std::size_t correct = 0;
  double probe_cpu_s = 0.0;
  while (train_s.size() < min_reps || lat_s.size() < min_probe ||
         seconds_since(t_run) < opt.seconds) {
    for (std::size_t k = 0; k < sweeps * data.test.size(); ++k) {
      const std::size_t i = k % data.test.size();
      const WindowDataset one = one_window(data.test, i);
      const CpuTimer t0(CpuTimer::kThread);
      const SmoreBatchResult r =
          loaded.predict_batch_full(one, ServeBackend::kPacked);
      lat_s.push_back(t0.seconds());
      probe_cpu_s += lat_s.back();
      result.attempted += 1;
      correct += r.labels[0] == data.test[i].label() ? 1 : 0;
      if (!same_row(r, 0, packed_batch, i)) {
        result.mismatch("lodo_train: single-window answer for test window " +
                        std::to_string(i) + " differs from the batch answer");
      }
    }
    const Pass p = untraced_pass(data, sc);
    result.attempted += 1;
    if (p.accuracy != first.accuracy ||
        p.accuracy_packed != first.accuracy_packed) {
      result.mismatch("lodo_train: pass " + std::to_string(train_s.size()) +
                      " accuracy differs from pass 0 (nondeterministic fit)");
    }
    train_s.push_back(p.train_s);
    infer_s.push_back(p.infer_s);
  }
  std::printf("lodo_train: %zu passes, train %.3f s, infer %.3f s (median), "
              "accuracy %.4f float / %.4f packed\n",
              train_s.size(), median(train_s), median(infer_s),
              first.accuracy, first.accuracy_packed);
  std::printf("lodo_train: %zu single-window probes, %.0f threads\n",
              lat_s.size(), proc_status("Threads:"));
  m["setup_s"] = median(setup_s);
  m["peak_rss_mb"] = peak_rss_mb();
  m["train_windows_per_s"] =
      static_cast<double>(data.train.size()) / median(train_s);
  m["infer_windows_per_s"] =
      static_cast<double>(data.test.size()) / median(infer_s);
  m["accuracy"] = first.accuracy;
  m["accuracy_packed"] = first.accuracy_packed;
  m["p50_ms"] = reported(tail_percentile(lat_s, 0.50), 1e3, "p50 latency");
  m["p99_ms"] = reported(
      windowed_percentile(lat_s, 0.99, param_size(opt.limits, "p99_window")),
      1e3, "p99 latency");
  m["max_rate_qps"] = static_cast<double>(lat_s.size()) / probe_cpu_s;
  m["online_accuracy"] =
      static_cast<double>(correct) / static_cast<double>(lat_s.size());
  emit_metrics(result, m, /*trace=*/false);
  return result;
}

}  // namespace smorebench
