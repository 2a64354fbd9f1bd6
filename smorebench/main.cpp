// smorebench: the repository benchmark binary (see smorebench/README.md).
//
//   smorebench --workload lodo_train|fleet_zipf|fleet_drift --seed N
//              --seconds S --trace 0|1 --protocol smorebench/protocol.json
//              [--source ID]
//
// Prints a `fingerprint {...}` line, progress lines, and as its LAST line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the per-layer
// set. Exit code 0 when every output check passed, 2 when one found a wrong
// answer (the result line is still printed), 1 on a usage or runtime error (no
// result line).

#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "hdc/dispatch.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

#ifndef SMOREBENCH_BUILD_TYPE
#define SMOREBENCH_BUILD_TYPE "unknown"
#endif

namespace smorebench {

double proc_status(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::size_t len = std::strlen(field);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr);
    }
  }
  return 0.0;
}

namespace {

double clock_seconds(clockid_t id) {
  timespec t{};
  clock_gettime(id, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

}  // namespace

double process_cpu_seconds() {
  return clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "smorebench: %s\nusage: smorebench --workload NAME --seed N "
               "--seconds S --trace 0|1 --protocol PATH [--source ID]\n",
               why);
  return 1;
}

smore::obs::JsonValue fingerprint(const RunOptions& opt,
                                  const std::string& source) {
  const smore::kern::Dispatch& d = smore::kern::dispatch();
  const char* forced = std::getenv("SMORE_KERNEL");
  smore::obs::JsonValue fp = smore::obs::JsonValue::object();
  fp.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  fp.set("hardware_concurrency",
         static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  fp.set("kernel_tier", smore::kern::tier_name(d.tier));
  fp.set("kernel_forced", d.forced);
  fp.set("kernel_clamped", d.clamped);
  fp.set("SMORE_KERNEL", forced != nullptr ? forced : "");
  fp.set("build_type", SMOREBENCH_BUILD_TYPE);
  fp.set("source", source);
  fp.set("workload", opt.workload);
  fp.set("seed", opt.seed);
  fp.set("seconds", opt.seconds);
  fp.set("trace", opt.trace);
  return fp;
}

}  // namespace
}  // namespace smorebench

int main(int argc, char** argv) {
  using namespace smorebench;
  RunOptions opt;
  std::string protocol_path;
  std::string source = "unknown";
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
      have_trace = true;
    } else if (key == "--protocol") {
      protocol_path = val;
    } else if (key == "--source") {
      source = val;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  if (opt.workload.empty() || protocol_path.empty() || !have_trace ||
      !(opt.seconds > 0.0)) {
    return usage("--workload, --seconds > 0, --trace and --protocol are "
                 "required");
  }

  try {
    std::ifstream in(protocol_path);
    if (!in) return usage(("cannot read " + protocol_path).c_str());
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    const auto protocol = smore::obs::JsonValue::parse(text.str(), &error);
    if (!protocol) return usage(("protocol.json: " + error).c_str());
    opt.params = protocol->at("workloads").at(opt.workload);
    opt.limits = protocol->at("limits");
    if (!opt.params.is_object()) {
      return usage(("no workload " + opt.workload).c_str());
    }

    std::printf("fingerprint %s\n", fingerprint(opt, source).dump().c_str());
    std::fflush(stdout);

    Result result;
    if (opt.workload == "lodo_train") {
      result = run_lodo_train(opt);
    } else if (opt.workload == "fleet_zipf") {
      result = run_fleet_zipf(opt);
    } else if (opt.workload == "fleet_drift") {
      result = run_fleet_drift(opt);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
    for (const std::string& m : result.mismatches) {
      std::fprintf(stderr, "smorebench: OUTPUT CHECK FAILED: %s\n", m.c_str());
    }
    std::printf("%s\n", result_json(result).dump().c_str());
    std::fflush(stdout);
    return result.mismatches.empty() ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smorebench: %s\n", e.what());
    return 1;
  }
}
