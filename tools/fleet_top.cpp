// fleet_top: top-like operator view over the telemetry JSON snapshot
// (DESIGN.md §14).
//
// The serving stack has no HTTP endpoint by design; its export transport is
// a JSON file written atomically (MultiTenantConfig::export_path, or any
// call to write_telemetry / obs::snapshot_json_text). This tool tails that
// file and renders the fleet dashboard: fleet counters, a per-tenant table,
// the slowest-request spans, and the recent event log.
//
//   ./build/tool_fleet_top --file=telemetry.json            # watch (1 Hz)
//   ./build/tool_fleet_top --file=telemetry.json --once     # one frame
//   ./build/tool_fleet_top --file=telemetry.json --format=json
//   ./build/tool_fleet_top --demo --once                    # no file handy:
//       run a miniature two-tenant fleet in-process, export a REAL snapshot,
//       and render it — the CI smoke path exercises export + parse + render
//       end to end.
//
//   --interval-ms=1000   re-read cadence in watch mode
//   --slowest=10         rows in the slowest-requests table
//   --events=10          rows in the event table

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "util/cli.hpp"

namespace {
using namespace smore;
using obs::JsonValue;

using LabelFilter = std::vector<std::pair<std::string, std::string>>;

/// The metric matching `name` and every (k,v) label filter; null when
/// absent.
const JsonValue* find_metric(const JsonValue& doc, std::string_view name,
                             const LabelFilter& label_filter = {}) {
  for (const JsonValue& m : doc.at("metrics").items()) {
    if (m.at("name").as_string() != name) continue;
    bool match = true;
    for (const auto& [k, v] : label_filter) {
      if (m.at("labels").at(k).as_string() != v) {
        match = false;
        break;
      }
    }
    if (match) return &m;
  }
  return nullptr;
}

/// Counter/gauge value of the metric matching name+labels; 0 when absent.
double metric_value(const JsonValue& doc, std::string_view name,
                    const LabelFilter& label_filter = {}) {
  const JsonValue* m = find_metric(doc, name, label_filter);
  return m != nullptr ? m->at("value").as_double() : 0.0;
}

/// Sum across all series of one family that carry label `key` == `value`.
double metric_sum(const JsonValue& doc, std::string_view name,
                  const std::string& key, const std::string& value) {
  double sum = 0.0;
  for (const JsonValue& m : doc.at("metrics").items()) {
    if (m.at("name").as_string() != name) continue;
    if (m.at("labels").at(key).as_string() != value) continue;
    sum += m.at("value").as_double();
  }
  return sum;
}

void render(const JsonValue& doc, const std::string& source,
            std::size_t slowest_rows, std::size_t event_rows) {
  std::printf("SMORE fleet telemetry — %s  (%s)\n",
              doc.at("schema").as_string().c_str(), source.c_str());
  // The serving plane's {plane="fleet"} series.
  const LabelFilter fleet{{"plane", "fleet"}};
  const double batches = metric_value(doc, "smore_batches_total", fleet);
  const double rows = metric_value(doc, "smore_batched_rows_total", fleet);
  const JsonValue* fleet_lat =
      find_metric(doc, "smore_request_latency_seconds", fleet);
  const JsonValue* tier = find_metric(doc, "smore_kernel_tier_info", fleet);
  std::printf("observed requests: %.0f    events emitted: %.0f\n",
              doc.at("observed_requests").as_double(),
              doc.at("events_emitted").as_double());
  std::printf("fleet: submit %.0f  complete %.0f  rejected %.0f  batches "
              "%.0f  fill %.1f  p50 %.3f ms  p99 %.3f ms  tier %s\n",
              metric_value(doc, "smore_requests_submitted_total", fleet),
              metric_value(doc, "smore_requests_completed_total", fleet),
              metric_value(doc, "smore_requests_rejected_total", fleet),
              batches, batches > 0 ? rows / batches : 0.0,
              fleet_lat != nullptr ? fleet_lat->at("p50").as_double() * 1e3
                                   : 0.0,
              fleet_lat != nullptr ? fleet_lat->at("p99").as_double() * 1e3
                                   : 0.0,
              tier != nullptr ? tier->at("labels").at("tier").as_string().c_str()
                              : "-");

  // Tenant table: one row per distinct {tenant=...} of the tenant submitted
  // counter, sorted (std::map) so the render is stable frame to frame.
  std::map<std::string, bool> tenants;
  for (const JsonValue& m : doc.at("metrics").items()) {
    if (m.at("name").as_string() != "smore_tenant_submitted_total") continue;
    tenants[m.at("labels").at("tenant").as_string()] = true;
  }
  if (!tenants.empty()) {
    std::printf("\n%-12s %9s %9s %7s %7s %7s %7s %9s %9s\n", "TENANT",
                "submit", "complete", "shed", "loadf", "ood", "adapt",
                "p50 ms", "p99 ms");
    for (const auto& [tenant, unused] : tenants) {
      (void)unused;
      const LabelFilter l{{"tenant", tenant}};
      const JsonValue* lat =
          find_metric(doc, "smore_tenant_latency_seconds", l);
      std::printf(
          "%-12s %9.0f %9.0f %7.0f %7.0f %7.0f %7.0f %9.3f %9.3f\n",
          tenant.c_str(),
          metric_value(doc, "smore_tenant_submitted_total", l),
          metric_value(doc, "smore_tenant_completed_total", l),
          metric_sum(doc, "smore_tenant_shed_total", "tenant", tenant),
          metric_value(doc, "smore_tenant_load_failures_total", l),
          metric_value(doc, "smore_tenant_ood_flagged_total", l),
          metric_value(doc, "smore_tenant_adaptation_rounds_total", l),
          lat != nullptr ? lat->at("p50").as_double() * 1e3 : 0.0,
          lat != nullptr ? lat->at("p99").as_double() * 1e3 : 0.0);
    }
  }

  // Registry residency line (present when a ModelRegistry shares the hub).
  const double resident =
      metric_value(doc, "smore_registry_resident_tenants");
  const double loads = metric_value(doc, "smore_registry_loads_total");
  if (resident > 0 || loads > 0) {
    std::printf(
        "\nregistry: %.0f resident (%.1f MiB, peak %.1f MiB), "
        "%.0f loads, %.0f evictions, %.0f load failures\n",
        resident,
        metric_value(doc, "smore_registry_resident_bytes") / (1024.0 * 1024.0),
        metric_value(doc, "smore_registry_peak_resident_bytes") /
            (1024.0 * 1024.0),
        loads, metric_value(doc, "smore_registry_evictions_total"),
        metric_value(doc, "smore_registry_load_failures_total"));
  }

  const JsonValue& slowest = doc.at("slowest_requests");
  if (slowest.size() != 0) {
    std::printf("\nSLOWEST %-10s %5s %5s %9s %9s %9s %9s %9s %5s\n", "tenant",
                "shard", "rows", "total ms", "queue", "encode", "predict",
                "fulfill", "ver");
    for (std::size_t i = 0; i < slowest.size() && i < slowest_rows; ++i) {
      const JsonValue& t = slowest.at(i);
      const std::string& tenant = t.at("tenant").as_string();
      std::printf("        %-10s %5.0f %5.0f %9.3f %9.3f %9.3f %9.3f %9.3f "
                  "%5.0f\n",
                  tenant.empty() ? "-" : tenant.c_str(),
                  t.at("shard").as_double(), t.at("batch_rows").as_double(),
                  t.at("total_ms").as_double(), t.at("queue_ms").as_double(),
                  t.at("encode_ms").as_double(),
                  t.at("predict_ms").as_double(),
                  t.at("fulfill_ms").as_double(),
                  t.at("snapshot_version").as_double());
    }
  }

  const JsonValue& events = doc.at("events");
  if (events.size() != 0) {
    std::printf("\nEVENTS  %-18s %-14s %-16s %8s\n", "type", "scope",
                "reason", "value");
    const std::size_t start =
        events.size() > event_rows ? events.size() - event_rows : 0;
    for (std::size_t i = start; i < events.size(); ++i) {
      const JsonValue& e = events.at(i);
      std::printf("        %-18s %-14s %-16s %8.0f\n",
                  e.at("type").as_string().c_str(),
                  e.at("scope").as_string().c_str(),
                  e.at("reason").as_string().c_str(),
                  e.at("value").as_double());
    }
  }
  std::printf("\n");
}

/// --demo: run a miniature two-tenant fleet end to end and export a real
/// snapshot, so the render path can be exercised with no server around.
std::string run_demo(const std::string& out_path) {
  SyntheticSpec spec;
  spec.name = "demo";
  spec.activities = 3;
  spec.subjects = 2;
  spec.subject_to_domain = {0, 1};
  spec.channels = 2;
  spec.window_steps = 24;
  spec.sample_rate_hz = 25.0;
  spec.domain_counts = {24, 24};
  spec.seed = 0xf1ee7;
  const WindowDataset windows = generate_dataset(spec);

  EncoderConfig ec;
  ec.dim = 256;
  Pipeline pipeline(std::make_shared<const MultiSensorEncoder>(ec),
                    windows.num_classes());
  pipeline.fit(windows);
  pipeline.quantize();
  pipeline.calibrate(windows, 0.08);
  std::ostringstream buffer(std::ios::binary);
  pipeline.save(buffer);
  const std::string artifact = buffer.str();

  const auto hub = obs::Telemetry::make();
  RegistryConfig rc;
  rc.telemetry = hub;
  auto registry = std::make_shared<ModelRegistry>(
      [artifact](const std::string& tenant) {
        if (tenant.rfind("bad", 0) == 0) {
          throw std::runtime_error("demo: corrupt artifact for " + tenant);
        }
        std::istringstream in(artifact, std::ios::binary);
        return ModelSnapshot::from_artifact(in, /*version=*/1);
      },
      rc);
  MultiTenantConfig mc;
  mc.num_shards = 2;
  mc.max_batch = 8;
  mc.telemetry = hub;
  {
    MultiTenantServer server(registry, mc);
    const HvDataset queries = pipeline.encode(windows);
    std::vector<std::future<ServeResult>> futures;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto row = queries.row(i);
      std::vector<float> hv(row.begin(), row.end());
      futures.push_back(
          server.submit(i % 2 == 0 ? "alpha" : "beta", std::move(hv)));
    }
    for (auto& f : futures) (void)f.get();
    try {
      (void)server.submit("bad-tenant", std::vector<float>(256, 0.0f)).get();
    } catch (const std::exception&) {
      // expected: the demo wants one load-failure row in the dashboard
    }
    if (!server.write_telemetry(out_path)) {
      throw std::runtime_error("demo: cannot write " + out_path);
    }
  }
  return out_path;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "fleet_top: render the SMORE serving telemetry snapshot (top-like)");
  cli.flag_string("file", "", "telemetry JSON snapshot to watch")
      .flag_bool("once", false, "render one frame and exit")
      .flag_bool("demo", false,
                 "run a miniature in-process fleet and render its snapshot")
      .flag_string("demo-out", "fleet_top_demo.json",
                   "where --demo writes its snapshot")
      .flag_string("format", "top", "top | json (raw pretty-printed doc)")
      .flag_int("interval-ms", 1000, "re-read cadence in watch mode")
      .flag_int("slowest", 10, "rows in the slowest-requests table")
      .flag_int("events", 10, "rows in the event table");
  if (!cli.parse(argc, argv)) return 1;

  std::string path = cli.get_string("file");
  const bool demo = cli.get_bool("demo");
  try {
    if (demo) path = run_demo(cli.get_string("demo-out"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_top: demo failed: %s\n", e.what());
    return 1;
  }
  if (path.empty()) {
    std::fprintf(stderr, "fleet_top: --file is required (or use --demo)\n");
    return 1;
  }
  const bool once = cli.get_bool("once") || demo;
  const auto interval = std::chrono::milliseconds(
      std::max<std::int64_t>(1, cli.get_int("interval-ms")));
  const auto slowest_rows =
      static_cast<std::size_t>(std::max<std::int64_t>(0, cli.get_int("slowest")));
  const auto event_rows =
      static_cast<std::size_t>(std::max<std::int64_t>(0, cli.get_int("events")));

  for (;;) {
    const std::optional<std::string> text = read_file(path);
    if (!text.has_value()) {
      std::fprintf(stderr, "fleet_top: cannot read %s\n", path.c_str());
      return 1;
    }
    std::string error;
    const std::optional<obs::JsonValue> doc =
        obs::JsonValue::parse(*text, &error);
    if (!doc.has_value()) {
      std::fprintf(stderr, "fleet_top: %s is not a telemetry snapshot: %s\n",
                   path.c_str(), error.c_str());
      return 1;
    }
    if (!once) std::printf("\x1b[2J\x1b[H");  // clear + home between frames
    if (cli.get_string("format") == "json") {
      std::printf("%s\n", doc->dump(2).c_str());
    } else {
      render(*doc, path, slowest_rows, event_rows);
    }
    if (once) return 0;
    std::this_thread::sleep_for(interval);
  }
}
