#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <string>

namespace smore::obs {

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (i == 0 && digit) out += '_';  // leading digit gets a '_' prefix
    out += (alpha || digit) ? c : '_';
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size() + 4);
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string render_labels(const Labels& labels, const char* extra_key,
                          const std::string& extra_value) {
  std::string out;
  bool first = true;
  for (const auto& [k, v] : labels) {
    out += first ? '{' : ',';
    first = false;
    out += sanitize_metric_name(k);
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  if (extra_key != nullptr) {
    out += first ? '{' : ',';
    first = false;
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  if (!first) out += '}';
  return out;
}

}  // namespace

std::string to_prometheus(const Telemetry& telemetry) {
  std::string out;
  std::string last_family;
  for (const MetricSample& s : telemetry.metrics().snapshot()) {
    const std::string name = sanitize_metric_name(s.name);
    if (name != last_family) {
      out += "# TYPE " + name + ' ' + to_string(s.type) + '\n';
      last_family = name;
    }
    if (s.type == MetricType::kHistogram) {
      // Cumulative buckets at the non-empty boundaries (a valid exposition
      // need not list every le; 240 mostly-zero buckets per series would
      // drown the scrape).
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
        const std::uint64_t n = s.hist.bucket_count(b);
        if (n == 0) continue;
        cum += n;
        out += name + "_bucket" +
               render_labels(s.labels, "le",
                             format_double(LatencyHistogram::bucket_upper(b))) +
               ' ' + std::to_string(cum) + '\n';
      }
      out += name + "_bucket" + render_labels(s.labels, "le", "+Inf") + ' ' +
             std::to_string(s.hist.count()) + '\n';
      out += name + "_sum" + render_labels(s.labels, nullptr, "") + ' ' +
             format_double(s.hist.sum_seconds()) + '\n';
      out += name + "_count" + render_labels(s.labels, nullptr, "") + ' ' +
             std::to_string(s.hist.count()) + '\n';
    } else {
      out += name + render_labels(s.labels, nullptr, "") + ' ' +
             format_double(s.value) + '\n';
    }
  }
  return out;
}

JsonValue snapshot_json(const Telemetry& telemetry, std::size_t slowest_n,
                        std::size_t events_n) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "smore.telemetry.v1");
  doc.set("observed_requests", telemetry.tracer().observed());
  doc.set("events_emitted", telemetry.events().emitted());

  JsonValue metrics = JsonValue::array();
  for (const MetricSample& s : telemetry.metrics().snapshot()) {
    JsonValue m = JsonValue::object();
    m.set("name", s.name);
    m.set("type", to_string(s.type));
    JsonValue labels = JsonValue::object();
    for (const auto& [k, v] : s.labels) labels.set(k, v);
    m.set("labels", std::move(labels));
    if (s.type == MetricType::kHistogram) {
      m.set("count", s.hist.count());
      m.set("sum", s.hist.sum_seconds());
      m.set("mean", s.hist.mean_seconds());
      m.set("p50", s.hist.p50());
      m.set("p95", s.hist.p95());
      m.set("p99", s.hist.p99());
      m.set("max", s.hist.max_seconds());
      JsonValue buckets = JsonValue::array();
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
        const std::uint64_t n = s.hist.bucket_count(b);
        if (n == 0) continue;
        cum += n;
        JsonValue edge = JsonValue::array();
        edge.push_back(LatencyHistogram::bucket_upper(b));
        edge.push_back(cum);
        buckets.push_back(std::move(edge));
      }
      m.set("buckets", std::move(buckets));
    } else {
      m.set("value", s.value);
    }
    metrics.push_back(std::move(m));
  }
  doc.set("metrics", std::move(metrics));

  JsonValue slowest = JsonValue::array();
  for (const TraceSpan& t : telemetry.tracer().slowest(slowest_n)) {
    JsonValue span = JsonValue::object();
    span.set("id", t.id);
    span.set("tenant", std::string(t.tenant));
    span.set("shard", static_cast<std::uint64_t>(t.shard));
    span.set("batch_rows", static_cast<std::uint64_t>(t.batch_rows));
    span.set("label", t.label);
    span.set("ood", t.ood != 0);
    span.set("slow", t.slow != 0);
    span.set("snapshot_version", t.snapshot_version);
    span.set("total_ms", static_cast<double>(t.total_ns) * 1e-6);
    span.set("queue_ms", static_cast<double>(t.queue_ns) * 1e-6);
    span.set("encode_ms", static_cast<double>(t.encode_ns) * 1e-6);
    span.set("predict_ms", static_cast<double>(t.predict_ns) * 1e-6);
    span.set("fulfill_ms", static_cast<double>(t.fulfill_ns) * 1e-6);
    slowest.push_back(std::move(span));
  }
  doc.set("slowest_requests", std::move(slowest));

  JsonValue events = JsonValue::array();
  for (const Event& e : telemetry.events().recent(events_n)) {
    JsonValue event = JsonValue::object();
    event.set("id", e.id);
    event.set("t_ms", static_cast<double>(e.t_ns) * 1e-6);
    event.set("type", to_string(e.type));
    event.set("scope", std::string(e.scope));
    event.set("reason", std::string(e.reason));
    event.set("value", static_cast<double>(e.value));
    events.push_back(std::move(event));
  }
  doc.set("events", std::move(events));
  return doc;
}

std::string snapshot_json_text(const Telemetry& telemetry,
                               std::size_t slowest_n, std::size_t events_n) {
  return snapshot_json(telemetry, slowest_n, events_n).dump(2) + "\n";
}

bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace smore::obs
