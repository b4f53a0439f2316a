// CI observability artifact generator + conformance gate (wired into
// .github/workflows/ci.yml): runs one traced, morsel-parallel SQL query
// plus a replica sync round with the event log on, writes the trace
// (Chrome trace-event JSON, Perfetto-loadable), the Prometheus metrics
// scrape, and the structured event log as artifacts, and exits non-zero
// if any output fails its conformance checker — a regression in an
// exporter fails the build, not the dashboard. It also starts the
// embedded HTTP observability endpoint on an ephemeral port and fetches
// /metrics and /healthz over a real socket, so the wire-level surface is
// gated alongside the in-process exporters, and requires a view's
// delta_fallback event to name its reason.
//
// Usage: trace_artifacts [output-dir]   (default: current directory)

#include <cstdio>
#include <fstream>
#include <string>

#include "engine/telemetry.h"
#include "obs/http_endpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "replica/protocol.h"
#include "sql/session.h"

namespace {

using namespace expdb;
using namespace expdb::algebra;

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << contents;
  f.close();
  return static_cast<bool>(f);
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  obs::EventLog& log = obs::EventLog::Global();
  rec.Clear();
  rec.set_enabled(true);
  log.set_enabled(true);

  // 1. A traced, morsel-parallel query through the SQL facade, with the
  //    slow-query threshold at zero so every statement also logs.
  sql::Session session;
  auto exec = [&](const std::string& stmt) {
    auto r = session.Execute(stmt);
    if (!r.ok()) {
      std::fprintf(stderr, "statement failed: %s -> %s\n", stmt.c_str(),
                   r.status().ToString().c_str());
    }
    return r.ok();
  };
  if (!exec("SET slow_query_ns = 0")) return 1;
  if (!exec("SET parallelism = 4")) return 1;
  if (!exec("CREATE TABLE readings (sensor INT, v INT)")) return 1;
  for (int chunk = 0; chunk < 8; ++chunk) {
    std::string insert = "INSERT INTO readings VALUES";
    for (int i = 0; i < 512; ++i) {
      const int row = chunk * 512 + i;
      insert += (i == 0 ? " (" : ", (") + std::to_string(row % 32) + ", " +
                std::to_string(row) + ")";
    }
    insert += " TTL " + std::to_string(100 + chunk * 50);
    if (!exec(insert)) return 1;
  }
  if (!exec("CREATE VIEW hot AS SELECT sensor FROM readings WHERE v = 7")) {
    return 1;
  }
  if (!exec("SELECT sensor, COUNT(*) FROM readings GROUP BY sensor")) return 1;
  if (!exec("ADVANCE TIME 150")) return 1;  // expire chunk 0, age the view
  if (!exec("SELECT * FROM hot")) return 1;

  // 1b. The two-tier cache pipeline: a repeated SELECT (fill + hit), a
  //     prepared statement served warm, and a patched entry after an
  //     insert — so the expdb_result_cache_* metrics and cache_patch
  //     events land in the artifacts below.
  if (!exec("SELECT v FROM readings WHERE sensor = 3")) return 1;
  if (!exec("SELECT v FROM readings WHERE sensor = 3")) return 1;  // hit
  if (!exec("PREPARE hot_sensor AS SELECT v FROM readings WHERE sensor = $1")) {
    return 1;
  }
  if (!exec("EXECUTE hot_sensor (5)")) return 1;
  if (!exec("EXECUTE hot_sensor (5)")) return 1;  // hit
  if (!exec("INSERT INTO readings VALUES (3, 4096) TTL 500")) return 1;
  if (!exec("SELECT v FROM readings WHERE sensor = 3")) return 1;  // patch
  // The INSERT left the `hot` view stale. Its first stale round has no
  // propagator yet, so it recomputes and logs a delta_fallback event that
  // names why.
  if (!exec("SELECT * FROM hot")) return 1;

  // 1c. The live observability endpoint: one telemetry tick to populate
  //     the pressure gauges and health verdict, then fetch /metrics and
  //     /healthz over a real socket on an ephemeral port — the HTTP
  //     surface is conformance-gated the same way the in-process
  //     exporters are, and the fetched bodies become artifacts too.
  {
    engine::TelemetryService& telemetry = session.engine().telemetry();
    telemetry.SampleOnce();
    auto port = session.engine().StartHttpEndpoint(0);
    if (!port.ok()) return Fail(port.status().ToString());
    std::string error;
    auto metrics_resp =
        obs::HttpGet("127.0.0.1", port.value(), "/metrics", &error);
    if (!metrics_resp.has_value()) return Fail("GET /metrics: " + error);
    if (metrics_resp->status != 200) {
      return Fail("GET /metrics returned " +
                  std::to_string(metrics_resp->status));
    }
    if (!obs::ValidatePrometheusText(metrics_resp->body, &error)) {
      return Fail("fetched /metrics body: " + error);
    }
    if (metrics_resp->body.find("expdb_telemetry_expired_backlog") ==
        std::string::npos) {
      return Fail("/metrics is missing expdb_telemetry_expired_backlog");
    }
    if (!WriteFile(dir + "/http_metrics.prom", metrics_resp->body)) {
      return Fail("cannot write " + dir + "/http_metrics.prom");
    }
    auto healthz = obs::HttpGet("127.0.0.1", port.value(), "/healthz", &error);
    if (!healthz.has_value()) return Fail("GET /healthz: " + error);
    if (healthz->status != 200) {
      return Fail("GET /healthz returned " + std::to_string(healthz->status) +
                  ": " + healthz->body);
    }
    if (!obs::ValidateJson(healthz->body, &error)) {
      return Fail("fetched /healthz body: " + error);
    }
    if (!WriteFile(dir + "/healthz.json", healthz->body)) {
      return Fail("cannot write " + dir + "/healthz.json");
    }
    session.engine().StopHttpEndpoint();
  }

  // 2. A replica sync round so client/server fetch spans and re-fetch
  //    decision events land in the same artifacts.
  {
    Database db;
    Relation* r =
        db.CreateRelation("R", Schema({{"x", ValueType::kInt64}})).value();
    for (int i = 0; i < 64; ++i) {
      (void)r->Insert(Tuple{i}, Timestamp(1 + (i * 3) % 40));
    }
    SimulationConfig cfg;
    cfg.protocol = SyncProtocol::kExpirationAware;
    cfg.horizon = 30;
    auto report = RunSyncSimulation(db, {{"q", Base("R")}}, cfg);
    if (!report.ok()) return Fail(report.status().ToString());
  }

  rec.set_enabled(false);
  log.set_enabled(false);

  // 3. Export and self-validate each artifact.
  std::string error;

  const std::string trace_json = obs::ChromeTraceJson(rec.Snapshot());
  if (!obs::ValidateJson(trace_json, &error)) {
    return Fail("trace JSON: " + error);
  }
  if (!WriteFile(dir + "/trace.json", trace_json)) {
    return Fail("cannot write " + dir + "/trace.json");
  }

  const std::string prom = obs::MetricsRegistry::Global().PrometheusText();
  if (!obs::ValidatePrometheusText(prom, &error)) {
    return Fail("Prometheus exposition: " + error);
  }
  // The cache workload above must surface in the scrape: a conformant
  // exposition that silently lost the result-cache metrics still fails.
  for (const char* metric :
       {"expdb_result_cache_hits_total", "expdb_result_cache_misses_total",
        "expdb_result_cache_patches_total",
        "expdb_result_cache_evictions_total", "expdb_result_cache_bytes",
        "expdb_result_cache_lookup_latency_ns",
        "expdb_plan_cache_hits_total"}) {
    if (prom.find(metric) == std::string::npos) {
      return Fail(std::string("metrics.prom is missing ") + metric);
    }
  }
  if (!WriteFile(dir + "/metrics.prom", prom)) {
    return Fail("cannot write " + dir + "/metrics.prom");
  }

  const std::string events = log.JsonlText();
  if (!obs::ValidateJsonLines(events, &error)) {
    return Fail("event log JSONL: " + error);
  }
  if (!WriteFile(dir + "/events.jsonl", events)) {
    return Fail("cannot write " + dir + "/events.jsonl");
  }
  // A view that falls back to a recompute must say why.
  bool fallback_has_reason = false;
  for (const obs::LogEvent& e : log.Snapshot()) {
    if (e.event != "delta_fallback") continue;
    for (const auto& [key, value] : e.fields) {
      if (key == "reason" && !value.empty()) fallback_has_reason = true;
    }
  }
  if (!fallback_has_reason) {
    return Fail("events.jsonl has no delta_fallback event with a reason");
  }

  std::printf("trace_artifacts: %zu spans, %zu events -> %s/{trace.json,"
              "metrics.prom,events.jsonl,http_metrics.prom,healthz.json} "
              "(all conformance checks passed)\n",
              rec.Snapshot().size(), log.Snapshot().size(), dir.c_str());
  return 0;
}
