#include "engine/telemetry.h"

#include <algorithm>

#include "engine/engine.h"
#include "engine/maintenance.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace expdb {
namespace engine {

namespace {

int HealthRank(HealthState s) { return static_cast<int>(s); }

/// Raises `state` to at least `to` and records why.
void Raise(HealthState to, const std::string& reason, HealthState* state,
           std::vector<std::string>* reasons) {
  if (HealthRank(to) > HealthRank(*state)) *state = to;
  reasons->push_back(reason);
}

}  // namespace

std::string_view HealthStateToString(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kUnhealthy:
      return "unhealthy";
  }
  return "?";
}

std::string HealthReport::ToString() const {
  std::string out(HealthStateToString(state));
  if (!reasons.empty()) {
    out += ": ";
    for (size_t i = 0; i < reasons.size(); ++i) {
      if (i > 0) out += "; ";
      out += reasons[i];
    }
  }
  return out;
}

std::string HealthReport::ToJson() const {
  std::string out = "{\"status\":\"";
  out += HealthStateToString(state);
  out += "\",\"reasons\":[";
  for (size_t i = 0; i < reasons.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + obs::JsonEscape(reasons[i]) + "\"";
  }
  out += "],\"evaluated_at_ns\":" + std::to_string(evaluated_at_ns) + "}";
  return out;
}

TelemetryService::TelemetryService(Engine* engine, int64_t interval_ms,
                                   size_t ring_capacity)
    : engine_(engine),
      series_(ring_capacity),
      runner_(interval_ms > 0 ? interval_ms : 1000, [this] { SampleOnce(); }) {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  ticks_.SetParent(r.GetCounter("expdb_telemetry_ticks_total",
                                "Telemetry sampling ticks"));
  tick_latency_ = r.GetHistogram("expdb_telemetry_tick_latency_ns",
                                 "Telemetry tick wall time");
  backlog_gauge_ =
      r.GetGauge("expdb_telemetry_expired_backlog",
                 "Stored tuples already expired, awaiting physical drain");
  live_tuples_gauge_ = r.GetGauge("expdb_telemetry_live_tuples",
                                  "Unexpired tuples across all relations");
  live_segments_gauge_ =
      r.GetGauge("expdb_telemetry_segments_live",
                 "Storage segments holding at least one live tuple");
  expired_segments_gauge_ =
      r.GetGauge("expdb_telemetry_segments_expired",
                 "Fully-expired storage segments awaiting O(1) drop");
  horizon_gauge_ = r.GetGauge(
      "expdb_telemetry_expiration_horizon_ticks",
      "min texp - now over all live tuples (-1: nothing expires)");
  maintenance_lag_gauge_ = r.GetGauge(
      "expdb_telemetry_maintenance_lag_ms",
      "Wall time since the last maintenance pass (-1: never ran)");
  cache_stale_gauge_ =
      r.GetGauge("expdb_telemetry_result_cache_stale_entries",
                 "Result-cache entries whose validity stamp has lapsed");
  health_gauge_ = r.GetGauge(
      "expdb_telemetry_health",
      "Health verdict: 0 healthy, 1 degraded, 2 unhealthy");
}

void TelemetryService::SampleOnce() {
  obs::ScopedSpan span("engine.telemetry.tick", tick_latency_);

  uint64_t backlog = 0;
  uint64_t live_tuples = 0;
  uint64_t live_segments = 0;
  uint64_t expired_segments = 0;
  int64_t horizon = -1;
  size_t cache_stale = 0;
  {
    // A read snapshot over every relation: writers and maintenance stay
    // out while the occupancy sweep runs, so the gauges are a consistent
    // cut of the storage.
    Engine::Snapshot snap = engine_->OpenSnapshotAll();
    const Timestamp now = engine_->Now();
    for (const std::string& name : engine_->db().RelationNames()) {
      auto rel = engine_->db().GetRelation(name);
      if (!rel.ok()) continue;
      const Relation::SegmentOccupancy occ = rel.value()->OccupancyAt(now);
      backlog += occ.expired_tuples;
      live_tuples += occ.live_tuples;
      // "Live" here means: the segment still holds live tuples (fully
      // live or straddling); "expired" means droppable whole.
      live_segments += occ.live_segments + occ.straddling_segments;
      expired_segments += occ.expired_segments;
      const std::optional<Timestamp> next =
          rel.value()->NextExpirationAfter(now);
      if (next.has_value() && next->IsFinite()) {
        const int64_t delta = next->ticks() - now.ticks();
        if (horizon < 0 || delta < horizon) horizon = delta;
      }
    }
    cache_stale = engine_->result_cache().CountStaleAt(now);
  }

  const int64_t last_run = engine_->maintenance().last_run_ns();
  const int64_t lag_ms =
      last_run > 0 ? (obs::SteadyNowNs() - last_run) / 1'000'000 : -1;

  backlog_gauge_->Set(static_cast<int64_t>(backlog));
  live_tuples_gauge_->Set(static_cast<int64_t>(live_tuples));
  live_segments_gauge_->Set(static_cast<int64_t>(live_segments));
  expired_segments_gauge_->Set(static_cast<int64_t>(expired_segments));
  horizon_gauge_->Set(horizon);
  maintenance_lag_gauge_->Set(lag_ms);
  cache_stale_gauge_->Set(static_cast<int64_t>(cache_stale));

  // Health first, then the ring sample: the health gauge set by the
  // evaluation lands in the same tick's time series.
  EvaluateHealth(backlog, lag_ms);

  series_.Sample(obs::MetricsRegistry::Global().Snapshot(),
                 obs::SteadyNowNs());
  ticks_.Increment();
}

HealthReport TelemetryService::EvaluateHealth(uint64_t backlog,
                                              int64_t lag_ms) {
  HealthReport report;
  report.evaluated_at_ns = obs::SteadyNowNs();

  HealthState prev_state;
  {
    std::lock_guard<std::mutex> guard(health_mu_);
    const HealthThresholds& t = thresholds_;
    prev_state = last_report_.state;

    backlog_history_.push_back(backlog);
    while (backlog_history_.size() > t.backlog_growth_windows + 1) {
      backlog_history_.pop_front();
    }

    if (backlog >= t.backlog_unhealthy) {
      Raise(HealthState::kUnhealthy,
            "expired backlog " + std::to_string(backlog) + " >= " +
                std::to_string(t.backlog_unhealthy),
            &report.state, &report.reasons);
    } else if (backlog >= t.backlog_degraded) {
      Raise(HealthState::kDegraded,
            "expired backlog " + std::to_string(backlog) + " >= " +
                std::to_string(t.backlog_degraded),
            &report.state, &report.reasons);
    }

    if (backlog_history_.size() >= t.backlog_growth_windows + 1) {
      bool rising = true;
      for (size_t i = 1; i < backlog_history_.size(); ++i) {
        if (backlog_history_[i] <= backlog_history_[i - 1]) {
          rising = false;
          break;
        }
      }
      if (rising) {
        Raise(HealthState::kDegraded,
              "expired backlog rising over " +
                  std::to_string(t.backlog_growth_windows) +
                  " consecutive windows",
              &report.state, &report.reasons);
      }
    }

    obs::Histogram* stmt_latency = obs::MetricsRegistry::Global().GetHistogram(
        "expdb_sql_statement_latency_ns");
    if (stmt_latency->count() > 0) {
      const double p99 = stmt_latency->Percentile(99.0);
      if (p99 >= static_cast<double>(t.statement_p99_ns)) {
        Raise(HealthState::kDegraded,
              "statement p99 " + std::to_string(static_cast<int64_t>(p99)) +
                  "ns >= " + std::to_string(t.statement_p99_ns) + "ns",
              &report.state, &report.reasons);
      }
    }

    if (lag_ms >= 0 && engine_->maintenance().running()) {
      const double limit = t.maintenance_lag_factor *
                           static_cast<double>(
                               engine_->maintenance().interval_ms());
      if (static_cast<double>(lag_ms) > limit) {
        Raise(HealthState::kDegraded,
              "maintenance lag " + std::to_string(lag_ms) + "ms > " +
                  std::to_string(static_cast<int64_t>(limit)) + "ms",
              &report.state, &report.reasons);
      }
    }

    last_report_ = report;
  }

  health_gauge_->Set(HealthRank(report.state));

  if (report.state != prev_state) {
    obs::EventLog& log = obs::EventLog::Global();
    if (log.enabled()) {
      std::string reasons;
      for (size_t i = 0; i < report.reasons.size(); ++i) {
        if (i > 0) reasons += "; ";
        reasons += report.reasons[i];
      }
      log.Emit(HealthRank(report.state) > HealthRank(prev_state)
                   ? obs::LogSeverity::kWarn
                   : obs::LogSeverity::kInfo,
               "engine", "health_transition",
               {{"from", std::string(HealthStateToString(prev_state))},
                {"to", std::string(HealthStateToString(report.state))},
                {"reasons", reasons}});
    }
  }
  return report;
}

HealthReport TelemetryService::CurrentHealth() {
  {
    std::lock_guard<std::mutex> guard(health_mu_);
    if (last_report_.evaluated_at_ns != 0) return last_report_;
  }
  // Never evaluated (service not started): one synchronous tick so the
  // verdict reflects the actual engine, not a default.
  SampleOnce();
  std::lock_guard<std::mutex> guard(health_mu_);
  return last_report_;
}

HealthThresholds TelemetryService::thresholds() const {
  std::lock_guard<std::mutex> guard(health_mu_);
  return thresholds_;
}

void TelemetryService::set_thresholds(const HealthThresholds& t) {
  std::lock_guard<std::mutex> guard(health_mu_);
  thresholds_ = t;
}

std::string TelemetryService::StatusString() {
  std::string state = running() ? "running" : "stopped";
  state += ", interval " + std::to_string(interval_ms()) + "ms";
  std::string out = "telemetry: " + state + ", " + std::to_string(ticks()) +
                    " ticks, " + std::to_string(series_.series_count()) +
                    " series (ring capacity " +
                    std::to_string(series_.capacity()) + ")";
  HealthReport health;
  {
    std::lock_guard<std::mutex> guard(health_mu_);
    health = last_report_;
  }
  out += "\nhealth: ";
  out += health.evaluated_at_ns == 0 ? "never evaluated" : health.ToString();

  const obs::EventLog& log = obs::EventLog::Global();
  out += "\nevent log: sink " +
         std::string(log.HasSink() ? "open" : "closed") + ", " +
         std::to_string(log.write_errors()) + " write errors";
  const std::string sink_error = log.last_sink_error();
  if (!sink_error.empty()) out += ", last error '" + sink_error + "'";

  const std::string metrics =
      obs::TelemetryStatusText(obs::MetricsRegistry::Global());
  if (!metrics.empty()) out += "\nactive metrics:\n" + metrics;
  return out;
}

std::string TelemetryService::ThresholdsString() const {
  const HealthThresholds t = thresholds();
  std::string out = "health thresholds:";
  out += "\n  backlog_degraded       = " + std::to_string(t.backlog_degraded) +
         " expired tuples";
  out += "\n  backlog_unhealthy      = " +
         std::to_string(t.backlog_unhealthy) + " expired tuples";
  out += "\n  backlog_growth_windows = " +
         std::to_string(t.backlog_growth_windows) + " consecutive windows";
  out += "\n  statement_p99_ns       = " + std::to_string(t.statement_p99_ns) +
         " ns";
  out += "\n  maintenance_lag_factor = " +
         std::to_string(t.maintenance_lag_factor) + " x interval";
  return out;
}

obs::HttpResponse TelemetryService::HandleHttp(
    const obs::HttpRequest& request) {
  obs::HttpResponse resp;
  if (request.path == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = obs::MetricsRegistry::Global().PrometheusText();
    return resp;
  }
  if (request.path == "/healthz") {
    const HealthReport health = CurrentHealth();
    resp.content_type = "application/json";
    // Degraded still serves traffic: only unhealthy flips the load
    // balancer's switch.
    resp.status = health.state == HealthState::kUnhealthy ? 503 : 200;
    resp.body = health.ToJson() + "\n";
    return resp;
  }
  if (request.path == "/vars") {
    resp.content_type = "application/json";
    resp.body = obs::MetricsRegistry::Global().JsonText();
    return resp;
  }
  if (request.path == "/timeseries") {
    resp.content_type = "application/json";
    const std::optional<std::string> metric =
        obs::QueryParam(request.query, "metric");
    if (!metric.has_value()) {
      resp.body = series_.JsonNames() + "\n";
      return resp;
    }
    const std::string body = series_.JsonText(*metric);
    if (body.empty()) {
      resp.status = 404;
      resp.body = "{\"error\":\"unknown metric '" + obs::JsonEscape(*metric) +
                  "' (never sampled)\"}\n";
      return resp;
    }
    resp.body = body + "\n";
    return resp;
  }
  resp.status = 404;
  resp.content_type = "application/json";
  resp.body = "{\"error\":\"no such route\",\"routes\":[\"/metrics\","
              "\"/healthz\",\"/vars\",\"/timeseries?metric=<name>\"]}\n";
  return resp;
}

}  // namespace engine
}  // namespace expdb
