// TelemetryService: the engine's background observer thread
// (docs/OBSERVABILITY.md §9) — the MaintenanceService's read-only
// sibling, ticking on the same PeriodicThread.
//
// On a configurable cadence each tick:
//  1. computes the expiration-pressure gauges from the segmented
//     storage and the engine (per-relation live vs fully-expired
//     segment occupancy, the expired-tuple backlog awaiting physical
//     drain, the expiration horizon min texp − now, maintenance lag
//     since the last pass, result-cache staleness),
//  2. samples the whole MetricsRegistry into fixed-capacity time-series
//     rings (obs::TimeSeriesStore: counter deltas/rates, sliding-window
//     histogram percentiles),
//  3. feeds a rule-based health model — healthy | degraded(reasons) |
//     unhealthy(reasons) — and emits a state-transition event into the
//     EventLog whenever the verdict changes.
//
// SQL surface: MONITOR STATUS | HISTORY <metric> | THRESHOLDS,
// SHOW HEALTH, SET telemetry_interval_ms. HTTP surface (via
// Engine::StartHttpEndpoint): /metrics, /healthz, /vars,
// /timeseries?metric=... — HandleHttp below is the router.

#ifndef EXPDB_ENGINE_TELEMETRY_H_
#define EXPDB_ENGINE_TELEMETRY_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/periodic_thread.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace expdb {
namespace engine {

class Engine;

/// \brief The health model's verdict states, ordered by severity.
enum class HealthState { kHealthy, kDegraded, kUnhealthy };

std::string_view HealthStateToString(HealthState state);

/// \brief One health evaluation: the verdict plus the rule violations
/// that produced it (empty when healthy).
struct HealthReport {
  HealthState state = HealthState::kHealthy;
  std::vector<std::string> reasons;
  int64_t evaluated_at_ns = 0;  ///< steady clock (0 = never evaluated)

  /// "healthy" or "degraded: <r1>; <r2>" (SHOW HEALTH).
  std::string ToString() const;
  /// {"status":"degraded","reasons":[...]} (/healthz body).
  std::string ToJson() const;
};

/// \brief The health model's rule thresholds (MONITOR THRESHOLDS).
/// Defaults suit the repo's tick-time examples; embedders tune via
/// set_thresholds before going live.
struct HealthThresholds {
  /// Expired-tuple backlog (stored, awaiting drain) at or above which
  /// the engine is degraded / unhealthy.
  uint64_t backlog_degraded = 10'000;
  uint64_t backlog_unhealthy = 100'000;
  /// Backlog strictly rising over this many consecutive sampling
  /// windows → degraded (maintenance is not keeping up), regardless of
  /// the absolute level.
  size_t backlog_growth_windows = 3;
  /// SQL statement p99 latency at or above this → degraded.
  int64_t statement_p99_ns = 250'000'000;  // 250ms
  /// Maintenance lag beyond factor × interval → degraded (only once
  /// the service has been started).
  double maintenance_lag_factor = 2.0;
};

/// \brief Background telemetry/health thread over one Engine.
///
/// Thread-safety: every public member may be called from any thread
/// (the SQL sessions, the HTTP endpoint thread, and the sampling loop
/// itself all do). The service never outlives its engine — the engine
/// destroys it before the components a tick reads.
class TelemetryService {
 public:
  TelemetryService(Engine* engine, int64_t interval_ms,
                   size_t ring_capacity = obs::TimeSeriesStore::kDefaultCapacity);

  TelemetryService(const TelemetryService&) = delete;
  TelemetryService& operator=(const TelemetryService&) = delete;

  /// \brief Starts the sampling thread (idempotent).
  void Start() { runner_.Start(); }

  /// \brief Stops and joins the sampling thread (idempotent).
  void Stop() { runner_.Stop(); }

  /// \brief One synchronous tick on the calling thread: pressure
  /// gauges, registry sample, health evaluation. Takes a read snapshot
  /// over every relation; the caller must hold no engine locks.
  void SampleOnce();

  /// \brief Sets the cadence and wakes the thread; starts it if it
  /// never ran (configuring a cadence means asking for telemetry).
  void set_interval_ms(int64_t ms) { runner_.set_interval_ms(ms); }
  int64_t interval_ms() const { return runner_.interval_ms(); }

  bool running() const { return runner_.running(); }
  uint64_t ticks() const { return ticks_.value(); }

  /// \brief The latest health verdict. When no tick has ever run (the
  /// service was never started), evaluates one synchronously first so
  /// SHOW HEALTH / /healthz never answer from thin air.
  HealthReport CurrentHealth();

  HealthThresholds thresholds() const;
  void set_thresholds(const HealthThresholds& t);

  /// \brief The per-metric sample rings (MONITOR HISTORY,
  /// /timeseries).
  obs::TimeSeriesStore& series() { return series_; }
  const obs::TimeSeriesStore& series() const { return series_; }

  /// \brief MONITOR STATUS: service state, health verdict, pressure
  /// gauges, event-log sink state, and every active registry metric.
  std::string StatusString();

  /// \brief MONITOR THRESHOLDS: the health rules with their current
  /// thresholds, one per line.
  std::string ThresholdsString() const;

  /// \brief Routes one observability HTTP request: /metrics (Prometheus
  /// text), /healthz (200/503 + JSON reasons), /vars (JSON metric
  /// snapshot), /timeseries[?metric=...] (JSON ring dump or name list).
  obs::HttpResponse HandleHttp(const obs::HttpRequest& request);

 private:
  /// Evaluates the rules against the just-computed gauges. Called by
  /// SampleOnce after the gauges update; takes health_mu_.
  HealthReport EvaluateHealth(uint64_t backlog, int64_t lag_ms);

  Engine* engine_;

  obs::TimeSeriesStore series_;

  /// Guards the health model's state. Leaf lock (never held across
  /// engine locks).
  mutable std::mutex health_mu_;
  HealthThresholds thresholds_;           // guarded by health_mu_
  HealthReport last_report_;              // guarded by health_mu_
  std::deque<uint64_t> backlog_history_;  // guarded by health_mu_

  // Instance counters parented into the process-wide expdb_telemetry_*.
  obs::Counter ticks_;
  obs::Histogram* tick_latency_;
  // Expiration-pressure gauges (registry-owned; Set each tick).
  obs::Gauge* backlog_gauge_;
  obs::Gauge* live_tuples_gauge_;
  obs::Gauge* live_segments_gauge_;
  obs::Gauge* expired_segments_gauge_;
  obs::Gauge* horizon_gauge_;
  obs::Gauge* maintenance_lag_gauge_;
  obs::Gauge* cache_stale_gauge_;
  obs::Gauge* health_gauge_;

  /// Declared last: its thread runs ticks that use the members above.
  PeriodicThread runner_;
};

}  // namespace engine
}  // namespace expdb

#endif  // EXPDB_ENGINE_TELEMETRY_H_
