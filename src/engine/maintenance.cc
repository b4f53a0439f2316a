#include "engine/maintenance.h"

#include "engine/engine.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace expdb {
namespace engine {

namespace {

void LogMaintenanceEvent(const char* event,
                         std::vector<obs::LogField> fields) {
  obs::EventLog& log = obs::EventLog::Global();
  if (!log.enabled()) return;
  log.Emit(obs::LogSeverity::kInfo, "engine", event, std::move(fields));
}

}  // namespace

MaintenanceService::MaintenanceService(Engine* engine, int64_t interval_ms)
    : engine_(engine),
      runner_(interval_ms > 0 ? interval_ms : 100, [this] {
        if (!paused()) RunOnce();
      }) {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  runs_.SetParent(r.GetCounter("expdb_engine_maintenance_runs_total"));
  removed_.SetParent(r.GetCounter("expdb_engine_maintenance_removed_total"));
  pass_latency_ = r.GetHistogram("expdb_engine_maintenance_latency_ns");
}

void MaintenanceService::Pause() {
  if (paused_.exchange(true)) return;
  LogMaintenanceEvent("maintenance_pause", {});
}

void MaintenanceService::Resume() {
  paused_.store(false);
  runner_.Start();
  LogMaintenanceEvent("maintenance_resume", {});
}

size_t MaintenanceService::RunOnce() {
  obs::ScopedSpan span("engine.maintenance.pass", pass_latency_);
  size_t removed = 0;
  uint64_t segments_dropped = 0;
  Status view_status = Status::OK();
  Timestamp now;
  {
    Engine::ExclusiveGuard guard = engine_->LockExclusive();
    now = engine_->Now();
    // Physical removal: under lazy policy this deletes every expired
    // tuple (queries never saw them anyway — expτ filters them); under
    // eager policy every advance already drained every relation through
    // the same segment path, so this finds nothing. With no triggers
    // registered the compaction runs the segment bulk-drop path: whole
    // expired segments go in O(1) each, so a pass over n expired tuples
    // in k segments costs O(k).
    const uint64_t segs_before =
        engine_->expiration().metrics().segments_dropped.value();
    removed = engine_->expiration().Compact();
    segments_dropped =
        engine_->expiration().metrics().segments_dropped.value() -
        segs_before;
    // Refresh views that explicit updates marked stale, on the
    // background thread instead of some future reader's critical path.
    view_status = engine_->views().AdvanceAllTo(now);
  }
  runs_.Increment();
  removed_.Increment(removed);
  last_run_ns_.store(obs::SteadyNowNs(), std::memory_order_relaxed);
  LogMaintenanceEvent(
      "maintenance_run",
      {{"removed", std::to_string(removed)},
       {"segments_dropped", std::to_string(segments_dropped)},
       {"now", now.ToString()},
       {"views", view_status.ok() ? "ok" : view_status.ToString()}});
  return removed;
}

std::string MaintenanceService::StatusString() const {
  std::string state = !running() ? "stopped"
                      : paused() ? "paused"
                                 : "running";
  state += ", interval " + std::to_string(interval_ms()) + "ms";
  return "maintenance: " + state + ", " + std::to_string(runs()) +
         " runs, " + std::to_string(tuples_removed()) + " tuples removed";
}

}  // namespace engine
}  // namespace expdb
