#include "engine/maintenance.h"

#include <chrono>

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
    : engine_(engine), interval_ms_(interval_ms > 0 ? interval_ms : 100) {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  runs_.SetParent(r.GetCounter("expdb_engine_maintenance_runs_total"));
  removed_.SetParent(r.GetCounter("expdb_engine_maintenance_removed_total"));
  pass_latency_ = r.GetHistogram("expdb_engine_maintenance_latency_ns");
}

MaintenanceService::~MaintenanceService() { Stop(); }

void MaintenanceService::Start() {
  std::lock_guard<std::mutex> guard(mu_);
  if (thread_running_) return;
  stop_ = false;
  thread_ = std::thread(&MaintenanceService::Loop, this);
  thread_running_ = true;
}

void MaintenanceService::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!thread_running_) return;
    stop_ = true;
    thread_running_ = false;
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  if (to_join.joinable()) to_join.join();
}

void MaintenanceService::Pause() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (paused_) return;
    paused_ = true;
  }
  cv_.notify_all();
  LogMaintenanceEvent("maintenance_pause", {});
}

void MaintenanceService::Resume() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    paused_ = false;
  }
  Start();
  cv_.notify_all();
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
    // A removal is a physical mutation; publish it to epoch observers.
    if (removed > 0) engine_->db().BumpEpoch();
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

void MaintenanceService::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                 [this] { return stop_; });
    if (stop_) break;
    if (paused_) continue;
    // Run the pass without holding mu_ (RunOnce takes the engine lock;
    // keeping mu_ out of that nesting keeps mu_ a leaf).
    lock.unlock();
    RunOnce();
    lock.lock();
  }
}

void MaintenanceService::set_interval_ms(int64_t ms) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    interval_ms_ = ms > 0 ? ms : 1;
  }
  Start();
  cv_.notify_all();
}

int64_t MaintenanceService::interval_ms() const {
  std::lock_guard<std::mutex> guard(mu_);
  return interval_ms_;
}

bool MaintenanceService::running() const {
  std::lock_guard<std::mutex> guard(mu_);
  return thread_running_ && !stop_;
}

bool MaintenanceService::paused() const {
  std::lock_guard<std::mutex> guard(mu_);
  return paused_;
}

std::string MaintenanceService::StatusString() const {
  std::string state;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!thread_running_ || stop_) {
      state = "stopped";
    } else if (paused_) {
      state = "paused";
    } else {
      state = "running";
    }
    state += ", interval " + std::to_string(interval_ms_) + "ms";
  }
  return "maintenance: " + state + ", " + std::to_string(runs()) +
         " runs, " + std::to_string(tuples_removed()) + " tuples removed";
}

}  // namespace engine
}  // namespace expdb
