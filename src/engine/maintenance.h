// MaintenanceService: the engine's background housekeeping thread.
//
// On a configurable wall-clock cadence it takes the engine exclusively
// and runs one maintenance pass: drain/compact the expiration state
// (under lazy removal this is what physically deletes expired tuples —
// queries stay correct meanwhile because every read filters through
// expτ) and refresh stale materialized views. The paper's lazy policy
// "provides more optimisation opportunities"; this service is the agent
// that cashes them in without any session calling RemoveExpired.

#ifndef EXPDB_ENGINE_MAINTENANCE_H_
#define EXPDB_ENGINE_MAINTENANCE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/periodic_thread.h"
#include "obs/metrics.h"

namespace expdb {
namespace engine {

class Engine;

/// \brief Background thread running periodic maintenance passes against
/// one Engine. SQL surface: MAINTENANCE STATUS|PAUSE|RESUME|RUN and
/// SET maintenance_interval_ms.
///
/// Thread-safety: every public member may be called from any thread.
/// The service never outlives its engine (the engine destroys it first).
class MaintenanceService {
 public:
  MaintenanceService(Engine* engine, int64_t interval_ms);

  MaintenanceService(const MaintenanceService&) = delete;
  MaintenanceService& operator=(const MaintenanceService&) = delete;

  /// \brief Starts the background thread (idempotent).
  void Start() { runner_.Start(); }

  /// \brief Stops and joins the background thread (idempotent).
  void Stop() { runner_.Stop(); }

  /// \brief Keeps the thread alive but skips passes until Resume.
  void Pause();

  /// \brief Clears a pause; starts the thread if it never ran.
  void Resume();

  /// \brief Runs one maintenance pass synchronously on the calling
  /// thread (takes the engine exclusively; the caller must hold no
  /// engine locks). \return tuples physically removed by the pass.
  size_t RunOnce();

  /// \brief Sets the cadence and wakes the thread so the new interval
  /// takes effect immediately. Starts the thread if it never ran —
  /// configuring a cadence means asking for background maintenance.
  void set_interval_ms(int64_t ms) { runner_.set_interval_ms(ms); }
  int64_t interval_ms() const { return runner_.interval_ms(); }

  bool running() const { return runner_.running(); }
  bool paused() const { return paused_.load(); }
  uint64_t runs() const { return runs_.value(); }
  uint64_t tuples_removed() const { return removed_.value(); }

  /// \brief Steady-clock instant (SteadyNowNs) the last pass finished;
  /// 0 when no pass has ever run. The telemetry service derives the
  /// maintenance-lag gauge (and its health rule) from this.
  int64_t last_run_ns() const {
    return last_run_ns_.load(std::memory_order_relaxed);
  }

  /// \brief One-line human-readable status (MAINTENANCE STATUS).
  std::string StatusString() const;

 private:
  Engine* engine_;
  /// Checked by each tick: a paused service keeps its thread but skips
  /// the pass.
  std::atomic<bool> paused_{false};
  std::atomic<int64_t> last_run_ns_{0};

  // Instance counters parented into the process-wide expdb_engine_*
  // metrics.
  obs::Counter runs_;
  obs::Counter removed_;
  obs::Histogram* pass_latency_;

  /// Declared last: its thread runs passes that use the members above.
  PeriodicThread runner_;
};

}  // namespace engine
}  // namespace expdb

#endif  // EXPDB_ENGINE_MAINTENANCE_H_
