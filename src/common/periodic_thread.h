// PeriodicThread: a background thread that calls one tick callback on a
// wall-clock cadence until stopped. The engine's MaintenanceService and
// TelemetryService both run on one.

#ifndef EXPDB_COMMON_PERIODIC_THREAD_H_
#define EXPDB_COMMON_PERIODIC_THREAD_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace expdb {

/// \brief Runs `tick` every interval_ms() milliseconds on a thread of its
/// own between Start and Stop.
///
/// Thread-safety: every public member may be called from any thread
/// except the tick itself (a tick that called Stop would join itself).
/// The internal mutex is a leaf: ticks run without it, so a tick may take
/// any other lock.
class PeriodicThread {
 public:
  /// `interval_ms` is clamped to at least 1.
  PeriodicThread(int64_t interval_ms, std::function<void()> tick);
  ~PeriodicThread();

  PeriodicThread(const PeriodicThread&) = delete;
  PeriodicThread& operator=(const PeriodicThread&) = delete;

  /// \brief Starts the thread (idempotent).
  void Start();

  /// \brief Stops and joins the thread (idempotent). A tick in progress
  /// finishes first.
  void Stop();

  /// \brief Sets the cadence (clamped to at least 1ms) and starts the
  /// thread if it is not running — configuring a cadence means asking
  /// for the ticks. The wait in progress restarts with the new interval.
  void set_interval_ms(int64_t ms);
  int64_t interval_ms() const;

  bool running() const;

 private:
  void Loop();

  const std::function<void()> tick_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;       // guarded by mu_
  bool stop_ = false;          // guarded by mu_
  bool reconfigured_ = false;  // guarded by mu_
  int64_t interval_ms_;        // guarded by mu_
};

}  // namespace expdb

#endif  // EXPDB_COMMON_PERIODIC_THREAD_H_
