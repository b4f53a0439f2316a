// Engine: the concurrent core of ExpDB (docs/CONCURRENCY.md).
//
// One Engine owns everything sessions used to own privately — the
// database (inside its ExpirationManager), the view catalog, the
// two-tier statement/result cache, the prepared-statement registry, and
// the background MaintenanceService — so many sql::Sessions can execute
// against one database concurrently.
//
// Concurrency scheme (reader/writer locking):
//
//   readers   Snapshot        engine shared + per-table shared locks
//                             (sorted) + per-view locks (sorted)
//   DML       WriteGuard      engine shared + one table exclusive lock
//   DDL etc.  ExclusiveGuard  engine exclusive (CREATE/DROP, ADVANCE
//                             TIME, maintenance passes)
//
// Each table's and each view's lock lives in its Database catalog entry.
// CREATE and DROP run under the engine's exclusive lock, so no guard is
// alive across them.
//
// The engine lock bounds how long shared holders can starve its
// exclusive side: once an ExclusiveGuard has waited kExclusiveGrace, new
// Snapshots and WriteGuards queue behind it instead of overlapping the
// holders it waits for (glibc's reader-preferring rwlock alone lets
// overlapping shared holders starve it indefinitely). No thread may take
// the engine's shared lock twice.
//
// Lock order: engine lock -> table locks (sorted by name) -> view locks
// (sorted by name) -> component-internal leaf mutexes (ViewManager,
// caches, expiration triggers, prepared registry). Writers hold at most
// one table lock and no view lock, so the scheme is deadlock-free by
// construction.

#ifndef EXPDB_ENGINE_ENGINE_H_
#define EXPDB_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "expiration/constraint.h"
#include "expiration/expiration_queue.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "plan/cache.h"
#include "view/view_manager.h"

namespace expdb {
namespace engine {

class MaintenanceService;
class TelemetryService;

/// \brief Engine construction knobs.
struct EngineOptions {
  ExpirationManagerOptions expiration;
  /// Background maintenance cadence (wall-clock milliseconds between
  /// passes once the service is started). SET maintenance_interval_ms.
  int64_t maintenance_interval_ms = 100;
  /// Start the MaintenanceService thread immediately. Off by default:
  /// single-threaded embedders (and most tests) never need the thread,
  /// and `MAINTENANCE RESUME` / SET maintenance_interval_ms start it on
  /// demand.
  bool start_maintenance = false;
  /// Telemetry sampling cadence (docs/OBSERVABILITY.md §9).
  /// SET telemetry_interval_ms.
  int64_t telemetry_interval_ms = 1000;
  /// Start the TelemetryService thread immediately. Off by default for
  /// the same reason as maintenance; SET telemetry_interval_ms (or
  /// Start() on the service) turns it on on demand.
  bool start_telemetry = false;
  /// Points retained per metric in the telemetry rings.
  size_t telemetry_ring_capacity = 256;
};

/// \brief Owns the shared database state and hands out the locks that
/// make concurrent sessions safe.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Database& db() { return expiration_.db(); }
  const Database& db() const { return expiration_.db(); }
  ExpirationManager& expiration() { return expiration_; }
  ViewManager& views() { return views_; }
  ConstraintSet& constraints() { return constraints_; }
  plan::StatementCache& stmt_cache() { return stmt_cache_; }
  plan::ResultCache& result_cache() { return result_cache_; }
  MaintenanceService& maintenance() { return *maintenance_; }
  TelemetryService& telemetry() { return *telemetry_; }
  Timestamp Now() const { return expiration_.Now(); }

  // --- HTTP observability endpoint -------------------------------------

  /// \brief Starts the embedded observability HTTP server on
  /// 127.0.0.1:`port` (0 = kernel-assigned ephemeral port), routing
  /// /metrics, /healthz, /vars, and /timeseries through the telemetry
  /// service. \return the actually bound port. Idempotent while
  /// running: returns the current port. SQL surface: SET http_port.
  Result<int> StartHttpEndpoint(int port);

  /// \brief Stops the HTTP server (idempotent; no-op when never
  /// started).
  void StopHttpEndpoint();

  /// \brief The bound endpoint port, or 0 when the server is down.
  int http_port() const;

  // --- locking primitives ---------------------------------------------

  /// \brief A consistent read view: the engine's shared lock plus the
  /// shared locks of every named table and of every table a named view
  /// reads (acquired in sorted order), then each named view's lock
  /// (sorted). While a Snapshot is held no writer can mutate the covered
  /// tables, no other reader can refresh the covered views, and no
  /// exclusive operation (DDL, ADVANCE TIME, maintenance) can run at all.
  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(Snapshot&&) = default;
    Snapshot& operator=(Snapshot&&) = default;

    /// The named views it locked, sorted.
    const std::vector<std::string>& views() const { return views_; }

   private:
    friend class Engine;
    std::shared_lock<std::shared_mutex> engine_lock_;
    std::vector<std::shared_lock<std::shared_mutex>> relation_locks_;
    std::vector<std::string> views_;
    std::vector<std::unique_lock<std::mutex>> view_locks_;
  };

  /// \brief A DML write ticket: the engine's shared lock plus one
  /// relation's exclusive lock.
  class WriteGuard {
   public:
    WriteGuard() = default;
    WriteGuard(WriteGuard&&) = default;
    WriteGuard& operator=(WriteGuard&&) = default;

   private:
    friend class Engine;
    std::shared_lock<std::shared_mutex> engine_lock_;
    std::unique_lock<std::shared_mutex> relation_lock_;
  };

  /// \brief The engine's exclusive lock: total isolation. DDL, ADVANCE
  /// TIME and background passes run under it.
  class ExclusiveGuard {
   public:
    ExclusiveGuard() = default;
    ExclusiveGuard(ExclusiveGuard&&) = default;
    ExclusiveGuard& operator=(ExclusiveGuard&&) = default;

   private:
    friend class Engine;
    std::unique_lock<std::shared_mutex> engine_lock_;
  };

  /// \brief Opens a read snapshot over `relations`, tables and views.
  /// Names not in the catalog are skipped: the engine's shared lock
  /// already keeps a CREATE of that name out while the snapshot reads.
  Snapshot OpenSnapshot(const std::set<std::string>& relations);

  /// \brief Snapshot over every table currently in the catalog.
  Snapshot OpenSnapshotAll();

  /// \brief Takes the write locks for one relation (only the engine's
  /// shared lock when no such relation exists). Blocks behind
  /// readers/writers of the same relation; contended acquisitions count
  /// toward expdb_engine_write_waits_total.
  WriteGuard LockWrite(const std::string& relation);

  /// \brief Takes the engine exclusively. Once it has waited
  /// kExclusiveGrace, new Snapshots and WriteGuards wait behind it.
  ExclusiveGuard LockExclusive();

  /// How long an exclusive acquirer lets new shared holders in.
  static constexpr std::chrono::microseconds kExclusiveGrace{500};

  // --- prepared statements (shared across sessions) --------------------

  /// \brief Registers (or silently replaces) a named prepared statement.
  /// \return true when an existing statement was replaced.
  bool PutPrepared(const std::string& name, plan::PreparedPlan plan);

  /// \brief A copy of the named prepared statement (the plan itself is a
  /// shared immutable tree), or nullopt.
  std::optional<plan::PreparedPlan> GetPrepared(const std::string& name) const;

  size_t prepared_count() const;

  /// \brief The named view's SQL output column names, or nullopt for
  /// an unknown view or one created without them. The names are fixed
  /// at CREATE VIEW; the caller holds any engine lock to keep DROP out.
  std::optional<std::vector<std::string>> GetViewColumns(
      const std::string& view) const;

  /// \brief DDL on `table`: drops dependent entries from both cache
  /// tiers and every prepared statement reading it.
  void InvalidateCachesFor(const std::string& table);

  uint64_t snapshots_opened() const { return snapshots_.value(); }
  uint64_t write_waits() const { return write_waits_.value(); }
  /// True while an exclusive acquirer waits for the engine lock.
  bool exclusive_waiting() const { return exclusive_since_ns_.load() != 0; }

 private:
  ExpirationManager expiration_;
  ViewManager views_;
  ConstraintSet constraints_;
  plan::StatementCache stmt_cache_;
  plan::ResultCache result_cache_;

  /// The engine's shared lock, taken after any exclusive waiter.
  std::shared_lock<std::shared_mutex> LockShared();

  /// The engine-wide reader/writer lock (see file header).
  std::shared_mutex engine_mu_;
  /// Held by an exclusive acquirer until it holds engine_mu_. While it
  /// waits, exclusive_since_ns_ holds when it started (steady clock, 0 =
  /// none), and a shared acquirer that finds it waiting longer than
  /// kExclusiveGrace passes through the mutex first.
  std::mutex exclusive_turn_;
  std::atomic<int64_t> exclusive_since_ns_{0};

  /// Guards prepared_ and http_. Leaf lock.
  mutable std::mutex registry_mu_;
  std::map<std::string, plan::PreparedPlan> prepared_;

  // Instance counters parented into the process-wide expdb_engine_*
  // metrics.
  obs::Counter snapshots_;
  obs::Counter write_waits_;

  /// Constructed last (they capture `this`); destroyed in reverse
  /// order, stopping each background thread before any component it
  /// touches goes away. The HTTP endpoint routes into telemetry_, so it
  /// is declared after it (destroyed first).
  std::unique_ptr<MaintenanceService> maintenance_;
  std::unique_ptr<TelemetryService> telemetry_;
  std::unique_ptr<obs::HttpEndpoint> http_;
};

}  // namespace engine
}  // namespace expdb

#endif  // EXPDB_ENGINE_ENGINE_H_
