// ExpirationManager: physical removal of expired tuples (paper Sec. 3.2
// and the companion TR [24] "Efficient Management of Short-Lived Data").
//
// Two removal policies:
//  * kEager — expired tuples are removed (and triggers fired) as soon as
//    the clock passes their expiration time. The relations' texp-bucketed
//    segments are the only expiration index: an advance drops fully
//    expired segments whole and swap-erases only in segments straddling
//    the new time, so it costs O(segments + entries of straddling
//    segments), with no per-insert bookkeeping.
//  * kLazy  — expired tuples stay physically present but invisible (every
//    read path filters through expτ); physical removal happens in batched
//    compactions, either on demand or when the expired fraction exceeds a
//    configurable threshold. Triggers still fire in expiration order, at
//    compaction time.
//
// The paper: eager removal "is useful when events should be triggered as
// soon as a tuple expires"; lazy removal "provides more optimisation
// opportunities".

#ifndef EXPDB_EXPIRATION_EXPIRATION_QUEUE_H_
#define EXPDB_EXPIRATION_EXPIRATION_QUEUE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "expiration/clock.h"
#include "expiration/trigger.h"
#include "obs/metrics.h"
#include "relational/database.h"

namespace expdb {

/// When expired tuples are physically removed.
enum class RemovalPolicy { kEager, kLazy };

std::string_view RemovalPolicyToString(RemovalPolicy policy);

/// Tuning knobs for the manager.
struct ExpirationManagerOptions {
  RemovalPolicy policy = RemovalPolicy::kEager;
  /// Lazy only: compact a relation when (expired tuples)/(stored tuples)
  /// exceeds this fraction. <= 0 disables automatic compaction. Checked
  /// at every advance: Relation::OccupancyAt counts the expired tuples
  /// from segment bounds, scanning only segments that straddle now.
  double lazy_compaction_threshold = 0.5;
};

/// Operational counters (benchmark C4 reports these). Since the obs
/// refactor this is a *thin read view* assembled from the manager's
/// ExpirationMetrics — the metric objects are the single source of truth
/// and also feed the process-wide obs::MetricsRegistry.
struct ExpirationStats {
  uint64_t inserted = 0;          ///< tuples routed through Insert
  uint64_t removed = 0;           ///< tuples physically removed
  uint64_t triggers_fired = 0;    ///< expiration trigger invocations
  uint64_t compactions = 0;       ///< lazy compaction passes
  uint64_t segments_dropped = 0;  ///< whole storage segments bulk-dropped
};

/// Instance-local metric handles of one ExpirationManager. Every update
/// propagates to the matching process-wide `expdb_expiration_*` metric in
/// obs::MetricsRegistry::Global() (see docs/OBSERVABILITY.md).
struct ExpirationMetrics {
  obs::Counter inserted;
  obs::Counter removed;
  obs::Counter triggers_fired;
  obs::Counter compactions;
  obs::Counter segments_dropped;
  obs::Histogram drain_latency;

  ExpirationMetrics();
};

/// \brief Owns a Database and a LogicalClock; routes inserts, advances
/// time, physically removes expired tuples per policy, and fires triggers.
///
/// Thread-safety (engine protocol, docs/CONCURRENCY.md): Insert may be
/// called concurrently from writers that hold the target relation's
/// writer lock — it touches only that relation, and the trigger list is
/// guarded internally. AdvanceTo/Advance/Compact mutate arbitrary
/// relations and must run under the engine's exclusive lock (they are
/// not internally serialized against concurrent relation writers).
class ExpirationManager {
 public:
  explicit ExpirationManager(ExpirationManagerOptions options = {});

  Database& db() { return db_; }
  const Database& db() const { return db_; }
  Timestamp Now() const { return clock_.Now(); }
  RemovalPolicy policy() const { return options_.policy; }

  /// \brief Snapshot of the operational counters (thin view over the
  /// instance metrics; see ExpirationMetrics).
  ExpirationStats stats() const {
    ExpirationStats s;
    s.inserted = metrics_.inserted.value();
    s.removed = metrics_.removed.value();
    s.triggers_fired = metrics_.triggers_fired.value();
    s.compactions = metrics_.compactions.value();
    s.segments_dropped = metrics_.segments_dropped.value();
    return s;
  }

  const ExpirationMetrics& metrics() const { return metrics_; }

  /// \brief Creates a base relation.
  Result<Relation*> CreateRelation(const std::string& name, Schema schema);

  /// \brief Inserts a tuple expiring at `texp` into `relation`.
  Status Insert(const std::string& relation, Tuple tuple, Timestamp texp);

  /// \brief Inserts `tuples` into `relation`, all expiring at `texp`, as
  /// one change (Relation::InsertAll): all or none of them.
  Status InsertAll(const std::string& relation, std::vector<Tuple> tuples,
                   Timestamp texp);

  /// \brief Inserts with a time-to-live relative to the current time.
  Status InsertWithTtl(const std::string& relation, Tuple tuple, int64_t ttl);

  /// \brief Registers a trigger fired for every expired tuple.
  void AddTrigger(ExpirationTrigger trigger);

  /// \brief True when at least one expiration trigger is registered.
  /// Removal returns the removed tuples (Relation::RemoveExpired) only
  /// then; otherwise it uses Relation::DropExpired, which drops
  /// fully-expired segments in O(1) each, or moves their tuples into the
  /// delta ring when an eager drain must tell a tracked relation's
  /// consumers.
  bool HasTriggers() const {
    std::lock_guard<std::mutex> guard(triggers_mu_);
    return !triggers_.empty();
  }

  /// \brief Advances the clock, applying the removal policy. Under eager
  /// removal every relation is drained to `t`: triggers fire in (texp,
  /// relation, tuple) order with removed_at == texp, and a delta-tracked
  /// relation records its removed tuples as one delete batch, so cached
  /// results and views shed them with one patch.
  Status AdvanceTo(Timestamp t);
  Status Advance(int64_t ticks);

  /// \brief Physically removes all currently expired tuples (and fires
  /// their triggers, in the same order as an eager advance but with
  /// removed_at == now). Records nothing in the delta ring. Under eager
  /// removal the advance already drained everything, so this finds
  /// nothing to do.
  size_t Compact();

 private:
  /// Removes every tuple with texp <= now from the relations `names` —
  /// one RemoveExpired (triggers registered) or DropExpired call each —
  /// then fires triggers for them in (texp, relation, tuple) order;
  /// removed_at is the tuple's texp when `eager`, else now. An eager
  /// drain records each delta-tracked relation's removals as one delete
  /// batch; a lazy one records nothing. Returns the totals removed.
  Relation::DropResult Drain(const std::vector<std::string>& names, bool eager);
  void MaybeAutoCompact();

  ExpirationManagerOptions options_;
  Database db_;
  LogicalClock clock_;
  /// Guards trigger registration vs. firing (held across trigger
  /// callbacks; triggers must not call back into the manager).
  mutable std::mutex triggers_mu_;
  std::vector<ExpirationTrigger> triggers_;
  ExpirationMetrics metrics_;
};

}  // namespace expdb

#endif  // EXPDB_EXPIRATION_EXPIRATION_QUEUE_H_
