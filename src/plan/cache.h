// Two-tier statement caching over physical plans (docs/PERFORMANCE.md §7).
//
// Tier 1 — StatementCache: parameterized plan skeletons keyed by the
// normalized statement fingerprint. `WHERE id = 7` and `WHERE id = 9`
// normalize to the same skeleton with one parameter slot; re-executions
// skip parsing-adjacent work and the whole planner, paying only
// InstantiatePlan (a tree clone that binds parameter operands).
//
// Tier 2 — ResultCache: fully materialized results keyed by (fingerprint,
// bound arguments). The paper's central result makes this cache
// revalidation-free: a materialization is provably identical to
// recomputation at every τ' in [materialized_at, texp(e)) (Theorems 1–2),
// so a hit needs only (a) every base relation's delta cursor unchanged and
// (b) now < texp. On small cursor drift the entry is *patched* through
// plan::DeltaPropagator instead of discarded. An entry pays off only if
// its key comes back, so a result is stored on its key's second sighting
// (admission); eviction is LRU over a byte budget that charges both the
// result and the propagator (`SET result_cache_bytes`).

#ifndef EXPDB_PLAN_CACHE_H_
#define EXPDB_PLAN_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "core/materialized_result.h"
#include "obs/metrics.h"
#include "plan/executor.h"
#include "plan/materialization.h"
#include "plan/plan.h"
#include "relational/database.h"

namespace expdb {
namespace plan {

/// \brief The process-wide "executions served from a cached physical
/// plan" counter — one name, one help string, shared by every plan-cache
/// call site (statement cache, materialized views, replica queries).
obs::Counter* PlanCacheHits();

// --- parameterized plans ---------------------------------------------------

/// \brief Number of parameter slots referenced anywhere in `expr`:
/// max parameter index + 1 (0 = not parameterized).
size_t ExpressionParameterCount(const ExpressionPtr& expr);

/// \brief Returns `expr` with every parameter operand bound to the
/// corresponding constant from `args`. Subtrees without parameters are
/// shared, not copied. Fails when a parameter index exceeds `args`.
Result<ExpressionPtr> BindExpressionParameters(const ExpressionPtr& expr,
                                               const std::vector<Value>& args);

/// \brief Binds a parameterized plan skeleton to concrete argument values:
/// clones the node tree (ids, schemas, and every optimizer annotation are
/// preserved) with each node's algebra subtree parameter-bound. No
/// optimizer pass runs — this is the entire per-execution planning cost of
/// a statement-cache hit.
Result<PhysicalPlanPtr> InstantiatePlan(const PhysicalPlanPtr& plan,
                                        const std::vector<Value>& args);

// --- tier 1: statement/plan cache ------------------------------------------

/// A cached parameterized plan skeleton plus the presentation metadata the
/// SQL layer needs to serve executions without re-binding.
struct PreparedPlan {
  PhysicalPlanPtr plan;
  size_t param_count = 0;
  /// Canonical normalized statement text (the statement-cache key; also
  /// the result-cache key prefix, so PREPARE/EXECUTE and the equivalent
  /// literal SELECT share result-cache entries).
  std::string fingerprint;
  /// Output column names of the statement (aliases applied).
  std::vector<std::string> column_names;
};

/// \brief LRU cache of parameterized plan skeletons keyed by statement
/// fingerprint. Thread-safe: the engine shares one instance across every
/// session, so all operations serialize on an internal mutex (hence
/// Lookup returns a copy — a pointer into the map could be evicted by a
/// concurrent Insert). The shared PlanCacheHits() counter aggregates hits
/// process-wide.
class StatementCache {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit StatementCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// \brief A copy of the cached skeleton for `fingerprint`, or nullopt.
  /// The copy is shallow where it matters — PhysicalPlanPtr is a
  /// shared_ptr to an immutable plan. A hit refreshes LRU order and
  /// counts toward expdb_plan_cache_hits_total.
  std::optional<PreparedPlan> Lookup(const std::string& fingerprint);

  /// \brief Caches `plan` (replacing any previous entry), evicting the
  /// least recently used skeletons beyond capacity.
  void Insert(const std::string& fingerprint, PreparedPlan plan);

  /// \brief Drops every entry whose plan reads base relation `name`
  /// (schema churn: CREATE/DROP TABLE invalidates planned schemas).
  void InvalidateBase(const std::string& name);

  void Clear();

  size_t size() const {
    std::lock_guard<std::mutex> guard(mu_);
    return entries_.size();
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> guard(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> guard(mu_);
    return misses_;
  }

 private:
  struct Entry {
    PreparedPlan plan;
    std::list<std::string>::iterator lru_it;
  };

  /// Leaf lock (nothing else is acquired while held).
  mutable std::mutex mu_;
  size_t capacity_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// --- tier 2: expiration-stamped result cache --------------------------------

/// \brief The result-cache key for one execution: the statement
/// fingerprint plus a type-tagged rendering of the bound arguments.
std::string ResultCacheKey(const std::string& fingerprint,
                           const std::vector<Value>& args);

/// \brief LRU-over-byte-budget cache of materialized query results,
/// validity-stamped with the paper's computed expiration times.
///
/// Per entry: one plan::Materialization (result, base cursors and, when
/// the plan is incrementalizable, a seeded propagator). Lookup outcomes:
///
///   hit    — every cursor unchanged and now < texp: served verbatim.
///   patch  — cursors drifted but the delta streams are available and the
///            result has not lapsed: patched in place, then served.
///   miss   — anything else (MissReason): the entry, if any, is dropped.
///
/// Admission: Insert stores a result only when its key has been sighted
/// twice. A fixed table of kSightingSlots relaxed atomics remembers recent
/// misses on absent keys (hash tag plus a "seen twice" bit); a miss that
/// drops an existing entry, an eviction or a DDL invalidation admits the
/// key at once, so a key that was worth caching is not made to prove it
/// again. A rejected Insert returns before building cursors, estimating
/// bytes or seeding a propagator. Slot collisions only delay admission:
/// admission decides what is stored, never what is served.
///
/// Thread-safe: the engine shares one instance across every session, and
/// two mutexes split the work (docs/CONCURRENCY.md).
///  * The cache mutex guards the bookkeeping: the key map, the LRU list,
///    the byte total, eviction and the sighting writes. It is held only
///    for map and list operations, never across a patch or a copy.
///  * Each entry's own mutex guards its materialization: the result, the
///    base cursors and the propagator. A lookup pins the entry (a
///    shared_ptr) under the cache mutex, then validates, patches and
///    copies under the entry mutex alone, so lookups of different keys
///    run in parallel. It retakes the cache mutex only when the outcome
///    changes cache-wide state: a miss drops the entry (if the map still
///    holds that same entry) and a patch re-charges its bytes. A plain
///    hit never does; the counters are lock-free obs::Counters.
///  * Lock order: cache mutex, then entry mutex — never the reverse.
///  * An entry that Insert replaced, or that eviction, InvalidateBase or
///    Clear() unlinked, stays alive for the lookups that pinned it; they
///    finish on the detached entry, which is still validated against the
///    bases under the caller's snapshot.
/// Insert checks admission and builds its entry before taking the cache
/// mutex, and every operation destroys the entries it unlinks only after
/// releasing it. enabled() and max_bytes() read an atomic budget.
/// Callers must hold the base relations' reader locks across
/// Lookup/Insert (the cache reads delta cursors and rings from `db`).
class ResultCache {
 public:
  static constexpr size_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB

  ResultCache();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;  ///< sum of misses_by_reason
    uint64_t patches = 0;  ///< subset of hits served after delta patching
    uint64_t evictions = 0;
    uint64_t admitted = 0;  ///< Inserts past admission (second sighting)
    uint64_t rejected = 0;  ///< Inserts refused on a first sighting
    size_t entries = 0;
    size_t bytes = 0;
    size_t max_bytes = 0;
    /// Indexed by MissReason; each reason has its own
    /// expdb_result_cache_misses_<name>_total counter.
    std::array<uint64_t, kMissReasons> misses_by_reason{};
  };

  size_t max_bytes() const {
    return max_bytes_.load(std::memory_order_relaxed);
  }
  bool enabled() const { return max_bytes() > 0; }
  /// \brief Sets the byte budget, evicting LRU entries over the new
  /// budget. 0 disables the cache and drops every entry.
  void set_max_bytes(size_t bytes);

  /// \brief Looks up `key` at time `now`, validating base cursors against
  /// `db` and patching drifted entries through the propagator. Returns a
  /// copy of the rows live at `now` (texp(e), materialized_at and
  /// validity as cached) — the caller serves it as is — or nullopt on a
  /// miss.
  std::optional<MaterializedResult> Lookup(const std::string& key,
                                           const Database& db, Timestamp now);

  /// \brief Caches one execution's result if its key is admitted. Enables
  /// delta tracking on every base (so future mutations advance the
  /// cursors this entry snapshots), seeds a propagator from `capture`
  /// when available, and evicts LRU entries to fit the budget. No-op when
  /// disabled, when the result is already lapsed, when the key has been
  /// sighted only once, or when the entry alone exceeds the budget.
  void Insert(const std::string& key, PhysicalPlanPtr plan,
              const NodeCapture* capture, MaterializedResult result,
              const Database& db, Timestamp now);

  /// \brief Drops every entry reading base relation `name` (DDL).
  void InvalidateBase(const std::string& name);

  void Clear();

  Stats stats() const;

  /// \brief Entries whose validity stamp has lapsed at `now` (texp <=
  /// now): dead weight a Lookup would drop on contact. The telemetry
  /// layer reads this as the result-cache staleness gauge; entries are
  /// not evicted here (Lookup/Insert own mutation). Reads each entry's
  /// atomic copy of texp, so it never waits behind a patch.
  size_t CountStaleAt(Timestamp now) const;

  static constexpr size_t kSightingSlots = 4096;
  /// \brief The sighting slot `key` records into. Two keys with the same
  /// slot overwrite each other's sightings (tests use this to build a
  /// collision).
  static size_t SightingSlot(const std::string& key);

 private:
  struct Entry {
    /// Guards the materialization (but not its base names, which
    /// InvalidateBase reads under the cache mutex), result_bytes and dead.
    std::mutex mu;
    Materialization materialization;
    /// EstimateResultBytes(result.relation), kept by each patch.
    size_t result_bytes = 0;
    /// Set by the first miss on the entry: a lookup that pinned it before
    /// it was dropped misses for the same reason without touching state
    /// a failed patch may have left inconsistent.
    std::optional<MissReason> dead;
    /// result.texp, for CountStaleAt.
    std::atomic<Timestamp> texp{Timestamp::Infinity()};
    /// result_bytes plus the propagator's estimate: stored under `mu`,
    /// read under the cache mutex when a patch re-charges the entry, so
    /// whichever re-charge runs last charges the latest patch.
    std::atomic<size_t> charge{0};
    // Guarded by the cache mutex.
    size_t bytes = 0;  ///< what bytes_ counts for this entry
    std::list<std::string>::iterator lru_it;
  };
  using EntryPtr = std::shared_ptr<Entry>;
  using EntryMap = std::unordered_map<std::string, EntryPtr>;

  // Admission. Each slot holds 0 or a key's hash with bit 1 set (so a
  // recorded tag is never 0) and bit 0 meaning "seen twice". Slots are
  // written by RecordSighting and Admit, both called under mu_, and read
  // by Insert without it.
  static constexpr uint64_t kSeenTwice = 1;
  static uint64_t KeyHash(const std::string& key) {
    return std::hash<std::string>{}(key);
  }
  static uint64_t SightingTag(uint64_t hash) {
    return (hash & ~kSeenTwice) | 2;
  }
  std::atomic<uint64_t>& SlotFor(uint64_t hash) {
    return sightings_[hash % kSightingSlots];
  }
  /// A miss on an absent key: first sighting, or promotion to the second.
  void RecordSighting(uint64_t hash);
  /// Marks the key seen twice, so its next Insert is admitted.
  void Admit(uint64_t hash);

  /// Brings a live pinned entry up to date under its mutex (held by the
  /// caller): Materialization::Collect, then Patch if a base drifted.
  /// Returns the miss reason, or nullopt when the entry may be served;
  /// `*patched` reports a patch.
  std::optional<MissReason> Refresh(Entry* e, const Database& db,
                                    Timestamp now, bool* patched);
  /// Counts a miss (and logs it when the event log is on).
  std::optional<MaterializedResult> Miss(MissReason reason);

  // The helpers below require mu_ to be held by the caller. Unlinked
  // entries move to `*dropped`, which the caller destroys after releasing
  // mu_.
  void DropEntry(EntryMap::iterator it, std::vector<EntryPtr>* dropped);
  void Evict(EntryMap::iterator it, std::vector<EntryPtr>* dropped);
  /// Evicts LRU entries until `need` more bytes fit under the budget,
  /// never evicting `keep`.
  void EvictFor(size_t need, const std::string* keep,
                std::vector<EntryPtr>* dropped);
  void Touch(Entry* entry);
  void SetBytes(size_t bytes);

  /// Written under mu_; read without it by enabled()/max_bytes().
  std::atomic<size_t> max_bytes_{kDefaultMaxBytes};
  /// See "Admission" above.
  std::array<std::atomic<uint64_t>, kSightingSlots> sightings_{};
  /// Guards bytes_, entries_ and lru_. Taken before an entry mutex, never
  /// after one (obs metric updates under it are lock-free or
  /// leaf-locked).
  mutable std::mutex mu_;
  size_t bytes_ = 0;
  EntryMap entries_;
  std::list<std::string> lru_;  // front = most recently used
  // This cache's counts (CACHE STATS), parented into the process-wide
  // expdb_result_cache_* metrics.
  obs::Counter hits_;
  obs::Counter misses_;
  std::array<obs::Counter, kMissReasons> miss_reasons_;
  obs::Counter patches_;
  obs::Counter evictions_;
  obs::Counter admissions_;
  obs::Counter rejections_;
  obs::Gauge bytes_gauge_;
  obs::Histogram* lookup_latency_;
};

/// \brief Byte-footprint estimate of a cached result: a fixed overhead plus
/// ResultEntryBytes of every row. Advisory; together with
/// DeltaPropagator::EstimateBytes() it is what the LRU budget accounts in.
size_t EstimateResultBytes(const Relation& relation);

}  // namespace plan
}  // namespace expdb

#endif  // EXPDB_PLAN_CACHE_H_
