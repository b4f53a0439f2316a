// One maintained query result, held by each result-cache entry and each
// materialized view (docs/PERFORMANCE.md §6). By Theorems 1–2 it equals
// recomputation until texp(e) unless a base is explicitly updated; then
// Collect validates the cursors and borrows the recorded deltas, and Patch
// applies them, under one hold of the bases' locks (docs/CONCURRENCY.md).

#ifndef EXPDB_PLAN_MATERIALIZATION_H_
#define EXPDB_PLAN_MATERIALIZATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/materialized_result.h"
#include "plan/delta.h"
#include "relational/database.h"

namespace expdb {
namespace plan {

/// Why a materialization could not be served as it stands: Collect and
/// Patch report kLapsed..kPatchFailed, a result-cache lookup the others.
/// MissReasonName's table lists the names in this order.
enum class MissReason : uint8_t {
  kAbsent,            ///< no cache entry under the key
  kLapsed,            ///< now >= texp(e): Theorem 2's window is over
  kBaseGone,          ///< a base relation no longer exists
  kInstanceChurn,     ///< a base is a different body of data (recreated)
  kNoPropagator,      ///< a base drifted and the plan cannot be patched
  kHistoryTrimmed,    ///< the base's delta history is gone (Clear, ring)
  kPatchFailed,       ///< delta propagation reported an error
  kLapsedAfterPatch,  ///< the patched texp(e) is already <= now
  kEvictedByPatch,    ///< the patched cache entry alone exceeds the budget
};
inline constexpr size_t kMissReasons =
    static_cast<size_t>(MissReason::kEvictedByPatch) + 1;

/// \brief The snake_case name of `reason` ("history_trimmed"), as in its
/// counter name, CACHE STATS and the cache_miss and delta_fallback events.
const char* MissReasonName(MissReason reason);

/// \brief A result, the delta cursor of each base it reads, and the
/// propagator that patches it when the plan allows. Not thread-safe.
class Materialization {
 public:
  /// A base's name and its cursor as of the last execution or patch.
  using Base = std::pair<std::string, Relation::DeltaCursor>;
  /// The deltas of the drifted bases and, in the same order, each one's
  /// index in bases() and the relation Collect found under its name.
  struct Drift {
    std::vector<BaseDelta> deltas;
    std::vector<std::pair<size_t, const Relation*>> found;
  };

  explicit Materialization(MaterializedResult result = {})
      : result_(std::move(result)) {}

  MaterializedResult& result() { return result_; }
  const MaterializedResult& result() const { return result_; }
  /// The names are fixed by Seed: readable without the owner's lock.
  const std::vector<Base>& bases() const { return bases_; }
  const DeltaPropagator* propagator() const { return propagator_.get(); }

  /// \brief Enables delta tracking on every base `plan` reads, takes
  /// their cursors and, given the `capture` of the execution behind
  /// result(), seeds a propagator. False when a base is missing.
  bool Seed(const PhysicalPlanPtr& plan, const NodeCapture* capture,
            const Database& db);

  /// \brief Validates result() at `now` and fills `*drift`. nullopt means
  /// Patch may follow; with no deltas, no base moved.
  std::optional<MissReason> Collect(const Database& db, Timestamp now,
                                    Drift* drift) const;

  /// \brief Applies `drift` at `now`: patches result(), restamps texp(e),
  /// materialized_at and validity, and advances the cursors; `bytes_delta`
  /// gets the rows' net ResultEntryBytes change. Failing drops propagator().
  Result<DeltaPropagator::ApplyResult> Patch(const Drift& drift, Timestamp now,
                                             int64_t* bytes_delta);

 private:
  MaterializedResult result_;
  std::vector<Base> bases_;
  std::unique_ptr<DeltaPropagator> propagator_;
};

}  // namespace plan
}  // namespace expdb

#endif  // EXPDB_PLAN_MATERIALIZATION_H_
