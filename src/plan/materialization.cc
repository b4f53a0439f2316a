#include "plan/materialization.h"

#include <iterator>

namespace expdb {
namespace plan {

const char* MissReasonName(MissReason reason) {
  static constexpr const char* kNames[] = {
      "absent",
      "lapsed",
      "base_gone",
      "instance_churn",
      "no_propagator",
      "history_trimmed",
      "patch_failed",
      "lapsed_after_patch",
      "evicted_by_patch",
  };
  static_assert(std::size(kNames) == kMissReasons);
  return kNames[static_cast<size_t>(reason)];
}

bool Materialization::Seed(const PhysicalPlanPtr& plan,
                           const NodeCapture* capture, const Database& db) {
  std::vector<Base> bases;
  for (const std::string& name : plan->planned_expr()->BaseRelationNames()) {
    auto rel = db.GetRelation(name);
    if (!rel.ok()) return false;  // the next execution fails anyway
    // Untracked, a cursor never moves. Idempotent and metadata-only.
    rel.value()->EnableDeltaTracking();
    bases.emplace_back(name, rel.value()->delta_cursor());
  }
  bases_ = std::move(bases);
  if (capture != nullptr) {
    propagator_ = DeltaPropagator::Create(plan, *capture, plan->options().eval);
  }
  return true;
}

std::optional<MissReason> Materialization::Collect(const Database& db,
                                                   Timestamp now,
                                                   Drift* drift) const {
  // The propagator's cached analyses hold only while the result does.
  if (!(now < result_.texp)) return MissReason::kLapsed;
  for (size_t i = 0; i < bases_.size(); ++i) {
    const auto& [name, cursor] = bases_[i];
    auto rel = db.GetRelation(name);
    if (!rel.ok()) return MissReason::kBaseGone;
    const Relation* base = rel.value();
    // A different body of data under the name. A broken or trimmed
    // history (Clear(), ring overflow) shows up as no history below.
    if (base->delta_instance_id() == 0 ||
        base->delta_instance_id() != cursor.instance_id) {
      return MissReason::kInstanceChurn;
    }
    if (base->delta_epoch() == cursor.epoch) continue;
    if (propagator_ == nullptr) return MissReason::kNoPropagator;
    auto batches = base->DeltasSince(cursor.epoch);
    if (!batches.has_value()) return MissReason::kHistoryTrimmed;
    drift->deltas.push_back({name, *batches});
    drift->found.emplace_back(i, base);
  }
  return std::nullopt;
}

Result<DeltaPropagator::ApplyResult> Materialization::Patch(
    const Drift& drift, Timestamp now, int64_t* bytes_delta) {
  auto applied = propagator_->Apply(drift.deltas, now);
  if (!applied.ok()) {
    propagator_.reset();  // it may be mid-update: only a recompute follows
    return applied.status();
  }
  const int64_t bytes =
      DeltaPropagator::ApplyOps(applied->root_ops, &result_.relation);
  if (bytes_delta != nullptr) *bytes_delta = bytes;
  result_.texp = applied->texp;
  result_.materialized_at = now;
  result_.validity = IntervalSet(now, result_.texp);
  for (const auto& [i, base] : drift.found) {
    bases_[i].second = base->delta_cursor();
  }
  return applied;
}

}  // namespace plan
}  // namespace expdb
