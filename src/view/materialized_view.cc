#include "view/materialized_view.h"

#include "obs/log.h"
#include "obs/trace.h"
#include "plan/cache.h"
#include "plan/executor.h"
#include "plan/planner.h"

namespace expdb {

namespace {

/// Maintenance-decision event: which path this view took and how much
/// work it cost (docs/OBSERVABILITY.md "Event log").
void LogViewEvent(const std::string& view, const char* event,
                  std::vector<obs::LogField> extra = {}) {
  obs::EventLog& log = obs::EventLog::Global();
  if (!log.enabled()) return;
  std::vector<obs::LogField> fields;
  fields.reserve(extra.size() + 1);
  fields.emplace_back("view", view);
  for (auto& f : extra) fields.push_back(std::move(f));
  log.Emit(obs::LogSeverity::kInfo, "view", event, std::move(fields));
}

}  // namespace

ViewMetrics::ViewMetrics() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  recomputations.SetParent(r.GetCounter("expdb_view_recomputations_total"));
  reads.SetParent(r.GetCounter("expdb_view_reads_total"));
  reads_from_materialization.SetParent(
      r.GetCounter("expdb_view_reads_from_materialization_total"));
  reads_moved_backward.SetParent(
      r.GetCounter("expdb_view_reads_moved_backward_total"));
  reads_moved_forward.SetParent(
      r.GetCounter("expdb_view_reads_moved_forward_total"));
  patches_applied.SetParent(
      r.GetCounter("expdb_view_patches_applied_total"));
  tuples_recomputed.SetParent(
      r.GetCounter("expdb_view_tuples_recomputed_total"));
  marked_stale.SetParent(r.GetCounter("expdb_view_marked_stale_total"));
  delta_applies.SetParent(r.GetCounter("expdb_view_delta_applies_total"));
  delta_fallbacks.SetParent(
      r.GetCounter("expdb_view_delta_fallbacks_total"));
  delta_tuples.SetParent(r.GetCounter("expdb_view_delta_tuples_total"));
  replans.SetParent(r.GetCounter("expdb_view_replans_total"));
  pending_patches.SetParent(r.GetGauge("expdb_view_pending_patches"));
  materialized_tuples.SetParent(
      r.GetGauge("expdb_view_materialized_tuples"));
  recompute_latency.SetParent(
      r.GetHistogram("expdb_view_recompute_latency_ns"));
  delta_latency.SetParent(r.GetHistogram("expdb_view_delta_latency_ns"));
}

std::string_view RefreshModeToString(RefreshMode mode) {
  switch (mode) {
    case RefreshMode::kEagerRecompute:
      return "eager-recompute";
    case RefreshMode::kLazyRecompute:
      return "lazy-recompute";
    case RefreshMode::kSchrodinger:
      return "schrodinger";
    case RefreshMode::kPatchDifference:
      return "patch-difference";
  }
  return "?";
}

std::string_view MovePolicyToString(MovePolicy policy) {
  switch (policy) {
    case MovePolicy::kRecompute:
      return "recompute";
    case MovePolicy::kMoveBackward:
      return "move-backward";
    case MovePolicy::kMoveForward:
      return "move-forward";
  }
  return "?";
}

MaterializedView::MaterializedView(ExpressionPtr expr, Options options)
    : expr_(std::move(expr)), options_(options) {
  if (options_.mode == RefreshMode::kSchrodinger) {
    options_.eval.compute_validity = true;
  }
}

Status MaterializedView::Initialize(const Database& db, Timestamp now) {
  if (expr_ == nullptr) return Status::InvalidArgument("null expression");
  if (options_.mode == RefreshMode::kPatchDifference &&
      expr_->kind() != ExprKind::kDifference &&
      expr_->kind() != ExprKind::kAntiJoin) {
    return Status::InvalidArgument(
        "kPatchDifference requires a difference or anti-join root, got " +
        std::string(ExprKindToString(expr_->kind())));
  }
  last_advance_ = now;
  // Initialize is the first materialization, not a maintenance recompute:
  // it does not count toward the recomputation metrics.
  EXPDB_RETURN_NOT_OK(Recompute(db, now, /*count_as_maintenance=*/false));
  initialized_ = true;
  return Status::OK();
}

Status MaterializedView::EnsurePlan(const Database& db) {
  if (plan_ != nullptr) {
    // Cached-plan execution: planning (and the rewrite pass, when
    // enabled) is skipped entirely on recomputation.
    plan::PlanCacheHits()->Increment();
    return Status::OK();
  }
  plan::PlannerOptions popts;
  popts.apply_rewrites = options_.rewrite_plan;
  popts.eval = options_.eval;
  EXPDB_ASSIGN_OR_RETURN(plan_, plan::Planner::Plan(expr_, db, popts));
  // Snapshot the base cardinalities the estimates were derived from; the
  // MaybeReplan heuristic compares against them.
  plan_base_sizes_.clear();
  for (const std::string& name : expr_->BaseRelationNames()) {
    auto rel = db.GetRelation(name);
    if (rel.ok()) plan_base_sizes_[name] = rel.value()->size();
  }
  return Status::OK();
}

void MaterializedView::MaybeReplan(const Database& db) {
  if (plan_ == nullptr) return;
  for (const auto& [name, planned_size] : plan_base_sizes_) {
    auto rel = db.GetRelation(name);
    if (!rel.ok()) continue;
    const size_t size = rel.value()->size();
    if (size == planned_size) continue;
    const size_t lo = size < planned_size ? size : planned_size;
    const size_t hi = size < planned_size ? planned_size : size;
    // ≥2× drift (0 → anything counts): the estimates behind build-side
    // and parallelism choices are off enough to be worth re-deriving.
    if (hi >= 2 * lo) {
      // Logged before the clear below frees `name` and `planned_size`.
      LogViewEvent(name_, "replan",
                   {{"base", name},
                    {"planned_size", std::to_string(planned_size)},
                    {"current_size", std::to_string(size)}});
      plan_.reset();
      plan_base_sizes_.clear();
      propagator_.reset();
      base_cursors_.clear();
      metrics_.replans.Increment();
      return;
    }
  }
}

Status MaterializedView::Recompute(const Database& db, Timestamp now,
                                   bool count_as_maintenance) {
  obs::ScopedSpan span(
      "view.recompute",
      count_as_maintenance ? &metrics_.recompute_latency : nullptr);
  MaybeReplan(db);
  EXPDB_RETURN_NOT_OK(EnsurePlan(db));
  // The recompute invalidates any previously seeded incremental state;
  // capture the per-node materializations to reseed it when the plan is
  // incrementalizable.
  propagator_.reset();
  base_cursors_.clear();
  // Demand-driven: the capture + seeding cost is only paid once the view
  // has actually seen an explicit update (update_seen_); expiration-only
  // views recompute exactly as cheaply as before the delta engine.
  const bool want_delta =
      options_.incremental && update_seen_ &&
      plan::PlanSupportsDelta(*plan_, options_.eval);
  plan::NodeCapture capture;
  plan::NodeCapture* capture_ptr = want_delta ? &capture : nullptr;
  if (options_.mode == RefreshMode::kPatchDifference) {
    EXPDB_ASSIGN_OR_RETURN(DifferenceEvalResult diff,
                           plan::ExecutePlanDifferenceRoot(
                               *plan_, db, now, options_.eval,
                               /*profile=*/nullptr, capture_ptr));
    result_ = std::move(diff.result);
    helper_ = std::move(diff.helper);
    patch_cursor_ = 0;
    // Patching neutralizes the root's own invalidations (Theorem 3): only
    // argument invalidations remain.
    result_.texp = diff.children_texp;
  } else {
    EXPDB_ASSIGN_OR_RETURN(
        result_, plan::ExecutePlan(*plan_, db, now, options_.eval,
                                   /*profile=*/nullptr, capture_ptr));
  }
  if (want_delta) SeedPropagator(db, capture);
  if (count_as_maintenance) {
    metrics_.recomputations.Increment();
    metrics_.tuples_recomputed.Increment(result_.relation.size());
  }
  LogViewEvent(name_, "recompute",
               {{"tuples", std::to_string(result_.relation.size())},
                {"texp", result_.texp.ToString()},
                {"maintenance", count_as_maintenance ? "true" : "false"}});
  UpdateGauges();
  return Status::OK();
}

void MaterializedView::SeedPropagator(const Database& db,
                                      const plan::NodeCapture& capture) {
  propagator_ =
      plan::DeltaPropagator::Create(plan_, capture, options_.eval);
  if (propagator_ == nullptr) return;
  base_cursors_.clear();
  for (const std::string& name : expr_->BaseRelationNames()) {
    auto rel = db.GetRelation(name);
    if (!rel.ok()) {
      // A base the expression reads is missing; the next execution fails
      // anyway — stay on the full path.
      propagator_.reset();
      base_cursors_.clear();
      return;
    }
    // Turn on delta capture so future explicit mutations are recorded
    // (idempotent; metadata-only, hence allowed through const access).
    rel.value()->EnableDeltaTracking();
    base_cursors_[name] = rel.value()->delta_cursor();
  }
}

Result<bool> MaterializedView::TryApplyDeltas(const Database& db,
                                              Timestamp now) {
  if (propagator_ == nullptr) return false;
  // The propagator's cached analyses (aggregate partitions, difference
  // criticals) are only valid while the materialization is: a lapsed
  // texp(e) means recompute.
  if (result_.texp <= now) return false;
  std::vector<plan::BaseDelta> deltas;
  for (const auto& [name, cursor] : base_cursors_) {
    auto rel = db.GetRelation(name);
    if (!rel.ok()) return false;
    const Relation* base = rel.value();
    // An instance-id mismatch means a different body of data now lives
    // under the name (wholesale replacement, catalog churn): the stream
    // does not describe our seed state.
    if (base->delta_instance_id() == 0 ||
        base->delta_instance_id() != cursor.instance_id) {
      return false;
    }
    auto batches = base->DeltasSince(cursor.epoch);
    if (!batches.has_value()) return false;  // ring trimmed / history broken
    if (!batches->empty()) {
      deltas.push_back({name, *batches});
    }
  }
  obs::ScopedSpan span("view.delta_apply", &metrics_.delta_latency);
  // Patch mode: bring the materialization up to date with the helper
  // queue first — the propagator models appeared criticals as present.
  if (options_.mode == RefreshMode::kPatchDifference) ApplyPatches(now);
  EXPDB_ASSIGN_OR_RETURN(plan::DeltaPropagator::ApplyResult applied,
                         propagator_->Apply(deltas, now));
  plan::DeltaPropagator::ApplyOps(applied.root_ops, &result_.relation);
  if (options_.mode == RefreshMode::kPatchDifference &&
      applied.root_is_difference) {
    helper_ = std::move(applied.helper);
    patch_cursor_ = 0;
    result_.texp = applied.children_texp;
  } else {
    result_.texp = applied.texp;
  }
  result_.materialized_at = now;
  result_.validity = IntervalSet(now, result_.texp);
  for (auto& [name, cursor] : base_cursors_) {
    auto rel = db.GetRelation(name);
    if (rel.ok()) cursor.epoch = rel.value()->delta_epoch();
  }
  metrics_.delta_applies.Increment();
  metrics_.delta_tuples.Increment(applied.ops_out);
  LogViewEvent(name_, "delta_apply",
               {{"tuples", std::to_string(applied.ops_out)},
                {"ops_total", std::to_string(applied.ops_total)},
                {"texp", result_.texp.ToString()}});
  UpdateGauges();
  return true;
}

void MaterializedView::ApplyPatches(Timestamp now) {
  while (patch_cursor_ < helper_.size() &&
         helper_[patch_cursor_].appears_at <= now) {
    const DifferencePatchEntry& entry = helper_[patch_cursor_++];
    // Theorem 3: at texp_S(t) the helper tuple expires and is inserted
    // into the materialized difference with expiration texp_R(t). If it
    // is already past its own expiration, the insert would be invisible —
    // skip it.
    if (entry.expires_at > now) {
      result_.relation.InsertUnchecked(entry.tuple, entry.expires_at);
      metrics_.patches_applied.Increment();
    }
  }
  UpdateGauges();
}

void MaterializedView::UpdateGauges() {
  metrics_.pending_patches.Set(
      static_cast<int64_t>(helper_.size() - patch_cursor_));
  metrics_.materialized_tuples.Set(
      static_cast<int64_t>(result_.relation.size()));
}

Status MaterializedView::AdvanceTo(const Database& db, Timestamp now) {
  if (!initialized_) return Status::Internal("view not initialized");
  if (now < last_advance_) {
    return Status::InvalidArgument("view time cannot move backwards");
  }
  last_advance_ = now;
  if (stale_) {
    // An explicit base update invalidated the expiration-only contract.
    // Preferred path: pull the recorded base deltas and push them through
    // the cached plan — O(|delta|). Anything the incremental machinery
    // cannot prove falls back to the full rebuild (sound by
    // construction).
    // If a base cardinality drifted ≥2× from its plan-time snapshot the
    // plan's performance annotations are stale: drop it (which also
    // drops the propagator) and let the recompute below re-derive both.
    MaybeReplan(db);
    bool applied = false;
    if (options_.incremental) {
      auto incremental = TryApplyDeltas(db, now);
      if (incremental.ok()) {
        applied = incremental.value();
      } else {
        // The propagator's state may be mid-update; discard it. The
        // recompute below reseeds.
        propagator_.reset();
        base_cursors_.clear();
      }
    }
    if (!applied) {
      metrics_.delta_fallbacks.Increment();
      LogViewEvent(name_, "delta_fallback",
                   {{"texp", result_.texp.ToString()}});
      EXPDB_RETURN_NOT_OK(Recompute(db, now));
    }
    stale_ = false;
  }
  switch (options_.mode) {
    case RefreshMode::kEagerRecompute: {
      // Recompute at every invalidation instant. Each recomputation's
      // texp is strictly in its future, so this terminates.
      while (result_.texp <= now) {
        EXPDB_RETURN_NOT_OK(Recompute(db, result_.texp));
      }
      return Status::OK();
    }
    case RefreshMode::kLazyRecompute:
    case RefreshMode::kSchrodinger:
      // Deferred to Read().
      return Status::OK();
    case RefreshMode::kPatchDifference: {
      ApplyPatches(now);
      // Argument invalidation (only possible with non-monotonic
      // arguments) still forces a rebuild.
      while (result_.texp <= now) {
        EXPDB_RETURN_NOT_OK(Recompute(db, result_.texp));
        ApplyPatches(now);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown refresh mode");
}

Result<Relation> MaterializedView::Read(const Database& db, Timestamp now,
                                        Timestamp* served_at) {
  if (!initialized_) return Status::Internal("view not initialized");
  const uint64_t recomputes_before = metrics_.recomputations.value();
  EXPDB_RETURN_NOT_OK(AdvanceTo(db, now));
  metrics_.reads.Increment();
  if (served_at != nullptr) *served_at = now;

  switch (options_.mode) {
    case RefreshMode::kEagerRecompute:
    case RefreshMode::kPatchDifference:
      // AdvanceTo already restored validity; count the read as served
      // from the materialization only if it did not have to recompute.
      if (metrics_.recomputations.value() == recomputes_before) {
        metrics_.reads_from_materialization.Increment();
      }
      return result_.relation.UnexpiredAt(now);

    case RefreshMode::kLazyRecompute:
      if (result_.texp <= now) {
        EXPDB_RETURN_NOT_OK(Recompute(db, now));
      } else {
        metrics_.reads_from_materialization.Increment();
      }
      return result_.relation.UnexpiredAt(now);

    case RefreshMode::kSchrodinger: {
      if (result_.validity.Contains(now)) {
        metrics_.reads_from_materialization.Increment();
        return result_.relation.UnexpiredAt(now);
      }
      switch (options_.move_policy) {
        case MovePolicy::kRecompute:
          EXPDB_RETURN_NOT_OK(Recompute(db, now));
          return result_.relation.UnexpiredAt(now);
        case MovePolicy::kMoveBackward: {
          auto t = result_.validity.LastValidBefore(now);
          if (!t.has_value()) {
            EXPDB_RETURN_NOT_OK(Recompute(db, now));
            return result_.relation.UnexpiredAt(now);
          }
          metrics_.reads_moved_backward.Increment();
          metrics_.reads_from_materialization.Increment();
          if (served_at != nullptr) *served_at = *t;
          return result_.relation.UnexpiredAt(*t);
        }
        case MovePolicy::kMoveForward: {
          auto t = result_.validity.FirstValidAtOrAfter(now);
          if (!t.has_value() || t->IsInfinite()) {
            EXPDB_RETURN_NOT_OK(Recompute(db, now));
            return result_.relation.UnexpiredAt(now);
          }
          metrics_.reads_moved_forward.Increment();
          metrics_.reads_from_materialization.Increment();
          if (served_at != nullptr) *served_at = *t;
          return result_.relation.UnexpiredAt(*t);
        }
      }
      return Status::Internal("unknown move policy");
    }
  }
  return Status::Internal("unknown refresh mode");
}

}  // namespace expdb
