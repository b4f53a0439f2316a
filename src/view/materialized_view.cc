#include "view/materialized_view.h"

#include <algorithm>

#include "core/difference.h"
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
  // A ≥2× base cardinality drift (0 → anything counts) since planning
  // leaves the build-side and parallelism estimates worth re-deriving.
  for (const auto& [name, planned_size] : plan_base_sizes_) {
    auto rel = db.GetRelation(name);
    const size_t size = rel.ok() ? rel.value()->size() : planned_size;
    const size_t lo = std::min(size, planned_size);
    if (size == planned_size || std::max(size, planned_size) < 2 * lo) continue;
    LogViewEvent(name_, "replan",
                 {{"base", name},
                  {"planned_size", std::to_string(planned_size)},
                  {"current_size", std::to_string(size)}});
    plan_.reset();
    metrics_.replans.Increment();
    break;
  }
  if (plan_ != nullptr) {
    // Cached-plan execution: planning (and the rewrite pass, when
    // enabled) is skipped entirely on recomputation.
    plan::PlanCacheHits()->Increment();
    return Status::OK();
  }
  plan::PlannerOptions popts;
  popts.apply_rewrites = options_.rewrite_plan;
  popts.eval = options_.eval;
  plan_base_sizes_.clear();
  EXPDB_ASSIGN_OR_RETURN(plan_, plan::Planner::Plan(expr_, db, popts));
  // Snapshot the base cardinalities the estimates were derived from.
  for (const std::string& name : expr_->BaseRelationNames()) {
    auto rel = db.GetRelation(name);
    if (rel.ok()) plan_base_sizes_[name] = rel.value()->size();
  }
  return Status::OK();
}

Status MaterializedView::Recompute(const Database& db, Timestamp now,
                                   bool count_as_maintenance) {
  obs::ScopedSpan span(
      "view.recompute",
      count_as_maintenance ? &metrics_.recompute_latency : nullptr);
  EXPDB_RETURN_NOT_OK(EnsurePlan(db));
  // Demand-driven: the capture + seeding cost is only paid once the view
  // has actually seen an explicit update (update_seen_); expiration-only
  // views recompute exactly as cheaply as before the delta engine.
  const bool want_delta =
      options_.incremental && update_seen_ &&
      plan::PlanSupportsDelta(*plan_, options_.eval);
  plan::NodeCapture capture;
  plan::NodeCapture* capture_ptr = want_delta ? &capture : nullptr;
  MaterializedResult fresh;
  if (options_.mode == RefreshMode::kPatchDifference) {
    EXPDB_ASSIGN_OR_RETURN(DifferenceEvalResult diff,
                           plan::ExecutePlanDifferenceRoot(
                               *plan_, db, now, options_.eval,
                               /*profile=*/nullptr, capture_ptr));
    fresh = std::move(diff.result);
    helper_ = std::move(diff.helper);
    patch_cursor_ = 0;
    // Patching neutralizes the root's own invalidations (Theorem 3): only
    // argument invalidations remain.
    fresh.texp = diff.children_texp;
  } else {
    EXPDB_ASSIGN_OR_RETURN(
        fresh, plan::ExecutePlan(*plan_, db, now, options_.eval,
                                 /*profile=*/nullptr, capture_ptr));
  }
  if (!column_names_.empty()) {
    EXPDB_RETURN_NOT_OK(fresh.relation.RenameAttributes(column_names_));
  }
  // A fresh materialization: the old one's cursors and propagator go, and
  // so does the relation's delta history, so the result-cache entries
  // that read it miss as instance churn.
  materialization_ = plan::Materialization(std::move(fresh));
  if (want_delta) materialization_.Seed(plan_, &capture, db);
  if (count_as_maintenance) {
    metrics_.recomputations.Increment();
    metrics_.tuples_recomputed.Increment(result().relation.size());
  }
  LogViewEvent(name_, "recompute",
               {{"tuples", std::to_string(result().relation.size())},
                {"texp", texp().ToString()},
                {"maintenance", count_as_maintenance ? "true" : "false"}});
  UpdateGauges();
  return Status::OK();
}

void MaterializedView::ApplyPatches(Timestamp now) {
  metrics_.patches_applied.Increment(ApplyDifferencePatches(
      helper_, &patch_cursor_, now, &materialization_.result().relation));
  UpdateGauges();
}

void MaterializedView::UpdateGauges() {
  metrics_.pending_patches.Set(
      static_cast<int64_t>(helper_.size() - patch_cursor_));
  metrics_.materialized_tuples.Set(
      static_cast<int64_t>(result().relation.size()));
}

Status MaterializedView::AdvanceTo(const Database& db, Timestamp now) {
  if (!initialized_) return Status::Internal("view not initialized");
  if (now < last_advance_) {
    return Status::InvalidArgument("view time cannot move backwards");
  }
  last_advance_ = now;
  if (stale_) {
    // An explicit base update: patch from the recorded base deltas, or
    // recompute (always sound). An unseeded one has no cursors to check.
    plan::Materialization::Drift drift;
    std::optional<plan::MissReason> fallback =
        materialization_.propagator() == nullptr
            ? plan::MissReason::kNoPropagator
            : materialization_.Collect(db, now, &drift);
    if (!fallback.has_value()) {
      obs::ScopedSpan span("view.delta_apply", &metrics_.delta_latency);
      // Patch mode: bring the materialization up to date with the helper
      // queue first — the propagator models appeared criticals as present.
      if (options_.mode == RefreshMode::kPatchDifference) ApplyPatches(now);
      auto applied =
          materialization_.Patch(drift, now, /*bytes_delta=*/nullptr);
      if (applied.ok()) {
        MaterializedResult& result = materialization_.result();
        if (options_.mode == RefreshMode::kPatchDifference &&
            applied->root_is_difference) {
          helper_ = std::move(applied->helper);
          patch_cursor_ = 0;
          result.texp = applied->children_texp;
          result.validity = IntervalSet(now, result.texp);
        }
        metrics_.delta_applies.Increment();
        metrics_.delta_tuples.Increment(applied->ops_out);
        LogViewEvent(name_, "delta_apply",
                     {{"tuples", std::to_string(applied->ops_out)},
                      {"ops_total", std::to_string(applied->ops_total)},
                      {"texp", result.texp.ToString()}});
        UpdateGauges();
      } else {
        fallback = plan::MissReason::kPatchFailed;
      }
    }
    if (fallback.has_value()) {
      metrics_.delta_fallbacks.Increment();
      LogViewEvent(name_, "delta_fallback",
                   {{"reason", plan::MissReasonName(*fallback)},
                    {"texp", texp().ToString()}});
      EXPDB_RETURN_NOT_OK(Recompute(db, now));
    }
    stale_ = false;
  }
  switch (options_.mode) {
    case RefreshMode::kEagerRecompute: {
      // Recompute at every invalidation instant. Each recomputation's
      // texp is strictly in its future, so this terminates.
      while (texp() <= now) {
        EXPDB_RETURN_NOT_OK(Recompute(db, texp()));
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
      while (texp() <= now) {
        EXPDB_RETURN_NOT_OK(Recompute(db, texp()));
        ApplyPatches(now);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown refresh mode");
}

Status MaterializedView::Refresh(const Database& db, Timestamp now) {
  EXPDB_RETURN_NOT_OK(AdvanceTo(db, now));
  const bool exact = options_.mode == RefreshMode::kSchrodinger
                         ? validity().Contains(now)
                         : now < texp();
  return exact ? Status::OK() : Recompute(db, now);
}

Result<Relation> MaterializedView::Read(const Database& db, Timestamp now,
                                        Timestamp* served_at) {
  const uint64_t recomputes_before = metrics_.recomputations.value();
  EXPDB_RETURN_NOT_OK(AdvanceTo(db, now));
  metrics_.reads.Increment();
  // Sec. 3.3: a Schrödinger read in a validity gap may move to a nearby
  // valid time instead of recomputing.
  Timestamp at = now;
  if (options_.mode == RefreshMode::kSchrodinger && !validity().Contains(now)) {
    std::optional<Timestamp> t;
    if (options_.move_policy == MovePolicy::kMoveBackward) {
      t = validity().LastValidBefore(now);
      if (t.has_value()) metrics_.reads_moved_backward.Increment();
    } else if (options_.move_policy == MovePolicy::kMoveForward) {
      t = validity().FirstValidAtOrAfter(now);
      if (t.has_value() && t->IsInfinite()) t.reset();
      if (t.has_value()) metrics_.reads_moved_forward.Increment();
    }
    if (t.has_value()) at = *t;
  }
  if (at == now) EXPDB_RETURN_NOT_OK(Refresh(db, now));
  if (metrics_.recomputations.value() == recomputes_before) {
    metrics_.reads_from_materialization.Increment();
  }
  if (served_at != nullptr) *served_at = at;
  return result().relation.UnexpiredAt(at);
}

}  // namespace expdb
