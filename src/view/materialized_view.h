// MaterializedView: a query result maintained independently of, but in
// synchrony with, its base relations (paper Sec. 1, 3).
//
// The central idea of the paper: once a result is computed, its tuples
// expire in place using only their own expiration times. For monotonic
// expressions this is always exact (Theorem 1) and the view NEVER needs
// recomputation. Non-monotonic expressions carry a finite texp(e); what
// happens when it passes is the refresh policy:
//
//  * kEagerRecompute — recompute at every invalidation instant as time
//    advances (Sec. 3.1 "recompute the expression once it becomes
//    invalid").
//  * kLazyRecompute  — serve from the materialization while valid;
//    recompute only when a read arrives after texp(e).
//  * kSchrodinger    — keep exact validity intervals (Sec. 3.3–3.4);
//    reads inside a valid interval are served directly, reads in a gap
//    are recomputed or moved backward/forward in time per MovePolicy.
//  * kPatchDifference — for views whose root is −exp: maintain the
//    Theorem 3 helper priority queue and patch expiring helper tuples
//    into the result, making the view maintenance-free (texp = ∞ when the
//    arguments are monotonic).

#ifndef EXPDB_VIEW_MATERIALIZED_VIEW_H_
#define EXPDB_VIEW_MATERIALIZED_VIEW_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/eval.h"
#include "core/expression.h"
#include "core/materialized_result.h"
#include "obs/metrics.h"
#include "plan/materialization.h"
#include "plan/plan.h"

namespace expdb {

/// Refresh policy of a materialized view.
enum class RefreshMode {
  kEagerRecompute,
  kLazyRecompute,
  kSchrodinger,
  kPatchDifference,
};

std::string_view RefreshModeToString(RefreshMode mode);

/// What to do when a Schrödinger-mode read falls into a validity gap
/// (Sec. 3.3: recomputation, moving the query backward — "returning a
/// slightly outdated result" — or forward — "delaying the query").
enum class MovePolicy { kRecompute, kMoveBackward, kMoveForward };

std::string_view MovePolicyToString(MovePolicy policy);

/// Maintenance counters; the currency of the paper's cost arguments.
/// Since the obs refactor this is a *thin read view* assembled from the
/// view's ViewMetrics — the metric objects are the single source of truth
/// and also feed the process-wide obs::MetricsRegistry.
struct ViewStats {
  uint64_t recomputations = 0;       ///< full re-evaluations of the tree
  uint64_t reads = 0;                ///< Read() calls served
  uint64_t reads_from_materialization = 0;  ///< served without recompute
  uint64_t reads_moved_backward = 0;        ///< Schrödinger: outdated reads
  uint64_t reads_moved_forward = 0;         ///< Schrödinger: delayed reads
  uint64_t patches_applied = 0;      ///< Theorem 3 helper insertions
  uint64_t tuples_recomputed = 0;    ///< tuples produced by recomputations
  uint64_t delta_applies = 0;        ///< incremental maintenance rounds
  uint64_t delta_fallbacks = 0;      ///< stale updates that had to recompute
};

/// Instance-local (per-view) metric handles. Counters/histograms
/// aggregate into the process-wide `expdb_view_*` metrics; the gauges
/// contribute to global sums and retract their contribution when the
/// view dies (see docs/OBSERVABILITY.md).
struct ViewMetrics {
  obs::Counter recomputations;
  obs::Counter reads;
  obs::Counter reads_from_materialization;
  obs::Counter reads_moved_backward;
  obs::Counter reads_moved_forward;
  obs::Counter patches_applied;
  obs::Counter tuples_recomputed;
  obs::Counter marked_stale;
  obs::Counter delta_applies;    ///< incremental maintenance rounds
  obs::Counter delta_fallbacks;  ///< stale updates that fell back
  obs::Counter delta_tuples;     ///< root ops applied incrementally
  obs::Counter replans;          ///< plans dropped by the ≥2× heuristic
  obs::Gauge pending_patches;      ///< per-view gauge
  obs::Gauge materialized_tuples;  ///< per-view gauge
  obs::Histogram recompute_latency;
  obs::Histogram delta_latency;

  ViewMetrics();
};

/// \brief One maintained materialized query result.
class MaterializedView {
 public:
  struct Options {
    RefreshMode mode = RefreshMode::kEagerRecompute;
    MovePolicy move_policy = MovePolicy::kRecompute;
    EvalOptions eval;  ///< compute_validity is forced on for kSchrodinger
    /// Run the Sec. 3.1 rewrite pass when the view's plan is built. The
    /// rewrites preserve contents and per-tuple texps but can *grow*
    /// texp(e), changing when a non-monotonic view recomputes — so they
    /// are opt-in. Because the optimized plan is cached, the pass runs
    /// once per view, not once per recomputation.
    bool rewrite_plan = false;
    /// Maintain the view incrementally when a base relation reports an
    /// explicit update: patch the materialization from the recorded base
    /// deltas (plan::Materialization) in O(|delta|), and recompute only
    /// for the plan::MissReason that rules a patch out; correctness never
    /// depends on the incremental path (docs/PERFORMANCE.md §6). Seeding
    /// is demand-driven: the first explicit update's maintenance round
    /// recomputes and seeds, so expiration-only views never pay for it.
    bool incremental = true;
  };

  MaterializedView(ExpressionPtr expr, Options options);

  const ExpressionPtr& expression() const { return expr_; }
  RefreshMode mode() const { return options_.mode; }

  /// \brief Display name for diagnostics and structured maintenance
  /// events ("(anonymous)" until ViewManager::CreateView names it).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// \brief The SQL output column names every materialization carries
  /// (empty when created without a SELECT list). Set before Initialize.
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  void set_column_names(std::vector<std::string> names) {
    column_names_ = std::move(names);
  }

  /// \brief Snapshot of the maintenance counters (thin view over the
  /// per-view metrics; see ViewMetrics).
  ViewStats stats() const {
    return ViewStats{metrics_.recomputations.value(),
                     metrics_.reads.value(),
                     metrics_.reads_from_materialization.value(),
                     metrics_.reads_moved_backward.value(),
                     metrics_.reads_moved_forward.value(),
                     metrics_.patches_applied.value(),
                     metrics_.tuples_recomputed.value(),
                     metrics_.delta_applies.value(),
                     metrics_.delta_fallbacks.value()};
  }

  const ViewMetrics& metrics() const { return metrics_; }

  /// \brief Materializes the view at `now`. Must be called once before
  /// AdvanceTo/Read. kPatchDifference requires a difference root.
  Status Initialize(const Database& db, Timestamp now);

  /// \brief Applies maintenance due up to `now` (policy-dependent); time
  /// must not move backwards.
  Status AdvanceTo(const Database& db, Timestamp now);

  /// \brief Brings the materialization to a state exact at `now`: due
  /// maintenance (AdvanceTo), then a recompute if texp(e) <= now or, under
  /// kSchrodinger, if `now` falls in a validity gap. Never moves in time.
  Status Refresh(const Database& db, Timestamp now);

  /// \brief The view contents at `now`: Refresh, except that under
  /// kSchrodinger + kMoveBackward/kMoveForward a read in a validity gap
  /// serves a nearby valid time instead; `served_at`, when non-null,
  /// receives the time actually served.
  Result<Relation> Read(const Database& db, Timestamp now,
                        Timestamp* served_at = nullptr);

  /// \brief Current expression expiration time (∞ = never invalid).
  Timestamp texp() const { return result().texp; }

  /// \brief Validity intervals (meaningful under kSchrodinger).
  const IntervalSet& validity() const { return result().validity; }

  /// \brief Stored result (tuples may include expired ones not yet
  /// filtered; Read applies expτ).
  const MaterializedResult& result() const {
    return materialization_.result();
  }

  /// \brief Patch-mode: helper entries not yet applied.
  size_t pending_patches() const { return helper_.size() - patch_cursor_; }

  bool initialized() const { return initialized_; }

  /// \brief Marks the materialization stale because a base relation was
  /// explicitly updated (insert/delete outside expiration — the paper's
  /// no-update assumption, lifted incrementally in DESIGN.md §6): the
  /// next maintenance point patches it from the recorded base deltas, or
  /// recomputes. Transitions to stale bump `expdb_view_marked_stale_total`.
  /// The cached plan is kept: its estimates only steer performance
  /// decisions, so only a recompute re-plans, and only after a ≥2× base
  /// cardinality drift (EnsurePlan, `expdb_view_replans_total`).
  void MarkStale() {
    if (!stale_) metrics_.marked_stale.Increment();
    stale_ = true;
    update_seen_ = true;
  }
  bool stale() const { return stale_; }

  /// \brief The cached physical plan (null until the first
  /// materialization). Recomputations execute this plan directly; the
  /// planner — including the optional rewrite pass — runs once per view.
  const plan::PhysicalPlanPtr& plan() const { return plan_; }

 private:
  /// Plans the view unless its cached plan stands: a base cardinality
  /// that drifted ≥2× from the plan-time snapshot drops it first (stale
  /// estimates steer build sides and parallel annotations; small drifts
  /// don't change the decisions).
  Status EnsurePlan(const Database& db);
  Status Recompute(const Database& db, Timestamp now,
                   bool count_as_maintenance = true);
  void ApplyPatches(Timestamp now);
  void UpdateGauges();

  ExpressionPtr expr_;
  Options options_;
  std::string name_ = "(anonymous)";
  std::vector<std::string> column_names_;
  plan::PhysicalPlanPtr plan_;
  /// Plan-time base cardinalities backing the EnsurePlan re-plan check.
  std::map<std::string, size_t> plan_base_sizes_;
  plan::Materialization materialization_;  ///< replaced by each recompute
  // kPatchDifference: Theorem 3 helper entries sorted by appears_at; a
  // cursor replaces pops (delta application regenerates the queue; base
  // updates otherwise force recomputation).
  std::vector<DifferencePatchEntry> helper_;
  size_t patch_cursor_ = 0;
  Timestamp last_advance_;
  ViewMetrics metrics_;
  bool initialized_ = false;
  bool stale_ = false;
  /// True once MarkStale has ever been called: only then do recomputes
  /// capture and seed the propagator, so a view that only ages by
  /// expiration (the paper's no-update world) never pays for it. The
  /// first stale round therefore always recomputes (the mutations before
  /// it were never recorded); every later one may patch in O(|delta|).
  bool update_seen_ = false;
};

}  // namespace expdb

#endif  // EXPDB_VIEW_MATERIALIZED_VIEW_H_
