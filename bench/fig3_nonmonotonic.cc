// Reproduces Figure 3: non-monotonic expressions over the Figure 1
// database — (a) the histogram πexp_{2,3}(aggexp_{{2},count}(Pol)), whose
// materialization is invalid from time 10, and (b)-(d) the difference
// πexp_1(Pol) −exp πexp_1(El), which *grows* as tuples expire from El and
// is invalid from time 3 onwards.
//
// Both results are held as ViewManager views: the histogram as a lazy
// view that recomputes exactly when its texp(e) lapses, the difference as
// a Theorem 3 patch view that grows in place without any recomputation.
// `--stats` then shows the run's view metrics next to the evaluator
// counters.

#include <cstdio>

#include "bench/paper_db.h"
#include "core/eval.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "relational/printer.h"
#include "view/view_manager.h"

int main(int argc, char** argv) {
  using namespace expdb;
  ReproFlags flags(argc, argv);
  using namespace expdb::algebra;
  std::printf("=== Figure 3: Some non-monotonic expressions ===\n\n");

  Database db = MakePaperDatabase();
  ViewManager views(&db);

  // (a) The histogram, as a lazy view: valid until texp(e), recomputed by
  // the first read past it.
  auto hist = Project(
      Aggregate(Base("Pol"), {1}, AggregateFunction::Count()), {1, 2});
  MaterializedView::Options lazy;
  lazy.mode = RefreshMode::kLazyRecompute;
  Check(views.CreateView("hist", hist, lazy, Timestamp(0)).ok(),
        "histogram materialized as a lazy view at time 0");
  MaterializedView* hist_view = views.GetView("hist").value();
  Relation hist0 = views.Read("hist", Timestamp(0)).MoveValue();
  std::printf("(a) %s at time 0\n%s\n", hist->ToString().c_str(),
              PrintTuples(hist0, Timestamp(0)).c_str());
  Check(hist0.Contains(Tuple{25, 2}) && hist0.Contains(Tuple{35, 1}),
        "(a) = {<25,2>, <35,1>}");
  Check(hist0.GetTexp(Tuple{25, 2}) == Timestamp(10),
        "<25,2> expires at 10 per Eq. (8)");
  Check(hist_view->texp() == Timestamp(10),
        "texp(e) = 10: invalid from time 10 on (should contain <25,1>)");
  // π_{2,3} keeps only the group column and the count, so the aggregate
  // emits one row per degree rather than one per policy holder.
  const plan::PlanNode& hist_root = hist_view->plan()->root();
  Check(hist_root.op == plan::PlanOp::kProject &&
            hist_root.left->op == plan::PlanOp::kHashAggregate &&
            hist_root.left->per_group,
        "the histogram's aggregate is planned per-group");
  Relation hist10 = views.Read("hist", Timestamp(10)).MoveValue();
  Check(hist10.size() == 1 && hist10.Contains(Tuple{25, 1}),
        "read at 10 = {<25,1>}, recomputed lazily");
  Check(hist_view->stats().recomputations == 1,
        "exactly one recomputation, at the texp(e) = 10 lapse");
  Check(!Relation::ContentsEqualAt(hist0, hist10, Timestamp(10)),
        "the expired materialization is indeed invalid at 10");

  // (b)-(d) The growing difference. The plain expression is invalid from
  // time 3 on...
  auto diff = Difference(Project(Base("Pol"), {0}), Project(Base("El"), {0}));
  auto diff0 = Evaluate(diff, db, Timestamp(0)).MoveValue();
  Check(diff0.texp == Timestamp(3),
        "texp(e) = 3: the expression is invalid from time 3 onwards");

  // ...but as a Theorem 3 patch view the expiring helper tuples are
  // inserted in place and the view becomes maintenance-free.
  MaterializedView::Options patch;
  patch.mode = RefreshMode::kPatchDifference;
  Check(views.CreateView("pol_minus_el", diff, patch, Timestamp(0)).ok(),
        "difference materialized as a Theorem 3 patch view at time 0");
  MaterializedView* diff_view = views.GetView("pol_minus_el").value();
  Check(diff_view->texp().IsInfinite(),
        "patched, the view never invalidates: texp = ∞ (Theorem 3)");

  Relation diffr0 = views.Read("pol_minus_el", Timestamp(0)).MoveValue();
  std::printf("(b) %s at time 0\n%s\n", diff->ToString().c_str(),
              PrintTuples(diffr0, Timestamp(0)).c_str());
  Check(diffr0.size() == 1 && diffr0.Contains(Tuple{3}), "(b) = {<3>}");

  Relation diffr3 = views.Read("pol_minus_el", Timestamp(3)).MoveValue();
  std::printf("(c) at time 3\n%s\n", PrintTuples(diffr3, Timestamp(3)).c_str());
  Check(diffr3.size() == 2 && diffr3.Contains(Tuple{2}),
        "(c) = {<2>, <3>} — the result grew");

  Relation diffr5 = views.Read("pol_minus_el", Timestamp(5)).MoveValue();
  std::printf("(d) at time 5\n%s\n", PrintTuples(diffr5, Timestamp(5)).c_str());
  Check(diffr5.size() == 3 && diffr5.Contains(Tuple{1}),
        "(d) = {<1>, <2>, <3>} — grew monotonically before time 10");

  Check(!Relation::ContentsEqualAt(diffr0, diffr3, Timestamp(3)),
        "the materialization at 0 misses <2> at time 3: invalid");
  Check(diff_view->stats().recomputations == 0 &&
            diff_view->stats().patches_applied >= 2,
        "the growth came from helper patches, not recomputation");

  // The (c) instant, seen by the storage layer: repartition El on a fine
  // texp grid (width 2) so <4,90>@2 and <2,85>@3 share a segment that is
  // fully expired at time 3 while <1,75>@5 stays live in its own — a
  // profiled recomputation of the difference then prunes the dead
  // segment at segment granularity, visible as a nonzero pruned count
  // in EXPLAIN ANALYZE.
  {
    db.GetRelation("El").value()->SetSegmented({/*bucket_width=*/2,
                                                /*max_segments=*/64});
    auto plan = plan::Planner::Plan(diff, db).MoveValue();
    plan::PlanProfile profile;
    Check(plan::ExecutePlan(*plan, db, Timestamp(3), {}, &profile).ok(),
          "difference executes with profiling at time 3");
    std::printf("\nEXPLAIN ANALYZE  —  %s at time 3\n%s\n",
                diff->ToString().c_str(), plan->ToString(&profile).c_str());
    uint64_t pruned = 0;
    for (const auto& n : profile.nodes) pruned += n.segs_pruned;
    Check(pruned > 0,
          "the El scan pruned its fully-expired segment without a "
          "per-tuple check");
  }

  std::printf("\nFigure 3 reproduced.\n");
  return 0;
}
