#include "plan/planner.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/executor.h"

namespace expdb {
namespace plan {

namespace {

/// Registry handles for the planning pipeline, resolved once per process.
struct PlanMetricSet {
  obs::Counter* plans;
  obs::Counter* rewrite_passes;
  obs::Histogram* latency;

  static const PlanMetricSet& Get() {
    static const PlanMetricSet* set = [] {
      auto* s = new PlanMetricSet();
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      s->plans = r.GetCounter("expdb_plan_plans_total",
                              "Physical plans produced by the planner");
      s->rewrite_passes =
          r.GetCounter("expdb_plan_rewrite_passes_total",
                       "Sec. 3.1 rewrite passes run during planning");
      s->latency = r.GetHistogram("expdb_plan_latency_ns",
                                  "Planning wall time (ns)");
      return s;
    }();
    return *set;
  }
};

/// Bottom-up constant folding over the expression's predicates: folds each
/// predicate, drops σ_true(e) nodes entirely, and rebuilds the (immutable)
/// tree. Per-tuple evaluation is unchanged — folding only precomputes
/// constant subformulas — so the planned expression is set-identical to
/// the source at every τ.
ExpressionPtr FoldPredicates(const ExpressionPtr& e) {
  switch (e->kind()) {
    case ExprKind::kBase:
      return e;
    case ExprKind::kSelect: {
      ExpressionPtr child = FoldPredicates(e->left());
      Predicate folded = e->predicate().FoldConstants();
      if (const std::optional<bool> lit = folded.AsLiteral();
          lit.has_value() && *lit) {
        return child;  // σ_true(e) = e
      }
      return Expression::MakeSelect(std::move(child), std::move(folded));
    }
    case ExprKind::kProject:
      return Expression::MakeProject(FoldPredicates(e->left()),
                                     e->projection());
    case ExprKind::kProduct:
      return Expression::MakeProduct(FoldPredicates(e->left()),
                                     FoldPredicates(e->right()));
    case ExprKind::kUnion:
      return Expression::MakeUnion(FoldPredicates(e->left()),
                                   FoldPredicates(e->right()));
    case ExprKind::kJoin:
      return Expression::MakeJoin(FoldPredicates(e->left()),
                                  FoldPredicates(e->right()),
                                  e->predicate().FoldConstants());
    case ExprKind::kIntersect:
      return Expression::MakeIntersect(FoldPredicates(e->left()),
                                       FoldPredicates(e->right()));
    case ExprKind::kDifference:
      return Expression::MakeDifference(FoldPredicates(e->left()),
                                        FoldPredicates(e->right()));
    case ExprKind::kAggregate:
      return Expression::MakeAggregate(FoldPredicates(e->left()),
                                       e->group_by(), e->aggregate());
    case ExprKind::kSemiJoin:
      return Expression::MakeSemiJoin(FoldPredicates(e->left()),
                                      FoldPredicates(e->right()),
                                      e->predicate().FoldConstants());
    case ExprKind::kAntiJoin:
      return Expression::MakeAntiJoin(FoldPredicates(e->left()),
                                      FoldPredicates(e->right()),
                                      e->predicate().FoldConstants());
  }
  return e;
}

/// Builds the physical tree: preorder ids, plan-time schema inference
/// (which validates predicates, projections, union compatibility, and
/// aggregate inputs with the interpreter's status codes), cardinality
/// estimates, build-side selection, and parallelism annotations.
class Builder {
 public:
  Builder(const Database& db, const PlannerOptions& options)
      : db_(db),
        options_(options),
        workers_(ResolveWorkers(options.eval.parallelism)) {}

  Result<std::unique_ptr<PlanNode>> Build(const ExpressionPtr& e) {
    auto node = std::make_unique<PlanNode>();
    node->id = next_id_++;
    node->op = PlanOpForKind(e->kind());
    node->expr = e;
    EXPDB_ASSIGN_OR_RETURN(node->schema, e->InferSchema(db_));
    if (e->left() != nullptr) {
      EXPDB_ASSIGN_OR_RETURN(node->left, Build(e->left()));
    }
    if (e->right() != nullptr) {
      EXPDB_ASSIGN_OR_RETURN(node->right, Build(e->right()));
    }
    Annotate(node.get());
    return node;
  }

  uint32_t node_count() const { return next_id_ - 1; }

 private:
  void Annotate(PlanNode* n) {
    const double l = n->left != nullptr ? n->left->est_rows : 0.0;
    const double r = n->right != nullptr ? n->right->est_rows : 0.0;
    double input = l + r;
    switch (n->op) {
      case PlanOp::kScan: {
        auto rel = db_.GetRelation(n->expr->relation_name());
        n->est_rows = rel.ok() ? static_cast<double>((*rel)->size()) : 0.0;
        // Segmented base relations let the scan classify whole segments
        // against τ via their [min_texp, max_texp] bounds.
        n->partition_aware = rel.ok() && (*rel)->segmented();
        input = n->est_rows;
        break;
      }
      case PlanOp::kFilter:
        // Textbook 1/3 selectivity; a constant-false predicate over a
        // monotonic input produces exactly nothing (and the executor can
        // skip the subtree — exact because the elided child contributes
        // texp = ∞ and validity [τ, ∞)).
        if (options_.fold_constants) {
          const std::optional<bool> lit = n->expr->predicate().AsLiteral();
          if (lit.has_value() && !*lit && n->expr->left()->IsMonotonic()) {
            n->const_false = true;
          }
        }
        n->est_rows = n->const_false ? 0.0 : l / 3.0;
        input = l;
        break;
      case PlanOp::kProject:
      case PlanOp::kHashAggregate:
        n->est_rows = l;  // one output tuple per (surviving) source tuple
        input = l;
        break;
      case PlanOp::kCrossProduct:
        n->est_rows = l * r;
        input = l;
        break;
      case PlanOp::kUnionMerge:
        n->est_rows = l + r;
        break;
      case PlanOp::kHashJoin:
        n->est_rows = std::max(l, r);
        // Build the hash table on the estimated-smaller input; probe with
        // the larger. Ties keep the classic build-on-right.
        n->build_left = options_.choose_build_side && l < r;
        input = n->build_left ? r : l;
        break;
      case PlanOp::kHashIntersect:
        n->est_rows = std::min(l, r);
        input = l;
        break;
      case PlanOp::kHashDifference:
      case PlanOp::kHashSemiJoin:
      case PlanOp::kHashAntiJoin:
        n->est_rows = l / 2.0;
        input = l;
        break;
    }
    // Display-only annotation: would the operator's probe/scan loop go
    // morsel-parallel under the plan's EvalOptions? The executor keeps
    // the dynamic per-input decision (exact parity with the interpreter).
    n->parallel =
        workers_ > 1 &&
        input >= 2.0 * static_cast<double>(std::max<size_t>(
                           1, options_.eval.parallel_min_morsel));
  }

  const Database& db_;
  const PlannerOptions& options_;
  const size_t workers_;
  uint32_t next_id_ = 1;
};

/// Common-subtree detection: non-leaf subtrees with an identical algebra
/// signature (post-rewrite, post-fold) are grouped; the executor
/// materializes the first occurrence and reuses the result for the rest.
/// Exact: identical subexpressions against the same database at the same
/// τ produce identical MaterializedResults.
void AssignCommonSubtrees(PlanNode* root) {
  std::unordered_map<std::string, size_t> counts;
  std::vector<PlanNode*> preorder;
  std::vector<PlanNode*> stack = {root};
  while (!stack.empty()) {
    PlanNode* n = stack.back();
    stack.pop_back();
    preorder.push_back(n);
    // Push right first so preorder comes out left-to-right.
    if (n->right != nullptr) stack.push_back(n->right.get());
    if (n->left != nullptr) stack.push_back(n->left.get());
  }
  for (PlanNode* n : preorder) {
    if (n->left != nullptr) ++counts[n->expr->ToString()];
  }
  std::unordered_map<std::string, int32_t> ids;
  int32_t next = 0;
  for (PlanNode* n : preorder) {
    if (n == root || n->left == nullptr) continue;
    const std::string sig = n->expr->ToString();
    auto it = counts.find(sig);
    if (it == counts.end() || it->second < 2) continue;
    auto [id_it, inserted] = ids.try_emplace(sig, next);
    if (inserted) ++next;
    n->cse_id = id_it->second;
  }
}

/// Marks every aggregate whose one consumer is a projection onto its
/// group-by columns and its aggregate column as per-group. Under such a
/// projection every member row of a group projects onto the same tuple,
/// and Eq. (3) keeps the latest texp among them: min(texp_R(r), cap) is
/// largest for the longest-lived member r, so that member's row is the
/// only one the projection can see. The identity holds under every
/// EvalOptions (tolerance and validity tracking change the cap and the
/// expression's validity, never which member row survives), so the mark
/// is final at plan time. A common-subtree aggregate is read by several
/// consumers and keeps its member rows.
void MarkPerGroup(PlanNode* n) {
  if (n->op == PlanOp::kProject && n->left->op == PlanOp::kHashAggregate &&
      n->left->cse_id < 0) {
    const std::vector<size_t>& gb = n->left->expr->group_by();
    const size_t value_col = n->left->schema.arity() - 1;
    const std::vector<size_t>& cols = n->expr->projection();
    n->left->per_group = std::all_of(cols.begin(), cols.end(), [&](size_t c) {
      return c == value_col || std::find(gb.begin(), gb.end(), c) != gb.end();
    });
  }
  if (n->left != nullptr) MarkPerGroup(n->left.get());
  if (n->right != nullptr) MarkPerGroup(n->right.get());
}

}  // namespace

Result<PhysicalPlanPtr> Planner::Plan(const ExpressionPtr& expr,
                                      const Database& db,
                                      const PlannerOptions& options) {
  if (expr == nullptr) {
    return Status::InvalidArgument("null expression");
  }
  const PlanMetricSet& m = PlanMetricSet::Get();
  m.plans->Increment();
  obs::ScopedSpan span("plan.plan", m.latency);

  ExpressionPtr planned = expr;
  RewriteReport report;
  if (options.apply_rewrites) {
    m.rewrite_passes->Increment();
    EXPDB_ASSIGN_OR_RETURN(planned,
                           RewriteForIndependence(planned, db, &report));
    if (options.rewrite_report != nullptr) {
      *options.rewrite_report = report;
    }
  }
  if (options.fold_constants) planned = FoldPredicates(planned);

  Builder builder(db, options);
  EXPDB_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> root,
                         builder.Build(planned));
  if (options.detect_common_subtrees) AssignCommonSubtrees(root.get());
  MarkPerGroup(root.get());

  PlannerOptions stored = options;
  stored.rewrite_report = nullptr;  // not owned by the plan
  return PhysicalPlanPtr(std::make_shared<PhysicalPlan>(
      std::move(root), builder.node_count(), expr, std::move(planned),
      std::move(report), stored));
}

}  // namespace plan
}  // namespace expdb
