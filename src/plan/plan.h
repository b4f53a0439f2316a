// PhysicalPlan: the typed operator tree produced by the Planner and
// consumed by the executor (docs/PLANNER.md).
//
// The engine's classic split — logical plan (the algebra Expression),
// rule-based optimizer (core/rewrite.cc plus the expiration-aware rules in
// planner.cc), physical operators (this tree) — replaces the former
// single-pass recursive interpreter. Every node carries a stable id
// (preorder, root = 1) so EXPLAIN ANALYZE can join per-node row counts and
// latencies (obs:: spans tagged with the id) back onto the rendered tree,
// and so cached plans (materialized views, replica queries) stay
// addressable across recomputations.

#ifndef EXPDB_PLAN_PLAN_H_
#define EXPDB_PLAN_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/eval.h"
#include "core/expression.h"
#include "core/rewrite.h"
#include "relational/schema.h"

namespace expdb {
namespace plan {

/// The physical operator implementing an algebra node. One-to-one with
/// ExprKind today (ExpDB has a single physical algorithm per operator:
/// hash-based for the matching operators, morsel scans for the rest);
/// the indirection is what lets future alternatives (sort-merge join,
/// streaming aggregate) slot in per node.
enum class PlanOp {
  kScan,            ///< base-relation scan of expτ(R)
  kFilter,          ///< σexp_p morsel scan
  kProject,         ///< πexp hash duplicate-merge
  kCrossProduct,    ///< ×exp nested loop
  kUnionMerge,      ///< ∪exp hash max-merge
  kHashJoin,        ///< ⋈exp_p build/probe hash join
  kHashIntersect,   ///< ∩exp hash lookup
  kHashDifference,  ///< −exp with critical-tuple analysis (Theorem 3)
  kHashAggregate,   ///< aggexp hash grouping + partition replay
  kHashSemiJoin,    ///< ⋉exp hash lookup
  kHashAntiJoin,    ///< ▷exp with critical-match analysis
};

std::string_view PlanOpName(PlanOp op);

/// The physical operator chosen for an algebra node kind.
PlanOp PlanOpForKind(ExprKind kind);

/// \brief One node of a physical plan.
struct PlanNode {
  /// Stable node id: preorder over the plan tree, root = 1. Used as the
  /// span tag for EXPLAIN ANALYZE and as the PlanProfile index.
  uint32_t id = 0;
  PlanOp op = PlanOp::kScan;
  /// The (post-rewrite, post-fold) algebra subtree this node implements.
  /// Supplies the operator arguments: predicate(), projection(),
  /// group_by(), aggregate(), relation_name().
  ExpressionPtr expr;
  /// Output schema, inferred at plan time (plan-time validation: schema
  /// errors surface from Planner::Plan with the same status codes the
  /// interpreter produced at evaluation time).
  Schema schema;
  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;

  // --- optimizer annotations ---------------------------------------------
  /// Estimated output cardinality (relation sizes at plan time, textbook
  /// selectivity heuristics). Advisory: drives build/probe side selection
  /// and the EXPLAIN display only.
  double est_rows = 0.0;
  /// kHashJoin only: true = build the hash table on the left (estimated
  /// smaller) input and probe with the right, via the mirrored predicate.
  /// False is the classic build-on-right default.
  bool build_left = false;
  /// Common-subtree group (>= 0 when this subtree occurs more than once in
  /// the plan; -1 otherwise). The executor evaluates one occurrence and
  /// reuses the materialization for the rest.
  int32_t cse_id = -1;
  /// Filter whose predicate folded to constant false over a monotonic
  /// subtree: the executor skips the subtree and returns the empty result
  /// (exact — see planner.cc for the texp/validity argument).
  bool const_false = false;
  /// Annotation: whether this node's scan loop is expected to run
  /// morsel-parallel under the plan's EvalOptions (workers > 1 and the
  /// estimated input clears 2 x parallel_min_morsel). Display only — the
  /// executor keeps the dynamic per-input decision for exact behavioral
  /// parity with the interpreter.
  bool parallel = false;
  /// kScan only: the scanned base relation uses expiration-partitioned
  /// (segmented) storage, so the scan classifies whole segments against τ
  /// instead of checking texp per tuple. EXPLAIN ANALYZE reports the
  /// per-segment outcome as `[segments: live/checked/pruned]`, followed by
  /// `, N skipped` when a fused filter skipped N segments by predicate.
  bool partition_aware = false;
  /// kHashAggregate only: the node's one consumer is a Project that reads
  /// nothing but the group-by columns and the aggregate column, so the
  /// node emits one row per group — the longest-lived member's — instead
  /// of one per member (docs/ALGEBRA.md, "Aggregation under its
  /// projection"). EXPLAIN renders `[per-group]`.
  bool per_group = false;
};

/// \brief Per-node execution statistics for EXPLAIN ANALYZE, indexed by
/// PlanNode::id (slot 0 unused).
struct PlanProfile {
  struct NodeStats {
    uint64_t calls = 0;    ///< executions of this node
    uint64_t rows = 0;     ///< tuples produced (cumulative over calls)
    int64_t wall_ns = 0;   ///< wall time inside the node, children included
    bool pruned = false;   ///< expired-subtree prune short-circuited it
    bool reused = false;   ///< served from the common-subtree cache
    // Scan nodes over segmented storage: per-segment outcome (cumulative
    // over calls). live = fully-live segments copied without per-tuple
    // texp checks, checked = segments straddling τ (per-tuple filter),
    // pruned = fully-expired segments skipped, skipped = unexpired
    // segments whose column bounds the fused filter's predicate cannot
    // match (Predicate::MayMatchWithin). The four are disjoint.
    uint64_t segs_live = 0;
    uint64_t segs_checked = 0;
    uint64_t segs_pruned = 0;
    uint64_t segs_skipped = 0;
  };
  std::vector<NodeStats> nodes;
  int64_t total_ns = 0;

  void Resize(uint32_t node_count) { nodes.assign(node_count + 1, {}); }
  NodeStats& at(uint32_t id) { return nodes[id]; }
  const NodeStats& at(uint32_t id) const { return nodes[id]; }
};

/// \brief Options consumed by Planner::Plan.
struct PlannerOptions {
  /// Run the Sec. 3.1 algebraic rewrites (core/rewrite.cc) before
  /// physical planning. Off by default: rewrites preserve contents and
  /// per-tuple texps but may *grow* texp(e), so the drop-in Evaluate()
  /// facade keeps the un-rewritten expression; the SQL and view layers
  /// opt in (they owned the rewrite pass before this refactor).
  bool apply_rewrites = false;
  /// Fold constant predicate subtrees (constant-vs-constant comparisons,
  /// and/or/not over literals). Exact: folding never changes per-tuple
  /// evaluation.
  bool fold_constants = true;
  /// Elide subtrees whose base relations are entirely expired at
  /// execution time, using Relation::texp_upper_bound(). Exact: all-empty
  /// scans make every operator above them produce the empty relation with
  /// texp = ∞ and validity [τ, ∞) — by induction over the operator rules.
  bool prune_expired = true;
  /// Build the join hash table on the estimated-smaller side.
  bool choose_build_side = true;
  /// Detect repeated subtrees and materialize them once per execution.
  bool detect_common_subtrees = true;
  /// Execution options the plan is annotated for (parallelism/morsel
  /// decisions); also the defaults used when the caller executes without
  /// overriding them.
  EvalOptions eval;
  /// When non-null, receives the rewrite report (which rules fired).
  RewriteReport* rewrite_report = nullptr;
};

class PhysicalPlan;
using PhysicalPlanPtr = std::shared_ptr<const PhysicalPlan>;

/// \brief An immutable physical plan: safe to cache and to execute
/// concurrently (execution never mutates the plan).
class PhysicalPlan {
 public:
  PhysicalPlan(std::unique_ptr<PlanNode> root, uint32_t node_count,
               ExpressionPtr source_expr, ExpressionPtr planned_expr,
               RewriteReport rewrites, PlannerOptions options)
      : root_(std::move(root)),
        node_count_(node_count),
        source_expr_(std::move(source_expr)),
        planned_expr_(std::move(planned_expr)),
        rewrites_(std::move(rewrites)),
        options_(std::move(options)) {}

  const PlanNode& root() const { return *root_; }
  /// Number of plan nodes; node ids are 1..node_count().
  uint32_t node_count() const { return node_count_; }
  /// The expression as handed to the planner.
  const ExpressionPtr& source_expr() const { return source_expr_; }
  /// The expression after rewrites and folding (what the plan computes).
  const ExpressionPtr& planned_expr() const { return planned_expr_; }
  /// Which rewrite rules fired during planning.
  const RewriteReport& rewrites() const { return rewrites_; }
  const PlannerOptions& options() const { return options_; }

  /// \brief Renders the physical tree, one node per line:
  ///
  ///     #1 HashJoin [$1 = $3, build=right, est=40]
  ///       #2 Scan [R, est=20]
  ///       #3 Scan [S, est=40]
  ///
  /// With a profile (EXPLAIN ANALYZE) each line gains
  /// `(rows=…, time=…, calls=…)` plus `pruned`/`reused` markers.
  std::string ToString(const PlanProfile* profile = nullptr) const;

 private:
  std::unique_ptr<PlanNode> root_;
  uint32_t node_count_;
  ExpressionPtr source_expr_;
  ExpressionPtr planned_expr_;
  RewriteReport rewrites_;
  PlannerOptions options_;
};

}  // namespace plan
}  // namespace expdb

#endif  // EXPDB_PLAN_PLAN_H_
