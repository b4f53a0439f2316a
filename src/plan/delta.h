// Incremental (delta-driven) maintenance of cached physical plans
// (docs/PERFORMANCE.md §6).
//
// A materialized view caches a PhysicalPlan plus the per-node
// materializations of one execution (plan/executor.h NodeCapture). When a
// base relation records explicit mutations (Relation::DeltasSince), the
// DeltaPropagator pushes them node-by-node through the cached plan,
// emitting the net change to the root materialization — O(|delta| + size
// of the touched aggregate groups) work instead of the O(|base|) full
// recomputation. A per-group aggregate (PlanNode::per_group) emits at most
// one delete and one insert per touched group.
//
// The op-stream contract every operator maintains:
//  * an insert means the tuple was semantically absent from the node's
//    output before the op;
//  * a delete carries the exact (tuple, texp) the node previously emitted;
//  * a texp change is delete(t, old) followed by insert(t, new).
// Consumers are nevertheless defensive (deleting an absent tuple is a
// no-op), because expired entries may linger in materializations: under
// the algebra's max/min texp composition a dead entry can never shadow a
// live one, so stale dead tuples are invisible to expτ readers.
//
// Not every operator is incrementalizable (CrossProduct, AntiJoin,
// keyless joins, Schrödinger validity, aggregate tolerance > 0);
// Create() refuses such plans and the caller falls back to full
// recomputation — correctness never depends on incrementality.

#ifndef EXPDB_PLAN_DELTA_H_
#define EXPDB_PLAN_DELTA_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/difference.h"
#include "core/eval.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "relational/relation.h"

namespace expdb {
namespace plan {

/// One incremental change to a node's output.
struct DeltaOp {
  bool is_delete = false;
  Relation::Entry entry;
};
using DeltaOps = std::vector<DeltaOp>;

/// The recorded mutation stream of one base relation: the batches
/// Relation::DeltasSince lends, in epoch order. Borrowed, so a BaseDelta
/// lives only as long as the lock its range was read under.
struct BaseDelta {
  std::string relation;
  Relation::DeltaRange batches;
};

/// \brief Bytes of `t`'s values: inline Value slots plus string contents.
/// The unit every byte estimate in the plan layer is built from.
size_t TuplePayloadBytes(const Tuple& t);

/// \brief Bytes one materialized row is charged by the result-cache
/// budget: its entry slot and payload plus ~50% hash-index headroom.
/// EstimateResultBytes sums it; ApplyOps reports its net change.
size_t ResultEntryBytes(const Tuple& t);

/// \brief True when `node`'s operator can propagate deltas incrementally
/// under `options`. Schrödinger validity tracking and approximate
/// aggregates always force the full path; joins and semi-joins need
/// extractable equality keys; cross products and anti-joins are not
/// incrementalized.
bool NodeSupportsDelta(const PlanNode& node, const EvalOptions& options);

/// \brief True when every reachable node of `plan` supports delta
/// propagation (const-false subtrees never execute and are skipped).
/// EXPLAIN uses this per node to render the `[incremental]` marker.
bool PlanSupportsDelta(const PhysicalPlan& plan, const EvalOptions& options);

/// \brief Pushes base-relation deltas through a cached physical plan.
///
/// Seeded from one execution's NodeCapture, the propagator keeps the
/// auxiliary per-node state incremental maintenance needs (join key
/// buckets, projection support counts, aggregate groups with their
/// lifetime analyses, difference criticals) and translates each batch of
/// base mutations into the net op stream on the root materialization.
class DeltaPropagator {
 public:
  /// The net effect of one Apply round.
  struct ApplyResult {
    /// Net changes to the root materialization, in emission order.
    DeltaOps root_ops;
    /// Recomputed texp(e) of the plan after the deltas.
    Timestamp texp = Timestamp::Infinity();
    /// Root-is-difference only: min(texp(R), texp(S)) — the Theorem 3
    /// maintenance-free horizon of a patched view. Equals `texp`
    /// otherwise.
    Timestamp children_texp = Timestamp::Infinity();
    /// Root-is-difference only: the regenerated Theorem 3 helper queue,
    /// sorted by (appears_at, tuple).
    std::vector<DifferencePatchEntry> helper;
    bool root_is_difference = false;
    size_t ops_in = 0;   ///< base-relation ops consumed
    size_t ops_out = 0;  ///< root ops emitted
    /// Ops emitted by every node of the plan this round, the root's
    /// included: the work the round moved through the plan.
    size_t ops_total = 0;
  };

  /// \brief Builds a propagator for `plan`, seeding per-node state from
  /// `capture` (the NodeCapture of the execution that produced the
  /// currently cached result). Returns nullptr when the plan has an
  /// unsupported operator or the capture is incomplete — the caller must
  /// recompute instead.
  static std::unique_ptr<DeltaPropagator> Create(PhysicalPlanPtr plan,
                                                 const NodeCapture& capture,
                                                 const EvalOptions& options);

  ~DeltaPropagator();

  /// \brief Propagates `deltas` at time `now`. Scans read the borrowed
  /// batches in place; a filter directly over a scan copies only the
  /// entries its predicate keeps. O(|deltas| + touched state).
  ///
  /// Precondition: `now` precedes the cached result's texp (for a patched
  /// difference root, its children_texp). This is what keeps the cached
  /// aggregate analyses and difference criticals valid — no invalidating
  /// change cap or appears_at has fired yet. Callers that let the result
  /// lapse must recompute.
  ///
  /// On error the internal state may be inconsistent; discard the
  /// propagator and recompute.
  Result<ApplyResult> Apply(const std::vector<BaseDelta>& deltas,
                            Timestamp now);

  /// \brief Applies an op stream to a materialization in place, as one
  /// change (Relation::ApplyChange), and returns the net change of the
  /// rows' ResultEntryBytes: O(|ops|), so a byte budget follows a patch
  /// without re-walking the materialization.
  static int64_t ApplyOps(const DeltaOps& ops, Relation* mat);

  /// \brief Advisory byte footprint of the auxiliary state: join
  /// buckets, projection support counts, aggregate partitions, set
  /// operator child copies and difference criticals. Measured in full
  /// when seeded, then scaled by the growth of the state's key count, so
  /// the call is O(stateful nodes) — cheap enough for every patch. Growth
  /// within a key (more rows per join key or group) is charged only when
  /// the entry is refilled. 0 for a plan of stateless operators (scan,
  /// filter).
  size_t EstimateBytes() const;

 private:
  struct NodeState;
  struct Round;

  /// Per-node propagation output.
  struct PropOut {
    DeltaOps ops;
    Timestamp texp = Timestamp::Infinity();
    Timestamp children_texp = Timestamp::Infinity();
  };

  DeltaPropagator(PhysicalPlanPtr plan, EvalOptions options);

  /// Builds the node's auxiliary state from the captured child
  /// materializations. `under_pruned` marks subtrees whose captured
  /// ancestor was pruned (their captures are legitimately missing — they
  /// seed empty). Returns false when the capture is unusable.
  bool Seed(const PlanNode& node, const NodeCapture& capture,
            bool under_pruned, std::set<int32_t>* seeded_cse);

  Result<PropOut> Propagate(const PlanNode& node, Round* round);

  /// Full O(state) walk behind EstimateBytes(). Entries copied from a
  /// child share their tuple payload with the base and are charged only
  /// their slot; keys built by projection own theirs.
  size_t MeasureBytes() const;
  /// Keys and entries held across every node's containers, O(nodes).
  size_t StateKeys() const;

  PhysicalPlanPtr plan_;
  EvalOptions options_;
  /// Keyed by PlanNode::id. CSE shadow occurrences share the primary's
  /// state and have no entry; stateless operators (scan, filter) none
  /// either.
  std::map<uint32_t, std::unique_ptr<NodeState>> state_;
  /// MeasureBytes() and StateKeys() right after seeding.
  size_t seeded_bytes_ = 0;
  size_t seeded_keys_ = 0;
};

}  // namespace plan
}  // namespace expdb

#endif  // EXPDB_PLAN_DELTA_H_
