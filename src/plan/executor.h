// Physical-plan execution: the morsel-parallel operator implementations
// formerly in core/eval.cc, driven by a PhysicalPlan instead of the raw
// Expression tree.
//
// Execution is read-only on the plan — a cached plan (materialized view,
// replica query) can be executed repeatedly and concurrently. Per-node
// obs:: spans are tagged with the plan-node id; pass a PlanProfile to
// collect per-node row counts and latencies for EXPLAIN ANALYZE.

#ifndef EXPDB_PLAN_EXECUTOR_H_
#define EXPDB_PLAN_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/eval.h"
#include "plan/plan.h"
#include "relational/database.h"

namespace expdb {
namespace plan {

/// EvalOptions::parallelism -> worker count: 1 stays serial, 0 sizes to
/// the hardware (>= 2), anything else is the worker count.
size_t ResolveWorkers(size_t parallelism);

/// \brief Hash and equality of a tuple's group-by columns, taken in place:
/// aggregation never materializes a group key (φexp, Eq. 7).
struct GroupKeyHash {
  const std::vector<size_t>* cols = nullptr;
  size_t operator()(const Tuple& t) const { return t.HashOfColumns(*cols); }
  size_t operator()(const Tuple* t) const { return (*this)(*t); }
};
struct GroupKeyEq {
  const std::vector<size_t>* cols = nullptr;
  bool operator()(const Tuple& a, const Tuple& b) const {
    for (size_t c : *cols) {
      if (a.at(c) != b.at(c)) return false;
    }
    return true;
  }
  bool operator()(const Tuple* a, const Tuple* b) const {
    return (*this)(*a, *b);
  }
};

/// \brief Member r's aggregation row r ⧺ f(P), expiring at
/// min(texp_R(r), change_cap) — Eq. (8)/(9) with the source-tuple cap
/// (core/aggregate.h).
Relation::Entry AggregateRow(const Tuple& member, Timestamp texp,
                             const PartitionAnalysis& analysis);

/// \brief The order that picks a per-group node's row: (a, xa) lives
/// longer than (b, xb) when xa > xb; equal texps go to the smaller tuple.
bool LivesLonger(const Tuple& a, Timestamp xa, const Tuple& b, Timestamp xb);

/// \brief Per-node materializations captured during one plan execution —
/// the seed state for incremental (delta-driven) maintenance of the plan
/// (plan/delta.h). Keyed by PlanNode::id.
///
/// Every executed node gets an entry (DeltaPropagator::Seed checks the
/// capture is complete), but only the children of stateful operators —
/// project, union, intersect, difference, join, semi-join, aggregate —
/// keep their output relation, because only those seed propagator state;
/// every other entry, a scan fused into its filter included, carries the
/// flags alone. A kept output is not a copy: the stateful parent moves its
/// child's output in once it has built its own from it. Only an identity
/// projection, whose result is its child's output, copies it. Children of
/// a pruned/const-false node and of a common-subtree shadow occurrence
/// never execute, so they have no entries; DeltaPropagator reconstructs
/// them (empty results under a pruned ancestor, the primary occurrence's
/// state for shadows).
struct NodeCapture {
  struct Entry {
    /// The node's output; absent when no stateful parent reads it or the
    /// node was pruned (its output is then empty).
    std::optional<Relation> relation;
    bool pruned = false;  ///< expired-subtree prune or const-false elision
    bool reused = false;  ///< served from the common-subtree cache
  };
  std::map<uint32_t, Entry> nodes;
};

/// \brief Executes `plan` against `db` at time `tau`.
///
/// `options` are the execution-time EvalOptions (parallelism, aggregate
/// mode, validity) — usually the ones the plan was annotated with, but a
/// cached plan may be executed under different settings. When `profile`
/// is non-null it is resized to the plan and filled with per-node stats.
/// When `capture` is non-null every executed node is recorded in it, and
/// the outputs incremental maintenance seeds from move into it (see
/// NodeCapture).
Result<MaterializedResult> ExecutePlan(const PhysicalPlan& plan,
                                       const Database& db, Timestamp tau,
                                       const EvalOptions& options = {},
                                       PlanProfile* profile = nullptr,
                                       NodeCapture* capture = nullptr);

/// \brief Like ExecutePlan for plans whose root is a difference or
/// anti-join; additionally returns the Theorem 3 helper entries.
Result<DifferenceEvalResult> ExecutePlanDifferenceRoot(
    const PhysicalPlan& plan, const Database& db, Timestamp tau,
    const EvalOptions& options = {}, PlanProfile* profile = nullptr,
    NodeCapture* capture = nullptr);

}  // namespace plan
}  // namespace expdb

#endif  // EXPDB_PLAN_EXECUTOR_H_
