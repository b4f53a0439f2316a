// The execution capture is complete and exact.
//
// A stateful operator (π, ∪, ∩, −, ⋈, ⋉, φ) hands each child output it
// has consumed to the NodeCapture instead of the capture copying it when
// the child finishes. Whatever the route, every kept relation must equal
// the output of executing its subtree alone, rows and per-tuple texps;
// every executed child of a stateful operator must have one, unless it
// was pruned; and the plan's own result must not change. Covered: σ/⋈/
// π/φ/∪ plans, an identity projection (whose result is its child's
// output), a common-subtree shadow and a pruned subtree, serial and with
// four workers.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/expression.h"
#include "plan/executor.h"
#include "plan/planner.h"

namespace expdb {
namespace plan {
namespace {

using namespace algebra;  // NOLINT

constexpr Timestamp kNow(10);

bool SeedsFromChildren(PlanOp op) {
  switch (op) {
    case PlanOp::kProject:
    case PlanOp::kUnionMerge:
    case PlanOp::kHashIntersect:
    case PlanOp::kHashDifference:
    case PlanOp::kHashJoin:
    case PlanOp::kHashSemiJoin:
    case PlanOp::kHashAggregate:
      return true;
    default:
      return false;
  }
}

bool IsIdentityProject(const PlanNode& n) {
  if (n.op != PlanOp::kProject) return false;
  const std::vector<size_t>& attrs = n.expr->projection();
  if (attrs.size() != n.left->schema.arity()) return false;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i] != i) return false;
  }
  return true;
}

/// (a INT, <second> INT).
Schema Pair(const char* second) {
  return Schema({{"a", ValueType::kInt64}, {second, ValueType::kInt64}});
}

/// lo <= $col <= hi.
Predicate Between(size_t col, int64_t lo, int64_t hi) {
  Predicate above = Predicate::Compare(Operand::Column(col), ComparisonOp::kGe,
                                       Operand::Constant(Value(lo)));
  Predicate below = Predicate::Compare(Operand::Column(col), ComparisonOp::kLe,
                                       Operand::Constant(Value(hi)));
  return above.And(below);
}

class CaptureTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    Relation* r = db_.CreateRelation("R", Pair("b")).value();
    for (int64_t i = 0; i < 300; ++i) {
      Timestamp texp = Timestamp(5 + i % 40);
      if (i % 7 == 0) texp = Timestamp::Infinity();
      ASSERT_TRUE(r->Insert(Tuple{i % 17, i}, texp).ok());
    }
    Relation* s = db_.CreateRelation("S", Pair("c")).value();
    for (int64_t i = 0; i < 60; ++i) {
      ASSERT_TRUE(s->Insert(Tuple{i % 17, i % 4}, Timestamp(12 + i % 9)).ok());
    }
    // Expired before kNow: the planner prunes every subtree over it.
    Relation* gone = db_.CreateRelation("Gone", Pair("b")).value();
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(gone->Insert(Tuple{i, i}, Timestamp(1 + i % 5)).ok());
    }
    options_.parallelism = GetParam();
    options_.parallel_min_morsel = 8;
  }

  Result<PhysicalPlanPtr> PlanOf(const ExpressionPtr& e) {
    PlannerOptions popts;
    popts.eval = options_;
    return Planner::Plan(e, db_, popts);
  }

  /// `e`'s output executed on its own, without a capture.
  Relation RunAlone(const ExpressionPtr& e) {
    auto p = PlanOf(e);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    auto r = ExecutePlan(**p, db_, kNow, options_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r->relation);
  }

  /// Checks the capture entries of `n` (whose parent is `parent`) and of
  /// the nodes below it.
  void CheckNode(const PlanNode& n, const PlanNode* parent,
                 const NodeCapture& capture, bool under_pruned) {
    const std::string where = context_ + " node " + std::to_string(n.id);
    auto it = capture.nodes.find(n.id);
    if (under_pruned || n.const_false) {
      const bool kept = it != capture.nodes.end() && it->second.relation;
      EXPECT_FALSE(kept) << where;
      return;
    }
    ASSERT_NE(it, capture.nodes.end()) << where;
    const NodeCapture::Entry& e = it->second;
    const bool kept = parent != nullptr && SeedsFromChildren(parent->op);
    if (e.pruned) {
      ++pruned_;
      EXPECT_FALSE(e.relation.has_value()) << where;
      EXPECT_EQ(RunAlone(n.expr).CountUnexpiredAt(kNow), 0u) << where;
    } else if (!kept) {
      EXPECT_FALSE(e.relation.has_value()) << where;
    } else {
      ASSERT_TRUE(e.relation.has_value()) << where;
      const Relation alone = RunAlone(n.expr);
      if (n.per_group) {
        // A per-group aggregate emits only its groups' longest-lived rows
        // (PlanNode::per_group), so alone it emits more: every kept row
        // must be one of those, with the same texp.
        EXPECT_LE(e.relation->size(), alone.size()) << where;
        e.relation->ForEach([&](const Tuple& t, Timestamp texp) {
          EXPECT_EQ(alone.GetTexp(t), texp) << where << " " << t;
        });
      } else {
        EXPECT_EQ(e.relation->size(), alone.size()) << where;
        EXPECT_TRUE(Relation::EqualAt(*e.relation, alone, kNow)) << where;
      }
    }
    if (e.reused) ++reused_;
    if (IsIdentityProject(n)) ++identity_;
    // A shadow's children never execute; a pruned node's neither.
    const bool skip = under_pruned || e.pruned || e.reused;
    if (n.left != nullptr) CheckNode(*n.left, &n, capture, skip);
    if (n.right != nullptr) CheckNode(*n.right, &n, capture, skip);
  }

  void Check(const ExpressionPtr& e) {
    context_ = e->ToString();
    auto p = PlanOf(e);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    NodeCapture capture;
    auto with = ExecutePlan(**p, db_, kNow, options_, nullptr, &capture);
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    auto without = ExecutePlan(**p, db_, kNow, options_);
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    EXPECT_EQ(with->relation.size(), without->relation.size()) << context_;
    const Relation& got = with->relation;
    EXPECT_TRUE(Relation::EqualAt(got, without->relation, kNow)) << context_;
    EXPECT_EQ(with->texp, without->texp) << context_;
    CheckNode((*p)->root(), nullptr, capture, false);
  }

  Database db_;
  EvalOptions options_;
  std::string context_;
  int pruned_ = 0;
  int reused_ = 0;
  int identity_ = 0;
};

TEST_P(CaptureTest, FilterJoinProjectAggregateUnion) {
  const ExpressionPtr window = Select(Base("R"), Between(1, 30, 220));
  const Predicate on_a = Predicate::ColumnsEqual(0, 2);
  const ExpressionPtr joined = Join(window, Base("S"), on_a);
  const AggregateFunction count = AggregateFunction::Count();
  // π over ⋈ that produces duplicates (scan_read's join shape).
  Check(Project(joined, {0, 3}));
  Check(Aggregate(window, {0}, count));
  Check(Project(Aggregate(window, {0}, AggregateFunction::Sum(1)), {0, 2}));
  Check(Aggregate(Project(joined, {3, 1}), {0}, AggregateFunction::Max(1)));
  Check(Union(Project(window, {0}), Project(Base("S"), {0})));
  Check(Difference(Project(Base("R"), {0}), Project(Base("S"), {0})));
  Check(Intersect(Project(Base("R"), {0}), Project(Base("S"), {0})));
  Check(SemiJoin(window, Base("S"), on_a));
}

TEST_P(CaptureTest, IdentityProjectionKeepsItsChild) {
  const ExpressionPtr window = Select(Base("R"), Between(1, 10, 150));
  const ExpressionPtr later = Select(Base("R"), Between(1, 100, 280));
  // The identity π's child is kept for the π; the π's own output is kept
  // for the aggregate and the union above it.
  Check(Aggregate(Project(window, {0, 1}), {0}, AggregateFunction::Count()));
  Check(Union(Project(window, {0, 1}), later));
  EXPECT_GE(identity_, 2);
}

/// π_a(σ_{0 <= b <= 90}(R)), built afresh on every call.
ExpressionPtr LowWindow() {
  return Project(Select(Base("R"), Between(1, 0, 90)), {0});
}

TEST_P(CaptureTest, CommonSubtreeShadow) {
  Check(Union(LowWindow(), LowWindow()));
  Check(Join(LowWindow(), LowWindow(), Predicate::ColumnsEqual(0, 1)));
  EXPECT_GE(reused_, 2);
}

TEST_P(CaptureTest, PrunedSubtree) {
  const ExpressionPtr gone = Select(Base("Gone"), Between(1, 0, 10));
  Check(Union(Project(Base("Gone"), {0}), Project(Base("R"), {0})));
  Check(Join(gone, Base("S"), Predicate::ColumnsEqual(0, 2)));
  EXPECT_GE(pruned_, 2);
}

std::string WorkersName(const ::testing::TestParamInfo<size_t>& info) {
  return "workers" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Workers, CaptureTest, ::testing::Values(1, 4),
                         WorkersName);

}  // namespace
}  // namespace plan
}  // namespace expdb
