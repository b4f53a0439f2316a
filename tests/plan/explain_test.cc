// EXPLAIN rendering: golden physical-plan strings for representative
// plans, one golden per Sec. 3.1 rewrite rule (the rule name must appear
// in the plan header and the rewritten structure in the tree), profile
// rendering for EXPLAIN ANALYZE, and the SQL-level EXPLAIN [PLAN|ANALYZE]
// statements end to end.

#include <gtest/gtest.h>

#include "core/expression.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "plan/planner.h"
#include "sql/session.h"

namespace expdb {
namespace {

using namespace algebra;  // NOLINT
using plan::PhysicalPlanPtr;
using plan::Planner;
using plan::PlannerOptions;
using plan::PlanProfile;

Timestamp T(int64_t t) { return Timestamp(t); }

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation* r = db_.CreateRelation(
                         "R", Schema({{"a", ValueType::kInt64},
                                      {"b", ValueType::kInt64}}))
                      .value();
    ASSERT_TRUE(r->Insert(Tuple{1, 10}, T(5)).ok());
    ASSERT_TRUE(r->Insert(Tuple{2, 20}, T(10)).ok());
    ASSERT_TRUE(r->Insert(Tuple{3, 30}, Timestamp::Infinity()).ok());

    Relation* r2 = db_.CreateRelation(
                          "R2", Schema({{"a", ValueType::kInt64},
                                        {"b", ValueType::kInt64}}))
                       .value();
    ASSERT_TRUE(r2->Insert(Tuple{2, 20}, T(7)).ok());

    Relation* s = db_.CreateRelation(
                         "S", Schema({{"x", ValueType::kInt64},
                                      {"y", ValueType::kInt64}}))
                      .value();
    ASSERT_TRUE(s->Insert(Tuple{1, 10}, T(8)).ok());
  }

  PhysicalPlanPtr Plan(const ExpressionPtr& e, PlannerOptions opts = {}) {
    auto p = Planner::Plan(e, db_, opts);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return p.MoveValue();
  }

  /// Plans with the Sec. 3.1 rewrite pass enabled.
  PhysicalPlanPtr Rewritten(const ExpressionPtr& e) {
    PlannerOptions opts;
    opts.apply_rewrites = true;
    return Plan(e, opts);
  }

  Database db_;
};

// --- golden plan strings --------------------------------------------------

TEST_F(ExplainTest, GoldenFilterOverScan) {
  auto e = Select(Base("R"), Predicate::Compare(Operand::Column(1),
                                                ComparisonOp::kGe,
                                                Operand::Constant(
                                                    Value(int64_t{20}))));
  EXPECT_EQ(Plan(e)->ToString(),
            "PhysicalPlan nodes=2\n"
            "#1 Filter [$2 >= 20, est=1] [incremental]\n"
            "  #2 Scan [R, est=3] [incremental]\n");
}

TEST_F(ExplainTest, GoldenHashJoinShowsBuildSide) {
  auto e = Join(Base("R"), Base("S"), Predicate::ColumnsEqual(0, 2));
  // |R| = 3 > |S| = 1: build on the (smaller) right side.
  EXPECT_EQ(Plan(e)->ToString(),
            "PhysicalPlan nodes=3\n"
            "#1 HashJoin [$1 = $3, build=right, est=3] [incremental]\n"
            "  #2 Scan [R, est=3] [incremental]\n"
            "  #3 Scan [S, est=1] [incremental]\n");
}

TEST_F(ExplainTest, GoldenAggregateAndProject) {
  auto agg = Aggregate(Base("R"), {0}, AggregateFunction::Sum(1));
  EXPECT_EQ(Plan(agg)->ToString(),
            "PhysicalPlan nodes=2\n"
            "#1 HashAggregate [group=$1, f=sum_2, est=3] [incremental]\n"
            "  #2 Scan [R, est=3] [incremental]\n");

  auto proj = Project(Base("R"), {1, 0});
  EXPECT_EQ(Plan(proj)->ToString(),
            "PhysicalPlan nodes=2\n"
            "#1 Project [cols=$2,$1, est=3] [incremental]\n"
            "  #2 Scan [R, est=3] [incremental]\n");
}

TEST_F(ExplainTest, GoldenCommonSubtreeAnnotation) {
  auto shared =
      Select(Base("R"), Predicate::ColumnEquals(0, Value(int64_t{2})));
  auto e = Union(shared, shared);
  const std::string rendered = Plan(e)->ToString();
  // Both occurrences of the repeated subtree carry the same cse group.
  EXPECT_TRUE(Contains(rendered, "#2 Filter [$1 = 2, est=1, cse=#0]"))
      << rendered;
  EXPECT_TRUE(Contains(rendered, "#4 Filter [$1 = 2, est=1, cse=#0]"))
      << rendered;
}

// --- EXPLAIN ANALYZE profile rendering ------------------------------------

TEST_F(ExplainTest, AnalyzeRendersPerNodeStats) {
  auto e = Select(Base("R"), Predicate::Compare(Operand::Column(1),
                                                ComparisonOp::kGe,
                                                Operand::Constant(
                                                    Value(int64_t{20}))));
  PhysicalPlanPtr p = Plan(e);
  PlanProfile profile;
  auto result = plan::ExecutePlan(*p, db_, T(0), {}, &profile);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string rendered = p->ToString(&profile);
  EXPECT_TRUE(Contains(rendered, " total_time=")) << rendered;
  // Filter keeps {(2,20), (3,30)}. The scan skips the segment holding
  // only (1,10), whose column bounds cannot match, and feeds two tuples.
  EXPECT_TRUE(Contains(
      rendered, "#1 Filter [$2 >= 20, est=1] [incremental] (rows=2, "))
      << rendered;
  EXPECT_TRUE(
      Contains(rendered, "#2 Scan [R, est=3] [incremental] (rows=2, "))
      << rendered;
  EXPECT_TRUE(Contains(rendered, "[segments: 2/0/0, 1 skipped]")) << rendered;
  EXPECT_TRUE(Contains(rendered, "calls=1)")) << rendered;
}

TEST_F(ExplainTest, AnalyzeRendersSegmentPruning) {
  // R is segmented (CreateRelation default) with texps {5, 10, ∞} and the
  // default bucket width 8: segments [0,8), [8,16), ∞. Adding texp=12
  // makes the middle one a straddler at τ=10, so one execution shows all
  // three segment outcomes: ∞ fully live, [8,16) checked per-tuple,
  // [0,8) pruned without touching a tuple.
  Relation* r = db_.GetRelation("R").value();
  ASSERT_TRUE(r->Insert(Tuple{4, 40}, T(12)).ok());

  auto e = Base("R");
  PhysicalPlanPtr p = Plan(e);
  PlanProfile profile;
  auto result = plan::ExecutePlan(*p, db_, T(10), {}, &profile);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->relation.size(), 2u);  // {3,30}@inf and {4,40}@12
  const std::string rendered = p->ToString(&profile);
  EXPECT_TRUE(Contains(rendered, "(rows=2, ")) << rendered;
  EXPECT_TRUE(Contains(rendered, "[segments: 1/1/1]")) << rendered;

  // Plain EXPLAIN (no profile) never renders segment counters.
  EXPECT_FALSE(Contains(p->ToString(), "[segments:"));
}

TEST_F(ExplainTest, AnalyzeOmitsSegmentsForFlatRelations) {
  // Derived/scratch relations registered via PutRelation keep flat
  // storage; their scans are not partition-aware and must not render a
  // segment line even under ANALYZE.
  Relation flat(Schema({{"a", ValueType::kInt64}}));
  ASSERT_TRUE(flat.Insert(Tuple{1}, T(30)).ok());
  ASSERT_TRUE(db_.PutRelation("F", std::move(flat)).ok());

  auto e = Base("F");
  PhysicalPlanPtr p = Plan(e);
  PlanProfile profile;
  auto result = plan::ExecutePlan(*p, db_, T(0), {}, &profile);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string rendered = p->ToString(&profile);
  EXPECT_TRUE(Contains(rendered, "(rows=1, ")) << rendered;
  EXPECT_FALSE(Contains(rendered, "[segments:")) << rendered;
}

TEST_F(ExplainTest, AnalyzePerGroupCountEmitsOneRow) {
  // COUNT(*) sits under a projection onto its aggregate column, so the
  // aggregate emits one row for its one group instead of 4 096.
  sql::Session s;
  ASSERT_TRUE(s.Execute("CREATE TABLE t (k INT)").ok());
  Relation* t = s.db().GetRelation("t").value();
  for (int64_t i = 0; i < 4096; ++i) {
    ASSERT_TRUE(t->Insert(Tuple{i}, T(100 + i)).ok());
  }
  auto r = s.Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(Contains(r->message,
                       "#2 HashAggregate [group=, f=count, est=4096] "
                       "[per-group] [incremental] (rows=1, "))
      << r->message;
  EXPECT_TRUE(Contains(r->message, "#1 Project [cols=$2, est=4096] "
                                   "[incremental] (rows=1, "))
      << r->message;
}

// --- one golden per rewrite rule ------------------------------------------

TEST_F(ExplainTest, RewriteMergeSelects) {
  auto p2 = Predicate::Compare(Operand::Column(1), ComparisonOp::kGe,
                               Operand::Constant(Value(int64_t{20})));
  auto e = Select(Select(Base("R"), Predicate::ColumnEquals(
                                        0, Value(int64_t{2}))),
                  p2);
  EXPECT_EQ(Rewritten(e)->ToString(),
            "PhysicalPlan nodes=2 rewrites: merge-selectsx1\n"
            "#1 Filter [($1 = 2 and $2 >= 20), est=1] [incremental]\n"
            "  #2 Scan [R, est=3] [incremental]\n");
}

TEST_F(ExplainTest, RewriteSelectIntoJoin) {
  auto e = Select(Join(Base("R"), Base("S"), Predicate::ColumnsEqual(0, 2)),
                  Predicate::ColumnEquals(1, Value(int64_t{10})));
  const std::string rendered = Rewritten(e)->ToString();
  EXPECT_TRUE(Contains(rendered, "rewrites: select-into-joinx1"))
      << rendered;
  EXPECT_TRUE(Contains(rendered, "#1 HashJoin [($1 = $3 and $2 = 10)"))
      << rendered;
}

TEST_F(ExplainTest, RewriteSelectThroughSetOp) {
  auto e = Select(Union(Base("R"), Base("R2")),
                  Predicate::ColumnEquals(0, Value(int64_t{2})));
  const std::string rendered = Rewritten(e)->ToString();
  EXPECT_TRUE(Contains(rendered, "rewrites: select-through-set-opx1"))
      << rendered;
  // σp(l ∪ r) became σp(l) ∪ σp(r).
  EXPECT_TRUE(Contains(rendered, "#1 Union")) << rendered;
  EXPECT_TRUE(Contains(rendered, "#2 Filter [$1 = 2")) << rendered;
  EXPECT_TRUE(Contains(rendered, "#4 Filter [$1 = 2")) << rendered;
}

TEST_F(ExplainTest, RewriteSelectThroughDifference) {
  auto e = Select(Difference(Base("R"), Base("R2")),
                  Predicate::ColumnEquals(0, Value(int64_t{2})));
  const std::string rendered = Rewritten(e)->ToString();
  EXPECT_TRUE(
      Contains(rendered, "rewrites: select-through-differencex1"))
      << rendered;
  EXPECT_TRUE(Contains(rendered, "#1 HashDifference")) << rendered;
  EXPECT_TRUE(Contains(rendered, "#2 Filter [$1 = 2")) << rendered;
  EXPECT_TRUE(Contains(rendered, "#4 Filter [$1 = 2")) << rendered;
}

TEST_F(ExplainTest, RewriteSelectThroughProject) {
  auto e = Select(Project(Base("R"), {1}),
                  Predicate::ColumnEquals(0, Value(int64_t{20})));
  const std::string rendered = Rewritten(e)->ToString();
  EXPECT_TRUE(Contains(rendered, "rewrites: select-through-projectx1"))
      << rendered;
  // The selection moved below the projection, remapped to column b.
  EXPECT_TRUE(Contains(rendered, "#1 Project [cols=$2")) << rendered;
  EXPECT_TRUE(Contains(rendered, "#2 Filter [$2 = 20")) << rendered;
}

TEST_F(ExplainTest, RewriteSelectThroughAggregate) {
  auto e = Select(Aggregate(Base("R"), {0}, AggregateFunction::Sum(1)),
                  Predicate::ColumnEquals(0, Value(int64_t{2})));
  const std::string rendered = Rewritten(e)->ToString();
  EXPECT_TRUE(
      Contains(rendered, "rewrites: select-through-aggregatex1"))
      << rendered;
  EXPECT_TRUE(Contains(rendered, "#1 HashAggregate [group=$1, f=sum_2"))
      << rendered;
  EXPECT_TRUE(Contains(rendered, "#2 Filter [$1 = 2")) << rendered;
}

TEST_F(ExplainTest, RewriteProductToJoin) {
  // The only conjunct spans both sides: nothing pushable, but the cross
  // predicate still upgrades the product to a (hash-eligible) join.
  auto e = Select(Product(Base("R"), Base("S")),
                  Predicate::ColumnsEqual(0, 2));
  const std::string rendered = Rewritten(e)->ToString();
  EXPECT_TRUE(Contains(rendered, "rewrites: product-to-joinx1"))
      << rendered;
  EXPECT_TRUE(Contains(rendered, "#1 HashJoin [$1 = $3")) << rendered;
}

TEST_F(ExplainTest, RewriteSelectThroughProduct) {
  // One left-only conjunct plus one cross conjunct: the left conjunct is
  // pushed into R and the cross conjunct becomes the join predicate.
  auto p = Predicate::ColumnsEqual(0, 2).And(
      Predicate::ColumnEquals(1, Value(int64_t{10})));
  auto e = Select(Product(Base("R"), Base("S")), p);
  const std::string rendered = Rewritten(e)->ToString();
  EXPECT_TRUE(Contains(rendered, "select-through-productx1")) << rendered;
  EXPECT_TRUE(Contains(rendered, "#1 HashJoin [$1 = $3")) << rendered;
  EXPECT_TRUE(Contains(rendered, "Filter [$2 = 10")) << rendered;
}

TEST_F(ExplainTest, RewriteMergeProjects) {
  auto e = Project(Project(Base("R"), {1, 0}), {1});
  EXPECT_EQ(Rewritten(e)->ToString(),
            "PhysicalPlan nodes=2 rewrites: merge-projectsx1\n"
            "#1 Project [cols=$1, est=3] [incremental]\n"
            "  #2 Scan [R, est=3] [incremental]\n");
}

// --- SQL: EXPLAIN [PLAN | ANALYZE] SELECT ... -----------------------------

class SqlExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto script = session_.ExecuteScript(
        "CREATE TABLE t (x INT, y INT);"
        "INSERT INTO t VALUES (1, 10), (2, 20) TTL 5;"
        "INSERT INTO t VALUES (3, 30)");
    ASSERT_TRUE(script.ok()) << script.status().ToString();
  }

  std::string Explain(const std::string& stmt) {
    auto r = session_.Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << " -> " << r.status().ToString();
    return r.ok() ? r->message : std::string();
  }

  sql::Session session_;
};

TEST_F(SqlExplainTest, ExplainSelectRendersThePhysicalPlan) {
  const std::string rendered = Explain("EXPLAIN SELECT * FROM t");
  EXPECT_EQ(rendered.rfind("PhysicalPlan nodes=", 0), 0u) << rendered;
  EXPECT_TRUE(Contains(rendered, "Scan [t, est=3]")) << rendered;
}

TEST_F(SqlExplainTest, ExplainPlanIsTheExplicitSpelling) {
  EXPECT_EQ(Explain("EXPLAIN PLAN SELECT * FROM t"),
            Explain("EXPLAIN SELECT * FROM t"));
}

TEST_F(SqlExplainTest, ExplainAnalyzeAddsExecutionStats) {
  const std::string rendered =
      Explain("EXPLAIN ANALYZE SELECT x FROM t WHERE x >= 2");
  EXPECT_TRUE(Contains(rendered, " total_time=")) << rendered;
  EXPECT_TRUE(Contains(rendered, "(rows=")) << rendered;
  EXPECT_TRUE(Contains(rendered, "calls=1)")) << rendered;
  EXPECT_TRUE(Contains(rendered, "Scan [t")) << rendered;
}

TEST_F(SqlExplainTest, ExplainSeesTheSamePredicateAsTheSelect) {
  const std::string rendered = Explain("EXPLAIN SELECT * FROM t WHERE x = 2");
  EXPECT_TRUE(Contains(rendered, "Filter [$1 = 2")) << rendered;
}

TEST_F(SqlExplainTest, TwoTableJoinPushesSingleTableConjunctsDown) {
  Explain("CREATE TABLE u (x INT, z INT)");
  Explain("INSERT INTO u VALUES (1, 7), (2, 8)");
  // Left-only and right-only conjuncts filter their scans; the cross
  // equality alone stays on the join (and so covers its predicate).
  EXPECT_EQ(Explain("EXPLAIN SELECT t.y, u.z FROM t, u "
                    "WHERE t.x = u.x AND t.y >= 20 AND u.z < 8"),
            "PhysicalPlan nodes=6\n"
            "#1 Project [cols=$2,$4, est=1] [incremental]\n"
            "  #2 HashJoin [$1 = $3, build=right, est=1] [incremental]\n"
            "    #3 Filter [$2 >= 20, est=1] [incremental]\n"
            "      #4 Scan [t, est=3] [incremental]\n"
            "    #5 Filter [$2 < 8, est=1] [incremental]\n"
            "      #6 Scan [u, est=2] [incremental]\n");
  // A conjunct over both tables, OR included, stays a join conjunct.
  const std::string rendered = Explain(
      "EXPLAIN SELECT t.y FROM t, u WHERE t.x = u.x AND (t.y > 25 OR u.z = 7)");
  EXPECT_TRUE(Contains(rendered, "HashJoin [($1 = $3 and ($2 > 25 or $4 = 7))"))
      << rendered;
  EXPECT_FALSE(Contains(rendered, "Filter")) << rendered;
}

TEST_F(SqlExplainTest, ExplainAnalyzeFusedScanKeepsItsRowsAndSegments) {
  // The filter evaluates on the scan's borrowed segment entries; the scan
  // node still reports the live rows it examined and its segments.
  const std::string rendered =
      Explain("EXPLAIN ANALYZE SELECT * FROM t WHERE x >= 2");
  EXPECT_TRUE(Contains(rendered, "Filter [$1 >= 2, est=1] [incremental] "
                                 "(rows=2, "))
      << rendered;
  EXPECT_TRUE(Contains(rendered, "Scan [t, est=3] [incremental] (rows=3, "))
      << rendered;
  EXPECT_TRUE(Contains(rendered, "[segments: ")) << rendered;
}

TEST_F(SqlExplainTest, ExplainOverViewsPlansAgainstTheViewCatalog) {
  auto mk = session_.Execute(
      "CREATE VIEW v AS SELECT x FROM t WHERE x >= 2");
  ASSERT_TRUE(mk.ok()) << mk.status().ToString();
  const std::string rendered = Explain("EXPLAIN SELECT * FROM v");
  EXPECT_EQ(rendered.rfind("PhysicalPlan nodes=", 0), 0u) << rendered;
  EXPECT_TRUE(Contains(rendered, "Scan [v")) << rendered;
}

TEST_F(SqlExplainTest, ExplainRejectsNonSelectTargets) {
  auto r = session_.Execute("EXPLAIN DELETE FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Contains(r.status().ToString(), "EXPLAIN"))
      << r.status().ToString();
}

}  // namespace
}  // namespace expdb
