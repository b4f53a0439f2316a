// Plan caching regressions: a materialized view plans (and, when opted
// in, rewrites) exactly once no matter how many times it recomputes; a
// replica server plans at registration and serves every fetch from the
// cached plan. Verified through the process-wide plan metrics
// (expdb_plan_plans_total / _rewrite_passes_total / _cache_hits_total).

#include <gtest/gtest.h>

#include "core/expression.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "replica/server.h"
#include "view/materialized_view.h"

namespace expdb {
namespace {

using namespace algebra;  // NOLINT

Timestamp T(int64_t t) { return Timestamp(t); }

uint64_t Metric(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// R = {1, 2} (never expiring), S = {1 @5, 2 @9}: R −exp S is empty until
/// time 5, then grows a tuple at each of the two invalidation instants —
/// two eager maintenance recomputations by time 10.
class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation* r =
        db_.CreateRelation("R", Schema({{"a", ValueType::kInt64}})).value();
    ASSERT_TRUE(r->Insert(Tuple{1}, Timestamp::Infinity()).ok());
    ASSERT_TRUE(r->Insert(Tuple{2}, Timestamp::Infinity()).ok());
    Relation* s =
        db_.CreateRelation("S", Schema({{"a", ValueType::kInt64}})).value();
    ASSERT_TRUE(s->Insert(Tuple{1}, T(5)).ok());
    ASSERT_TRUE(s->Insert(Tuple{2}, T(9)).ok());
  }

  /// σ_{$1 >= 1}(R −exp S): the Select root gives the Sec. 3.1 rewriter
  /// something to do (select-through-difference).
  ExpressionPtr ViewExpr() const {
    return Select(Difference(Base("R"), Base("S")),
                  Predicate::Compare(Operand::Column(0), ComparisonOp::kGe,
                                     Operand::Constant(Value(int64_t{1}))));
  }

  Database db_;
};

TEST_F(PlanCacheTest, ViewRewritesOncePerPlanNotPerRecompute) {
  const uint64_t plans0 = Metric("expdb_plan_plans_total");
  const uint64_t rewrites0 = Metric("expdb_plan_rewrite_passes_total");
  const uint64_t hits0 = Metric("expdb_plan_cache_hits_total");

  MaterializedView::Options opts;
  opts.mode = RefreshMode::kEagerRecompute;
  opts.rewrite_plan = true;
  MaterializedView view(ViewExpr(), opts);
  ASSERT_TRUE(view.Initialize(db_, T(0)).ok());
  ASSERT_TRUE(view.AdvanceTo(db_, T(6)).ok());   // recompute at texp 5
  ASSERT_TRUE(view.AdvanceTo(db_, T(10)).ok());  // recompute at texp 9
  auto read = view.Read(db_, T(10));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->size(), 2u);  // both S tuples have expired

  // Maintenance recomputations (Initialize's first materialization is not
  // counted as maintenance): one per invalidation instant.
  const uint64_t recomputes = view.stats().recomputations;
  EXPECT_EQ(recomputes, 2u);

  // One plan, one rewrite pass — and every recomputation after the first
  // materialization was a cache hit. This is the regression the
  // cached-plan refactor bought: before it, the rewrite ran on every
  // recomputation.
  EXPECT_EQ(Metric("expdb_plan_plans_total") - plans0, 1u);
  EXPECT_EQ(Metric("expdb_plan_rewrite_passes_total") - rewrites0, 1u);
  EXPECT_EQ(Metric("expdb_plan_cache_hits_total") - hits0, recomputes);

  // The cached plan really is the rewritten one.
  ASSERT_NE(view.plan(), nullptr);
  EXPECT_EQ(view.plan()->rewrites().rule_applications.count(
                "select-through-difference"),
            1u);
}

TEST_F(PlanCacheTest, ViewWithoutOptInNeverRewrites) {
  const uint64_t rewrites0 = Metric("expdb_plan_rewrite_passes_total");

  MaterializedView::Options opts;
  opts.mode = RefreshMode::kEagerRecompute;  // rewrite_plan stays false
  MaterializedView view(ViewExpr(), opts);
  ASSERT_TRUE(view.Initialize(db_, T(0)).ok());
  ASSERT_TRUE(view.AdvanceTo(db_, T(10)).ok());

  EXPECT_EQ(Metric("expdb_plan_rewrite_passes_total") - rewrites0, 0u);
  ASSERT_NE(view.plan(), nullptr);
  EXPECT_EQ(view.plan()->rewrites().total(), 0u);
}

TEST_F(PlanCacheTest, MarkStaleReplansOnlyOnCardinalityDrift) {
  const uint64_t plans0 = Metric("expdb_plan_plans_total");
  const uint64_t replans0 = Metric("expdb_view_replans_total");

  // Without the delta path every stale round recomputes, and only a
  // recompute re-plans (a delta apply keeps the plan whatever the drift).
  MaterializedView::Options opts;
  opts.incremental = false;
  MaterializedView view(ViewExpr(), opts);
  ASSERT_TRUE(view.Initialize(db_, T(0)).ok());
  EXPECT_EQ(Metric("expdb_plan_plans_total") - plans0, 1u);

  // A stale round without cardinality drift keeps the cached plan: the
  // estimates behind the performance annotations are still within 2× of
  // the planned snapshot.
  view.MarkStale();
  EXPECT_NE(view.plan(), nullptr);
  ASSERT_TRUE(view.AdvanceTo(db_, T(1)).ok());
  EXPECT_EQ(Metric("expdb_plan_plans_total") - plans0, 1u);
  EXPECT_EQ(Metric("expdb_view_replans_total") - replans0, 0u);

  // Grow R to 2× its plan-time cardinality (2 → 4 tuples): the next
  // maintenance point re-plans and counts it.
  Relation* r = db_.GetRelation("R").value();
  ASSERT_TRUE(r->Insert(Tuple{3}, Timestamp::Infinity()).ok());
  ASSERT_TRUE(r->Insert(Tuple{4}, Timestamp::Infinity()).ok());
  view.MarkStale();
  ASSERT_TRUE(view.AdvanceTo(db_, T(2)).ok());
  EXPECT_EQ(Metric("expdb_plan_plans_total") - plans0, 2u);
  EXPECT_EQ(Metric("expdb_view_replans_total") - replans0, 1u);
  EXPECT_NE(view.plan(), nullptr);
}

TEST_F(PlanCacheTest, ReplicaServerServesFetchesFromTheCachedPlan) {
  ReplicationServer server(&db_);
  const uint64_t plans0 = Metric("expdb_plan_plans_total");
  const uint64_t hits0 = Metric("expdb_plan_cache_hits_total");

  ASSERT_TRUE(server.RegisterQuery("q", ViewExpr()).ok());
  EXPECT_EQ(Metric("expdb_plan_plans_total") - plans0, 1u);

  for (int i = 0; i < 3; ++i) {
    auto r = server.Fetch("q", T(6), nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->relation.size(), 1u);  // {1} reappeared at time 5
  }
  EXPECT_EQ(Metric("expdb_plan_plans_total") - plans0, 1u);
  EXPECT_EQ(Metric("expdb_plan_cache_hits_total") - hits0, 3u);
}

TEST_F(PlanCacheTest, ReplicaRegistrationValidatesAtPlanTime) {
  ReplicationServer server(&db_);
  // Unknown relation: the plan-time schema pass rejects it immediately.
  EXPECT_EQ(server.RegisterQuery("bad", Base("NoSuch")).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(server.HasQuery("bad"));

  ASSERT_TRUE(server.RegisterQuery("q", Base("R")).ok());
  EXPECT_EQ(server.RegisterQuery("q", Base("R")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(server.Fetch("nope", T(0), nullptr).status().code(),
            StatusCode::kNotFound);
}

TEST_F(PlanCacheTest, ReplicaHelperFetchUsesTheCachedDifferencePlan) {
  ReplicationServer server(&db_);
  ASSERT_TRUE(
      server.RegisterQuery("d", Difference(Base("R"), Base("S"))).ok());
  auto r = server.FetchWithHelper("d", T(0), nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Both R tuples outlive their S counterparts: two Theorem 3 criticals.
  EXPECT_EQ(r->helper.size(), 2u);

  // Non-difference roots keep the evaluator's exact error.
  ASSERT_TRUE(server.RegisterQuery("scan", Base("R")).ok());
  auto bad = server.FetchWithHelper("scan", T(0), nullptr);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace expdb
