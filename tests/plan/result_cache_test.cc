// Two-tier cache regressions (plan layer): parameterized plan
// instantiation, result-cache hit/patch/miss outcomes, broken delta
// history (Relation::Clear), expiry passage, and LRU byte-budget
// eviction.

#include "plan/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/expression.h"
#include "plan/executor.h"
#include "plan/planner.h"

namespace expdb {
namespace plan {
namespace {

using namespace algebra;  // NOLINT

Timestamp T(int64_t t) { return Timestamp(t); }

Value V(int64_t v) { return Value(v); }

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation* r =
        db_.CreateRelation("R", Schema({{"a", ValueType::kInt64}})).value();
    ASSERT_TRUE(r->Insert(Tuple{1}, T(10)).ok());
    ASSERT_TRUE(r->Insert(Tuple{2}, T(20)).ok());
    ASSERT_TRUE(r->Insert(Tuple{3}, Timestamp::Infinity()).ok());
  }

  /// σ_{a >= $1}(R): one parameter slot.
  ExpressionPtr ParamExpr() const {
    return Select(Base("R"),
                  Predicate::Compare(Operand::Column(0), ComparisonOp::kGe,
                                     Operand::Parameter(0)));
  }

  PhysicalPlanPtr ParamPlan() {
    return Planner::Plan(ParamExpr(), db_, PlannerOptions{}).value();
  }

  /// Executes σ_{a >= arg}(R) at `now` (capturing node state) and fills
  /// `cache` under `key`.
  void Fill(ResultCache* cache, const std::string& key, int64_t arg,
            Timestamp now) {
    PhysicalPlanPtr bound = InstantiatePlan(ParamPlan(), {V(arg)}).value();
    NodeCapture capture;
    MaterializedResult result =
        ExecutePlan(*bound, db_, now, bound->options().eval, nullptr,
                    &capture)
            .value();
    cache->Insert(key, std::move(bound), &capture, std::move(result), db_,
                  now);
  }

  Database db_;
};

TEST_F(ResultCacheTest, BindExpressionParameters) {
  ExpressionPtr expr = ParamExpr();
  EXPECT_EQ(ExpressionParameterCount(expr), 1u);
  auto bound = BindExpressionParameters(expr, {V(2)});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(ExpressionParameterCount(bound.value()), 0u);
  // A parameter index beyond the argument vector is an error, not UB.
  EXPECT_FALSE(BindExpressionParameters(expr, {}).ok());
}

TEST_F(ResultCacheTest, InstantiatePlanBindsArguments) {
  PhysicalPlanPtr skeleton = ParamPlan();
  auto ge2 = InstantiatePlan(skeleton, {V(2)});
  ASSERT_TRUE(ge2.ok()) << ge2.status().ToString();
  auto res2 = ExecutePlan(*ge2.value(), db_, T(0));
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ(res2->relation.size(), 2u);

  // The same skeleton instantiates again with different arguments.
  auto ge3 = InstantiatePlan(skeleton, {V(3)});
  ASSERT_TRUE(ge3.ok());
  auto res3 = ExecutePlan(*ge3.value(), db_, T(0));
  ASSERT_TRUE(res3.ok());
  EXPECT_EQ(res3->relation.size(), 1u);
}

TEST_F(ResultCacheTest, UnchangedBasesHit) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));
  auto hit = cache.Lookup("k", db_, T(5));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->relation.CountUnexpiredAt(T(5)), 3u);
  // In-place expiry: the same entry serves a later instant with fewer
  // live tuples (Theorems 1-2), still without execution.
  auto later = cache.Lookup("k", db_, T(15));
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(later->relation.CountUnexpiredAt(T(15)), 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().patches, 0u);
}

TEST_F(ResultCacheTest, DriftedCursorPatchesThroughDeltas) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));
  Relation* r = db_.GetRelation("R").value();
  ASSERT_TRUE(r->Insert(Tuple{4}, Timestamp::Infinity()).ok());
  auto hit = cache.Lookup("k", db_, T(5));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->relation.CountUnexpiredAt(T(5)), 4u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().patches, 1u);
  // The patch refreshed the cursors: the next lookup is a plain hit.
  ASSERT_TRUE(cache.Lookup("k", db_, T(6)).has_value());
  EXPECT_EQ(cache.stats().patches, 1u);
}

// Regression (issue satellite): Relation::Clear() breaks delta history —
// a cached result over the cleared base must invalidate, not serve the
// pre-Clear tuples.
TEST_F(ResultCacheTest, ClearedBaseInvalidatesInsteadOfServingStale) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));
  Relation* r = db_.GetRelation("R").value();
  r->Clear();
  ASSERT_TRUE(r->Insert(Tuple{7}, Timestamp::Infinity()).ok());
  EXPECT_FALSE(cache.Lookup("k", db_, T(1)).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);  // dropped, not retried forever
}

TEST_F(ResultCacheTest, RecreatedBaseMissesOnInstanceId) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));
  ASSERT_TRUE(db_.DropRelation("R").ok());
  Relation* r =
      db_.CreateRelation("R", Schema({{"a", ValueType::kInt64}})).value();
  ASSERT_TRUE(r->Insert(Tuple{9}, Timestamp::Infinity()).ok());
  EXPECT_FALSE(cache.Lookup("k", db_, T(1)).has_value());
}

TEST_F(ResultCacheTest, LapsedEntryMisses) {
  // R -exp S has a finite texp: tuple 1 of S expires at 5, so the cached
  // difference is only valid on [0, 5).
  Relation* s =
      db_.CreateRelation("S", Schema({{"a", ValueType::kInt64}})).value();
  ASSERT_TRUE(s->Insert(Tuple{1}, T(5)).ok());
  PhysicalPlanPtr plan =
      Planner::Plan(Difference(Base("R"), Base("S")), db_, PlannerOptions{})
          .value();
  NodeCapture capture;
  MaterializedResult result =
      ExecutePlan(*plan, db_, T(0), plan->options().eval, nullptr, &capture)
          .value();
  ASSERT_EQ(result.texp, T(5));
  ResultCache cache;
  cache.Insert("k", std::move(plan), &capture, std::move(result), db_,
               T(0));
  EXPECT_TRUE(cache.Lookup("k", db_, T(4)).has_value());
  EXPECT_FALSE(cache.Lookup("k", db_, T(6)).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST_F(ResultCacheTest, LruEvictionUnderByteBudget) {
  ResultCache cache;
  Fill(&cache, "k1", 1, T(0));
  const size_t one_entry = cache.stats().bytes;
  ASSERT_GT(one_entry, 0u);
  cache.set_max_bytes(one_entry + one_entry / 2);  // room for one and a half
  Fill(&cache, "k2", 2, T(0));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Lookup("k1", db_, T(1)).has_value());
  EXPECT_TRUE(cache.Lookup("k2", db_, T(1)).has_value());
}

TEST_F(ResultCacheTest, ZeroBudgetDisablesTheCache) {
  ResultCache cache;
  cache.set_max_bytes(0);
  EXPECT_FALSE(cache.enabled());
  Fill(&cache, "k", 1, T(0));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.Lookup("k", db_, T(1)).has_value());
}

// Insert builds its entry outside the cache mutex and only splices it in
// under it. 4 writers fill distinct and colliding keys under a budget
// that forces eviction while 2 readers look them up; afterwards the byte
// accounting must equal the live entries and no key may be linked twice.
// Run under TSan in CI.
TEST_F(ResultCacheTest, ConcurrentInsertsAndLookupsKeepAccountingExact) {
  ResultCache cache;
  Fill(&cache, "probe", 1, T(0));
  const size_t one_entry = cache.stats().bytes;
  cache.Clear();
  cache.set_max_bytes(4 * one_entry);  // room for ~4 of the 12 keys
  const PhysicalPlanPtr skeleton = ParamPlan();
  auto key_of = [](int t, int i) {
    // Even iterations collide across writers; odd ones are per writer.
    return i % 2 == 0 ? "shared" + std::to_string(i % 8)
                      : "own" + std::to_string(t) + "-" + std::to_string(i % 3);
  };
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kIters = 150;
  std::atomic<bool> writers_done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        PhysicalPlanPtr bound =
            InstantiatePlan(skeleton, {V(1 + (t + i) % 3)}).value();
        NodeCapture capture;
        MaterializedResult result =
            ExecutePlan(*bound, db_, T(0), bound->options().eval, nullptr,
                        &capture)
                .value();
        cache.Insert(key_of(t, i), std::move(bound), &capture,
                     std::move(result), db_, T(0));
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; !writers_done.load(); ++i) {
        cache.Lookup(key_of(t, i), db_, T(1));
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  writers_done.store(true);
  for (int t = kWriters; t < kWriters + kReaders; ++t) threads[t].join();

  ResultCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, stats.max_bytes);
  std::vector<std::string> keys;
  for (int i = 0; i < 8; i += 2) keys.push_back("shared" + std::to_string(i));
  for (int t = 0; t < kWriters; ++t) {
    for (int j = 0; j < 3; ++j) {
      keys.push_back("own" + std::to_string(t) + "-" + std::to_string(j));
    }
  }
  size_t live = 0, live_bytes = 0;
  for (const std::string& key : keys) {
    auto hit = cache.Lookup(key, db_, T(1));
    if (!hit.has_value()) continue;
    ++live;
    live_bytes += EstimateResultBytes(hit->relation);
  }
  stats = cache.stats();
  EXPECT_EQ(stats.entries, live);
  EXPECT_EQ(stats.bytes, live_bytes);
  // Evicting down to nothing walks the LRU list: a key linked twice, or
  // an LRU node without its entry, would leave bytes or entries behind.
  cache.set_max_bytes(1);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST_F(ResultCacheTest, StatementCacheLruAndInvalidation) {
  StatementCache cache(2);
  auto prepared = [&](const std::string& fp) {
    PreparedPlan p;
    p.plan = ParamPlan();
    p.param_count = 1;
    p.fingerprint = fp;
    return p;
  };
  cache.Insert("a", prepared("a"));
  cache.Insert("b", prepared("b"));
  EXPECT_TRUE(cache.Lookup("a").has_value());  // refreshes a over b
  cache.Insert("c", prepared("c"));            // evicts b (LRU)
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  // Every skeleton reads R: DDL on R empties the cache.
  cache.InvalidateBase("R");
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace plan
}  // namespace expdb
