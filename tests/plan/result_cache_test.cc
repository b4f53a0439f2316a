// Two-tier cache regressions (plan layer): parameterized plan
// instantiation, result-cache hit/patch/miss outcomes, broken delta
// history (Relation::Clear), expiry passage, LRU byte-budget eviction,
// second-sighting admission, and propagator byte accounting.

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

  /// One Session-shaped execution of σ_{a >= arg}(R) at `now`: a lookup
  /// that must miss (recording a sighting of `key`), then execution with
  /// node capture and an Insert, which the cache stores only if `key` is
  /// admitted.
  void Fill(ResultCache* cache, const std::string& key, int64_t arg,
            Timestamp now) {
    FillPlan(cache, key, InstantiatePlan(ParamPlan(), {V(arg)}).value(), now);
  }

  /// Fill() for an arbitrary plan.
  void FillPlan(ResultCache* cache, const std::string& key,
                PhysicalPlanPtr plan, Timestamp now) {
    EXPECT_FALSE(cache->Lookup(key, db_, now).has_value()) << key;
    NodeCapture capture;
    MaterializedResult result =
        ExecutePlan(*plan, db_, now, plan->options().eval, nullptr, &capture)
            .value();
    cache->Insert(key, std::move(plan), &capture, std::move(result), db_, now);
  }

  PhysicalPlanPtr PlanOf(const ExpressionPtr& expr) {
    return Planner::Plan(expr, db_, PlannerOptions{}).value();
  }

  /// A key other than `key` that records into the same sighting slot.
  static std::string CollidingKey(const std::string& key) {
    for (int i = 0;; ++i) {
      std::string other = "c" + std::to_string(i);
      if (other != key &&
          ResultCache::SightingSlot(other) == ResultCache::SightingSlot(key)) {
        return other;
      }
    }
  }

  /// The rows a fresh execution of σ_{a >= arg}(R) returns at `now`.
  size_t FreshRows(int64_t arg, Timestamp now) {
    PhysicalPlanPtr bound = InstantiatePlan(ParamPlan(), {V(arg)}).value();
    MaterializedResult result = ExecutePlan(*bound, db_, now).value();
    return result.relation.CountUnexpiredAt(now);
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
  Fill(&cache, "k", 1, T(0));  // first sighting: rejected
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
  Fill(&cache, "k", 1, T(0));  // first sighting: rejected
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
  Fill(&cache, "k", 1, T(0));  // first sighting: rejected
  Fill(&cache, "k", 1, T(0));
  ASSERT_EQ(cache.stats().entries, 1u);
  const uint64_t misses0 = cache.stats().misses;
  Relation* r = db_.GetRelation("R").value();
  r->Clear();
  ASSERT_TRUE(r->Insert(Tuple{7}, Timestamp::Infinity()).ok());
  EXPECT_FALSE(cache.Lookup("k", db_, T(1)).has_value());
  EXPECT_EQ(cache.stats().misses - misses0, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);  // dropped, not retried forever
}

TEST_F(ResultCacheTest, RecreatedBaseMissesOnInstanceId) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));  // first sighting: rejected
  Fill(&cache, "k", 1, T(0));
  ASSERT_EQ(cache.stats().entries, 1u);
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
  // First and second sighting: the Insert below is admitted.
  EXPECT_FALSE(cache.Lookup("k", db_, T(0)).has_value());
  EXPECT_FALSE(cache.Lookup("k", db_, T(0)).has_value());
  cache.Insert("k", std::move(plan), &capture, std::move(result), db_,
               T(0));
  EXPECT_TRUE(cache.Lookup("k", db_, T(4)).has_value());
  EXPECT_FALSE(cache.Lookup("k", db_, T(6)).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST_F(ResultCacheTest, LruEvictionUnderByteBudget) {
  ResultCache cache;
  Fill(&cache, "k1", 1, T(0));  // first sighting: rejected
  Fill(&cache, "k1", 1, T(0));
  const size_t one_entry = cache.stats().bytes;
  ASSERT_GT(one_entry, 0u);
  cache.set_max_bytes(one_entry + one_entry / 2);  // room for one and a half
  Fill(&cache, "k2", 2, T(0));  // first sighting: rejected
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
// Writers look up before inserting, as a session does, so keys earn
// admission by their second sighting. Run under TSan in CI.
TEST_F(ResultCacheTest, ConcurrentInsertsAndLookupsKeepAccountingExact) {
  ResultCache cache;
  Fill(&cache, "probe", 1, T(0));  // first sighting: rejected
  Fill(&cache, "probe", 1, T(0));
  const size_t one_entry = cache.stats().bytes;
  ASSERT_GT(one_entry, 0u);
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
        // A hit still re-inserts: colliding writers replace each other.
        cache.Lookup(key_of(t, i), db_, T(0));
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

TEST_F(ResultCacheTest, FirstSightingIsRejected) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  // A rejected fill never reached the budget: nothing to evict.
  EXPECT_EQ(stats.evictions, 0u);
}

TEST_F(ResultCacheTest, SecondSightingIsAdmitted) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));
  Fill(&cache, "k", 1, T(0));
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  auto hit = cache.Lookup("k", db_, T(0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->relation.CountUnexpiredAt(T(0)), 3u);
  // A different key is a first sighting of its own.
  Fill(&cache, "other", 2, T(0));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().rejected, 2u);
}

// A miss that drops an existing entry admits the key at once: the next
// Insert is stored without a fresh second sighting, whether the entry
// lapsed, its base was re-created, or its base's history was Clear()'d.
// Each case first lets a colliding key overwrite the stored key's
// sighting slot, so only the drop itself can re-admit it.
TEST_F(ResultCacheTest, DroppedEntryIsReadmittedWithoutSecondSighting) {
  const std::string collider_d = CollidingKey("d");
  const std::string collider_k = CollidingKey("k");
  Relation* s =
      db_.CreateRelation("S", Schema({{"a", ValueType::kInt64}})).value();
  ASSERT_TRUE(s->Insert(Tuple{1}, T(5)).ok());
  const ExpressionPtr diff = Difference(Base("R"), Base("S"));

  {  // lapse: texp(R -exp S) = 5
    ResultCache cache;
    FillPlan(&cache, "d", PlanOf(diff), T(0));
    FillPlan(&cache, "d", PlanOf(diff), T(0));
    ASSERT_EQ(cache.stats().entries, 1u);
    EXPECT_FALSE(cache.Lookup(collider_d, db_, T(0)).has_value());
    FillPlan(&cache, "d", PlanOf(diff), T(6));  // misses on the lapse
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().rejected, 1u);
    auto hit = cache.Lookup("d", db_, T(6));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->relation.CountUnexpiredAt(T(6)), 3u);  // 1 reappeared
  }
  {  // Relation::Clear() breaks the delta history
    ResultCache cache;
    Fill(&cache, "k", 1, T(0));
    Fill(&cache, "k", 1, T(0));
    ASSERT_EQ(cache.stats().entries, 1u);
    EXPECT_FALSE(cache.Lookup(collider_k, db_, T(0)).has_value());
    Relation* r = db_.GetRelation("R").value();
    r->Clear();
    ASSERT_TRUE(r->Insert(Tuple{7}, Timestamp::Infinity()).ok());
    Fill(&cache, "k", 1, T(1));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().rejected, 1u);
    auto hit = cache.Lookup("k", db_, T(1));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->relation.CountUnexpiredAt(T(1)), 1u);
  }
  {  // the base is dropped and re-created under the same name
    ResultCache cache;
    Fill(&cache, "k", 1, T(1));
    Fill(&cache, "k", 1, T(1));
    ASSERT_EQ(cache.stats().entries, 1u);
    EXPECT_FALSE(cache.Lookup(collider_k, db_, T(1)).has_value());
    ASSERT_TRUE(db_.DropRelation("R").ok());
    Relation* r =
        db_.CreateRelation("R", Schema({{"a", ValueType::kInt64}})).value();
    ASSERT_TRUE(r->Insert(Tuple{8}, Timestamp::Infinity()).ok());
    ASSERT_TRUE(r->Insert(Tuple{9}, Timestamp::Infinity()).ok());
    Fill(&cache, "k", 1, T(1));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().rejected, 1u);
    auto hit = cache.Lookup("k", db_, T(1));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->relation.CountUnexpiredAt(T(1)), 2u);
  }
}

// An evicted key is re-admitted on its next miss, even after a colliding
// key overwrote its sighting slot.
TEST_F(ResultCacheTest, EvictedKeyIsReadmittedOnNextMiss) {
  ResultCache cache;
  Fill(&cache, "k1", 1, T(0));
  Fill(&cache, "k1", 1, T(0));
  EXPECT_FALSE(cache.Lookup(CollidingKey("k1"), db_, T(0)).has_value());
  cache.set_max_bytes(cache.stats().bytes + cache.stats().bytes / 2);
  Fill(&cache, "k2", 1, T(0));
  Fill(&cache, "k2", 1, T(0));  // evicts k1
  ASSERT_EQ(cache.stats().evictions, 1u);
  const uint64_t rejected0 = cache.stats().rejected;
  Fill(&cache, "k1", 1, T(0));  // one miss: stored again, evicting k2
  EXPECT_EQ(cache.stats().rejected, rejected0);
  EXPECT_TRUE(cache.Lookup("k1", db_, T(0)).has_value());
  EXPECT_EQ(cache.stats().evictions, 2u);
}

// Two keys sharing a sighting slot overwrite each other's first sighting.
// That only delays admission; each key still serves its own rows.
TEST_F(ResultCacheTest, SightingSlotCollisionOnlyDelaysAdmission) {
  const std::string a = "a";
  const std::string b = CollidingKey(a);
  ResultCache cache;
  Fill(&cache, a, 1, T(0));
  Fill(&cache, b, 3, T(0));  // overwrites a's first sighting
  Fill(&cache, a, 1, T(0));  // a first sighting again: rejected
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().rejected, 3u);
  Fill(&cache, a, 1, T(0));  // admitted
  Fill(&cache, b, 3, T(0));  // b was overwritten by a: rejected
  Fill(&cache, b, 3, T(0));  // admitted
  EXPECT_EQ(cache.stats().entries, 2u);
  auto hit_a = cache.Lookup(a, db_, T(0));
  auto hit_b = cache.Lookup(b, db_, T(0));
  ASSERT_TRUE(hit_a.has_value() && hit_b.has_value());
  EXPECT_EQ(hit_a->relation.CountUnexpiredAt(T(0)), FreshRows(1, T(0)));
  EXPECT_EQ(hit_b->relation.CountUnexpiredAt(T(0)), FreshRows(3, T(0)));
  EXPECT_NE(FreshRows(1, T(0)), FreshRows(3, T(0)));
}

// 4 threads record sightings (lookups on rotating keys) while 2 execute
// and insert the same keys, so admission reads race with sighting writes.
// Afterwards every decision is counted once and every live entry serves
// exactly its own key's rows. Run under TSan in CI.
TEST_F(ResultCacheTest, ConcurrentSightingsAndInsertsStayConsistent) {
  ResultCache cache;
  const PhysicalPlanPtr skeleton = ParamPlan();
  constexpr int kKeys = 12;
  constexpr int kIters = 200;
  auto arg_of = [](int k) { return 1 + k % 3; };
  auto key_of = [](int k) { return "key" + std::to_string(k); };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        cache.Lookup(key_of((t + i) % kKeys), db_, T(0));
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (t * 5 + i) % kKeys;
        PhysicalPlanPtr bound =
            InstantiatePlan(skeleton, {V(arg_of(k))}).value();
        NodeCapture capture;
        MaterializedResult result =
            ExecutePlan(*bound, db_, T(0), bound->options().eval, nullptr,
                        &capture)
                .value();
        cache.Insert(key_of(k), std::move(bound), &capture, std::move(result),
                     db_, T(0));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.admitted + stats.rejected, 2u * kIters);
  size_t live = 0;
  for (int k = 0; k < kKeys; ++k) {
    auto hit = cache.Lookup(key_of(k), db_, T(0));
    if (!hit.has_value()) continue;
    ++live;
    const size_t fresh = FreshRows(arg_of(k), T(0));
    EXPECT_EQ(hit->relation.CountUnexpiredAt(T(0)), fresh) << key_of(k);
  }
  EXPECT_EQ(live, stats.entries);
}

// The budget charges the propagator's auxiliary state, not only the
// result: join buckets and aggregate partitions push an entry's bytes
// past its result-only estimate.
TEST_F(ResultCacheTest, BudgetChargesPropagatorState) {
  const Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  Relation* s = db_.CreateRelation("S", schema).value();
  for (int64_t i = 1; i <= 3; ++i) {
    const Tuple t{i, "payload" + std::to_string(i)};
    ASSERT_TRUE(s->Insert(t, Timestamp::Infinity()).ok());
  }
  const Tuple extra{int64_t{4}, "payload4"};
  const ExpressionPtr join =
      Join(Base("R"), Base("S"), Predicate::ColumnsEqual(0, 1));
  const ExpressionPtr agg =
      Aggregate(Base("S"), {0}, AggregateFunction::Count());
  for (const ExpressionPtr& expr : {join, agg}) {
    ResultCache cache;
    FillPlan(&cache, "k", PlanOf(expr), T(0));
    FillPlan(&cache, "k", PlanOf(expr), T(0));
    ASSERT_EQ(cache.stats().entries, 1u) << expr->ToString();
    auto hit = cache.Lookup("k", db_, T(0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_GT(cache.stats().bytes, EstimateResultBytes(hit->relation))
        << expr->ToString();
    // A patch re-charges the grown state as well.
    const size_t before = cache.stats().bytes;
    ASSERT_TRUE(s->Insert(extra, Timestamp::Infinity()).ok());
    ASSERT_TRUE(cache.Lookup("k", db_, T(0)).has_value());
    EXPECT_EQ(cache.stats().patches, 1u);
    EXPECT_GT(cache.stats().bytes, before) << expr->ToString();
    ASSERT_TRUE(s->Erase(extra));
  }
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
