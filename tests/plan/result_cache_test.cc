// Two-tier cache regressions (plan layer): parameterized plan
// instantiation, result-cache hit/patch/miss outcomes and their miss
// reasons, broken delta history (Relation::Clear), expiry passage, LRU
// byte-budget eviction, second-sighting admission, propagator and
// per-patch byte accounting, and per-entry locking under concurrent
// snapshot readers, a writer and budget churn.

#include "plan/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/expression.h"
#include "engine/engine.h"
#include "plan/executor.h"
#include "plan/planner.h"

namespace expdb {
namespace plan {
namespace {

using namespace algebra;  // NOLINT

Timestamp T(int64_t t) { return Timestamp(t); }

Value V(int64_t v) { return Value(v); }

/// Row i of the table W(a, s) and its expiration time.
Tuple WRow(int64_t i) { return Tuple{i, "payload" + std::to_string(i)}; }

Timestamp WTexp(int64_t i) {
  return i % 4 == 0 ? T(10 + i % 100) : Timestamp::Infinity();
}

/// The process counter of one miss reason.
uint64_t MissCounter(MissReason reason) {
  const std::string name = MissReasonName(reason);
  const std::string metric = "expdb_result_cache_misses_" + name + "_total";
  return obs::MetricsRegistry::Global().GetCounter(metric)->value();
}

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

  /// Expects the next lookup of "k" at `now` to miss for `reason` and drop
  /// the entry: counted once in the stats, once in the reason's counter,
  /// and the reasons still sum to the total.
  void ExpectMiss(ResultCache* cache, MissReason reason, Timestamp now) {
    SCOPED_TRACE(MissReasonName(reason));
    ASSERT_EQ(cache->stats().entries, 1u);
    const size_t r = static_cast<size_t>(reason);
    const ResultCache::Stats before = cache->stats();
    const uint64_t counted = MissCounter(reason);
    EXPECT_FALSE(cache->Lookup("k", db_, now).has_value());
    const ResultCache::Stats after = cache->stats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.misses_by_reason[r] - before.misses_by_reason[r], 1u);
    uint64_t sum = 0;
    for (uint64_t n : after.misses_by_reason) sum += n;
    EXPECT_EQ(sum, after.misses);
    EXPECT_EQ(MissCounter(reason) - counted, 1u);
    EXPECT_EQ(after.entries, 0u);
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

TEST_F(ResultCacheTest, HitCopiesOnlyTheRowsLiveAtNow) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));  // first sighting: rejected
  Fill(&cache, "k", 1, T(0));
  // The entry keeps all three rows; a hit at 15 hands back the two that
  // are still live, so the caller serves it without a second copy.
  auto hit = cache.Lookup("k", db_, T(15));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->relation.size(), 2u);
  EXPECT_FALSE(hit->relation.Contains(Tuple{1}));
  EXPECT_EQ(hit->texp, Timestamp::Infinity());
}

// Every miss exit counts its own reason once, the reasons sum to the
// total, and the reason's process counter moves.
TEST_F(ResultCacheTest, EachMissReasonIsCounted) {
  using Reason = MissReason;
  {
    ResultCache cache;
    const uint64_t counted = MissCounter(Reason::kAbsent);
    EXPECT_FALSE(cache.Lookup("k", db_, T(0)).has_value());
    EXPECT_EQ(cache.stats().misses_by_reason[0], 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(MissCounter(Reason::kAbsent) - counted, 1u);
  }
  const Schema schema = db_.GetRelation("R").value()->schema();
  {
    ResultCache cache;
    Fill(&cache, "k", 1, T(0));  // first sighting: rejected
    Fill(&cache, "k", 1, T(0));
    ASSERT_TRUE(db_.DropRelation("R").ok());
    ExpectMiss(&cache, Reason::kBaseGone, T(1));
  }
  Relation* r = db_.CreateRelation("R", schema).value();
  ASSERT_TRUE(r->Insert(Tuple{1}, T(10)).ok());
  {
    ResultCache cache;
    Fill(&cache, "k", 1, T(0));  // first sighting: rejected
    Fill(&cache, "k", 1, T(0));
    ASSERT_TRUE(db_.DropRelation("R").ok());
    r = db_.CreateRelation("R", schema).value();
    ASSERT_TRUE(r->Insert(Tuple{1}, T(10)).ok());
    ExpectMiss(&cache, Reason::kInstanceChurn, T(1));
  }
  {
    ResultCache cache;
    Fill(&cache, "k", 1, T(0));  // first sighting: rejected
    Fill(&cache, "k", 1, T(0));
    r->Clear();
    ASSERT_TRUE(r->Insert(Tuple{2}, T(20)).ok());
    ExpectMiss(&cache, Reason::kHistoryTrimmed, T(1));
  }
  {
    // Filled without a node capture: the entry has no propagator.
    ResultCache cache;
    PhysicalPlanPtr plan = InstantiatePlan(ParamPlan(), {V(1)}).value();
    for (int sighting = 0; sighting < 2; ++sighting) {
      EXPECT_FALSE(cache.Lookup("k", db_, T(0)).has_value());
      cache.Insert("k", plan, nullptr, ExecutePlan(*plan, db_, T(0)).value(),
                   db_, T(0));
    }
    ASSERT_TRUE(r->Insert(Tuple{5}, Timestamp::Infinity()).ok());
    ExpectMiss(&cache, Reason::kNoPropagator, T(1));
  }
  {
    // R -exp S is valid on [0, 5) while S's tuple 2 lives.
    Relation* s = db_.CreateRelation("S", schema).value();
    ASSERT_TRUE(s->Insert(Tuple{2}, T(5)).ok());
    ResultCache cache;
    FillPlan(&cache, "k", PlanOf(Difference(Base("R"), Base("S"))), T(0));
    FillPlan(&cache, "k", PlanOf(Difference(Base("R"), Base("S"))), T(0));
    ExpectMiss(&cache, Reason::kLapsed, T(6));
  }
  {
    // A group summing to INT64_MAX overflows once a row joins it: the
    // propagator's re-aggregation fails.
    const Schema pair({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
    Relation* u = db_.CreateRelation("U", pair).value();
    const int64_t max = std::numeric_limits<int64_t>::max();
    ASSERT_TRUE(u->Insert(Tuple{int64_t{1}, max}).ok());
    const ExpressionPtr sum =
        Aggregate(Base("U"), {0}, AggregateFunction::Sum(1));
    ResultCache cache;
    FillPlan(&cache, "k", PlanOf(sum), T(0));
    FillPlan(&cache, "k", PlanOf(sum), T(0));
    ASSERT_TRUE(u->Insert(Tuple{int64_t{1}, int64_t{1}}).ok());
    ExpectMiss(&cache, Reason::kPatchFailed, T(1));
  }
  {
    // A patch that grows its entry past the whole budget evicts the entry
    // itself, as Insert would have refused it.
    ResultCache cache;
    Fill(&cache, "k", 1, T(0));  // first sighting: rejected
    Fill(&cache, "k", 1, T(0));
    cache.set_max_bytes(cache.stats().bytes + 64);
    for (int64_t i = 10; i < 20; ++i) {
      ASSERT_TRUE(r->Insert(Tuple{i}, Timestamp::Infinity()).ok());
    }
    ExpectMiss(&cache, Reason::kEvictedByPatch, T(1));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().bytes, 0u);
  }
  // kLapsedAfterPatch guards the propagator's contract rather than a
  // known input: the propagator prunes members and criticals dead at
  // `now`, so a patch entered under `now < texp(e)` returns a later texp.
  EXPECT_STREQ(MissReasonName(Reason::kLapsedAfterPatch), "lapsed_after_patch");
}

// A patch charges its byte delta from the ops it applied, not a walk of
// the materialization. A mirror propagator seeded from the same capture
// replays every round, so after each INSERT, DELETE and ADVANCE the charge
// must equal a fresh estimate of the mirror plus its propagator state.
TEST_F(ResultCacheTest, PatchChargesTheBytesOfItsOps) {
  const Schema schema({{"a", ValueType::kInt64}, {"s", ValueType::kString}});
  Relation* w = db_.CreateRelation("W", schema).value();
  for (int64_t i = 0; i < 4096; ++i) {
    ASSERT_TRUE(w->Insert(WRow(i), WTexp(i)).ok());
  }
  // π_s(W): the projection keeps support state.
  const PhysicalPlanPtr plan = PlanOf(Project(Base("W"), {1}));
  ResultCache cache;
  EXPECT_FALSE(cache.Lookup("k", db_, T(0)).has_value());
  EXPECT_FALSE(cache.Lookup("k", db_, T(0)).has_value());
  NodeCapture capture;
  MaterializedResult result =
      ExecutePlan(*plan, db_, T(0), plan->options().eval, nullptr, &capture)
          .value();
  ASSERT_EQ(result.relation.size(), 4096u);
  Relation mirror = result.relation;
  std::unique_ptr<DeltaPropagator> mirror_prop =
      DeltaPropagator::Create(plan, capture, plan->options().eval);
  ASSERT_NE(mirror_prop, nullptr);
  uint64_t epoch = w->delta_epoch();
  cache.Insert("k", plan, &capture, std::move(result), db_, T(0));
  ASSERT_EQ(cache.stats().entries, 1u);

  int64_t next = 4096;
  Timestamp now = T(0);
  for (int round = 0; round < 9; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    if (round % 3 == 0) {  // INSERT
      for (int i = 0; i < 3; ++i, ++next) {
        ASSERT_TRUE(w->Insert(WRow(next), WTexp(next)).ok());
      }
    } else if (round % 3 == 1) {  // DELETE
      for (int64_t i = round; i < 4096; i += 701) w->Erase(WRow(i));
    } else {  // ADVANCE with an eager drain
      now = T(now.ticks() + 40);
      w->RemoveExpired(now, /*record_delta=*/true);
    }
    auto hit = cache.Lookup("k", db_, now);
    ASSERT_TRUE(hit.has_value());
    std::vector<BaseDelta> deltas;
    deltas.push_back({"W", w->DeltasSince(epoch).value()});
    epoch = w->delta_epoch();
    auto applied = mirror_prop->Apply(deltas, now);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    DeltaPropagator::ApplyOps(applied.value().root_ops, &mirror);
    EXPECT_EQ(cache.stats().bytes,
              EstimateResultBytes(mirror) + mirror_prop->EstimateBytes());
    EXPECT_EQ(hit->relation.SortedEntries(),
              mirror.UnexpiredAt(now).SortedEntries());
  }
  EXPECT_EQ(cache.stats().patches, 9u);
}

// Per-entry locking: 4 readers under Engine::Snapshot look up 3 keys (one
// hot), a writer INSERTs and DELETEs under WriteGuard, and a third thread
// flips the budget between tiny and roomy and Clear()s, so entries are
// evicted or replaced while lookups are in flight. Every served result
// must equal an uncached execution under the same snapshot, and the byte
// total must end equal to the live entries'. Run under TSan in CI.
TEST_F(ResultCacheTest, ConcurrentSameKeyPatchesServeRecomputation) {
  engine::Engine eng;
  Database& db = eng.db();
  {
    engine::Engine::ExclusiveGuard x = eng.LockExclusive();
    const Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
    Relation* r = db.CreateRelation("R", schema).value();
    for (int64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(r->Insert(Tuple{i, i % 10}, Timestamp::Infinity()).ok());
    }
  }
  ResultCache& cache = eng.result_cache();
  const PhysicalPlanPtr skeleton =
      Planner::Plan(ParamExpr(), db, PlannerOptions{}).value();
  const EvalOptions eval = skeleton->options().eval;
  const std::vector<int64_t> args = {0, 100, 150};  // args[0] is hot
  auto key_of = [](int64_t arg) { return "k" + std::to_string(arg); };
  const Timestamp now = eng.Now();
  // About one hot entry: under it, patches that grow an entry evict
  // others or the entry itself.
  const PhysicalPlanPtr hot = InstantiatePlan(skeleton, {V(0)}).value();
  const Relation hot_rows = ExecutePlan(*hot, db, now).value().relation;
  const size_t tiny = EstimateResultBytes(hot_rows);

  std::atomic<int> readers_left{4};
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 150; ++i) {
        // Out of the snapshot for a moment, so the writer gets in.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        const int64_t arg = args[(i + t) % 4 == 3 ? 1 + i % 2 : 0];
        const std::string key = key_of(arg);
        const PhysicalPlanPtr bound =
            InstantiatePlan(skeleton, {V(arg)}).value();
        engine::Engine::Snapshot snap = eng.OpenSnapshot({"R"});
        auto hit = cache.Lookup(key, db, now);
        NodeCapture capture;
        auto fresh = ExecutePlan(*bound, db, now, eval, nullptr, &capture);
        ASSERT_TRUE(fresh.ok());
        if (hit.has_value()) {
          ++served;
          const Relation expected = fresh->relation.UnexpiredAt(now);
          ASSERT_EQ(hit->relation.SortedEntries(), expected.SortedEntries());
        } else {
          cache.Insert(key, bound, &capture, fresh.MoveValue(), db, now);
        }
      }
      --readers_left;
    });
  }
  std::atomic<bool> churn_done{false};
  threads.emplace_back([&] {
    const size_t roomy = cache.max_bytes();
    for (int i = 0; !churn_done.load(); ++i) {
      cache.set_max_bytes(i % 3 == 0 ? tiny + tiny / 4 : roomy);
      if (i % 3 == 2) cache.Clear();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    cache.set_max_bytes(roomy);
  });
  {
    std::vector<int64_t> live;
    for (int64_t i = 0; i < 200; ++i) live.push_back(i);
    int64_t next = 200;
    for (int op = 0; readers_left.load() > 0; ++op) {
      std::this_thread::yield();
      engine::Engine::WriteGuard g = eng.LockWrite("R");
      Relation* r = db.GetRelation("R").value();
      if (op % 3 != 2) {
        ASSERT_TRUE(r->Insert(Tuple{next, next % 10}).ok());
        live.push_back(next++);
      } else {
        const size_t victim = (op * 7919) % live.size();
        ASSERT_TRUE(r->Erase(Tuple{live[victim], live[victim] % 10}));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
  }
  for (int t = 0; t < 4; ++t) threads[t].join();
  churn_done.store(true);
  threads[4].join();

  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(cache.stats().patches, 0u);
  // σ plans carry no propagator state, so an entry is charged exactly
  // its result's estimate.
  engine::Engine::Snapshot snap = eng.OpenSnapshot({"R"});
  size_t live_entries = 0, live_bytes = 0;
  for (int64_t arg : args) {
    auto hit = cache.Lookup(key_of(arg), db, now);
    if (!hit.has_value()) continue;
    ++live_entries;
    live_bytes += EstimateResultBytes(hit->relation);
  }
  EXPECT_EQ(cache.stats().entries, live_entries);
  EXPECT_EQ(cache.stats().bytes, live_bytes);
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
