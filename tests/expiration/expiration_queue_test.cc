// Eager vs. lazy physical removal (paper Sec. 3.2): eager removes and
// fires triggers the moment tuples expire; lazy keeps them invisible and
// compacts in batches. Both must never let an expired tuple be observed.

#include "expiration/expiration_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.h"

namespace expdb {
namespace {

Timestamp T(int64_t t) { return Timestamp(t); }

Schema OneInt() { return Schema({{"x", ValueType::kInt64}}); }

TEST(ExpirationManagerTest, EagerRemovesOnAdvance) {
  ExpirationManager em;
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{1}, T(5)).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{2}, T(10)).ok());
  ASSERT_TRUE(em.AdvanceTo(T(5)).ok());
  const Relation* rel = em.db().GetRelation("t").value();
  EXPECT_EQ(rel->size(), 1u);  // <1> physically gone at its texp
  EXPECT_FALSE(rel->Contains(Tuple{1}));
  EXPECT_EQ(em.stats().removed, 1u);
}

TEST(ExpirationManagerTest, LazyKeepsInvisibleUntilCompaction) {
  ExpirationManagerOptions opts;
  opts.policy = RemovalPolicy::kLazy;
  opts.lazy_compaction_threshold = 0;  // manual compaction only
  ExpirationManager em(opts);
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{1}, T(5)).ok());
  ASSERT_TRUE(em.AdvanceTo(T(8)).ok());
  const Relation* rel = em.db().GetRelation("t").value();
  // Physically present but invisible through expτ.
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_EQ(rel->CountUnexpiredAt(em.Now()), 0u);
  // Compaction removes it.
  EXPECT_EQ(em.Compact(), 1u);
  EXPECT_EQ(rel->size(), 0u);
}

TEST(ExpirationManagerTest, LazyAutoCompactsPastThreshold) {
  ExpirationManagerOptions opts;
  opts.policy = RemovalPolicy::kLazy;
  opts.lazy_compaction_threshold = 0.4;
  ExpirationManager em(opts);
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(em.Insert("t", Tuple{i}, T(i < 5 ? 5 : 100)).ok());
  }
  // At time 5, half the table is expired (> 40%): auto-compaction.
  ASSERT_TRUE(em.AdvanceTo(T(5)).ok());
  EXPECT_EQ(em.db().GetRelation("t").value()->size(), 5u);
  EXPECT_GE(em.stats().compactions, 1u);

  // Below the threshold at one advance (30% expired at time 10), past it
  // three ticks later (50% at 13): the threshold is checked at every
  // advance, so the second one compacts.
  ASSERT_TRUE(em.CreateRelation("u", OneInt()).ok());
  for (int i = 0; i < 10; ++i) {
    const Timestamp texp = T(i < 3 ? 10 : i < 5 ? 13 : 100);
    ASSERT_TRUE(em.Insert("u", Tuple{i}, texp).ok());
  }
  const Relation* u = em.db().GetRelation("u").value();
  ASSERT_TRUE(em.AdvanceTo(T(10)).ok());
  EXPECT_EQ(u->size(), 10u);
  ASSERT_TRUE(em.AdvanceTo(T(13)).ok());
  EXPECT_EQ(u->size(), 5u);
}

TEST(ExpirationManagerTest, TriggersFireInExpirationOrder) {
  ExpirationManager em;
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{3}, T(9)).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{1}, T(4)).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{2}, T(6)).ok());
  std::vector<std::pair<Tuple, Timestamp>> fired;
  em.AddTrigger([&](const ExpirationEvent& e) {
    fired.emplace_back(e.tuple, e.texp);
    EXPECT_EQ(e.relation, "t");
  });
  ASSERT_TRUE(em.AdvanceTo(T(10)).ok());
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].first, Tuple{1});
  EXPECT_EQ(fired[1].first, Tuple{2});
  EXPECT_EQ(fired[2].first, Tuple{3});
  EXPECT_EQ(em.stats().triggers_fired, 3u);
}

TEST(ExpirationManagerTest, LazyTriggersFireAtCompaction) {
  ExpirationManagerOptions opts;
  opts.policy = RemovalPolicy::kLazy;
  opts.lazy_compaction_threshold = 0;
  ExpirationManager em(opts);
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{2}, T(6)).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{1}, T(4)).ok());
  std::vector<Tuple> fired;
  em.AddTrigger([&](const ExpirationEvent& e) { fired.push_back(e.tuple); });
  ASSERT_TRUE(em.AdvanceTo(T(10)).ok());
  EXPECT_TRUE(fired.empty());  // deferred
  em.Compact();
  // Still in expiration order within the batch.
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], Tuple{1});
  EXPECT_EQ(fired[1], Tuple{2});
}

TEST(ExpirationManagerTest, StaleHeapEntriesAfterLifetimeExtension) {
  ExpirationManager em;
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{1}, T(5)).ok());
  // Re-insert with a longer lifetime: relation keeps max texp = 12.
  ASSERT_TRUE(em.Insert("t", Tuple{1}, T(12)).ok());
  ASSERT_TRUE(em.AdvanceTo(T(6)).ok());
  // The original @5 lifetime is gone; the tuple must survive.
  EXPECT_TRUE(em.db().GetRelation("t").value()->Contains(Tuple{1}));
  ASSERT_TRUE(em.AdvanceTo(T(12)).ok());
  EXPECT_FALSE(em.db().GetRelation("t").value()->Contains(Tuple{1}));
}

TEST(ExpirationManagerTest, StaleHeapEntriesAfterErase) {
  ExpirationManager em;
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{1}, T(5)).ok());
  em.db().GetRelation("t").value()->Erase(Tuple{1});
  size_t fired = 0;
  em.AddTrigger([&](const ExpirationEvent&) { ++fired; });
  ASSERT_TRUE(em.AdvanceTo(T(6)).ok());
  EXPECT_EQ(fired, 0u);  // no ghost trigger for the erased tuple
}

TEST(ExpirationManagerTest, InsertRejectsPastExpiration) {
  ExpirationManager em;
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  ASSERT_TRUE(em.AdvanceTo(T(10)).ok());
  EXPECT_EQ(em.Insert("t", Tuple{1}, T(10)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(em.Insert("t", Tuple{1}, T(3)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(em.Insert("t", Tuple{1}, T(11)).ok());
}

TEST(ExpirationManagerTest, InsertWithTtl) {
  ExpirationManager em;
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  ASSERT_TRUE(em.AdvanceTo(T(5)).ok());
  ASSERT_TRUE(em.InsertWithTtl("t", Tuple{1}, 7).ok());
  EXPECT_EQ(em.db().GetRelation("t").value()->GetTexp(Tuple{1}), T(12));
  EXPECT_EQ(em.InsertWithTtl("t", Tuple{2}, 0).code(),
            StatusCode::kInvalidArgument);
}

TEST(ExpirationManagerTest, InfiniteTuplesNeverEnterTheQueue) {
  ExpirationManager em;
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{1}, Timestamp::Infinity()).ok());
  ASSERT_TRUE(em.AdvanceTo(T(1'000'000)).ok());
  EXPECT_TRUE(em.db().GetRelation("t").value()->Contains(Tuple{1}));
}

// The segments are the index: a tuple stored without going through the
// manager is drained (and its trigger fired) like any other.
TEST(ExpirationManagerTest, EagerRemovesTuplesInsertedPastTheManager) {
  ExpirationManager em;
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  Relation* rel = em.db().GetRelation("t").value();
  ASSERT_TRUE(rel->Insert(Tuple{7}, T(5)).ok());
  ASSERT_TRUE(rel->Insert(Tuple{8}, T(50)).ok());
  std::vector<Tuple> fired;
  em.AddTrigger([&](const ExpirationEvent& e) { fired.push_back(e.tuple); });
  ASSERT_TRUE(em.AdvanceTo(T(6)).ok());
  EXPECT_FALSE(rel->Contains(Tuple{7}));
  EXPECT_TRUE(rel->Contains(Tuple{8}));
  EXPECT_EQ(fired, std::vector<Tuple>{Tuple{7}});
  EXPECT_EQ(em.stats().removed, 1u);
}

// An eager advance tells delta consumers once: k expired tuples are one
// delete batch in one epoch, in expiration order.
TEST(ExpirationManagerTest, EagerDrainIsOneDeltaBatch) {
  ExpirationManager em;
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  Relation* rel = em.db().GetRelation("t").value();
  rel->EnableDeltaTracking();
  ASSERT_TRUE(em.Insert("t", Tuple{3}, T(4)).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{1}, T(2)).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{2}, T(4)).ok());
  ASSERT_TRUE(em.Insert("t", Tuple{9}, T(100)).ok());
  const uint64_t epoch = rel->delta_epoch();
  ASSERT_TRUE(em.AdvanceTo(T(10)).ok());
  EXPECT_EQ(rel->delta_epoch(), epoch + 1);
  auto batches = rel->DeltasSince(epoch);
  ASSERT_TRUE(batches.has_value());
  ASSERT_EQ(batches->size(), 1u);
  const Relation::DeltaBatch& b = batches->front();
  EXPECT_TRUE(b.inserted.empty());
  ASSERT_EQ(b.deleted.size(), 3u);
  EXPECT_EQ(b.deleted[0].tuple, Tuple{1});
  EXPECT_EQ(b.deleted[0].texp, T(2));
  EXPECT_EQ(b.deleted[1].tuple, Tuple{2});
  EXPECT_EQ(b.deleted[2].tuple, Tuple{3});
  EXPECT_EQ(rel->size(), 1u);
  // An advance that expires nothing records nothing.
  ASSERT_TRUE(em.AdvanceTo(T(20)).ok());
  EXPECT_EQ(rel->delta_epoch(), epoch + 1);
}

// With a trigger registered, the drain both fires and records: the fired
// (texp, tuple) sequence is exactly the batch's `deleted` sequence.
TEST(ExpirationManagerTest, EagerDrainWithTriggerFiresTheDeltaBatch) {
  ExpirationManager em;
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  Relation* rel = em.db().GetRelation("t").value();
  rel->EnableDeltaTracking();
  std::vector<Relation::Entry> fired;
  em.AddTrigger(
      [&](const ExpirationEvent& e) { fired.push_back({e.tuple, e.texp}); });
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(em.Insert("t", Tuple{(i * 7) % 40}, T(1 + i % 25)).ok());
  }
  const uint64_t epoch = rel->delta_epoch();
  ASSERT_TRUE(em.AdvanceTo(T(12)).ok());
  auto batches = rel->DeltasSince(epoch);
  ASSERT_TRUE(batches.has_value());
  ASSERT_EQ(batches->size(), 1u);
  const std::vector<Relation::Entry>& deleted = batches->front().deleted;
  ASSERT_EQ(fired.size(), deleted.size());
  ASSERT_FALSE(fired.empty());
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].texp, deleted[i].texp) << i;
    EXPECT_EQ(fired[i].tuple, deleted[i].tuple) << i;
  }
  EXPECT_EQ(rel->size(), 40u - fired.size());
}

using Fired = std::tuple<Timestamp, std::string, Tuple, Timestamp>;

// Two relations, one multi-tick advance (or compaction): triggers fire in
// (texp, relation, tuple) order across both relations.
std::vector<Fired> FireAcrossRelations(RemovalPolicy policy) {
  ExpirationManagerOptions opts;
  opts.policy = policy;
  opts.lazy_compaction_threshold = 0;
  ExpirationManager em(opts);
  EXPECT_TRUE(em.CreateRelation("a", OneInt()).ok());
  EXPECT_TRUE(em.CreateRelation("b", OneInt()).ok());
  EXPECT_TRUE(em.Insert("b", Tuple{1}, T(3)).ok());
  EXPECT_TRUE(em.Insert("a", Tuple{2}, T(3)).ok());
  EXPECT_TRUE(em.Insert("a", Tuple{1}, T(5)).ok());
  EXPECT_TRUE(em.Insert("b", Tuple{0}, T(5)).ok());
  EXPECT_TRUE(em.Insert("a", Tuple{0}, T(3)).ok());
  EXPECT_TRUE(em.Insert("b", Tuple{5}, T(50)).ok());
  std::vector<Fired> fired;
  em.AddTrigger([&](const ExpirationEvent& e) {
    fired.emplace_back(e.texp, e.relation, e.tuple, e.removed_at);
  });
  EXPECT_TRUE(em.AdvanceTo(T(10)).ok());
  if (policy == RemovalPolicy::kLazy) {
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(em.Compact(), 5u);
  }
  return fired;
}

TEST(ExpirationManagerTest, EagerTriggersFireInTexpRelationTupleOrder) {
  std::vector<Fired> expected;
  expected.emplace_back(T(3), "a", Tuple{0}, T(3));
  expected.emplace_back(T(3), "a", Tuple{2}, T(3));
  expected.emplace_back(T(3), "b", Tuple{1}, T(3));
  expected.emplace_back(T(5), "a", Tuple{1}, T(5));
  expected.emplace_back(T(5), "b", Tuple{0}, T(5));
  EXPECT_EQ(FireAcrossRelations(RemovalPolicy::kEager), expected);
}

TEST(ExpirationManagerTest, LazyCompactionFiresTheSameSequenceAtNow) {
  std::vector<Fired> expected = FireAcrossRelations(RemovalPolicy::kEager);
  for (Fired& f : expected) std::get<3>(f) = T(10);  // removed_at == now
  EXPECT_EQ(FireAcrossRelations(RemovalPolicy::kLazy), expected);
}

// A 200-tuple stream drained over many advances fires exactly the stream
// sorted by texp, except the tuple whose lifetime was extended past the
// run: it never fires and stays stored.
TEST(ExpirationManagerTest, StreamFiresInTexpOrder) {
  ExpirationManager em;
  ASSERT_TRUE(em.CreateRelation("t", OneInt()).ok());
  std::vector<std::pair<Tuple, Timestamp>> fired;
  em.AddTrigger(
      [&](const ExpirationEvent& e) { fired.emplace_back(e.tuple, e.texp); });
  Rng rng(99);
  std::vector<std::pair<Timestamp, Tuple>> stream;
  for (int i = 0; i < 200; ++i) {
    const Timestamp texp(1 + rng.UniformInt(0, 50));
    ASSERT_TRUE(em.Insert("t", Tuple{i}, texp).ok());
    if (i != 0) stream.emplace_back(texp, Tuple{i});
  }
  ASSERT_TRUE(em.Insert("t", Tuple{0}, T(200)).ok());
  for (int64_t t = 5; t <= 60; t += 5) {
    ASSERT_TRUE(em.AdvanceTo(T(t)).ok());
  }
  std::sort(stream.begin(), stream.end());
  std::vector<std::pair<Tuple, Timestamp>> expected;
  for (const auto& [texp, tuple] : stream) expected.emplace_back(tuple, texp);
  EXPECT_EQ(fired, expected);
  const Relation* rel = em.db().GetRelation("t").value();
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_TRUE(rel->Contains(Tuple{0}));
}

TEST(ExpirationManagerTest, TimeCannotMoveBackwards) {
  ExpirationManager em;
  ASSERT_TRUE(em.AdvanceTo(T(5)).ok());
  EXPECT_FALSE(em.AdvanceTo(T(4)).ok());
  EXPECT_FALSE(em.Advance(-1).ok());
}

TEST(ExpirationManagerTest, EagerAndLazyConvergeToSameVisibleState) {
  auto run = [](RemovalPolicy policy) {
    ExpirationManagerOptions opts;
    opts.policy = policy;
    ExpirationManager em(opts);
    EXPECT_TRUE(em.CreateRelation("t", OneInt()).ok());
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(em.Insert("t", Tuple{i}, T(1 + (i * 7) % 20)).ok());
    }
    std::vector<Tuple> visible;
    EXPECT_TRUE(em.AdvanceTo(T(10)).ok());
    em.db().GetRelation("t").value()->ForEachUnexpired(
        em.Now(), [&](const Tuple& t, Timestamp) { visible.push_back(t); });
    std::sort(visible.begin(), visible.end());
    return visible;
  };
  EXPECT_EQ(run(RemovalPolicy::kEager), run(RemovalPolicy::kLazy));
}

}  // namespace
}  // namespace expdb
