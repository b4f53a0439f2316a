#include "relational/tuple.h"

#include <gtest/gtest.h>

#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

namespace expdb {
namespace {

TEST(TupleTest, ConstructionAndAccess) {
  Tuple t{1, 25};
  EXPECT_EQ(t.arity(), 2u);
  EXPECT_EQ(t.at(0), Value(1));
  EXPECT_EQ(t[1], Value(25));
}

TEST(TupleTest, Equality) {
  EXPECT_EQ((Tuple{1, 2}), (Tuple{1, 2}));
  EXPECT_NE((Tuple{1, 2}), (Tuple{2, 1}));
  EXPECT_NE((Tuple{1}), (Tuple{1, 2}));
  // Numeric equality crosses int/double.
  EXPECT_EQ((Tuple{1, 2.0}), (Tuple{1, 2}));
}

TEST(TupleTest, Concat) {
  EXPECT_EQ((Tuple{1, 2}.Concat(Tuple{3})), (Tuple{1, 2, 3}));
  EXPECT_EQ((Tuple{}.Concat(Tuple{1})), (Tuple{1}));
}

TEST(TupleTest, Project) {
  Tuple t{10, 20, 30};
  EXPECT_EQ(t.Project({2, 0}), (Tuple{30, 10}));
  EXPECT_EQ(t.Project({}), Tuple{});
  EXPECT_EQ(t.Project({1, 1}), (Tuple{20, 20}));
}

TEST(TupleTest, PrefixSuffix) {
  Tuple t{1, 2, 3, 4};
  EXPECT_EQ(t.Prefix(2), (Tuple{1, 2}));
  EXPECT_EQ(t.Suffix(2), (Tuple{3, 4}));
  EXPECT_EQ(t.Prefix(0), Tuple{});
  EXPECT_EQ(t.Suffix(4), Tuple{});
}

TEST(TupleTest, Append) {
  EXPECT_EQ((Tuple{1}.Append(Value(9))), (Tuple{1, 9}));
}

TEST(TupleTest, LexicographicOrder) {
  EXPECT_LT((Tuple{1, 2}), (Tuple{1, 3}));
  EXPECT_LT((Tuple{1, 2}), (Tuple{2, 0}));
  EXPECT_LT((Tuple{1}), (Tuple{1, 0}));  // prefix sorts first
  EXPECT_FALSE((Tuple{1, 2}) < (Tuple{1, 2}));
}

TEST(TupleTest, HashConsistentWithEquality) {
  EXPECT_EQ((Tuple{1, 2}).Hash(), (Tuple{1, 2}).Hash());
  EXPECT_EQ((Tuple{1, 2.0}).Hash(), (Tuple{1, 2}).Hash());
  std::unordered_set<Tuple> set;
  set.insert(Tuple{1, 2});
  set.insert(Tuple{1, 2});
  set.insert(Tuple{1.0, 2.0});
  EXPECT_EQ(set.size(), 1u);
}

TEST(TupleTest, ToStringUsesAngleBrackets) {
  EXPECT_EQ((Tuple{1, 25}).ToString(), "<1, 25>");
  EXPECT_EQ(Tuple{}.ToString(), "<>");
}


// --- the shared payload ---------------------------------------------------

TEST(TuplePayloadTest, CopiesShareOnePayload) {
  Tuple t{1, "two", 3.5};
  EXPECT_EQ(t.use_count(), 1);
  Tuple copy = t;
  Tuple assigned;
  assigned = copy;
  EXPECT_EQ(t.use_count(), 3);
  EXPECT_EQ(copy.values().data(), t.values().data());
  EXPECT_EQ(assigned.values().data(), t.values().data());
  EXPECT_EQ(assigned, t);
  EXPECT_EQ(assigned.Hash(), t.Hash());
  {
    Tuple scoped = t;
    EXPECT_EQ(t.use_count(), 4);
  }
  EXPECT_EQ(t.use_count(), 3);
}

TEST(TuplePayloadTest, MoveLeavesTheSourceValidAndEmpty) {
  Tuple t{7, 8};
  const size_t hash = t.Hash();
  const Value* payload = t.values().data();
  Tuple moved = std::move(t);
  EXPECT_EQ(moved.values().data(), payload);
  EXPECT_EQ(moved.use_count(), 1);
  EXPECT_EQ(moved.Hash(), hash);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is tested
  EXPECT_EQ(t.arity(), 0u);
  EXPECT_EQ(t, Tuple{});
  EXPECT_EQ(t.Hash(), Tuple{}.Hash());
  EXPECT_EQ(t.ToString(), "<>");

  Tuple target{1};
  target = std::move(moved);
  EXPECT_EQ(target, (Tuple{7, 8}));
  EXPECT_EQ(target.use_count(), 1);
  EXPECT_EQ(moved.arity(), 0u);  // NOLINT(bugprone-use-after-move)
  // A moved-from tuple takes new values like any other.
  moved = Tuple{9};
  EXPECT_EQ(moved, Tuple{9});
}

TEST(TuplePayloadTest, SelfAssignment) {
  Tuple t{1, "x"};
  Tuple& alias = t;
  t = alias;
  EXPECT_EQ(t, (Tuple{1, "x"}));
  EXPECT_EQ(t.use_count(), 1);
  t = std::move(alias);
  EXPECT_EQ(t, (Tuple{1, "x"}));
  EXPECT_EQ(t.use_count(), 1);
}

TEST(TuplePayloadTest, EmptyTuple) {
  const Tuple empty;
  EXPECT_EQ(empty.arity(), 0u);
  EXPECT_TRUE(empty.values().empty());
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_EQ(empty, Tuple(std::vector<Value>{}));
  EXPECT_EQ(empty.Hash(), Tuple(std::vector<Value>{}).Hash());
  EXPECT_EQ(empty.Hash(), Tuple{}.Concat(Tuple{}).Hash());
  EXPECT_EQ(empty.Hash(), (Tuple{1, 2}.Project({}).Hash()));
  EXPECT_EQ(empty.Hash(), (Tuple{1}.HashOfColumns({})));
  EXPECT_NE(empty.Hash(), Tuple{Value()}.Hash());
  EXPECT_NE(empty, Tuple{Value()});
}

/// The tuple built directly from `values`: what every derived tuple must
/// equal, hash included.
void ExpectBuiltFrom(const Tuple& derived, std::vector<Value> values) {
  const Tuple direct(std::move(values));
  EXPECT_EQ(derived, direct);
  EXPECT_EQ(derived.Hash(), direct.Hash());
  ASSERT_EQ(derived.arity(), direct.arity());
  for (size_t i = 0; i < direct.arity(); ++i) {
    EXPECT_EQ(derived[i].type(), direct[i].type()) << i;
    EXPECT_EQ(derived[i], direct[i]) << i;
  }
}

TEST(TuplePayloadTest, DerivedTuplesMatchTheirValueVectors) {
  const Tuple t{1, "bee", 2.5, Value(), int64_t{1} << 40};
  const Tuple u{"z", 9};
  ExpectBuiltFrom(t.Concat(u),
                  {1, "bee", 2.5, Value(), int64_t{1} << 40, "z", 9});
  ExpectBuiltFrom(u.Concat(t),
                  {"z", 9, 1, "bee", 2.5, Value(), int64_t{1} << 40});
  ExpectBuiltFrom(t.Concat(Tuple{}),
                  {1, "bee", 2.5, Value(), int64_t{1} << 40});
  ExpectBuiltFrom(t.Project({4, 1, 1, 0}), {int64_t{1} << 40, "bee", "bee", 1});
  ExpectBuiltFrom(t.Project({}), {});
  ExpectBuiltFrom(t.Append(Value("tail")),
                  {1, "bee", 2.5, Value(), int64_t{1} << 40, "tail"});
  ExpectBuiltFrom(Tuple{}.Append(Value(3)), {3});
  ExpectBuiltFrom(t.Prefix(2), {1, "bee"});
  ExpectBuiltFrom(t.Prefix(0), {});
  ExpectBuiltFrom(t.Suffix(3), {Value(), int64_t{1} << 40});
  ExpectBuiltFrom(t.Suffix(5), {});
  EXPECT_EQ(t.HashOfColumns({2, 0}), t.Project({2, 0}).Hash());
  // A derived tuple owns a payload of its own: the source keeps its own.
  EXPECT_EQ(t.use_count(), 1);
  EXPECT_NE(t.Prefix(5).values().data(), t.values().data());
}

TEST(TuplePayloadTest, ConcurrentCopiesAndDropsBalance) {
  // A few shared tuples, copied and dropped from a fixed number of
  // threads at once: the counts must come back exactly, so each payload
  // is freed once, by its last owner (the sanitizer jobs check the frees).
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  std::vector<Tuple> shared = {Tuple{1, "a"}, Tuple{2, 2.5},
                               Tuple{"long enough to live on the heap", 3}};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&shared, w] {
      std::vector<Tuple> held;
      for (int r = 0; r < kRounds; ++r) {
        const Tuple& source = shared[(w + r) % shared.size()];
        held.push_back(source);
        Tuple moved = std::move(held.back());
        held.back() = moved;
        if (held.size() > 16) held.erase(held.begin(), held.begin() + 8);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Tuple& t : shared) EXPECT_EQ(t.use_count(), 1) << t;

  // The last owner frees the payload even when it is not the first one.
  Tuple survivor;
  {
    Tuple first{5, "five"};
    survivor = first;
    EXPECT_EQ(survivor.use_count(), 2);
  }
  EXPECT_EQ(survivor.use_count(), 1);
  EXPECT_EQ(survivor, (Tuple{5, "five"}));
}

}  // namespace
}  // namespace expdb
