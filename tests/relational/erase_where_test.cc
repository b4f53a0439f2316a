// Relation::EraseWhere (the SQL DELETE) against the row-at-a-time loop it
// replaced, kept here as the reference: copy every entry sorted by tuple,
// skip the expired ones, evaluate the predicate, Erase each match. Seeded
// random relations — segmented (column bounds known, or forgotten on one
// column that mixes Int64 and Double) and flat, finite and ∞ texps — meet
// random =, <, >=, range and ∧/∨ predicates at τ before, inside and after
// the stored texps. Both must leave the same survivors with the same
// texps and remove the same tuples; EraseWhere records them as exactly
// one delete batch, and records nothing when nothing matched.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/predicate.h"
#include "relational/relation.h"

namespace expdb {
namespace {

using Entries = std::vector<std::pair<Tuple, Timestamp>>;

Schema ThreeCols() {
  return Schema({{"a", ValueType::kInt64},
                 {"b", ValueType::kDouble},
                 {"c", ValueType::kString}});
}

enum class Layout { kSegmented, kMixedColumn, kFlat };

std::string LayoutName(Layout l) {
  switch (l) {
    case Layout::kSegmented:
      return "segmented";
    case Layout::kMixedColumn:
      return "segmented, b mixes Int64/Double";
    case Layout::kFlat:
      return "flat";
  }
  return "?";
}

/// A tracked relation of ~`n` rows; the same seed builds the same relation.
/// Finite texps lie in [1, 200]; one row in eight never expires.
Relation Build(uint64_t seed, Layout layout, size_t n) {
  Rng rng(seed);
  Relation r(ThreeCols());
  if (layout != Layout::kFlat) r.SetSegmented({/*bucket_width=*/4, 16});
  for (size_t i = 0; i < n; ++i) {
    const int64_t a = rng.UniformInt(0, 99);
    // With kMixedColumn, some b values stay Int64 (InsertUnchecked skips
    // the coercion), so that column's segment bounds are unknown.
    Value b = layout == Layout::kMixedColumn && rng.Bernoulli(0.2)
                  ? Value(rng.UniformInt(0, 20))
                  : Value(static_cast<double>(rng.UniformInt(0, 80)) / 4);
    Tuple t{Value(a), std::move(b),
            Value("s" + std::to_string(rng.UniformInt(0, 9)))};
    const Timestamp texp = rng.Bernoulli(0.125)
                               ? Timestamp::Infinity()
                               : Timestamp(rng.UniformInt(1, 200));
    r.InsertUnchecked(std::move(t), texp);
  }
  r.EnableDeltaTracking();
  return r;
}

/// One comparison of a random column against a constant of its domain.
Predicate RandomLeaf(Rng& rng) {
  static constexpr ComparisonOp kOps[] = {ComparisonOp::kEq, ComparisonOp::kLt,
                                          ComparisonOp::kGe, ComparisonOp::kLe,
                                          ComparisonOp::kGt, ComparisonOp::kNe};
  const ComparisonOp op = kOps[rng.UniformInt(0, 5)];
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return Predicate::Compare(Operand::Column(0), op,
                                Operand::Constant(Value(rng.UniformInt(0, 99))));
    case 1:
      return Predicate::Compare(
          Operand::Column(1), op,
          Operand::Constant(
              Value(static_cast<double>(rng.UniformInt(0, 80)) / 4)));
    case 2:
      return Predicate::Compare(
          Operand::Column(2), op,
          Operand::Constant(Value("s" + std::to_string(rng.UniformInt(0, 9)))));
    default: {
      // A range on a: lo <= a < hi.
      const int64_t lo = rng.UniformInt(0, 99);
      const int64_t hi = lo + rng.UniformInt(1, 30);
      return Predicate::Compare(Operand::Column(0), ComparisonOp::kGe,
                                Operand::Constant(Value(lo)))
          .And(Predicate::Compare(Operand::Column(0), ComparisonOp::kLt,
                                  Operand::Constant(Value(hi))));
    }
  }
}

/// nullopt (DELETE without WHERE), a leaf, or an ∧/∨ of two leaves.
std::optional<Predicate> RandomPredicate(Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0:
      return std::nullopt;
    case 1:
      return RandomLeaf(rng).And(RandomLeaf(rng));
    case 2:
      return RandomLeaf(rng).Or(RandomLeaf(rng));
    default:
      return RandomLeaf(rng);
  }
}

/// The loop EraseWhere replaced; returns the removed tuples with their
/// texps in (texp, tuple) order.
Entries ReferenceDelete(Relation* rel, const Predicate* pred, Timestamp tau) {
  Entries removed;
  for (const auto& [tuple, texp] : rel->SortedEntries()) {
    if (texp <= tau) continue;
    if (pred == nullptr || pred->Evaluate(tuple)) {
      EXPECT_TRUE(rel->Erase(tuple));
      removed.emplace_back(tuple, texp);
    }
  }
  std::sort(removed.begin(), removed.end(), [](const auto& x, const auto& y) {
    if (x.second != y.second) return x.second < y.second;
    return x.first < y.first;
  });
  return removed;
}

/// Every stored entry is findable through the index with its texp.
void ExpectIndexed(const Relation& rel, const std::string& what) {
  for (const auto& [tuple, texp] : rel.SortedEntries()) {
    ASSERT_EQ(rel.GetTexp(tuple), std::optional<Timestamp>(texp))
        << what << ": " << tuple.ToString();
  }
}

/// Runs EraseWhere and the reference on two builds of one relation and
/// compares everything observable.
void CheckOne(uint64_t seed, Layout layout, size_t n,
              const std::optional<Predicate>& pred, Timestamp tau) {
  const std::string what = LayoutName(layout) + ", seed " +
                           std::to_string(seed) + ", tau " + tau.ToString() +
                           ", pred " + (pred ? pred->ToString() : "none");
  Relation fast = Build(seed, layout, n);
  Relation ref = Build(seed, layout, n);
  const Predicate* p = pred.has_value() ? &*pred : nullptr;
  const uint64_t epoch = fast.delta_epoch();

  const size_t count = fast.EraseWhere(p, tau);
  const Entries removed = ReferenceDelete(&ref, p, tau);

  ASSERT_EQ(count, removed.size()) << what;
  ASSERT_EQ(fast.size(), ref.size()) << what;
  ASSERT_EQ(fast.SortedEntries(), ref.SortedEntries()) << what;
  ExpectIndexed(fast, what);
  for (const auto& [tuple, texp] : removed) {
    ASSERT_FALSE(fast.Contains(tuple)) << what << ": " << tuple.ToString();
  }

  const auto batches = fast.DeltasSince(epoch);
  ASSERT_TRUE(batches.has_value()) << what;
  if (removed.empty()) {
    EXPECT_EQ(fast.delta_epoch(), epoch) << what;
    EXPECT_TRUE(batches->empty()) << what;
    return;
  }
  ASSERT_EQ(fast.delta_epoch(), epoch + 1) << what;
  ASSERT_EQ(batches->size(), 1u) << what;
  const Relation::DeltaBatch& b = batches->front();
  EXPECT_TRUE(b.inserted.empty()) << what;
  ASSERT_EQ(b.deleted.size(), removed.size()) << what;
  for (size_t i = 0; i < removed.size(); ++i) {
    EXPECT_EQ(b.deleted[i].tuple, removed[i].first) << what << ", row " << i;
    EXPECT_EQ(b.deleted[i].texp, removed[i].second) << what << ", row " << i;
  }
}

TEST(EraseWhereTest, MatchesRowAtATimeDeleteOnRandomRelations) {
  // τ before every texp, inside the finite range, and after it (only the
  // ∞ segment is live).
  const Timestamp taus[] = {Timestamp(0), Timestamp(37), Timestamp(120),
                            Timestamp(500)};
  for (const Layout layout :
       {Layout::kSegmented, Layout::kMixedColumn, Layout::kFlat}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      Rng rng(seed * 7919);
      const size_t n = static_cast<size_t>(rng.UniformInt(0, 300));
      for (const Timestamp tau : taus) {
        for (int k = 0; k < 3; ++k) {
          ASSERT_NO_FATAL_FAILURE(
              CheckOne(seed, layout, n, RandomPredicate(rng), tau));
        }
      }
    }
  }
}

TEST(EraseWhereTest, MixedColumnForgetsItsBounds) {
  // The kMixedColumn layout above really runs with unknown bounds on b.
  const Relation r = Build(3, Layout::kMixedColumn, 300);
  bool unknown = false;
  for (size_t i = 0; i < r.SegmentCount(); ++i) {
    unknown = unknown || r.GetSegment(i).col_lo == nullptr;
  }
  EXPECT_TRUE(unknown);
}

TEST(EraseWhereTest, NothingMatchedRecordsNothing) {
  Relation r = Build(5, Layout::kSegmented, 200);
  const uint64_t epoch = r.delta_epoch();
  const size_t before = r.size();
  // Outside a's domain: every segment's bounds rule it out.
  const Predicate a = Predicate::ColumnEquals(0, Value(int64_t{1000}));
  // Inside c's bounds in some segments, but no row carries it.
  const Predicate c = Predicate::Compare(Operand::Column(2), ComparisonOp::kEq,
                                         Operand::Constant(Value("s3x")));
  EXPECT_EQ(r.EraseWhere(&a, Timestamp(0)), 0u);
  EXPECT_EQ(r.EraseWhere(&c, Timestamp(50)), 0u);
  EXPECT_EQ(r.delta_epoch(), epoch);
  EXPECT_EQ(r.size(), before);
}

TEST(EraseWhereTest, ExpiredMatchesStayStored) {
  Relation r(ThreeCols());
  r.SetSegmented({4, 16});
  r.EnableDeltaTracking();
  const Tuple old{Value(int64_t{1}), Value(0.5), Value("x")};
  const Tuple live{Value(int64_t{1}), Value(0.5), Value("y")};
  r.InsertUnchecked(old, Timestamp(3));
  r.InsertUnchecked(live, Timestamp(30));
  const uint64_t epoch = r.delta_epoch();
  const Predicate a1 = Predicate::ColumnEquals(0, Value(int64_t{1}));
  EXPECT_EQ(r.EraseWhere(&a1, Timestamp(10)), 1u);
  EXPECT_TRUE(r.Contains(old));  // expired: not DELETE's to remove
  EXPECT_FALSE(r.Contains(live));
  EXPECT_EQ(r.delta_epoch(), epoch + 1);
}

TEST(EraseWhereTest, EmptiedRelationReleasesStorageAndStaysUsable) {
  Relation r = Build(9, Layout::kSegmented, 150);
  const size_t stored = r.size();  // every texp is >= 1, so all are live
  EXPECT_EQ(r.EraseWhere(nullptr, Timestamp(0)), stored);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.SegmentCount(), 0u);
  const Tuple t{Value(int64_t{4}), Value(1.0), Value("z")};
  ASSERT_TRUE(r.Insert(t, Timestamp(12)).ok());
  EXPECT_EQ(r.GetTexp(t), std::optional<Timestamp>(Timestamp(12)));
}

TEST(EraseWhereTest, BuildsADeferredIndexFirst) {
  // Operator results defer their index until the first mutation.
  std::vector<Relation::Entry> entries;
  for (int64_t a = 0; a < 20; ++a) {
    entries.push_back({Tuple{Value(a), Value(0.0), Value("s")},
                       Timestamp(a < 10 ? 5 : 50)});
  }
  Relation r = Relation::FromEntriesUnchecked(ThreeCols(), std::move(entries));
  const Predicate below15 =
      Predicate::Compare(Operand::Column(0), ComparisonOp::kLt,
                         Operand::Constant(Value(int64_t{15})));
  EXPECT_EQ(r.EraseWhere(&below15, Timestamp(10)), 5u);  // a in [10, 15)
  EXPECT_EQ(r.size(), 15u);
  ExpectIndexed(r, "deferred index");
}

}  // namespace
}  // namespace expdb
