// Per-segment column bounds (docs/PERFORMANCE.md §8): after every mutation
// path, every stored entry lies inside its segment's [col_lo, col_hi] and
// [min_texp, max_texp] bounds. The paths are insert, cross-bucket texp
// relocation, erase, DropExpired and RemoveExpired straddlers, MaybeRebucket
// merges, SetSegmented, copy, move and Clear. Segmented storage over
// same-typed columns always knows its bounds; flat storage never tracks
// them, and a column that would mix Int64 with Double forgets them.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "relational/relation.h"

namespace expdb {
namespace {

Schema ThreeCols() {
  return Schema({{"a", ValueType::kInt64},
                 {"b", ValueType::kDouble},
                 {"c", ValueType::kString}});
}

Timestamp T(int64_t t) { return Timestamp(t); }

/// Every entry inside its segment's bounds; segmented storage must know
/// its column bounds (the columns here never mix Int64 with Double).
void ExpectInsideBounds(const Relation& rel, const std::string& what) {
  size_t seen = 0;
  for (size_t i = 0; i < rel.SegmentCount(); ++i) {
    const Relation::SegmentView seg = rel.GetSegment(i);
    if (seg.size == 0) continue;
    if (rel.segmented()) {
      ASSERT_NE(seg.col_lo, nullptr) << what << ", segment " << i;
    } else {
      ASSERT_EQ(seg.col_lo, nullptr) << what << ", segment " << i;
    }
    for (size_t k = 0; k < seg.size; ++k, ++seen) {
      const Relation::Entry& e = seg.data[k];
      ASSERT_LE(seg.min_texp, e.texp) << what;
      ASSERT_LE(e.texp, seg.max_texp) << what;
      if (seg.col_lo == nullptr) continue;
      for (size_t c = 0; c < e.tuple.arity(); ++c) {
        ASSERT_LE(seg.col_lo[c], e.tuple.at(c))
            << what << ": " << e.tuple.ToString() << " column " << c;
        ASSERT_LE(e.tuple.at(c), seg.col_hi[c])
            << what << ": " << e.tuple.ToString() << " column " << c;
      }
    }
  }
  ASSERT_EQ(seen, rel.size()) << what;
}

Tuple Row(int64_t a) {
  return Tuple{Value(a), Value(static_cast<double>(a) / 4),
               Value("s" + std::to_string(a))};
}

TEST(SegmentBoundsTest, InsertWidensTheTargetSegment) {
  Relation r(ThreeCols());
  r.SetSegmented({/*bucket_width=*/8, /*max_segments=*/64});
  ASSERT_TRUE(r.Insert(Row(5), T(3)).ok());
  ASSERT_TRUE(r.Insert(Row(1), T(4)).ok());
  ASSERT_TRUE(r.Insert(Row(9), T(20)).ok());
  ASSERT_EQ(r.SegmentCount(), 2u);
  const Relation::SegmentView s0 = r.GetSegment(0);
  ASSERT_NE(s0.col_lo, nullptr);
  EXPECT_EQ(s0.col_lo[0], Value(int64_t{1}));
  EXPECT_EQ(s0.col_hi[0], Value(int64_t{5}));
  EXPECT_EQ(s0.col_lo[2], Value("s1"));
  EXPECT_EQ(s0.col_hi[2], Value("s5"));
  const Relation::SegmentView s1 = r.GetSegment(1);
  EXPECT_EQ(s1.col_lo[0], Value(int64_t{9}));
  EXPECT_EQ(s1.col_hi[0], Value(int64_t{9}));
  ExpectInsideBounds(r, "after inserts");
}

TEST(SegmentBoundsTest, RelocationWidensTheNewSegment) {
  Relation r(ThreeCols());
  r.SetSegmented({8, 64});
  ASSERT_TRUE(r.Insert(Row(1), T(3)).ok());
  ASSERT_TRUE(r.Insert(Row(2), T(3)).ok());
  ASSERT_TRUE(r.Insert(Row(50), T(20)).ok());
  // Raising the texp moves Row(1) from bucket 0 to bucket 2.
  ASSERT_TRUE(r.Insert(Row(1), T(22)).ok());
  ExpectInsideBounds(r, "after raising Row(1)");
  // Lowering through the overwrite path moves Row(50) to bucket 0.
  r.InsertUnchecked(Row(50), T(2));
  ExpectInsideBounds(r, "after lowering Row(50)");
}

TEST(SegmentBoundsTest, EraseAndExpiryLeaveBoundsLoose) {
  Relation r(ThreeCols());
  r.SetSegmented({8, 64});
  for (int64_t a = 0; a < 8; ++a) ASSERT_TRUE(r.Insert(Row(a), T(1 + a)).ok());
  ASSERT_TRUE(r.Erase(Row(0)));
  ExpectInsideBounds(r, "after erase");
  // Loose, not tightened: the segment still claims the erased minimum.
  EXPECT_EQ(r.GetSegment(0).col_lo[0], Value(int64_t{0}));
  r.DropExpired(T(3));  // straddler: drops texps 1..3
  ExpectInsideBounds(r, "after DropExpired");
  r.RemoveExpired(T(5));
  ExpectInsideBounds(r, "after RemoveExpired");
}

TEST(SegmentBoundsTest, RebucketMergeCoversBothSides) {
  Relation r(ThreeCols());
  r.SetSegmented({/*bucket_width=*/1, /*max_segments=*/2});
  for (int64_t a = 0; a < 12; ++a) {
    ASSERT_TRUE(r.Insert(Row(a * 7 % 12), T(1 + a)).ok());
    ExpectInsideBounds(r, "after insert " + std::to_string(a));
  }
  EXPECT_LE(r.SegmentCount(), 2u);
}

TEST(SegmentBoundsTest, SetSegmentedComputesBoundsAndFlatTracksNone) {
  Relation r(ThreeCols());
  for (int64_t a = 0; a < 40; ++a) ASSERT_TRUE(r.Insert(Row(a), T(a)).ok());
  ExpectInsideBounds(r, "flat");
  r.SetSegmented({4, 64});
  ExpectInsideBounds(r, "after SetSegmented");
  r.SetSegmented({16, 64});  // re-partition under new options
  ExpectInsideBounds(r, "after re-SetSegmented");

  std::vector<Relation::Entry> entries = {{Row(1), T(5)}, {Row(2), T(6)}};
  Relation built =
      Relation::FromEntriesUnchecked(ThreeCols(), std::move(entries));
  built.InsertUnchecked(Row(3), T(7));
  ExpectInsideBounds(built, "FromEntriesUnchecked + insert");
}

TEST(SegmentBoundsTest, CopyMoveAndClear) {
  Relation r(ThreeCols());
  r.SetSegmented({8, 64});
  for (int64_t a = 0; a < 30; ++a) ASSERT_TRUE(r.Insert(Row(a), T(a)).ok());
  Relation copy(r);
  ExpectInsideBounds(copy, "copy");
  Relation assigned(ThreeCols());
  assigned = r;
  ExpectInsideBounds(assigned, "copy-assigned");
  Relation moved(std::move(copy));
  ExpectInsideBounds(moved, "moved");
  assigned = std::move(moved);
  ExpectInsideBounds(assigned, "move-assigned");
  assigned.Clear();
  ASSERT_TRUE(assigned.Insert(Row(100), T(3)).ok());
  ExpectInsideBounds(assigned, "cleared + insert");
  EXPECT_EQ(assigned.GetSegment(0).col_lo[0], Value(int64_t{100}));
}

TEST(SegmentBoundsTest, MixedIntAndDoubleColumnForgetsBounds) {
  // Compare is not transitive across Int64 and Double beyond 2^53, so a
  // column holding both has no sound interval.
  Relation r(Schema({{"x", ValueType::kDouble}}));
  r.SetSegmented({8, 64});
  r.InsertUnchecked(Tuple{Value(1.5)}, T(3));
  ASSERT_NE(r.GetSegment(0).col_lo, nullptr);
  r.InsertUnchecked(Tuple{Value(int64_t{2})}, T(4));
  EXPECT_EQ(r.GetSegment(0).col_lo, nullptr);
  // Sticky for the segment's life; other segments are unaffected.
  r.InsertUnchecked(Tuple{Value(3.5)}, T(5));
  EXPECT_EQ(r.GetSegment(0).col_lo, nullptr);
  r.InsertUnchecked(Tuple{Value(9.5)}, T(30));
  EXPECT_NE(r.GetSegment(1).col_lo, nullptr);
}

TEST(SegmentBoundsTest, RebucketMergeKeepsUnknownBoundsUnknown) {
  Relation r(Schema({{"x", ValueType::kDouble}}));
  r.SetSegmented({/*bucket_width=*/8, /*max_segments=*/2});
  r.InsertUnchecked(Tuple{Value(1.5)}, T(3));          // bucket 0
  r.InsertUnchecked(Tuple{Value(0.5)}, T(9));          // bucket 1
  r.InsertUnchecked(Tuple{Value(int64_t{7})}, T(10));  // bucket 1: mixed
  ASSERT_EQ(r.SegmentCount(), 2u);
  ASSERT_NE(r.GetSegment(0).col_lo, nullptr);
  ASSERT_EQ(r.GetSegment(1).col_lo, nullptr);
  // A third bucket doubles the width: buckets 0 and 1 merge into one
  // segment holding the mixed column, so its bounds must be unknown.
  r.InsertUnchecked(Tuple{Value(2.5)}, T(20));
  ASSERT_EQ(r.SegmentCount(), 2u);
  EXPECT_EQ(r.GetSegment(0).size, 3u);
  EXPECT_EQ(r.GetSegment(0).col_lo, nullptr);
  EXPECT_NE(r.GetSegment(1).col_lo, nullptr);
}

// Random interleavings of every mutation path, checked after each step.
class SegmentBoundsSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SegmentBoundsSweep, EveryEntryStaysInsideItsSegmentBounds) {
  Rng rng(GetParam());
  Relation r(ThreeCols());
  r.SetSegmented({static_cast<int64_t>(rng.UniformInt(1, 6)),
                  static_cast<size_t>(rng.UniformInt(1, 6))});
  Timestamp tau = T(0);
  for (int op = 0; op < 600; ++op) {
    const Tuple t = Row(rng.UniformInt(-40, 40));
    const Timestamp texp = rng.UniformInt(0, 9) == 0
                               ? Timestamp::Infinity()
                               : tau + rng.UniformInt(1, 60);
    std::string what;
    switch (rng.UniformInt(0, 11)) {
      case 0:
      case 1:
      case 2:
        what = "merge-max insert";
        r.MergeMaxUnchecked(t, texp);
        break;
      case 3:
        what = "overwrite insert";
        r.InsertUnchecked(t, texp);
        break;
      case 4:
        what = "erase";
        r.Erase(t);
        break;
      case 5:
        what = "advance";
        tau = tau + rng.UniformInt(1, 8);
        break;
      case 6:
        what = "DropExpired";
        r.DropExpired(tau);
        break;
      case 7:
        what = "RemoveExpired";
        r.RemoveExpired(tau);
        break;
      case 8:
        what = "SetSegmented";
        r.SetSegmented({static_cast<int64_t>(rng.UniformInt(1, 6)),
                        static_cast<size_t>(rng.UniformInt(1, 6))});
        break;
      case 9: {
        what = "copy";
        Relation copy = r;
        r = copy;
        break;
      }
      case 10: {
        what = "move";
        Relation moved = std::move(r);
        r = std::move(moved);
        break;
      }
      case 11:
        if (rng.UniformInt(0, 9) == 0) {
          what = "Clear";
          r.Clear();
        }
        break;
    }
    ExpectInsideBounds(r, "op #" + std::to_string(op) + " (" + what + ")");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentBoundsSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace expdb
