#include "core/predicate.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace expdb {
namespace {

TEST(PredicateTest, DefaultIsTrue) {
  Predicate p;
  EXPECT_TRUE(p.Evaluate(Tuple{1, 2}));
  EXPECT_TRUE(p.Evaluate(Tuple{}));
}

TEST(PredicateTest, Literals) {
  EXPECT_TRUE(Predicate::Literal(true).Evaluate(Tuple{}));
  EXPECT_FALSE(Predicate::Literal(false).Evaluate(Tuple{}));
}

TEST(PredicateTest, ColumnEqualsConstant) {
  // The paper's uncorrelated selection: j = a.
  Predicate p = Predicate::ColumnEquals(1, Value(25));
  EXPECT_TRUE(p.Evaluate(Tuple{1, 25}));
  EXPECT_FALSE(p.Evaluate(Tuple{1, 30}));
  EXPECT_FALSE(p.IsCorrelated());
}

TEST(PredicateTest, ColumnsEqual) {
  // The paper's correlated selection: j = k.
  Predicate p = Predicate::ColumnsEqual(0, 2);
  EXPECT_TRUE(p.Evaluate(Tuple{7, 0, 7}));
  EXPECT_FALSE(p.Evaluate(Tuple{7, 0, 8}));
  EXPECT_TRUE(p.IsCorrelated());
}

TEST(PredicateTest, AllComparisonOps) {
  Tuple t{5};
  auto cmp = [&](ComparisonOp op, int64_t c) {
    return Predicate::Compare(Operand::Column(0), op,
                              Operand::Constant(Value(c)))
        .Evaluate(t);
  };
  EXPECT_TRUE(cmp(ComparisonOp::kEq, 5));
  EXPECT_FALSE(cmp(ComparisonOp::kEq, 6));
  EXPECT_TRUE(cmp(ComparisonOp::kNe, 6));
  EXPECT_TRUE(cmp(ComparisonOp::kLt, 6));
  EXPECT_FALSE(cmp(ComparisonOp::kLt, 5));
  EXPECT_TRUE(cmp(ComparisonOp::kLe, 5));
  EXPECT_TRUE(cmp(ComparisonOp::kGt, 4));
  EXPECT_TRUE(cmp(ComparisonOp::kGe, 5));
  EXPECT_FALSE(cmp(ComparisonOp::kGe, 6));
}

TEST(PredicateTest, AndOrNot) {
  Predicate a = Predicate::ColumnEquals(0, Value(1));
  Predicate b = Predicate::ColumnEquals(1, Value(2));
  EXPECT_TRUE(a.And(b).Evaluate(Tuple{1, 2}));
  EXPECT_FALSE(a.And(b).Evaluate(Tuple{1, 3}));
  EXPECT_TRUE(a.Or(b).Evaluate(Tuple{9, 2}));
  EXPECT_FALSE(a.Or(b).Evaluate(Tuple{9, 9}));
  EXPECT_TRUE(a.Not().Evaluate(Tuple{9, 0}));
  EXPECT_FALSE(a.Not().Evaluate(Tuple{1, 0}));
}

TEST(PredicateTest, MixedNumericComparison) {
  Predicate p = Predicate::ColumnEquals(0, Value(3.0));
  EXPECT_TRUE(p.Evaluate(Tuple{3}));
}

TEST(PredicateTest, ValidateChecksColumnRange) {
  Schema s({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
  EXPECT_TRUE(Predicate::ColumnsEqual(0, 1).Validate(s).ok());
  EXPECT_EQ(Predicate::ColumnsEqual(0, 5).Validate(s).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(Predicate::ColumnEquals(2, Value(1)).Validate(s).code(),
            StatusCode::kOutOfRange);
  // Nested composition is validated too.
  Predicate bad = Predicate::ColumnsEqual(0, 1)
                      .And(Predicate::ColumnEquals(9, Value(1)));
  EXPECT_FALSE(bad.Validate(s).ok());
}

TEST(PredicateTest, ReferencedColumns) {
  Predicate p = Predicate::ColumnsEqual(0, 3)
                    .Or(Predicate::ColumnEquals(1, Value(9)))
                    .Not();
  EXPECT_EQ(p.ReferencedColumns(), (std::set<size_t>{0, 1, 3}));
}

TEST(PredicateTest, ShiftColumns) {
  // Shift a predicate formulated against S to index into R × S.
  Predicate p = Predicate::ColumnEquals(0, Value(7));
  Predicate shifted = p.ShiftColumns(0, 2);
  EXPECT_TRUE(shifted.Evaluate(Tuple{0, 0, 7}));
  EXPECT_FALSE(shifted.Evaluate(Tuple{7, 0, 0}));
  // Only columns >= `from` shift.
  Predicate q = Predicate::ColumnsEqual(0, 1).ShiftColumns(1, 2);
  EXPECT_TRUE(q.Evaluate(Tuple{4, 0, 0, 4}));
}

TEST(PredicateTest, TopLevelEqualities) {
  Predicate p = Predicate::ColumnsEqual(0, 2)
                    .And(Predicate::ColumnsEqual(1, 3))
                    .And(Predicate::ColumnEquals(0, Value(1)));
  auto eqs = p.TopLevelEqualities();
  ASSERT_EQ(eqs.size(), 2u);
  EXPECT_EQ(eqs[0], (std::pair<size_t, size_t>{0, 2}));
  EXPECT_EQ(eqs[1], (std::pair<size_t, size_t>{1, 3}));
  // Equalities under OR are not extractable.
  Predicate q = Predicate::ColumnsEqual(0, 1).Or(Predicate::ColumnsEqual(2, 3));
  EXPECT_TRUE(q.TopLevelEqualities().empty());
  // Inequalities are not equalities.
  Predicate r = Predicate::Compare(Operand::Column(0), ComparisonOp::kLt,
                                   Operand::Column(1));
  EXPECT_TRUE(r.TopLevelEqualities().empty());
}

TEST(PredicateTest, ToStringRendersOneBased) {
  Predicate p = Predicate::ColumnsEqual(0, 2);
  EXPECT_EQ(p.ToString(), "$1 = $3");
  Predicate q = Predicate::ColumnEquals(1, Value("x"));
  EXPECT_EQ(q.ToString(), "$2 = 'x'");
}

TEST(PredicateTest, SharedStructureIsImmutable) {
  Predicate base = Predicate::ColumnEquals(0, Value(1));
  Predicate combined = base.And(Predicate::ColumnEquals(0, Value(2)));
  // `base` behaves the same after being composed.
  EXPECT_TRUE(base.Evaluate(Tuple{1}));
  EXPECT_FALSE(combined.Evaluate(Tuple{1}));
}

// --- MayMatchWithin: segment-skip soundness ----------------------------------

constexpr int64_t kTwo53 = int64_t{1} << 53;

/// The values one column of a segment can hold: nulls, strings and one
/// numeric type (segment bounds never mix Int64 with Double), sorted by
/// Value::Compare. Both sit on the 2^53 boundary, where Int64 → Double
/// conversion starts to round.
std::vector<Value> IntColumnDomain() {
  std::vector<Value> d = {Value(),          Value(int64_t{-1}),
                          Value(int64_t{0}), Value(int64_t{1}),
                          Value(int64_t{2}), Value(kTwo53 - 1),
                          Value(kTwo53),     Value(kTwo53 + 1),
                          Value(kTwo53 + 2), Value("a"),
                          Value("b")};
  std::sort(d.begin(), d.end());
  return d;
}

std::vector<Value> DoubleColumnDomain() {
  const double big = static_cast<double>(kTwo53);
  std::vector<Value> d = {Value(),    Value(-1.5),      Value(0.0),
                          Value(0.5), Value(1.0),       Value(2.0),
                          Value(big), Value(big + 2.0), Value("a"),
                          Value("b")};
  std::sort(d.begin(), d.end());
  return d;
}

/// Every constant a predicate may compare against: both column domains
/// plus values that fall between their members.
std::vector<Value> Constants() {
  std::vector<Value> c = IntColumnDomain();
  for (const Value& v : DoubleColumnDomain()) c.push_back(v);
  for (const Value& v :
       {Value(int64_t{3}), Value(1.5), Value(-2.0), Value("ab"), Value(""),
        Value(static_cast<double>(kTwo53) - 1.0)}) {
    c.push_back(v);
  }
  return c;
}

constexpr ComparisonOp kAllOps[] = {ComparisonOp::kEq, ComparisonOp::kNe,
                                    ComparisonOp::kLt, ComparisonOp::kLe,
                                    ComparisonOp::kGt, ComparisonOp::kGe};

/// Whether some tuple over the cartesian product of `cols` satisfies p.
bool SomeTupleMatches(const Predicate& p,
                      const std::vector<std::vector<Value>>& cols) {
  std::vector<size_t> at(cols.size(), 0);
  for (const std::vector<Value>& c : cols) {
    if (c.empty()) return false;
  }
  for (;;) {
    std::vector<Value> values;
    for (size_t i = 0; i < cols.size(); ++i) values.push_back(cols[i][at[i]]);
    if (p.Evaluate(Tuple(std::move(values)))) return true;
    size_t i = 0;
    while (i < cols.size() && ++at[i] == cols[i].size()) at[i++] = 0;
    if (i == cols.size()) return false;
  }
}

/// The members of `domain` within [lo, hi].
std::vector<Value> Within(const std::vector<Value>& domain, const Value& lo,
                          const Value& hi) {
  std::vector<Value> out;
  for (const Value& v : domain) {
    if (lo <= v && v <= hi) out.push_back(v);
  }
  return out;
}

// Brute force over every op, both operand orders, every constant and every
// [lo, hi] of each column domain: whenever some in-bounds value satisfies
// the comparison, MayMatchWithin must say so.
TEST(PredicateMayMatchTest, ComparisonsAreSoundInBothOperandOrders) {
  size_t skipped = 0, cases = 0;
  for (const std::vector<Value>& domain :
       {IntColumnDomain(), DoubleColumnDomain()}) {
    for (size_t l = 0; l < domain.size(); ++l) {
      for (size_t h = l; h < domain.size(); ++h) {
        const Value& lo = domain[l];
        const Value& hi = domain[h];
        const std::vector<Value> in = Within(domain, lo, hi);
        for (const Value& c : Constants()) {
          for (ComparisonOp op : kAllOps) {
            for (bool column_first : {true, false}) {
              const Predicate p =
                  column_first
                      ? Predicate::Compare(Operand::Column(0), op,
                                           Operand::Constant(c))
                      : Predicate::Compare(Operand::Constant(c), op,
                                           Operand::Column(0));
              const bool may = p.MayMatchWithin(&lo, &hi);
              ++cases;
              if (!may) ++skipped;
              if (may) continue;
              EXPECT_FALSE(SomeTupleMatches(p, {in}))
                  << p.ToString() << " within [" << lo << ", " << hi << "]";
            }
          }
        }
      }
    }
  }
  // Not vacuous: a sizeable share of the cases is decided "no match".
  EXPECT_GT(skipped, cases / 5) << skipped << " of " << cases;
}

TEST(PredicateMayMatchTest, DecidesFromTheBoundOnTheWantedSide) {
  const Value lo(int64_t{10}), hi(int64_t{20});
  auto may = [&](ComparisonOp op, Value c, bool column_first = true) {
    const Predicate p = column_first
                            ? Predicate::Compare(Operand::Column(0), op,
                                                 Operand::Constant(c))
                            : Predicate::Compare(Operand::Constant(c), op,
                                                 Operand::Column(0));
    return p.MayMatchWithin(&lo, &hi);
  };
  EXPECT_FALSE(may(ComparisonOp::kGt, Value(int64_t{20})));
  EXPECT_TRUE(may(ComparisonOp::kGe, Value(int64_t{20})));
  EXPECT_FALSE(may(ComparisonOp::kLt, Value(int64_t{10})));
  EXPECT_TRUE(may(ComparisonOp::kLe, Value(int64_t{10})));
  EXPECT_FALSE(may(ComparisonOp::kEq, Value(int64_t{21})));
  EXPECT_TRUE(may(ComparisonOp::kEq, Value(15.5)));
  EXPECT_TRUE(may(ComparisonOp::kNe, Value(int64_t{10})));
  // 20 < $1 is $1 > 20.
  EXPECT_FALSE(may(ComparisonOp::kLt, Value(int64_t{20}), false));
  EXPECT_TRUE(may(ComparisonOp::kLe, Value(int64_t{20}), false));
  // != fails only when the whole range equals the constant.
  const Value one(int64_t{7});
  const Predicate ne = Predicate::Compare(
      Operand::Column(0), ComparisonOp::kNe, Operand::Constant(Value(7.0)));
  EXPECT_FALSE(ne.MayMatchWithin(&one, &one));
  // Past 2^53 every Int64 in [2^53, 2^53 + 1] converts to 2^53.0.
  const Value big_lo(kTwo53), big_hi(kTwo53 + 1);
  const Value big_c(static_cast<double>(kTwo53));
  EXPECT_FALSE(Predicate::Compare(Operand::Column(0), ComparisonOp::kGt,
                                  Operand::Constant(big_c))
                   .MayMatchWithin(&big_lo, &big_hi));
  EXPECT_FALSE(Predicate::Compare(Operand::Column(0), ComparisonOp::kNe,
                                  Operand::Constant(big_c))
                   .MayMatchWithin(&big_lo, &big_hi));
}

TEST(PredicateMayMatchTest, OpaqueShapesAnswerTrue) {
  const Value lo(int64_t{10}), hi(int64_t{20});
  const Value los[] = {lo, lo}, his[] = {hi, hi};
  const Predicate never = Predicate::Compare(
      Operand::Column(0), ComparisonOp::kGt, Operand::Constant(Value(99)));
  // ¬ answers true even over a predicate that cannot match.
  EXPECT_FALSE(never.MayMatchWithin(los, his));
  EXPECT_TRUE(never.Not().MayMatchWithin(los, his));
  EXPECT_TRUE(Predicate::Compare(Operand::Column(0), ComparisonOp::kGt,
                                 Operand::Column(1))
                  .MayMatchWithin(los, his));
  EXPECT_TRUE(Predicate::Compare(Operand::Column(0), ComparisonOp::kGt,
                                 Operand::Parameter(0))
                  .MayMatchWithin(los, his));
  EXPECT_FALSE(Predicate::Literal(false).MayMatchWithin(los, his));
  EXPECT_TRUE(Predicate().MayMatchWithin(los, his));
}

/// A random predicate over columns 0 and 1: comparisons (either operand
/// order, column vs constant, column vs column, unbound parameter) and
/// literals under nested ∧/∨/¬.
Predicate RandomPredicate(Rng& rng, const std::vector<Value>& constants,
                          int depth) {
  if (depth == 0 || rng.UniformInt(0, 2) == 0) {
    const ComparisonOp op = kAllOps[rng.UniformInt(0, 5)];
    const Operand col = Operand::Column(rng.UniformInt(0, 1));
    const Operand c = Operand::Constant(
        constants[rng.UniformInt(0, constants.size() - 1)]);
    switch (rng.UniformInt(0, 9)) {
      case 0:
        return Predicate::Compare(col, op, Operand::Column(1));
      case 1:
        return Predicate::Compare(col, op, Operand::Parameter(0));
      case 2:
        return Predicate::Literal(rng.Bernoulli(0.5));
      case 3:
      case 4:
      case 5:
        return Predicate::Compare(c, op, col);
      default:
        return Predicate::Compare(col, op, c);
    }
  }
  const Predicate l = RandomPredicate(rng, constants, depth - 1);
  switch (rng.UniformInt(0, 2)) {
    case 0:
      return l.And(RandomPredicate(rng, constants, depth - 1));
    case 1:
      return l.Or(RandomPredicate(rng, constants, depth - 1));
    default:
      return l.Not();
  }
}

// Nested ∧/∨/¬ over an Int64 and a Double column: random trees and random
// bounds, brute-forced over every in-bounds tuple.
TEST(PredicateMayMatchTest, NestedPredicatesAreSound) {
  Rng rng(1717);
  const std::vector<Value> constants = Constants();
  const std::vector<Value> d0 = IntColumnDomain();
  const std::vector<Value> d1 = DoubleColumnDomain();
  size_t skipped = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    auto pick_range = [&](const std::vector<Value>& d, Value* lo, Value* hi) {
      size_t a = rng.UniformInt(0, d.size() - 1);
      size_t b = rng.UniformInt(0, d.size() - 1);
      if (a > b) std::swap(a, b);
      *lo = d[a];
      *hi = d[b];
    };
    Value lo[2], hi[2];
    pick_range(d0, &lo[0], &hi[0]);
    pick_range(d1, &lo[1], &hi[1]);
    const Predicate p = RandomPredicate(rng, constants, 3);
    if (p.MayMatchWithin(lo, hi)) continue;
    ++skipped;
    EXPECT_FALSE(SomeTupleMatches(
        p, {Within(d0, lo[0], hi[0]), Within(d1, lo[1], hi[1])}))
        << p.ToString() << " within [" << lo[0] << ", " << hi[0] << "] x ["
        << lo[1] << ", " << hi[1] << "]";
  }
  EXPECT_GT(skipped, 200u);
}


TEST(PredicateTest, EveryComparisonFollowsValueCompare) {
  // Same-type numbers are compared inline; every other pair goes through
  // Value::Compare. Both routes must agree with Compare for every
  // operator: nulls, mixed int/double (beyond 2^53 too), signed zeros and
  // strings included.
  const int64_t big = (int64_t{1} << 53) + 1;
  const std::vector<Value> values = {
      Value(),        Value(int64_t{-3}), Value(int64_t{0}),
      Value(int64_t{7}), Value(big),      Value(INT64_MIN),
      Value(INT64_MAX), Value(-3.0),      Value(-0.0),
      Value(0.0),     Value(6.5),         Value(7.0),
      Value(static_cast<double>(big)),    Value(""),
      Value("7"),     Value("abc")};
  const ComparisonOp ops[] = {ComparisonOp::kEq, ComparisonOp::kNe,
                              ComparisonOp::kLt, ComparisonOp::kLe,
                              ComparisonOp::kGt, ComparisonOp::kGe};
  for (const Value& a : values) {
    for (const Value& b : values) {
      const std::strong_ordering c = a.Compare(b);
      const Tuple row{a, b};
      for (ComparisonOp op : ops) {
        bool want = false;
        switch (op) {
          case ComparisonOp::kEq: want = c == 0; break;
          case ComparisonOp::kNe: want = c != 0; break;
          case ComparisonOp::kLt: want = c < 0; break;
          case ComparisonOp::kLe: want = c <= 0; break;
          case ComparisonOp::kGt: want = c > 0; break;
          case ComparisonOp::kGe: want = c >= 0; break;
        }
        const std::string context = a.ToString() + " " +
                                    std::string(ComparisonOpToString(op)) +
                                    " " + b.ToString();
        EXPECT_EQ(Predicate::Compare(Operand::Column(0), op,
                                     Operand::Column(1))
                      .Evaluate(row),
                  want)
            << context;
        EXPECT_EQ(Predicate::Compare(Operand::Column(0), op,
                                     Operand::Constant(b))
                      .Evaluate(row),
                  want)
            << context;
      }
    }
  }
}

}  // namespace
}  // namespace expdb
