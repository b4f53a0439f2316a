// Skipping segments by predicate changes no answer. A filtered scan skips
// every segment whose per-column bounds its predicate cannot match
// (Predicate::MayMatchWithin); rows, per-tuple texps and texp(e) must be
// exactly those of the same query over a flat FromEntriesUnchecked copy
// (no column bounds, so nothing is skipped) and of the reference
// evaluator. Swept over a `ts` column that is correlated with texp (it
// arrives in order with its TTL, so segments are ts clusters and skips
// happen) and one that is not, serial and 4-worker, through inserts,
// cross-bucket relocations, erases and physical expiration that leave the
// bounds loose.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/eval.h"
#include "obs/metrics.h"
#include "tests/support/reference_eval.h"

namespace expdb {
namespace {

struct SkipConfig {
  uint64_t seed;
  bool correlated;
  int64_t bucket_width;
  size_t max_segments;
};

class SegmentSkipSweep : public ::testing::TestWithParam<SkipConfig> {};

Schema Readings() {
  return Schema({{"k", ValueType::kInt64},
                 {"ts", ValueType::kInt64},
                 {"v", ValueType::kDouble}});
}

uint64_t Skipped() {
  return obs::MetricsRegistry::Global()
      .GetCounter("expdb_segment_skipped_total")
      ->value();
}

Predicate Cmp(size_t col, ComparisonOp op, Value c) {
  return Predicate::Compare(Operand::Column(col), op,
                            Operand::Constant(std::move(c)));
}

/// A random filter over R(k, ts, v): ts windows and points in either
/// operand order, open ranges, OR of two ranges, ¬, a Double column
/// against Int64 constants, and conjunctions with the other columns.
Predicate RandomFilter(Rng& rng, int64_t ts_max) {
  const int64_t a = rng.UniformInt(-5, ts_max + 5);
  const int64_t b = a + rng.UniformInt(0, ts_max / 8);
  const Predicate window = Cmp(1, ComparisonOp::kGe, Value(a))
                               .And(Cmp(1, ComparisonOp::kLe, Value(b)));
  switch (rng.UniformInt(0, 8)) {
    case 0:
      return window;
    case 1:  // a <= ts AND b > ts
      return Predicate::Compare(Operand::Constant(Value(a)),
                                ComparisonOp::kLe, Operand::Column(1))
          .And(Predicate::Compare(Operand::Constant(Value(b)),
                                  ComparisonOp::kGt, Operand::Column(1)));
    case 2:
      return Cmp(1, ComparisonOp::kEq, Value(a));
    case 3:
      return Cmp(1, ComparisonOp::kLt, Value(a / 8))
          .Or(Cmp(1, ComparisonOp::kGt, Value(ts_max - a / 8)));
    case 4:
      return window.Not();
    case 5:  // Double column vs Int64 constants
      return Cmp(2, ComparisonOp::kGe, Value(a))
          .And(Cmp(2, ComparisonOp::kLt, Value(b)));
    case 6:
      return window.And(Cmp(0, ComparisonOp::kNe, Value(a % 7)));
    case 7:
      return window.Or(Cmp(0, ComparisonOp::kEq, Value(a % 7)));
    default:
      return window.And(Predicate::Compare(
          Operand::Column(0), ComparisonOp::kLt, Operand::Column(1)));
  }
}

TEST_P(SegmentSkipSweep, SkippingMatchesFlatAndReference) {
  const SkipConfig& cfg = GetParam();
  Rng rng(cfg.seed);
  constexpr int64_t kRows = 600;

  Database db;
  Relation* seg = db.CreateRelation("R", Readings()).value();
  seg->SetSegmented({cfg.bucket_width, cfg.max_segments});
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    const int64_t ts = cfg.correlated ? i : rng.UniformInt(0, kRows - 1);
    const Tuple t{Value(i % 7), Value(ts),
                  Value(static_cast<double>(ts) + 0.5)};
    const Timestamp texp = rng.UniformInt(0, 19) == 0
                               ? Timestamp::Infinity()
                               : Timestamp(1 + i / 8 + rng.UniformInt(0, 3));
    ASSERT_TRUE(seg->Insert(t, texp).ok());
    rows.push_back(t);
  }
  // The flat twin: one segment without column bounds, before and after
  // the mutations both copies see below.
  std::vector<Relation::Entry> entries;
  seg->ForEach([&](const Tuple& t, Timestamp texp) {
    entries.push_back({t, texp});
  });
  Database flat_db;
  ASSERT_TRUE(flat_db
                  .PutRelation("R", Relation::FromEntriesUnchecked(
                                        Readings(), std::move(entries)))
                  .ok());
  Relation* flat = flat_db.GetRelation("R").value();

  EvalOptions serial;
  serial.aggregate_mode = AggregateExpirationMode::kConservative;
  EvalOptions parallel = serial;
  parallel.parallelism = 4;
  parallel.parallel_min_morsel = 4;

  using namespace algebra;  // NOLINT
  const uint64_t skipped0 = Skipped();
  for (int phase = 0; phase < 3; ++phase) {
    if (phase == 1) {
      // Loosen the bounds: erases, and texp raises that relocate rows to
      // other segments (and widen those).
      for (int j = 0; j < 60; ++j) {
        const Tuple& t = rows[rng.UniformInt(0, kRows - 1)];
        if (rng.Bernoulli(0.5)) {
          ASSERT_EQ(seg->Erase(t), flat->Erase(t));
        } else {
          const Timestamp texp(rng.UniformInt(1, kRows / 8 + 20));
          ASSERT_TRUE(seg->Insert(t, texp).ok());
          ASSERT_TRUE(flat->Insert(t, texp).ok());
        }
      }
      ASSERT_EQ(flat->SegmentCount(), 1u);
      ASSERT_EQ(flat->GetSegment(0).col_lo, nullptr);
    } else if (phase == 2) {
      ASSERT_EQ(seg->DropExpired(Timestamp(kRows / 32)).tuples,
                flat->DropExpired(Timestamp(kRows / 32)).tuples);
    }
    for (int trial = 0; trial < 25; ++trial) {
      const Predicate p = RandomFilter(rng, kRows);
      const ExpressionPtr filtered = Select(Base("R"), p);
      const std::vector<ExpressionPtr> exprs = {
          filtered, Project(filtered, {0, 1, 2}), Project(filtered, {1}),
          Aggregate(filtered, {0}, AggregateFunction::Count())};
      const Timestamp tau(rng.UniformInt(0, kRows / 8 + 4));
      for (const ExpressionPtr& e : exprs) {
        auto reference = testing::ReferenceEval(e, db, tau);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        for (const EvalOptions& options : {serial, parallel}) {
          auto got = Evaluate(e, db, tau, options);
          auto want = Evaluate(e, flat_db, tau, options);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          const std::string context =
              "phase " + std::to_string(phase) + ", tau " + tau.ToString() +
              ", workers " + std::to_string(options.parallelism) + ": " +
              e->ToString();
          EXPECT_TRUE(Relation::EqualAt(got->relation, want->relation, tau))
              << context << "\n  segmented: " << got->relation.ToString()
              << "\n  flat:      " << want->relation.ToString();
          EXPECT_TRUE(Relation::EqualAt(got->relation, *reference, tau))
              << context << "\n  segmented: " << got->relation.ToString()
              << "\n  reference: " << reference->ToString();
          EXPECT_EQ(got->texp, want->texp) << context;
        }
      }
    }
  }
  // Correlated ts clusters by segment, so some segments must be skipped.
  if (cfg.correlated) {
    EXPECT_GT(Skipped(), skipped0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SegmentSkipSweep,
    ::testing::Values(SkipConfig{1701, true, 8, 64},
                      SkipConfig{1702, true, 2, 16},
                      SkipConfig{1703, true, 1, 4},
                      SkipConfig{1704, false, 8, 64},
                      SkipConfig{1705, false, 2, 16}),
    [](const ::testing::TestParamInfo<SkipConfig>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.correlated ? "_correlated" : "_uncorrelated") +
             "_w" + std::to_string(info.param.bucket_width) + "_cap" +
             std::to_string(info.param.max_segments);
    });

}  // namespace
}  // namespace expdb
