// Differential testing: the production evaluator (hash joins, match
// tables, merged paths) against the naive reference evaluator that
// implements the paper's definitions literally. Random databases, random
// plans, all probed times — any divergence is a bug.

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/rewrite.h"
#include "testing/workload.h"
#include "tests/support/reference_eval.h"

namespace expdb {
namespace {

struct Config {
  uint64_t seed;
  size_t num_tuples;
  size_t max_depth;
  int64_t value_domain;
};

class DifferentialEvalTest : public ::testing::TestWithParam<Config> {};

TEST_P(DifferentialEvalTest, ProductionMatchesReference) {
  const Config& cfg = GetParam();
  Rng rng(cfg.seed);
  Database db;
  testing::RelationSpec rspec;
  rspec.num_tuples = cfg.num_tuples;
  rspec.arity = 2;
  rspec.value_domain = cfg.value_domain;
  rspec.ttl_min = 1;
  rspec.ttl_max = 18;
  rspec.infinite_fraction = 0.1;
  ASSERT_TRUE(testing::FillDatabase(&db, rng, rspec, 3).ok());

  testing::ExpressionSpec espec;
  espec.max_depth = cfg.max_depth;
  espec.allow_nonmonotonic = true;

  EvalOptions conservative;
  conservative.aggregate_mode = AggregateExpirationMode::kConservative;

  for (int trial = 0; trial < 12; ++trial) {
    ExpressionPtr e = testing::MakeRandomExpression(rng, db, espec);
    for (int64_t t : {0, 1, 5, 9, 14, 19}) {
      auto production = Evaluate(e, db, Timestamp(t), conservative);
      auto reference = testing::ReferenceEval(e, db, Timestamp(t));
      ASSERT_EQ(production.ok(), reference.ok())
          << e->ToString() << " disagree on evaluability at " << t;
      if (!production.ok()) continue;
      EXPECT_TRUE(Relation::EqualAt(production->relation, *reference,
                                    Timestamp(t)))
          << "divergence at t=" << t << "\n  plan: " << e->ToString()
          << "\n  production: " << production->relation.ToString()
          << "\n  reference:  " << reference->ToString();
      EXPECT_EQ(production->relation.size(), reference->size())
          << e->ToString();
    }
  }
}

// Fixed inputs for the borrowed-segment filter scan and the split join,
// over segmented relations whose texps spread across buckets so that at
// the probed times segments are pruned, straddle τ or are fully live:
// filters (including OR and const-false), GROUP BY over a filtered scan,
// and a two-table join with left-only, right-only, cross and OR
// conjuncts, both as one join predicate and split the way the SQL binder
// splits it. Rows and per-tuple texps must match the reference; texp(e)
// must match the same query with its filter kept off the scan (an
// identity projection in between) or its join left unsplit. Serial and
// morsel-parallel execution both run.
TEST(DifferentialEvalFixedTest, SegmentFilterScansAndSplitJoins) {
  Database db;
  Relation* r = db.CreateRelation("R", Schema({{"a", ValueType::kInt64},
                                               {"b", ValueType::kInt64}}))
                    .value();
  for (int64_t i = 0; i < 240; ++i) {
    const Timestamp texp =
        i % 6 == 0 ? Timestamp::Infinity() : Timestamp(1 + i % 44);
    ASSERT_TRUE(r->Insert(Tuple{i % 13, i}, texp).ok());
  }
  Relation* s = db.CreateRelation("S", Schema({{"a", ValueType::kInt64},
                                               {"c", ValueType::kInt64}}))
                    .value();
  for (int64_t i = 0; i < 70; ++i) {
    const Timestamp texp =
        i % 5 == 0 ? Timestamp::Infinity() : Timestamp(2 + i % 31);
    ASSERT_TRUE(s->Insert(Tuple{i % 13, 3 * i}, texp).ok());
  }
  ASSERT_TRUE(r->segmented());
  ASSERT_GT(r->SegmentCount(), 3u);

  using namespace algebra;  // NOLINT
  auto cmp = [](size_t col, ComparisonOp op, int64_t v) {
    return Predicate::Compare(Operand::Column(col), op,
                              Operand::Constant(Value(v)));
  };
  // Identity projection: keeps the filter's child from being a scan.
  auto unfused = [](const ExpressionPtr& e) {
    return Select(Project(e->left(), {0, 1}), e->predicate());
  };
  const Predicate range =
      cmp(1, ComparisonOp::kGe, 40).And(cmp(1, ComparisonOp::kLt, 200));
  const Predicate either =
      cmp(0, ComparisonOp::kEq, 3).Or(cmp(1, ComparisonOp::kGt, 220));
  const Predicate never = Predicate::Compare(
      Operand::Constant(Value(int64_t{1})), ComparisonOp::kEq,
      Operand::Constant(Value(int64_t{2})));
  // Over R(a, b) × S(a, c): a = a, b >= 30 (left), c < 150 (right),
  // (b > 100 or c > 60) (cross OR), (a = 1 or a = 2 or a = 5) (left OR).
  const Predicate join_pred =
      Predicate::ColumnsEqual(0, 2)
          .And(cmp(1, ComparisonOp::kGe, 30))
          .And(cmp(3, ComparisonOp::kLt, 150))
          .And(cmp(1, ComparisonOp::kGt, 100).Or(cmp(3, ComparisonOp::kGt, 60)))
          .And(cmp(0, ComparisonOp::kEq, 1)
                   .Or(cmp(0, ComparisonOp::kEq, 2))
                   .Or(cmp(0, ComparisonOp::kEq, 5)));
  bool pushed = false;
  ExpressionPtr split =
      JoinWithPushedConjuncts(Base("R"), Base("S"), join_pred, 2, &pushed);
  ASSERT_TRUE(pushed);
  ASSERT_EQ(split->left()->kind(), ExprKind::kSelect);
  ASSERT_EQ(split->right()->kind(), ExprKind::kSelect);

  struct Case {
    ExpressionPtr e;
    ExpressionPtr twin;  // same answer through the old operator shapes
  };
  const ExpressionPtr filtered = Select(Base("R"), range);
  const ExpressionPtr filtered_or = Select(Base("R"), either);
  const ExpressionPtr filtered_never = Select(Base("R"), never);
  const std::vector<Case> cases = {
      {filtered, unfused(filtered)},
      {filtered_or, unfused(filtered_or)},
      {filtered_never, unfused(filtered_never)},
      {Aggregate(filtered, {0}, AggregateFunction::Count()),
       Aggregate(unfused(filtered), {0}, AggregateFunction::Count())},
      {Aggregate(filtered_or, {0}, AggregateFunction::Sum(1)),
       Aggregate(unfused(filtered_or), {0}, AggregateFunction::Sum(1))},
      {split, Join(Base("R"), Base("S"), join_pred)},
  };

  EvalOptions serial;
  serial.aggregate_mode = AggregateExpirationMode::kConservative;
  EvalOptions parallel = serial;
  parallel.parallelism = 4;
  parallel.parallel_min_morsel = 4;
  for (const Case& c : cases) {
    for (int64_t t : {0, 7, 12, 20, 33, 44, 50}) {
      const Timestamp tau(t);
      auto reference = testing::ReferenceEval(c.e, db, tau);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      for (const EvalOptions& options : {serial, parallel}) {
        auto production = Evaluate(c.e, db, tau, options);
        auto twin = Evaluate(c.twin, db, tau, options);
        ASSERT_TRUE(production.ok()) << production.status().ToString();
        ASSERT_TRUE(twin.ok()) << twin.status().ToString();
        EXPECT_TRUE(Relation::EqualAt(production->relation, *reference, tau))
            << "t=" << t << " " << c.e->ToString()
            << "\n  production: " << production->relation.ToString()
            << "\n  reference:  " << reference->ToString();
        EXPECT_EQ(production->relation.CountUnexpiredAt(tau),
                  reference->CountUnexpiredAt(tau))
            << c.e->ToString();
        EXPECT_TRUE(Relation::EqualAt(production->relation, twin->relation,
                                      tau))
            << "t=" << t << " " << c.e->ToString();
        EXPECT_EQ(production->texp, twin->texp)
            << "t=" << t << " " << c.e->ToString();
      }
    }
  }
}

// Fixed inputs for the max-merge (π, ∪: Eqs. 3–4) and group-by (φ:
// Eq. 7) kernels. R and S draw every column from a domain of 3, so
// projections and unions collide on most rows; G has 1 200 groups, so
// the group table grows many times over. Serial and 4-worker execution
// must both match the reference, rows and per-tuple texps, and agree on
// texp(e).
TEST(DifferentialEvalFixedTest, MaxMergeAndGroupKernels) {
  Database db;
  const Schema three({{"a", ValueType::kInt64},
                      {"b", ValueType::kInt64},
                      {"c", ValueType::kInt64}});
  for (const char* name : {"R", "S"}) {
    Relation* rel = db.CreateRelation(name, three).value();
    const int64_t shift = name[0] == 'R' ? 0 : 1;
    for (int64_t i = 0; i < 27; ++i) {
      const Timestamp texp = (i + shift) % 5 == 0
                                 ? Timestamp::Infinity()
                                 : Timestamp(1 + (7 * i + shift) % 23);
      ASSERT_TRUE(
          rel->Insert(Tuple{(i + shift) % 3, (i / 3) % 3, (i / 9) % 3}, texp)
              .ok());
    }
  }
  Relation* g = db.CreateRelation("G", Schema({{"g", ValueType::kInt64},
                                               {"v", ValueType::kInt64}}))
                    .value();
  for (int64_t i = 0; i < 1500; ++i) {
    const Timestamp texp =
        i % 9 == 0 ? Timestamp::Infinity() : Timestamp(1 + i % 29);
    ASSERT_TRUE(g->Insert(Tuple{i % 1200, i % 7}, texp).ok());
  }

  using namespace algebra;  // NOLINT
  const std::vector<ExpressionPtr> cases = {
      Project(Base("R"), {0}),
      Project(Base("R"), {2, 1}),
      Union(Base("R"), Base("S")),
      Project(Union(Base("R"), Base("S")), {1}),
      Union(Project(Base("R"), {0, 1}), Project(Base("S"), {1, 2})),
      Aggregate(Base("R"), {0, 1}, AggregateFunction::Min(2)),
      Aggregate(Base("G"), {0}, AggregateFunction::Count()),
      Aggregate(Base("G"), {0}, AggregateFunction::Sum(1)),
      Aggregate(Base("G"), {}, AggregateFunction::Count()),
      // Per-group: one row per group, the longest-lived member's.
      Project(Aggregate(Base("G"), {0}, AggregateFunction::Max(1)), {0, 2}),
      Project(Aggregate(Base("G"), {1}, AggregateFunction::Count()), {0, 2}),
  };

  EvalOptions serial;
  serial.aggregate_mode = AggregateExpirationMode::kConservative;
  EvalOptions parallel = serial;
  parallel.parallelism = 4;
  parallel.parallel_min_morsel = 4;
  for (const ExpressionPtr& e : cases) {
    for (int64_t t : {0, 6, 13, 25}) {
      const Timestamp tau(t);
      auto reference = testing::ReferenceEval(e, db, tau);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      auto one = Evaluate(e, db, tau, serial);
      auto four = Evaluate(e, db, tau, parallel);
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      ASSERT_TRUE(four.ok()) << four.status().ToString();
      for (const MaterializedResult* got : {&*one, &*four}) {
        EXPECT_TRUE(Relation::EqualAt(got->relation, *reference, tau))
            << "t=" << t << " " << e->ToString()
            << "\n  production: " << got->relation.ToString()
            << "\n  reference:  " << reference->ToString();
        EXPECT_EQ(got->relation.CountUnexpiredAt(tau),
                  reference->CountUnexpiredAt(tau))
            << e->ToString();
      }
      EXPECT_EQ(one->relation.size(), four->relation.size()) << e->ToString();
      EXPECT_TRUE(Relation::EqualAt(one->relation, four->relation, tau))
          << "t=" << t << " " << e->ToString();
      EXPECT_EQ(one->texp, four->texp) << "t=" << t << " " << e->ToString();
    }
  }
  // The collisions the kernels exist for did happen.
  auto projected = Evaluate(Project(Base("R"), {0}), db, Timestamp(0), serial);
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->relation.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialEvalTest,
    ::testing::Values(Config{901, 25, 3, 4}, Config{902, 25, 4, 4},
                      Config{903, 40, 4, 6}, Config{904, 40, 5, 3},
                      Config{905, 15, 5, 2}, Config{906, 60, 3, 8},
                      Config{907, 30, 4, 5}, Config{908, 50, 4, 10},
                      Config{909, 20, 6, 3}, Config{910, 35, 5, 5},
                      // A domain of 3: π and ∪ collide on most rows.
                      Config{911, 60, 4, 3}, Config{912, 90, 3, 3}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace expdb
