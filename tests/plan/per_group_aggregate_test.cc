// Per-group aggregation is invisible in the results.
//
// An aggregate whose one consumer is a projection onto its group-by
// columns and its aggregate column emits one row per group — the
// longest-lived member's — instead of one per member
// (PlanNode::per_group, docs/ALGEBRA.md). The projection's
// max-of-duplicates keeps exactly that row, so the projected rows, their
// texps, texp(e) and the validity intervals must match the per-member
// plan. Swept here:
//  * execution — COUNT/SUM/AVG/MIN/MAX × four shapes (no GROUP BY, one
//    and two group columns, a projection that drops a group column so
//    groups collide) × every aggregate mode, tolerance 0 and > 0,
//    validity tracking on and off, one and four workers — against the
//    per-member plan through Evaluate() and, for Eq. (8), the naive
//    reference evaluator;
//  * maintenance — an incremental view against a recomputing twin, and
//    SQL result-cache entries and views under eager and lazy removal
//    against recomputation, across INSERT, DELETE and ADVANCE;
//  * the shapes that must keep their member rows, pinned with EXPLAIN;
//  * the work of a patch: one inserted row moves a handful of ops.

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/eval.h"
#include "core/expression.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "plan/cache.h"
#include "plan/delta.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "sql/session.h"
#include "tests/support/reference_eval.h"
#include "view/materialized_view.h"

namespace expdb {
namespace {

using namespace algebra;  // NOLINT

std::vector<Relation::Entry> Sorted(const Relation& r) {
  std::vector<Relation::Entry> out = r.entries();
  std::sort(out.begin(), out.end(),
            [](const Relation::Entry& a, const Relation::Entry& b) {
              if (!(a.tuple == b.tuple)) return a.tuple < b.tuple;
              return a.texp < b.texp;
            });
  return out;
}

/// Same tuples with the same texps (attribute names are not compared).
void ExpectSameEntries(const Relation& want, const Relation& got,
                       const std::string& context) {
  const std::vector<Relation::Entry> lhs = Sorted(want);
  const std::vector<Relation::Entry> rhs = Sorted(got);
  ASSERT_EQ(lhs.size(), rhs.size()) << context;
  for (size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_TRUE(lhs[i].tuple == rhs[i].tuple)
        << context << "\ntuple #" << i << ": " << lhs[i].tuple.ToString()
        << " vs " << rhs[i].tuple.ToString();
    ASSERT_EQ(lhs[i].texp, rhs[i].texp)
        << context << "\ntexp of " << lhs[i].tuple.ToString();
  }
}

// --- shapes ----------------------------------------------------------------

enum class Shape { kNoGroup, kOneColumn, kTwoColumns, kDropsAColumn };

const Shape kShapes[] = {Shape::kNoGroup, Shape::kOneColumn,
                         Shape::kTwoColumns, Shape::kDropsAColumn};

std::string ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kNoGroup:
      return "NoGroup";
    case Shape::kOneColumn:
      return "OneColumn";
    case Shape::kTwoColumns:
      return "TwoColumns";
    case Shape::kDropsAColumn:
      return "DropsAColumn";
  }
  return "?";
}

std::vector<size_t> GroupBy(Shape shape) {
  switch (shape) {
    case Shape::kNoGroup:
      return {};
    case Shape::kOneColumn:
      return {0};
    case Shape::kTwoColumns:
    case Shape::kDropsAColumn:
      return {0, 1};
  }
  return {};
}

/// The projection above the aggregate of r(a, b, c); column 3 is f.
std::vector<size_t> Projection(Shape shape) {
  switch (shape) {
    case Shape::kNoGroup:
      return {3};
    case Shape::kOneColumn:
      return {0, 3};
    case Shape::kTwoColumns:
      return {0, 1, 3};
    case Shape::kDropsAColumn:
      return {0, 3};
  }
  return {};
}

struct Function {
  const char* name;
  const char* sql;
  AggregateFunction f;
};

const Function kFunctions[] = {
    {"Count", "COUNT(*)", AggregateFunction::Count()},
    {"Sum", "SUM(c)", AggregateFunction::Sum(2)},
    {"Avg", "AVG(c)", AggregateFunction::Avg(2)},
    {"Min", "MIN(c)", AggregateFunction::Min(2)},
    {"Max", "MAX(c)", AggregateFunction::Max(2)},
};

/// π_P(aggexp_{G,f}(r)): the per-group form.
ExpressionPtr PerGroup(Shape shape, const AggregateFunction& f) {
  return Project(Aggregate(Base("r"), GroupBy(shape), f), Projection(shape));
}

/// The same query with an identity projection between the aggregate and
/// π_P: the aggregate's consumer reads every member column, so it keeps
/// one row per member.
ExpressionPtr PerMember(Shape shape, const AggregateFunction& f) {
  return Project(
      Project(Aggregate(Base("r"), GroupBy(shape), f), {0, 1, 2, 3}),
      Projection(shape));
}

std::string Sql(Shape shape, const Function& fn) {
  const std::string f = fn.sql;
  switch (shape) {
    case Shape::kNoGroup:
      return "SELECT " + f + " FROM r";
    case Shape::kOneColumn:
      return "SELECT a, " + f + " FROM r GROUP BY a";
    case Shape::kTwoColumns:
      return "SELECT a, b, " + f + " FROM r GROUP BY a, b";
    case Shape::kDropsAColumn:
      return "SELECT a, " + f + " FROM r GROUP BY a, b";
  }
  return "";
}

/// r(a, b, c): small domains so groups share members and zero-valued c
/// makes neutral SUM slices; texps in [1, 15] or ∞.
void FillR(Database* db, Rng& rng, size_t n) {
  Relation* r = db->CreateRelation("r", Schema({{"a", ValueType::kInt64},
                                                {"b", ValueType::kInt64},
                                                {"c", ValueType::kInt64}}))
                    .value();
  for (size_t i = 0; i < n; ++i) {
    const Timestamp texp = rng.Bernoulli(0.15)
                               ? Timestamp::Infinity()
                               : Timestamp(rng.UniformInt(1, 15));
    Tuple t{rng.UniformInt(0, 2), rng.UniformInt(0, 2), rng.UniformInt(-2, 4)};
    ASSERT_TRUE(r->Insert(std::move(t), texp).ok());
  }
}

// --- execution sweep -------------------------------------------------------

/// Distinct group keys among r's tuples live at `tau`.
size_t LiveGroups(const Database& db, Shape shape, Timestamp tau) {
  std::set<Tuple> keys;
  for (const auto& [t, texp] : db.GetRelation("r").value()->SortedEntries()) {
    if (texp > tau) keys.insert(t.Project(GroupBy(shape)));
  }
  return keys.size();
}

/// One point of the sweep: the per-group plan against the per-member
/// plan (through Evaluate), the facade, and — for Eq. (8) — the
/// reference evaluator.
void CheckPerGroup(const Database& db, Shape shape, const Function& fn,
                   const EvalOptions& opts, Timestamp tau,
                   const std::string& context) {
  const ExpressionPtr per_group = PerGroup(shape, fn.f);
  plan::PlannerOptions popts;
  popts.eval = opts;
  auto planned = plan::Planner::Plan(per_group, db, popts);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const plan::PhysicalPlan& p = *planned.value();
  ASSERT_TRUE(p.root().left->per_group) << p.ToString();
  plan::PlanProfile profile;
  auto got = plan::ExecutePlan(p, db, tau, opts, &profile);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = Evaluate(PerMember(shape, fn.f), db, tau, opts);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto facade = Evaluate(per_group, db, tau, opts);
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();

  ExpectSameEntries(want->relation, got->relation, context);
  ExpectSameEntries(facade->relation, got->relation, context);
  EXPECT_EQ(want->texp, got->texp) << context;
  EXPECT_EQ(facade->texp, got->texp) << context;
  EXPECT_EQ(want->validity, got->validity) << context;
  // One row per live group reaches the projection.
  EXPECT_EQ(profile.at(2).rows, LiveGroups(db, shape, tau)) << context;

  if (opts.aggregate_mode == AggregateExpirationMode::kConservative &&
      opts.aggregate_tolerance == 0.0) {
    auto ref = testing::ReferenceEval(per_group, db, tau);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ExpectSameEntries(*ref, got->relation, context);
  }
}

class PerGroupSweep
    : public ::testing::TestWithParam<std::tuple<Shape, Function>> {};

TEST_P(PerGroupSweep, MatchesPerMemberPlanAndReference) {
  const auto& [shape, fn] = GetParam();
  const AggregateExpirationMode kModes[] = {
      AggregateExpirationMode::kConservative,
      AggregateExpirationMode::kContributingSet,
      AggregateExpirationMode::kExact};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Database db;
    Rng rng(seed * 131 + static_cast<uint64_t>(shape));
    FillR(&db, rng, 48);
    for (AggregateExpirationMode mode : kModes) {
      for (double tolerance : {0.0, 1.5}) {
        for (bool validity : {false, true}) {
          for (size_t workers : {size_t{1}, size_t{4}}) {
            EvalOptions opts;
            opts.aggregate_mode = mode;
            opts.aggregate_tolerance = tolerance;
            opts.compute_validity = validity;
            opts.parallelism = workers;
            opts.parallel_min_morsel = 1;  // force the parallel paths
            for (int64_t tau : {0, 6}) {
              const std::string context =
                  std::string(fn.name) + " " + ShapeName(shape) + " seed " +
                  std::to_string(seed) + " mode " +
                  std::string(AggregateExpirationModeToString(mode)) +
                  " tolerance " + std::to_string(tolerance) + " validity " +
                  std::to_string(validity) + " workers " +
                  std::to_string(workers) + " tau " + std::to_string(tau);
              CheckPerGroup(db, shape, fn, opts, Timestamp(tau), context);
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PerGroupSweep,
    ::testing::Combine(::testing::ValuesIn(kShapes),
                       ::testing::ValuesIn(kFunctions)),
    [](const ::testing::TestParamInfo<PerGroupSweep::ParamType>& info) {
      return ShapeName(std::get<0>(info.param)) + std::get<1>(info.param).name;
    });

/// The row a group emits is its longest-lived member's, ties going to the
/// smaller tuple, serially and morsel-parallel alike.
TEST(PerGroupRowTest, RowIsTheLongestLivedMember) {
  Database db;
  Relation* r = db.CreateRelation("r", Schema({{"a", ValueType::kInt64},
                                               {"b", ValueType::kInt64},
                                               {"c", ValueType::kInt64}}))
                    .value();
  ASSERT_TRUE(r->Insert(Tuple{1, 1, 5}, Timestamp(10)).ok());
  ASSERT_TRUE(r->Insert(Tuple{1, 3, 1}, Timestamp(20)).ok());
  ASSERT_TRUE(r->Insert(Tuple{1, 2, 7}, Timestamp(20)).ok());
  ASSERT_TRUE(r->Insert(Tuple{2, 1, 3}, Timestamp::Infinity()).ok());
  auto p = plan::Planner::Plan(
      PerGroup(Shape::kOneColumn, AggregateFunction::Count()), db);
  ASSERT_TRUE(p.ok());
  for (size_t workers : {size_t{1}, size_t{4}}) {
    EvalOptions opts;
    opts.parallelism = workers;
    opts.parallel_min_morsel = 1;
    plan::NodeCapture capture;
    ASSERT_TRUE(plan::ExecutePlan(*p.value(), db, Timestamp(0), opts,
                                  nullptr, &capture)
                    .ok());
    // The projection seeds from the aggregate, so its output is captured.
    ASSERT_TRUE(capture.nodes[2].relation.has_value());
    Relation want(p.value()->root().left->schema);
    // COUNT's cap is the group's earliest expiration (Eq. 8).
    ASSERT_TRUE(want.Insert(Tuple{1, 2, 7, 3}, Timestamp(10)).ok());
    ASSERT_TRUE(want.Insert(Tuple{2, 1, 3, 1}, Timestamp::Infinity()).ok());
    ExpectSameEntries(want, *capture.nodes[2].relation,
                      "workers " + std::to_string(workers));
  }
}

// --- maintenance sweep -----------------------------------------------------

/// An incremental view over each per-group shape against a recomputing
/// twin: tuples, texps and texp(e) agree after every step.
TEST(PerGroupDeltaTest, IncrementalViewMatchesRecomputation) {
  const AggregateExpirationMode kModes[] = {
      AggregateExpirationMode::kConservative,
      AggregateExpirationMode::kContributingSet,
      AggregateExpirationMode::kExact};
  uint64_t delta_applies = 0;
  for (Shape shape : kShapes) {
    for (const Function& fn : kFunctions) {
      for (AggregateExpirationMode mode : kModes) {
        Rng rng(static_cast<uint64_t>(shape) * 17 +
                static_cast<uint64_t>(mode) + 5);
        Database db;
        FillR(&db, rng, 40);
        MaterializedView::Options inc_opts;
        inc_opts.eval.aggregate_mode = mode;
        MaterializedView::Options rec_opts = inc_opts;
        rec_opts.incremental = false;
        const ExpressionPtr e = PerGroup(shape, fn.f);
        MaterializedView incremental(e, inc_opts);
        MaterializedView recompute(e, rec_opts);
        ASSERT_TRUE(incremental.Initialize(db, Timestamp(0)).ok());
        ASSERT_TRUE(recompute.Initialize(db, Timestamp(0)).ok());
        Timestamp now(0);
        for (int step = 0; step < 30; ++step) {
          // Several mutations per round, so one patch can see the top
          // member leave while others arrive.
          const int64_t mutations = rng.UniformInt(1, 3);
          for (int64_t m = 0; m < mutations; ++m) {
            Relation* r = db.GetRelation("r").value();
            if (rng.Bernoulli(0.6) || r->size() == 0) {
              Tuple t{rng.UniformInt(0, 2), rng.UniformInt(0, 2),
                      rng.UniformInt(-2, 4)};
              const Timestamp texp =
                  Timestamp(now.ticks() + rng.UniformInt(1, 20));
              ASSERT_TRUE(db.Insert("r", std::move(t), texp).ok());
            } else {
              const auto entries = r->SortedEntries();
              const size_t victim = static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(entries.size()) - 1));
              ASSERT_TRUE(db.Erase("r", entries[victim].first).ok());
            }
          }
          if (rng.Bernoulli(0.25)) {
            now = Timestamp(now.ticks() + rng.UniformInt(1, 3));
          }
          incremental.MarkStale();
          recompute.MarkStale();
          const std::string context =
              e->ToString() + "\nmode " +
              std::string(AggregateExpirationModeToString(mode)) + " step " +
              std::to_string(step) + " at t=" + std::to_string(now.ticks());
          ASSERT_TRUE(incremental.AdvanceTo(db, now).ok()) << context;
          ASSERT_TRUE(recompute.AdvanceTo(db, now).ok()) << context;
          auto inc = incremental.Read(db, now);
          ASSERT_TRUE(inc.ok()) << inc.status().ToString() << context;
          auto rec = recompute.Read(db, now);
          ASSERT_TRUE(rec.ok()) << rec.status().ToString() << context;
          ExpectSameEntries(*rec, *inc, context);
          EXPECT_EQ(incremental.texp(), recompute.texp()) << context;
        }
        delta_applies += incremental.stats().delta_applies;
      }
    }
  }
  // The sweep is not vacuous: the views really maintained themselves.
  EXPECT_GT(delta_applies, 0u);
}

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

sql::ExecResult MustExec(sql::Session& s, const std::string& stmt) {
  auto r = s.Execute(stmt);
  EXPECT_TRUE(r.ok()) << stmt << " -> " << r.status().ToString();
  return r.ok() ? r.MoveValue() : sql::ExecResult{};
}

/// SQL result-cache entries and views over every shape and function,
/// under one removal policy, against a fresh per-member evaluation.
class PerGroupSqlDeltaTest : public ::testing::TestWithParam<RemovalPolicy> {};

TEST_P(PerGroupSqlDeltaTest, CachedAndViewReadsMatchRecomputation) {
  sql::Session::Options options;
  options.expiration.policy = GetParam();
  sql::Session s(options);
  Rng rng(GetParam() == RemovalPolicy::kEager ? 11 : 12);
  MustExec(s, "CREATE TABLE r (a INT, b INT, c INT)");
  auto insert = [&](int rows) {
    std::string stmt = "INSERT INTO r VALUES ";
    for (int i = 0; i < rows; ++i) {
      if (i > 0) stmt += ", ";
      stmt += "(" + std::to_string(rng.UniformInt(0, 2)) + ", " +
              std::to_string(rng.UniformInt(0, 2)) + ", " +
              std::to_string(rng.UniformInt(-2, 4)) + ")";
    }
    MustExec(s, stmt + " TTL " + std::to_string(rng.UniformInt(2, 30)));
  };
  for (int i = 0; i < 8; ++i) insert(6);

  struct Query {
    std::string sql;
    std::string view;
    ExpressionPtr per_member;
  };
  std::vector<Query> queries;
  for (Shape shape : kShapes) {
    for (const Function& fn : kFunctions) {
      Query q{Sql(shape, fn), "v" + std::to_string(queries.size()),
              PerMember(shape, fn.f)};
      MustExec(s, "CREATE VIEW " + q.view + " AS " + q.sql);
      MustExec(s, q.sql);  // first sighting
      MustExec(s, q.sql);  // fill
      queries.push_back(std::move(q));
    }
  }

  const uint64_t patches0 = Counter("expdb_result_cache_patches_total");
  for (int step = 0; step < 30; ++step) {
    // Several statements between reads, so one patch can see a group's
    // longest-lived member leave while others arrive.
    const int64_t statements = rng.UniformInt(1, 3);
    for (int64_t i = 0; i < statements; ++i) {
      if (rng.Bernoulli(0.6)) {
        insert(static_cast<int>(rng.UniformInt(1, 4)));
      } else {
        MustExec(s, "DELETE FROM r WHERE c = " +
                        std::to_string(rng.UniformInt(-2, 4)) +
                        " AND a = " + std::to_string(rng.UniformInt(0, 2)));
      }
    }
    if (rng.Bernoulli(0.25)) {
      MustExec(s, "ADVANCE TIME " + std::to_string(rng.UniformInt(1, 3)));
    }
    const Timestamp now = s.Now();
    for (const Query& q : queries) {
      const std::string context = q.sql + "\nstep " + std::to_string(step) +
                                  " at t=" + std::to_string(now.ticks());
      auto want = Evaluate(q.per_member, s.db(), now);
      ASSERT_TRUE(want.ok()) << want.status().ToString() << context;
      const Relation expected = want->relation.UnexpiredAt(now);
      for (const std::string& stmt : {q.sql, "SELECT * FROM " + q.view}) {
        sql::ExecResult got = MustExec(s, stmt);
        ASSERT_TRUE(got.relation.has_value()) << context;
        ExpectSameEntries(expected, got.relation->UnexpiredAt(now),
                          stmt + "\n" + context);
      }
    }
  }
  // Some reads were served by patching the cached entries.
  EXPECT_GT(Counter("expdb_result_cache_patches_total"), patches0);
}

INSTANTIATE_TEST_SUITE_P(Policies, PerGroupSqlDeltaTest,
                         ::testing::Values(RemovalPolicy::kEager,
                                           RemovalPolicy::kLazy),
                         [](const ::testing::TestParamInfo<RemovalPolicy>& i) {
                           return i.param == RemovalPolicy::kEager ? "Eager"
                                                                   : "Lazy";
                         });

// --- shapes that keep their member rows ------------------------------------

class PerGroupExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExec(session_, "CREATE TABLE r (a INT, b INT, c INT)");
    MustExec(session_, "INSERT INTO r VALUES (1, 1, 5), (1, 2, 7), (2, 1, 3)");
  }

  std::string Explain(const std::string& select) {
    return MustExec(session_, "EXPLAIN " + select).message;
  }

  /// Plans an algebra expression over the session's catalog.
  std::string Render(const ExpressionPtr& e) {
    auto p = plan::Planner::Plan(e, session_.db());
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return p.ok() ? p.value()->ToString() : std::string();
  }

  static bool IsPerGroup(const std::string& rendered) {
    return rendered.find("[per-group]") != std::string::npos;
  }

  sql::Session session_;
};

TEST_F(PerGroupExplainTest, EverySqlShapeIsPerGroup) {
  for (Shape shape : kShapes) {
    for (const Function& fn : kFunctions) {
      const std::string rendered = Explain(Sql(shape, fn));
      EXPECT_TRUE(IsPerGroup(rendered)) << Sql(shape, fn) << "\n" << rendered;
    }
  }
}

TEST_F(PerGroupExplainTest, ChainsOfAggregatesKeepTheirMemberRows) {
  // Two aggregate items chain two aggregates; the projection reads the
  // inner one's column, which is not a group column of the outer one.
  const std::string rendered =
      Explain("SELECT a, COUNT(*), SUM(c) FROM r GROUP BY a");
  EXPECT_FALSE(IsPerGroup(rendered)) << rendered;
}

TEST_F(PerGroupExplainTest, SelectionOnTheAggregateKeepsItsMemberRows) {
  const ExpressionPtr agg =
      Aggregate(Base("r"), {0}, AggregateFunction::Count());
  const std::string rendered = Render(Project(
      Select(agg, Predicate::ColumnEquals(3, Value(int64_t{2}))), {0, 3}));
  EXPECT_FALSE(IsPerGroup(rendered)) << rendered;
}

TEST_F(PerGroupExplainTest, SharedAggregateKeepsItsMemberRows) {
  // One aggregate read by two consumers (a common subtree).
  const ExpressionPtr agg =
      Aggregate(Base("r"), {0}, AggregateFunction::Count());
  const std::string rendered =
      Render(Union(Project(agg, {0, 3}), Project(agg, {0, 3})));
  EXPECT_NE(rendered.find("cse=#"), std::string::npos) << rendered;
  EXPECT_FALSE(IsPerGroup(rendered)) << rendered;
}

TEST_F(PerGroupExplainTest, ProjectionReadingMemberColumnsKeepsThem) {
  const ExpressionPtr agg =
      Aggregate(Base("r"), {0}, AggregateFunction::Count());
  EXPECT_FALSE(IsPerGroup(Render(Project(agg, {0, 2, 3}))));
  EXPECT_FALSE(IsPerGroup(Render(agg)));  // no projection at all
  EXPECT_TRUE(IsPerGroup(Render(Project(agg, {3, 0}))));
}

TEST_F(PerGroupExplainTest, InstantiatedPlansKeepTheMark) {
  auto p = plan::Planner::Plan(
      PerGroup(Shape::kOneColumn, AggregateFunction::Count()), session_.db());
  ASSERT_TRUE(p.ok());
  auto bound = plan::InstantiatePlan(p.value(), {});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_TRUE(bound.value()->root().left->per_group);
}

// --- the work of a patch ---------------------------------------------------

/// A 1-row INSERT under a cached single-group COUNT(*) over 4 096 rows:
/// the scan, the aggregate and the projection emit a handful of ops in
/// all (the per-member aggregate replayed ~2 × 4 096).
TEST(PerGroupOpsTest, PatchedCountMovesAHandfulOfOps) {
  sql::Session s;
  MustExec(s, "CREATE TABLE t (k INT)");
  Relation* t = s.db().GetRelation("t").value();
  for (int64_t i = 0; i < 4096; ++i) {
    ASSERT_TRUE(t->Insert(Tuple{i}, Timestamp(100 + i % 50)).ok());
  }
  obs::EventLog& log = obs::EventLog::Global();
  const bool was_enabled = log.enabled();
  MustExec(s, "SELECT COUNT(*) FROM t");  // first sighting
  MustExec(s, "SELECT COUNT(*) FROM t");  // fill
  MustExec(s, "INSERT INTO t VALUES (5000)");
  log.Clear();
  log.set_enabled(true);
  sql::ExecResult r = MustExec(s, "SELECT COUNT(*) FROM t");
  log.set_enabled(was_enabled);
  EXPECT_EQ(r.message, "ok (cached)");
  ASSERT_TRUE(r.relation.has_value());
  ASSERT_EQ(r.relation->size(), 1u);
  EXPECT_EQ(r.relation->entries()[0].tuple.at(0), Value(int64_t{4097}));

  bool saw = false;
  for (const obs::LogEvent& e : log.Snapshot()) {
    if (e.event != "cache_patch") continue;
    for (const auto& [key, value] : e.fields) {
      if (key != "ops_total") continue;
      saw = true;
      EXPECT_GE(std::stoul(value), 1u);
      EXPECT_LE(std::stoul(value), 8u);
    }
  }
  log.Clear();
  EXPECT_TRUE(saw) << "no cache_patch event with ops_total";
}

TEST(PerGroupOpsTest, PropagatorCountsEveryNodesOps) {
  Database db;
  Relation* t =
      db.CreateRelation("t", Schema({{"k", ValueType::kInt64}})).value();
  for (int64_t i = 0; i < 4096; ++i) {
    ASSERT_TRUE(t->Insert(Tuple{i}, Timestamp(100 + i % 50)).ok());
  }
  t->EnableDeltaTracking();
  auto p = plan::Planner::Plan(
      Project(Aggregate(Base("t"), {}, AggregateFunction::Count()), {1}), db);
  ASSERT_TRUE(p.ok());
  plan::NodeCapture capture;
  ASSERT_TRUE(
      plan::ExecutePlan(*p.value(), db, Timestamp(0), {}, nullptr, &capture)
          .ok());
  auto prop = plan::DeltaPropagator::Create(p.value(), capture, {});
  ASSERT_NE(prop, nullptr);
  const uint64_t epoch = t->delta_epoch();
  ASSERT_TRUE(t->Insert(Tuple{int64_t{5000}}, Timestamp(120)).ok());
  auto batches = t->DeltasSince(epoch);
  ASSERT_TRUE(batches.has_value());
  auto applied = prop->Apply({{"t", *batches}}, Timestamp(0));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  // scan: +1; aggregate: −⟨…, 4096⟩ +⟨…, 4097⟩; projection: the same two.
  EXPECT_EQ(applied->ops_in, 1u);
  EXPECT_EQ(applied->ops_out, 2u);
  EXPECT_EQ(applied->ops_total, 5u);
}

}  // namespace
}  // namespace expdb
