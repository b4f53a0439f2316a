// Incremental maintenance is invisible in the results.
//
// Two materialized views over the same expression — one maintained by
// pushing recorded base deltas through its cached physical plan
// (Options::incremental = true, the default), one forced onto the full
// recomputation path — must agree exactly (tuples, per-tuple texps, and
// texp(e)) after every step of a randomized interleaving of inserts,
// deletes, texp bumps, and time advances, across all refresh modes and
// operators. The incremental path may fall back to recomputation
// whenever it cannot prove a plan incrementalizable; the property holds
// either way, which is exactly the point: correctness never depends on
// the delta engine firing.
//
// InPlaceScanTest pins the propagator's scan and filter, which read the
// bases' borrowed delta batches in place: one Apply at a fixed time must
// patch a captured result into exactly what recomputation and the
// reference evaluator return, across texp updates, inserts already
// expired, common subtrees, a constant-false filter and two bases.

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/expression.h"
#include "plan/delta.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "testing/workload.h"
#include "tests/support/reference_eval.h"
#include "view/materialized_view.h"

namespace expdb {
namespace {

std::vector<Relation::Entry> SortedEntries(const Relation& r) {
  std::vector<Relation::Entry> out = r.entries();
  std::sort(out.begin(), out.end(),
            [](const Relation::Entry& a, const Relation::Entry& b) {
              if (!(a.tuple == b.tuple)) return a.tuple < b.tuple;
              return a.texp < b.texp;
            });
  return out;
}

void ExpectSameEntries(const Relation& expected, const Relation& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  const auto lhs = SortedEntries(expected);
  const auto rhs = SortedEntries(actual);
  for (size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_TRUE(lhs[i].tuple == rhs[i].tuple)
        << context << "\ntuple #" << i << ": " << lhs[i].tuple.ToString()
        << " vs " << rhs[i].tuple.ToString();
    ASSERT_EQ(lhs[i].texp, rhs[i].texp)
        << context << "\ntexp of " << lhs[i].tuple.ToString();
  }
}

struct Config {
  uint64_t seed;
  size_t num_tuples;
  size_t max_depth;
  int64_t value_domain;
  RefreshMode mode;
  AggregateExpirationMode agg_mode;
};

class DeltaPropertyTest : public ::testing::TestWithParam<Config> {
 protected:
  void Fill(Database* db, Rng& rng) {
    const Config& cfg = GetParam();
    testing::RelationSpec rspec;
    rspec.num_tuples = cfg.num_tuples;
    rspec.arity = 2;
    rspec.value_domain = cfg.value_domain;
    rspec.ttl_min = 5;
    rspec.ttl_max = 60;
    rspec.infinite_fraction = 0.15;
    ASSERT_TRUE(testing::FillDatabase(db, rng, rspec, 3).ok());
  }

  /// One random mutation against a random base relation: an insert of a
  /// fresh tuple, a re-insert of an existing tuple with a longer TTL (a
  /// texp bump under Insert's max-merge), or a delete of an existing
  /// tuple. All go through the Database mutators so they land in the
  /// delta rings the incremental view reads.
  void Mutate(Database* db, Rng& rng, Timestamp now) {
    const Config& cfg = GetParam();
    const std::string name = "R" + std::to_string(rng.UniformInt(0, 2));
    Relation* rel = db->GetRelation(name).value();
    const double roll = rng.UniformDouble();
    if (roll < 0.5 || rel->size() == 0) {
      Tuple t{rng.UniformInt(0, cfg.value_domain - 1),
              rng.UniformInt(0, cfg.value_domain - 1)};
      // Mostly future expirations; sometimes ∞, sometimes already dead
      // (an insert invisible to every expτ reader — must be a no-op).
      Timestamp texp = Timestamp(now.ticks() + rng.UniformInt(0, 25));
      if (rng.Bernoulli(0.1)) texp = Timestamp::Infinity();
      ASSERT_TRUE(db->Insert(name, std::move(t), texp).ok());
      return;
    }
    const std::vector<Relation::Entry> entries = rel->entries();
    const Relation::Entry& victim =
        entries[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(entries.size()) - 1))];
    if (roll < 0.75 && !victim.texp.IsInfinite()) {
      // Texp bump: recorded as delete(t, old) + insert(t, new).
      ASSERT_TRUE(db->Insert(name, victim.tuple,
                             Timestamp(victim.texp.ticks() +
                                       rng.UniformInt(1, 20)))
                      .ok());
    } else {
      ASSERT_TRUE(db->Erase(name, victim.tuple).ok());
    }
  }

  MaterializedView::Options Options(bool incremental) const {
    const Config& cfg = GetParam();
    MaterializedView::Options opts;
    opts.mode = cfg.mode;
    opts.eval.aggregate_mode = cfg.agg_mode;
    opts.incremental = incremental;
    return opts;
  }

  /// Runs the interleaving against `expr` and checks the two views agree
  /// after every step.
  void Run(Database* db, Rng& rng, const ExpressionPtr& expr) {
    MaterializedView incremental(expr, Options(true));
    MaterializedView recompute(expr, Options(false));
    ASSERT_TRUE(incremental.Initialize(*db, Timestamp(0)).ok());
    ASSERT_TRUE(recompute.Initialize(*db, Timestamp(0)).ok());

    Timestamp now(0);
    for (int step = 0; step < 40; ++step) {
      const int mutations = static_cast<int>(rng.UniformInt(0, 3));
      for (int m = 0; m < mutations; ++m) Mutate(db, rng, now);
      if (mutations > 0) {
        incremental.MarkStale();
        recompute.MarkStale();
      }
      now = Timestamp(now.ticks() + rng.UniformInt(0, 5));

      const std::string context =
          "expression: " + expr->ToString() + "\nmode: " +
          std::string(RefreshModeToString(GetParam().mode)) + "\nstep " +
          std::to_string(step) + " at t=" + std::to_string(now.ticks());
      ASSERT_TRUE(incremental.AdvanceTo(*db, now).ok()) << context;
      ASSERT_TRUE(recompute.AdvanceTo(*db, now).ok()) << context;
      auto inc_read = incremental.Read(*db, now);
      ASSERT_TRUE(inc_read.ok()) << inc_read.status().ToString() << "\n"
                                 << context;
      auto rec_read = recompute.Read(*db, now);
      ASSERT_TRUE(rec_read.ok()) << rec_read.status().ToString() << "\n"
                                 << context;
      ExpectSameEntries(*rec_read, *inc_read, context);
      EXPECT_EQ(incremental.texp(), recompute.texp()) << context;
    }
  }
};

TEST_P(DeltaPropertyTest, IncrementalMatchesRecomputeOnRandomExpressions) {
  Rng rng(GetParam().seed);
  for (int trial = 0; trial < 4; ++trial) {
    Database db;
    Fill(&db, rng);
    testing::ExpressionSpec espec;
    espec.max_depth = GetParam().max_depth;
    espec.allow_nonmonotonic = true;
    ExpressionPtr e = testing::MakeRandomExpression(rng, db, espec);
    if (GetParam().mode == RefreshMode::kPatchDifference) {
      // Patch mode requires a difference root; the random expression
      // becomes its subtrahend side when arities line up, else we fall
      // back to a plain base difference.
      ExpressionPtr minuend = Expression::MakeUnion(
          Expression::MakeBase("R0"), Expression::MakeBase("R1"));
      auto schema = e->InferSchema(db);
      e = (schema.ok() && schema->arity() == 2)
              ? Expression::MakeDifference(std::move(minuend),
                                           std::move(e))
              : Expression::MakeDifference(std::move(minuend),
                                           Expression::MakeBase("R2"));
    }
    Run(&db, rng, e);
  }
}

/// A deterministic anchor: on a plan the delta engine provably supports,
/// the incremental view must actually take the delta path (no silent
/// fallback masking a vacuous sweep) and still match recomputation.
TEST_P(DeltaPropertyTest, SupportedPlanExercisesTheDeltaPath) {
  if (GetParam().mode == RefreshMode::kSchrodinger) {
    // Validity tracking is out of the delta engine's scope by design;
    // Schrödinger views always fall back.
    GTEST_SKIP();
  }
  Rng rng(GetParam().seed * 7919 + 1);
  Database db;
  Fill(&db, rng);

  using namespace algebra;  // NOLINT
  ExpressionPtr e =
      GetParam().mode == RefreshMode::kPatchDifference
          ? Difference(Base("R0"), Base("R1"))
          : Select(Union(Base("R0"), Base("R1")),
                   Predicate::Compare(
                       Operand::Column(0), ComparisonOp::kGe,
                       Operand::Constant(Value(int64_t{0}))));

  MaterializedView incremental(e, Options(true));
  MaterializedView recompute(e, Options(false));
  ASSERT_TRUE(incremental.Initialize(db, Timestamp(0)).ok());
  ASSERT_TRUE(recompute.Initialize(db, Timestamp(0)).ok());

  Timestamp now(0);
  for (int step = 0; step < 25; ++step) {
    Mutate(&db, rng, now);
    incremental.MarkStale();
    recompute.MarkStale();
    now = Timestamp(now.ticks() + 1);
    const std::string context = "step " + std::to_string(step);
    ASSERT_TRUE(incremental.AdvanceTo(db, now).ok()) << context;
    ASSERT_TRUE(recompute.AdvanceTo(db, now).ok()) << context;
    auto inc_read = incremental.Read(db, now);
    ASSERT_TRUE(inc_read.ok()) << inc_read.status().ToString();
    auto rec_read = recompute.Read(db, now);
    ASSERT_TRUE(rec_read.ok()) << rec_read.status().ToString();
    ExpectSameEntries(*rec_read, *inc_read, context);
    EXPECT_EQ(incremental.texp(), recompute.texp()) << context;
  }

  // The whole point of the sweep: the incremental view really maintained
  // itself from deltas (texp(e) lapses may still force occasional
  // recomputes), and the forced-recompute twin never did.
  EXPECT_GT(incremental.stats().delta_applies, 0u);
  EXPECT_EQ(recompute.stats().delta_applies, 0u);
}

/// One Apply at a fixed `kNow`: nothing captured at kNow can have expired
/// by kNow, so the patched result must equal recomputation entry for
/// entry, dead entries included — an expired insert the patch let
/// through would show up as an extra entry.
class InPlaceScanTest : public ::testing::Test {
 protected:
  const Timestamp kNow = Timestamp(20);

  void SetUp() override {
    Rng rng(4242);
    testing::RelationSpec spec;
    spec.num_tuples = 60;
    spec.arity = 2;
    spec.value_domain = 8;
    spec.ttl_min = 5;
    spec.ttl_max = 60;
    spec.infinite_fraction = 0.15;
    ASSERT_TRUE(testing::FillDatabase(&db_, rng, spec, 2).ok());
    for (const char* name : {"R0", "R1"}) Rel(name)->EnableDeltaTracking();
  }

  Relation* Rel(const std::string& name) {
    return db_.GetRelation(name).value();
  }

  /// Live rows of `name` at kNow, in tuple order.
  std::vector<Relation::Entry> Live(const std::string& name) {
    std::vector<Relation::Entry> out;
    for (const auto& e : SortedEntries(*Rel(name))) {
      if (e.texp > kNow) out.push_back(e);
    }
    return out;
  }

  /// Plans and captures `expr` at kNow, runs `mutate`, and patches the
  /// captured result with one Apply over the bases that changed (there
  /// must be `want_bases` of them). The patch must match a fresh
  /// execution and the reference evaluator, tuples and texps, and
  /// texp(e) must match the fresh execution's.
  void PatchAndCompare(const ExpressionPtr& expr,
                       const std::function<void()>& mutate,
                       size_t want_bases) {
    const std::string context = expr->ToString();
    auto p = plan::Planner::Plan(expr, db_);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    plan_ = p.value();
    plan::NodeCapture capture;
    auto before =
        plan::ExecutePlan(*plan_, db_, kNow, {}, nullptr, &capture);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    auto prop = plan::DeltaPropagator::Create(plan_, capture, {});
    ASSERT_NE(prop, nullptr) << context;

    std::map<std::string, uint64_t> epochs;
    for (const char* name : {"R0", "R1"}) {
      epochs[name] = Rel(name)->delta_epoch();
    }
    mutate();
    std::vector<plan::BaseDelta> deltas;
    for (const auto& [name, epoch] : epochs) {
      auto batches = Rel(name)->DeltasSince(epoch);
      ASSERT_TRUE(batches.has_value()) << name;
      if (!batches->empty()) deltas.push_back({name, *batches});
    }
    ASSERT_EQ(deltas.size(), want_bases) << context;
    auto applied = prop->Apply(deltas, kNow);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_GT(applied->ops_in, 0u) << context;
    Relation patched = std::move(before->relation);
    plan::DeltaPropagator::ApplyOps(applied->root_ops, &patched);

    auto fresh = plan::ExecutePlan(*plan_, db_, kNow);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    auto ref = testing::ReferenceEval(expr, db_, kNow);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ExpectSameEntries(fresh->relation, patched, context + " (recomputed)");
    ExpectSameEntries(*ref, patched, context + " (reference)");
    EXPECT_EQ(applied->texp, fresh->texp) << context;
  }

  /// True when some node of the last plan satisfies `pred`.
  bool PlanHas(const std::function<bool(const plan::PlanNode&)>& pred) {
    std::vector<const plan::PlanNode*> stack = {&plan_->root()};
    while (!stack.empty()) {
      const plan::PlanNode* n = stack.back();
      stack.pop_back();
      if (pred(*n)) return true;
      if (n->left != nullptr) stack.push_back(n->left.get());
      if (n->right != nullptr) stack.push_back(n->right.get());
    }
    return false;
  }

  static Predicate AtLeast(size_t col, int64_t v) {
    return Predicate::Compare(Operand::Column(col), ComparisonOp::kGe,
                              Operand::Constant(Value(v)));
  }

  Database db_;
  plan::PhysicalPlanPtr plan_;
};

// ApplyOps applies an op stream as if op by op, but as one change: a
// tracked materialization records one batch holding the net change, and
// a tuple inserted and deleted again within the stream is left out.
TEST(ApplyOpsTest, OneBatchOfTheNetChange) {
  Relation mat(Schema({{"x", ValueType::kInt64}}));
  mat.InsertUnchecked(Tuple{1}, Timestamp(5));
  mat.InsertUnchecked(Tuple{2}, Timestamp(5));
  mat.EnableDeltaTracking();
  const plan::DeltaOps ops = {
      {false, {Tuple{3}, Timestamp(8)}},  // fresh
      {true, {Tuple{3}, Timestamp(8)}},   // ... and gone again
      {true, {Tuple{1}, Timestamp(5)}},   // a delete
      {true, {Tuple{2}, Timestamp(5)}},   // a texp change
      {false, {Tuple{2}, Timestamp(9)}},
      {false, {Tuple{4}, Timestamp(7)}},  // an insert
  };
  const int64_t bytes = plan::DeltaPropagator::ApplyOps(ops, &mat);
  EXPECT_EQ(bytes, static_cast<int64_t>(plan::ResultEntryBytes(Tuple{4})) -
                       static_cast<int64_t>(plan::ResultEntryBytes(Tuple{1})));
  using Entries = std::map<Tuple, Timestamp>;
  auto as_map = [](const std::vector<Relation::Entry>& v) {
    Entries out;
    for (const Relation::Entry& e : v) out.emplace(e.tuple, e.texp);
    return out;
  };
  const Entries after = {{Tuple{2}, Timestamp(9)}, {Tuple{4}, Timestamp(7)}};
  EXPECT_EQ(as_map(mat.entries()), after);
  const auto batches = mat.DeltasSince(0);
  ASSERT_TRUE(batches.has_value());
  ASSERT_EQ(batches->size(), 1u);
  EXPECT_EQ(as_map(batches->front().deleted),
            (Entries{{Tuple{1}, Timestamp(5)}, {Tuple{2}, Timestamp(5)}}));
  EXPECT_EQ(as_map(batches->front().inserted), after);
}

TEST_F(InPlaceScanTest, FilterOverScanSeesTexpUpdates) {
  using namespace algebra;  // NOLINT
  size_t both = 0;
  PatchAndCompare(
      Select(Base("R0"), AtLeast(0, 3)),
      [&] {
        // Raised, lowered, lowered past kNow, made infinite: each update
        // is one batch holding a delete and an insert.
        const Timestamp texps[] = {Timestamp(kNow.ticks() + 70),
                                   Timestamp(kNow.ticks() + 1), kNow,
                                   Timestamp::Infinity()};
        const auto live = Live("R0");
        for (size_t i = 0; i < live.size() && i < 12; ++i) {
          const uint64_t epoch = Rel("R0")->delta_epoch();
          Rel("R0")->InsertUnchecked(live[i].tuple, texps[i % 4]);
          const auto batches = Rel("R0")->DeltasSince(epoch);
          if (batches.has_value() && batches->size() == 1 &&
              batches->front().deleted.size() == 1 &&
              batches->front().inserted.size() == 1) {
            ++both;
          }
        }
      },
      1);
  EXPECT_GE(both, 8u);
}

TEST_F(InPlaceScanTest, InsertsExpiredAtNowAreDropped) {
  using namespace algebra;  // NOLINT
  int64_t call = 0;
  auto mutate = [this, &call] {
    ++call;
    for (int64_t i = 0; i < 6; ++i) {
      // Fresh rows: dead at kNow, dead before it, alive after it.
      const Timestamp texp = i % 3 == 0   ? kNow
                             : i % 3 == 1 ? Timestamp(kNow.ticks() - 4)
                                          : Timestamp(kNow.ticks() + 9);
      ASSERT_TRUE(Rel("R0")->Insert(Tuple{100 * call + i, i}, texp).ok());
    }
    // A live row whose texp update lands on kNow: its insert is dead.
    const auto live = Live("R0");
    ASSERT_FALSE(live.empty());
    Rel("R0")->InsertUnchecked(live.front().tuple, kNow);
  };
  PatchAndCompare(Select(Base("R0"), AtLeast(0, 0)), mutate, 1);
  PatchAndCompare(Base("R0"), mutate, 1);
}

TEST_F(InPlaceScanTest, CommonSubtreeFilteredScan) {
  using namespace algebra;  // NOLINT
  int64_t call = 0;
  auto mutate = [this, &call] {
    // Each call raises the texps of the same two joinable rows.
    const int64_t texp = 30 + 10 * ++call;
    ASSERT_TRUE(Rel("R0")->Insert(Tuple{5, 6}, Timestamp(texp)).ok());
    ASSERT_TRUE(Rel("R0")->Insert(Tuple{6, 5}, Timestamp(texp + 1)).ok());
    ASSERT_TRUE(Rel("R0")->Insert(Tuple{7, 7}, kNow).ok());
    const auto live = Live("R0");
    ASSERT_GE(live.size(), 2u);
    Rel("R0")->Erase(live[0].tuple);
    Rel("R0")->InsertUnchecked(live[1].tuple, Timestamp(kNow.ticks() + 2));
  };
  const ExpressionPtr filtered = Select(Base("R0"), AtLeast(0, 2));
  PatchAndCompare(Join(filtered, filtered, Predicate::ColumnsEqual(1, 2)),
                  mutate, 1);
  EXPECT_TRUE(PlanHas([](const plan::PlanNode& n) {
    return n.op == plan::PlanOp::kFilter && n.cse_id >= 0;
  })) << "the filtered scan is not a common subtree";
  PatchAndCompare(Union(filtered, filtered), mutate, 1);
}

TEST_F(InPlaceScanTest, ConstFalseFilterEmitsNothing) {
  using namespace algebra;  // NOLINT
  int64_t call = 0;
  auto mutate = [this, &call] {
    ++call;
    ASSERT_TRUE(Rel("R0")->Insert(Tuple{100 * call, 3}, Timestamp(50)).ok());
    ASSERT_TRUE(Rel("R1")->Insert(Tuple{100 * call, 4}, Timestamp(50)).ok());
    const auto live = Live("R0");
    ASSERT_FALSE(live.empty());
    Rel("R0")->Erase(live.front().tuple);
  };
  PatchAndCompare(Union(Select(Base("R0"), Predicate::Literal(false)),
                        Select(Base("R1"), AtLeast(1, 2))),
                  mutate, 2);
  EXPECT_TRUE(PlanHas([](const plan::PlanNode& n) {
    return n.op == plan::PlanOp::kFilter && n.const_false;
  })) << "the false filter was not folded";
  PatchAndCompare(Select(Base("R0"), Predicate::Literal(false)), mutate, 2);
}

TEST_F(InPlaceScanTest, TwoBasesInOneApply) {
  using namespace algebra;  // NOLINT
  int64_t call = 0;
  auto mutate = [this, &call] {
    ++call;
    for (const char* name : {"R0", "R1"}) {
      const auto live = Live(name);
      ASSERT_GE(live.size(), 3u);
      Rel(name)->Erase(live[0].tuple);
      Rel(name)->InsertUnchecked(live[1].tuple, Timestamp(kNow.ticks() + 30));
      Rel(name)->InsertUnchecked(live[2].tuple, kNow);
      ASSERT_TRUE(
          Rel(name)->Insert(Tuple{2, 6}, Timestamp(30 + 3 * call)).ok());
      ASSERT_TRUE(Rel(name)->Insert(Tuple{6, 2}, Timestamp(9 + call)).ok());
    }
  };
  PatchAndCompare(Union(Select(Base("R0"), AtLeast(0, 2)),
                        Select(Base("R1"), AtLeast(1, 3))),
                  mutate, 2);
  PatchAndCompare(Join(Select(Base("R0"), AtLeast(1, 1)), Base("R1"),
                       Predicate::ColumnsEqual(1, 2)),
                  mutate, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeltaPropertyTest,
    ::testing::Values(
        Config{301, 50, 3, 6, RefreshMode::kEagerRecompute,
               AggregateExpirationMode::kConservative},
        Config{302, 50, 4, 4, RefreshMode::kEagerRecompute,
               AggregateExpirationMode::kExact},
        Config{303, 80, 3, 8, RefreshMode::kLazyRecompute,
               AggregateExpirationMode::kContributingSet},
        Config{304, 40, 4, 3, RefreshMode::kSchrodinger,
               AggregateExpirationMode::kExact},
        Config{305, 60, 3, 5, RefreshMode::kPatchDifference,
               AggregateExpirationMode::kExact}),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string mode(RefreshModeToString(info.param.mode));
      std::replace(mode.begin(), mode.end(), '-', '_');
      return "seed" + std::to_string(info.param.seed) + "_" + mode;
    });

}  // namespace
}  // namespace expdb
