// Explicit base updates vs. views: the paper assumes no source updates
// (Sec. 1); ExpDB lifts this incrementally — an explicit insert/delete
// marks every dependent view stale, and the next maintenance point
// applies the recorded base deltas through the cached plan (or rebuilds
// when the incremental path is unavailable), so reads never serve
// update-invalidated contents. Set-identity of the two maintenance
// paths is swept in delta_property_test.cc; these tests pin the
// staleness protocol itself.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "obs/log.h"
#include "sql/session.h"
#include "view/view_manager.h"

namespace expdb {
namespace {

using namespace algebra;  // NOLINT

Timestamp T(int64_t t) { return Timestamp(t); }

/// Marks `view` stale and advances it to `now` with the event log on.
/// Returns the `reason` of the delta_fallback event the round logged, or
/// "" when it delta-applied. `status`, when non-null, receives the
/// advance's status instead of it being required to be OK.
std::string FallbackReason(MaterializedView& view, const Database& db,
                           Timestamp now, Status* status = nullptr) {
  obs::EventLog& log = obs::EventLog::Global();
  const bool was_enabled = log.enabled();
  log.Clear();
  log.set_enabled(true);
  view.MarkStale();
  const Status advanced = view.AdvanceTo(db, now);
  log.set_enabled(was_enabled);
  if (status != nullptr) {
    *status = advanced;
  } else {
    EXPECT_TRUE(advanced.ok()) << advanced.ToString();
  }
  for (const obs::LogEvent& e : log.Snapshot()) {
    if (e.event != "delta_fallback") continue;
    for (const auto& [key, value] : e.fields) {
      if (key == "reason") return value;
    }
  }
  return "";
}

TEST(StalenessTest, MarkStaleForcesRecomputeOnNextRead) {
  Database db;
  Relation* r = db.CreateRelation(
                       "R", Schema({{"x", ValueType::kInt64}})).value();
  ASSERT_TRUE(r->Insert(Tuple{1}, T(100)).ok());

  MaterializedView view(Base("R"), {});
  ASSERT_TRUE(view.Initialize(db, T(0)).ok());
  // Out-of-band insert the view cannot see through expiration.
  ASSERT_TRUE(r->Insert(Tuple{2}, T(100)).ok());
  auto before = view.Read(db, T(1)).MoveValue();
  EXPECT_EQ(before.size(), 1u);  // still serving the old materialization

  view.MarkStale();
  EXPECT_TRUE(view.stale());
  auto after = view.Read(db, T(2)).MoveValue();
  EXPECT_EQ(after.size(), 2u);
  EXPECT_FALSE(view.stale());
  EXPECT_EQ(view.stats().recomputations, 1u);
}

TEST(StalenessTest, NotifyBaseChangedTargetsOnlyDependents) {
  Database db;
  (void)db.CreateRelation("A", Schema({{"x", ValueType::kInt64}}));
  (void)db.CreateRelation("B", Schema({{"x", ValueType::kInt64}}));
  ViewManager mgr(&db);
  ASSERT_TRUE(mgr.CreateView("va", Base("A"), {}, T(0)).ok());
  ASSERT_TRUE(mgr.CreateView("vb", Base("B"), {}, T(0)).ok());
  ASSERT_TRUE(
      mgr.CreateView("vab", Union(Base("A"), Base("B")), {}, T(0)).ok());

  EXPECT_EQ(mgr.NotifyBaseChanged("A"), 2u);  // va and vab
  EXPECT_TRUE(mgr.GetView("va").value()->stale());
  EXPECT_FALSE(mgr.GetView("vb").value()->stale());
  EXPECT_TRUE(mgr.GetView("vab").value()->stale());
  EXPECT_EQ(mgr.NotifyBaseChanged("nonexistent"), 0u);
}

TEST(StalenessTest, SqlInsertRefreshesDependentViews) {
  sql::Session s;
  ASSERT_TRUE(s.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(s.Execute("CREATE VIEW v AS SELECT x FROM t").ok());
  // Insert after view creation: the view must reflect it on next read.
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (2)").ok());
  auto r = s.Execute("SELECT * FROM v");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->relation->CountUnexpiredAt(r->served_at), 2u);
}

TEST(StalenessTest, SqlDeleteRefreshesDependentViews) {
  sql::Session s;
  ASSERT_TRUE(s.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(s.Execute("CREATE VIEW v AS SELECT x FROM t").ok());
  ASSERT_TRUE(s.Execute("DELETE FROM t WHERE x = 2").ok());
  auto r = s.Execute("SELECT * FROM v");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->relation->CountUnexpiredAt(r->served_at), 2u);
  EXPECT_FALSE(r->relation->Contains(Tuple{2}));
}

TEST(StalenessTest, DropTableWithDependentViewRejected) {
  sql::Session s;
  ASSERT_TRUE(s.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(s.Execute("CREATE VIEW v AS SELECT x FROM t").ok());
  auto r = s.Execute("DROP TABLE t");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Dropping the view first unblocks the table.
  ASSERT_TRUE(s.Execute("DROP VIEW v").ok());
  EXPECT_TRUE(s.Execute("DROP TABLE t").ok());
}

TEST(StalenessTest, StalePatchViewRebuildsHelper) {
  Database db;
  Relation* r = db.CreateRelation(
                       "R", Schema({{"x", ValueType::kInt64}})).value();
  Relation* q = db.CreateRelation(
                       "S", Schema({{"x", ValueType::kInt64}})).value();
  ASSERT_TRUE(r->Insert(Tuple{1}, T(50)).ok());

  MaterializedView::Options opts;
  opts.mode = RefreshMode::kPatchDifference;
  MaterializedView view(Difference(Base("R"), Base("S")), opts);
  ASSERT_TRUE(view.Initialize(db, T(0)).ok());
  EXPECT_EQ(view.pending_patches(), 0u);

  // A new critical pair arrives via explicit update.
  ASSERT_TRUE(r->Insert(Tuple{2}, T(40)).ok());
  ASSERT_TRUE(q->Insert(Tuple{2}, T(10)).ok());
  view.MarkStale();

  auto at5 = view.Read(db, T(5)).MoveValue();
  EXPECT_EQ(at5.size(), 1u);  // <2> suppressed by S until 10
  EXPECT_EQ(view.pending_patches(), 1u);  // helper rebuilt with <2>
  auto at12 = view.Read(db, T(12)).MoveValue();
  EXPECT_EQ(at12.size(), 2u);  // <2> patched back in
}

// Each reason a stale view can fall back to a recompute for, as its
// delta_fallback event names it (plan::MissReasonName).
TEST(StalenessTest, DeltaFallbackNamesItsReason) {
  // R = {1, 2} forever, S = {1 until 5}: R −exp S = {2}, texp(e) = 5.
  Database db;
  const Schema schema({{"x", ValueType::kInt64}});
  Relation* r = db.CreateRelation("R", schema).value();
  ASSERT_TRUE(r->Insert(Tuple{1}, Timestamp::Infinity()).ok());
  ASSERT_TRUE(r->Insert(Tuple{2}, Timestamp::Infinity()).ok());
  Relation* s = db.CreateRelation("S", schema).value();
  ASSERT_TRUE(s->Insert(Tuple{1}, T(5)).ok());
  // A view past its first stale round, which recomputes for want of a
  // propagator and seeds one: the next round delta-applies.
  auto seeded_view = [&](Timestamp now) {
    auto view = std::make_unique<MaterializedView>(
        Difference(Base("R"), Base("S")), MaterializedView::Options{});
    EXPECT_TRUE(view->Initialize(db, now).ok());
    EXPECT_EQ(FallbackReason(*view, db, now), "no_propagator");
    EXPECT_EQ(FallbackReason(*view, db, now), "");
    return view;
  };

  auto lapsing = seeded_view(T(0));
  ASSERT_TRUE(r->Insert(Tuple{3}, Timestamp::Infinity()).ok());
  EXPECT_EQ(FallbackReason(*lapsing, db, T(6)), "lapsed");

  auto trimmed = seeded_view(T(10));
  for (size_t i = 0; i <= Relation::kDefaultDeltaRingCapacity; ++i) {
    ASSERT_TRUE(r->Insert(Tuple{static_cast<int64_t>(100 + i)},
                          Timestamp::Infinity())
                    .ok());
  }
  EXPECT_EQ(FallbackReason(*trimmed, db, T(10)), "history_trimmed");

  // S replaced under its name: a new, untracked body of data.
  auto churned = seeded_view(T(10));
  ASSERT_TRUE(db.DropRelation("S").ok());
  ASSERT_TRUE(db.CreateRelation("S", schema).ok());
  EXPECT_EQ(FallbackReason(*churned, db, T(10)), "instance_churn");

  // S dropped: the recompute the fallback runs fails too.
  auto orphaned = seeded_view(T(10));
  ASSERT_TRUE(db.DropRelation("S").ok());
  Status status;
  EXPECT_EQ(FallbackReason(*orphaned, db, T(10), &status), "base_gone");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(orphaned->stats().delta_fallbacks, 2u);
}

}  // namespace
}  // namespace expdb
