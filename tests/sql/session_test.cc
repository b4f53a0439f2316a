// End-to-end ExpSQL session tests: DDL, expiring inserts, transparent
// queries, ADVANCE TIME, views with every maintenance mode, and the paper's
// running example driven purely through SQL.

#include "sql/session.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/validate.h"

namespace expdb {
namespace sql {
namespace {

ExecResult MustExec(Session& s, const std::string& stmt) {
  auto r = s.Execute(stmt);
  EXPECT_TRUE(r.ok()) << stmt << " -> " << r.status().ToString();
  return r.ok() ? r.MoveValue() : ExecResult{};
}

size_t RowsAt(const ExecResult& r) {
  EXPECT_TRUE(r.relation.has_value());
  return r.relation.has_value()
             ? r.relation->CountUnexpiredAt(r.served_at)
             : 0;
}

TEST(SessionTest, CreateInsertSelect) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT, name STRING)");
  MustExec(s, "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  auto r = MustExec(s, "SELECT * FROM t");
  EXPECT_EQ(RowsAt(r), 2u);
  EXPECT_EQ(r.relation->schema().attribute(0).name, "x");
}

TEST(SessionTest, ExpirationIsTransparentToQueries) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1) TTL 5");
  MustExec(s, "INSERT INTO t VALUES (2) TTL 10");
  MustExec(s, "INSERT INTO t VALUES (3) EXPIRE NEVER");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 3u);
  MustExec(s, "ADVANCE TIME 5");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 2u);
  MustExec(s, "ADVANCE TIME TO 10");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 1u);
  MustExec(s, "ADVANCE TIME 1000000");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 1u);  // EXPIRE NEVER
}

TEST(SessionTest, ExpireAtAbsolute) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "ADVANCE TIME 5");
  MustExec(s, "INSERT INTO t VALUES (1) EXPIRE AT 8");
  // Inserting with an expiration in the past is rejected.
  EXPECT_FALSE(s.Execute("INSERT INTO t VALUES (2) EXPIRE AT 3").ok());
  MustExec(s, "ADVANCE TIME 3");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 0u);
}

TEST(SessionTest, WhereAndProjection) {
  Session s;
  MustExec(s, "CREATE TABLE pol (uid INT, deg INT)");
  MustExec(s, "INSERT INTO pol VALUES (1, 25), (2, 25), (3, 35)");
  auto r = MustExec(s, "SELECT uid FROM pol WHERE deg = 25");
  EXPECT_EQ(RowsAt(r), 2u);
  auto dedup = MustExec(s, "SELECT deg FROM pol");
  EXPECT_EQ(RowsAt(dedup), 2u);  // set semantics: {25, 35}
}

TEST(SessionTest, JoinThroughSql) {
  Session s;
  MustExec(s, "CREATE TABLE a (x INT, y INT)");
  MustExec(s, "CREATE TABLE b (x INT, z INT)");
  MustExec(s, "INSERT INTO a VALUES (1, 10), (2, 20)");
  MustExec(s, "INSERT INTO b VALUES (1, 100), (3, 300)");
  auto r = MustExec(
      s, "SELECT a.y, b.z FROM a, b WHERE a.x = b.x");
  EXPECT_EQ(RowsAt(r), 1u);
  EXPECT_TRUE(r.relation->Contains(Tuple{10, 100}));
}

TEST(SessionTest, AmbiguousColumnRejected) {
  Session s;
  MustExec(s, "CREATE TABLE a (x INT)");
  MustExec(s, "CREATE TABLE b (x INT)");
  auto r = s.Execute("SELECT x FROM a, b WHERE x = 1");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, GroupByCountMatchesFigure3a) {
  Session s;
  MustExec(s, "CREATE TABLE pol (uid INT, deg INT)");
  MustExec(s, "INSERT INTO pol VALUES (1, 25) EXPIRE AT 10");
  MustExec(s, "INSERT INTO pol VALUES (2, 25) EXPIRE AT 15");
  MustExec(s, "INSERT INTO pol VALUES (3, 35) EXPIRE AT 10");
  auto r = MustExec(s, "SELECT deg, COUNT(*) FROM pol GROUP BY deg");
  EXPECT_EQ(RowsAt(r), 2u);
  EXPECT_TRUE(r.relation->Contains(Tuple{25, 2}));
  EXPECT_TRUE(r.relation->Contains(Tuple{35, 1}));
}

TEST(SessionTest, MultipleAggregates) {
  Session s;
  MustExec(s, "CREATE TABLE t (k INT, v INT)");
  MustExec(s, "INSERT INTO t VALUES (1, 10), (1, 20), (2, 5)");
  auto r = MustExec(
      s, "SELECT k, SUM(v), AVG(v), MIN(v) FROM t GROUP BY k");
  EXPECT_EQ(RowsAt(r), 2u);
  EXPECT_TRUE(r.relation->Contains(Tuple{1, 30, 15.0, 10}));
  EXPECT_TRUE(r.relation->Contains(Tuple{2, 5, 5.0, 5}));
}

TEST(SessionTest, GlobalAggregateWithoutGroupBy) {
  Session s;
  MustExec(s, "CREATE TABLE t (v INT)");
  MustExec(s, "INSERT INTO t VALUES (1), (2), (3)");
  auto r = MustExec(s, "SELECT COUNT(*) AS n FROM t");
  EXPECT_EQ(RowsAt(r), 1u);
  EXPECT_TRUE(r.relation->Contains(Tuple{3}));
  EXPECT_EQ(r.relation->schema().attribute(0).name, "n");
}

TEST(SessionTest, BareColumnOutsideGroupByRejected) {
  Session s;
  MustExec(s, "CREATE TABLE t (k INT, v INT)");
  EXPECT_FALSE(s.Execute("SELECT v, COUNT(*) FROM t GROUP BY k").ok());
}

TEST(SessionTest, SetOperations) {
  Session s;
  MustExec(s, "CREATE TABLE a (x INT)");
  MustExec(s, "CREATE TABLE b (x INT)");
  MustExec(s, "INSERT INTO a VALUES (1), (2), (3)");
  MustExec(s, "INSERT INTO b VALUES (2), (3), (4)");
  EXPECT_EQ(RowsAt(MustExec(
                s, "SELECT x FROM a UNION SELECT x FROM b")),
            4u);
  EXPECT_EQ(RowsAt(MustExec(
                s, "SELECT x FROM a INTERSECT SELECT x FROM b")),
            2u);
  EXPECT_EQ(RowsAt(MustExec(
                s, "SELECT x FROM a EXCEPT SELECT x FROM b")),
            1u);
}

TEST(SessionTest, PaperDifferenceThroughSql) {
  // Figures 3(b)-(d) driven via SQL.
  Session s;
  MustExec(s, "CREATE TABLE pol (uid INT, deg INT)");
  MustExec(s, "CREATE TABLE el (uid INT, deg INT)");
  MustExec(s, "INSERT INTO pol VALUES (1, 25) EXPIRE AT 10");
  MustExec(s, "INSERT INTO pol VALUES (2, 25) EXPIRE AT 15");
  MustExec(s, "INSERT INTO pol VALUES (3, 35) EXPIRE AT 10");
  MustExec(s, "INSERT INTO el VALUES (1, 75) EXPIRE AT 5");
  MustExec(s, "INSERT INTO el VALUES (2, 85) EXPIRE AT 3");
  MustExec(s, "INSERT INTO el VALUES (4, 90) EXPIRE AT 2");
  const std::string q =
      "SELECT uid FROM pol EXCEPT SELECT uid FROM el";
  EXPECT_EQ(RowsAt(MustExec(s, q)), 1u);   // {<3>}
  MustExec(s, "ADVANCE TIME 3");
  EXPECT_EQ(RowsAt(MustExec(s, q)), 2u);   // {<2>, <3>}
  MustExec(s, "ADVANCE TIME 2");
  EXPECT_EQ(RowsAt(MustExec(s, q)), 3u);   // {<1>, <2>, <3>}
}

TEST(SessionTest, MaterializedViewLifecycle) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1) TTL 5");
  MustExec(s, "INSERT INTO t VALUES (2) TTL 10");
  auto created = MustExec(s, "CREATE VIEW v AS SELECT x FROM t");
  EXPECT_NE(created.message.find("monotonic"), std::string::npos);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 2u);
  MustExec(s, "ADVANCE TIME 7");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 1u);
  MustExec(s, "DROP VIEW v");
  EXPECT_FALSE(s.Execute("SELECT * FROM v").ok());  // now unknown table
}

TEST(SessionTest, ViewWithPatchMode) {
  Session s;
  MustExec(s, "CREATE TABLE r (x INT)");
  MustExec(s, "CREATE TABLE q (x INT)");
  MustExec(s, "INSERT INTO r VALUES (1) EXPIRE AT 10");
  MustExec(s, "INSERT INTO q VALUES (1) EXPIRE AT 4");
  MustExec(s,
           "CREATE VIEW v WITH (mode = patch) AS "
           "SELECT x FROM r EXCEPT SELECT x FROM q");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 0u);
  MustExec(s, "ADVANCE TIME 5");
  // The critical tuple <1> was patched in, not recomputed.
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 1u);
  EXPECT_EQ(s.views().GetView("v").value()->stats().recomputations, 0u);
  EXPECT_EQ(s.views().GetView("v").value()->stats().patches_applied, 1u);
}

TEST(SessionTest, ViewWithAggModeOption) {
  Session s;
  MustExec(s, "CREATE TABLE t (k INT, v INT)");
  MustExec(s, "INSERT INTO t VALUES (1, 5) EXPIRE AT 20");
  MustExec(s, "INSERT INTO t VALUES (1, 9) EXPIRE AT 10");
  MustExec(s,
           "CREATE VIEW m WITH (agg = contributing) AS "
           "SELECT k, MIN(v) FROM t GROUP BY k");
  // min = 5 is held by the tuple living to 20: view valid past 10.
  EXPECT_TRUE(s.views().GetView("m").value()->texp().IsInfinite());
  MustExec(s, "ADVANCE TIME 12");
  auto r = MustExec(s, "SELECT * FROM m");
  EXPECT_TRUE(r.relation->Contains(Tuple{1, 5}));
  EXPECT_EQ(s.views().GetView("m").value()->stats().recomputations, 0u);
}

TEST(SessionTest, ComplexQueriesOverViewsWork) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT, y INT)");
  MustExec(s, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30) TTL 8");
  MustExec(s, "INSERT INTO t VALUES (4, 40) TTL 20");
  MustExec(s, "CREATE VIEW v AS SELECT x, y FROM t");
  // Filtering a view.
  auto filtered = MustExec(s, "SELECT x FROM v WHERE y >= 20");
  EXPECT_EQ(RowsAt(filtered), 3u);
  // Joining a view against a base table.
  MustExec(s, "CREATE TABLE names (x INT, name STRING)");
  MustExec(s, "INSERT INTO names VALUES (2, 'bob'), (4, 'dana')");
  auto joined = MustExec(
      s, "SELECT name FROM v, names WHERE v.x = names.x");
  EXPECT_EQ(RowsAt(joined), 2u);
  // Aggregating a view.
  auto agg = MustExec(s, "SELECT COUNT(*) FROM v");
  EXPECT_TRUE(agg.relation->Contains(Tuple{4}));
  // View contents respect expiration in derived queries too.
  MustExec(s, "ADVANCE TIME 10");
  auto later = MustExec(s, "SELECT COUNT(*) FROM v");
  EXPECT_TRUE(later.relation->Contains(Tuple{1}));
}

TEST(SessionTest, SetOpMixingViewAndTable) {
  Session s;
  MustExec(s, "CREATE TABLE a (x INT)");
  MustExec(s, "CREATE TABLE b (x INT)");
  MustExec(s, "INSERT INTO a VALUES (1), (2)");
  MustExec(s, "INSERT INTO b VALUES (2), (3)");
  MustExec(s, "CREATE VIEW va AS SELECT x FROM a");
  auto r = MustExec(s, "SELECT x FROM va UNION SELECT x FROM b");
  EXPECT_EQ(RowsAt(r), 3u);
}

// A table and a view never share a name: otherwise the view would shadow
// the table in every query.
TEST(SessionTest, TableAndViewNamesNeverCollide) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1), (2)");
  auto view_over_table = s.Execute("CREATE VIEW t AS SELECT x FROM t");
  ASSERT_FALSE(view_over_table.ok());
  EXPECT_EQ(view_over_table.status().code(), StatusCode::kAlreadyExists);
  MustExec(s, "CREATE VIEW vw AS SELECT x FROM t WHERE x >= 2");
  auto table_over_view = s.Execute("CREATE TABLE vw (y INT)");
  ASSERT_FALSE(table_over_view.ok());
  EXPECT_EQ(table_over_view.status().code(), StatusCode::kAlreadyExists);
  // Views read tables only.
  EXPECT_FALSE(s.Execute("CREATE VIEW vv AS SELECT x FROM vw").ok());

  auto table = MustExec(s, "SELECT * FROM t");
  EXPECT_EQ(table.message, "ok");
  EXPECT_EQ(RowsAt(table), 2u);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT x FROM t WHERE x >= 1")), 2u);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM vw")), 1u);
  // Neither name is writable through the other.
  EXPECT_EQ(s.Execute("INSERT INTO vw VALUES (3)").status().code(),
            StatusCode::kNotFound);
}

// A view's relation carries its SQL column names, made unique, so queries
// bind against them.
TEST(SessionTest, QueriesBindAViewsColumnNames) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT, y INT)");
  MustExec(s, "INSERT INTO t VALUES (1, 10), (2, 20)");
  MustExec(s, "CREATE VIEW v AS SELECT x AS a, y, x FROM t");
  auto r = MustExec(s, "SELECT a, x FROM v WHERE a >= 2");
  EXPECT_EQ(RowsAt(r), 1u);
  EXPECT_TRUE(r.relation->Contains(Tuple{2, 2}));
  MustExec(s, "CREATE VIEW d AS SELECT x, x FROM t");
  auto star = MustExec(s, "SELECT * FROM d");
  EXPECT_EQ(star.relation->schema().attribute(0).name, "x");
  EXPECT_EQ(star.relation->schema().attribute(1).name, "x.2");
}

// Sec. 3.3: the canonical read of a Schrödinger view in a validity gap
// may move back to the last valid time, and says so in served_at. A
// query that reads the view inside a larger statement is answered at
// `now`: the gap recomputes the view, exactly like the base query.
TEST(SessionTest, SchrodingerViewInsideAQueryIsExactAtNow) {
  Session s;
  MustExec(s, "CREATE TABLE r (k INT)");
  MustExec(s, "CREATE TABLE q (k INT)");
  MustExec(s, "INSERT INTO r VALUES (1) EXPIRE AT 30");
  MustExec(s, "INSERT INTO r VALUES (2) EXPIRE AT 40");
  MustExec(s, "INSERT INTO q VALUES (1) EXPIRE AT 10");
  MustExec(s,
           "CREATE VIEW v WITH (mode = schrodinger, move = backward) AS "
           "SELECT k FROM r EXCEPT SELECT k FROM q");
  MustExec(s, "ADVANCE TIME 20");  // <1> reappears at 10: a gap to 30

  auto canonical = MustExec(s, "SELECT * FROM v");
  EXPECT_EQ(canonical.served_at, Timestamp(9));
  EXPECT_EQ(RowsAt(canonical), 1u);

  auto base = MustExec(s, "SELECT k FROM r EXCEPT SELECT k FROM q");
  auto in_query = MustExec(s, "SELECT k FROM v WHERE k >= 0");
  EXPECT_EQ(in_query.served_at, Timestamp(20));
  EXPECT_EQ(RowsAt(in_query), 2u);
  EXPECT_TRUE(Relation::EqualAt(*in_query.relation, *base.relation,
                                Timestamp(20)))
      << in_query.relation->ToString() << " vs " << base.relation->ToString();
}

TEST(SessionTest, ViewDefinitionsAreRewrittenForIndependence) {
  // The session runs the Sec. 3.1 rewriter over every view definition.
  // Observable effect here: σq(σp(R)) collapses to a single merged
  // selection, and a filtered EXCEPT keeps its per-arm pushed form, so
  // texp(e) reflects only the criticals that survive the filters.
  Session s;
  ASSERT_TRUE(s.Execute("CREATE TABLE r (x INT)").ok());
  ASSERT_TRUE(s.Execute("CREATE TABLE q (x INT)").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO r VALUES (1) EXPIRE AT 20").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO q VALUES (1) EXPIRE AT 4").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO r VALUES (10) EXPIRE AT 20").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO q VALUES (10) EXPIRE AT 6").ok());
  ASSERT_TRUE(
      s.Execute("CREATE VIEW v WITH (mode = lazy) AS "
                "SELECT x FROM r WHERE x >= 5 "
                "EXCEPT SELECT x FROM q WHERE x >= 5")
          .ok());
  MaterializedView* v = s.views().GetView("v").value();
  EXPECT_EQ(v->expression()->kind(), ExprKind::kDifference);
  // Only <10> (q-expiry 6) is critical after the filter; <1>'s q-expiry
  // at 4 is irrelevant.
  EXPECT_EQ(v->texp(), Timestamp(6));
}

TEST(SessionTest, ViewWithToleranceOption) {
  Session s;
  MustExec(s, "CREATE TABLE t (k INT, v INT)");
  MustExec(s, "INSERT INTO t VALUES (1, 3) EXPIRE AT 10");
  MustExec(s, "INSERT INTO t VALUES (1, 7) EXPIRE AT 20");
  MustExec(s, "INSERT INTO t VALUES (1, 100) EXPIRE AT 30");
  MustExec(s,
           "CREATE VIEW strict_sum AS SELECT k, SUM(v) FROM t GROUP BY k");
  MustExec(s,
           "CREATE VIEW approx_sum WITH (tolerance = 5) AS "
           "SELECT k, SUM(v) FROM t GROUP BY k");
  // Exact view dies at the first drift (10); the ε = 5 view tolerates the
  // 3-unit drift and lives until 20.
  EXPECT_EQ(s.views().GetView("strict_sum").value()->texp(), Timestamp(10));
  EXPECT_EQ(s.views().GetView("approx_sum").value()->texp(), Timestamp(20));
  EXPECT_FALSE(
      s.Execute(
           "CREATE VIEW bad WITH (tolerance = 'x') AS SELECT k FROM t")
          .ok());
}

TEST(SessionTest, UnknownViewOptionRejected) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  EXPECT_FALSE(
      s.Execute("CREATE VIEW v WITH (mode = warp) AS SELECT x FROM t")
          .ok());
  EXPECT_FALSE(
      s.Execute("CREATE VIEW v WITH (frobnicate = 1) AS SELECT x FROM t")
          .ok());
}

TEST(SessionTest, DeleteRespectsVisibility) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1) TTL 3");
  MustExec(s, "INSERT INTO t VALUES (2), (3)");
  MustExec(s, "ADVANCE TIME 5");
  auto r = MustExec(s, "DELETE FROM t WHERE x >= 2");
  EXPECT_NE(r.message.find("2 rows"), std::string::npos);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 0u);
}

// A DELETE is one delta batch however many rows it removes: one epoch
// for the views and cached results that follow the table.
TEST(SessionTest, MultiRowDeleteIsOneDeltaEpoch) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1), (2), (3), (4), (5)");
  const Relation* t = s.db().GetRelation("t").value();
  t->EnableDeltaTracking();
  const uint64_t epoch = t->delta_epoch();
  auto r = MustExec(s, "DELETE FROM t WHERE x >= 2");
  EXPECT_NE(r.message.find("4 rows"), std::string::npos) << r.message;
  EXPECT_EQ(t->delta_epoch(), epoch + 1);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 1u);
}

// A DELETE that removes nothing live — its matches already expired, or
// there are none — changes nothing a view can see, so no view goes stale.
TEST(SessionTest, DeleteOfNothingLiveLeavesViewsFresh) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1) TTL 3");
  MustExec(s, "INSERT INTO t VALUES (2)");
  MustExec(s, "CREATE VIEW v AS SELECT x FROM t");
  MustExec(s, "ADVANCE TIME 5");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 1u);
  obs::Counter* marked =
      obs::MetricsRegistry::Global().GetCounter("expdb_view_marked_stale_total");
  const uint64_t marked0 = marked->value();
  for (const char* stmt :
       {"DELETE FROM t WHERE x = 1", "DELETE FROM t WHERE x = 9"}) {
    auto r = MustExec(s, stmt);
    EXPECT_NE(r.message.find("0 rows"), std::string::npos) << r.message;
  }
  EXPECT_EQ(marked->value(), marked0);
  EXPECT_FALSE(s.engine().views().GetView("v").value()->stale());
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 1u);
}

TEST(SessionTest, ShowStatements) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "CREATE VIEW v AS SELECT x FROM t");
  EXPECT_NE(MustExec(s, "SHOW TABLES").message.find("t"),
            std::string::npos);
  EXPECT_NE(MustExec(s, "SHOW VIEWS").message.find("v"),
            std::string::npos);
  MustExec(s, "ADVANCE TIME 4");
  EXPECT_NE(MustExec(s, "SHOW TIME").message.find("4"), std::string::npos);
}

TEST(SessionTest, ExecuteScriptStopsAtFirstError) {
  Session s;
  auto r = s.ExecuteScript(
      "CREATE TABLE t (x INT);"
      "INSERT INTO t VALUES ('wrong type');"
      "INSERT INTO t VALUES (1)");
  EXPECT_FALSE(r.ok());
  // The table exists, the bad insert failed, the third never ran.
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 0u);
}

TEST(SessionTest, FormatExecResultRendersTable) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (7) TTL 9");
  auto r = MustExec(s, "SELECT * FROM t");
  std::string text = FormatExecResult(r);
  EXPECT_NE(text.find("x"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
  EXPECT_NE(text.find("1 row"), std::string::npos);
  auto msg = MustExec(s, "SHOW TIME");
  EXPECT_EQ(FormatExecResult(msg), msg.message + "\n");
}

TEST(SessionTest, LazyExpirationPolicySession) {
  Session::Options opts;
  opts.expiration.policy = RemovalPolicy::kLazy;
  opts.expiration.lazy_compaction_threshold = 0;
  Session s(opts);
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1) TTL 2");
  MustExec(s, "ADVANCE TIME 5");
  // Physically present, logically invisible.
  EXPECT_EQ(s.db().GetRelation("t").value()->size(), 1u);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 0u);
}

// An eager ADVANCE that expires many tuples moves the table's delta clock
// once, and the cached SELECT over it is patched once and sheds them.
TEST(SessionTest, EagerAdvanceShedsExpiredRowsFromCachedResults) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT, name STRING)");
  std::string short_lived = "INSERT INTO t VALUES ";
  std::string long_lived = "INSERT INTO t VALUES ";
  for (int i = 0; i < 20; ++i) {
    const std::string sep = i == 0 ? "" : ", ";
    short_lived += sep + "(" + std::to_string(i) + ", 'short')";
    long_lived += sep + "(" + std::to_string(100 + i) + ", 'long')";
  }
  MustExec(s, short_lived + " TTL 5");
  MustExec(s, long_lived + " EXPIRE NEVER");
  const char* const query = "SELECT * FROM t WHERE x >= 0";
  MustExec(s, query);  // first sighting
  MustExec(s, query);  // fill
  plan::ResultCache& cache = s.engine().result_cache();
  const plan::ResultCache::Stats before = cache.stats();
  ASSERT_EQ(before.entries, 1u);
  const Relation* t = s.db().GetRelation("t").value();
  const uint64_t epoch = t->delta_epoch();

  MustExec(s, "ADVANCE TIME 10");
  EXPECT_EQ(t->size(), 20u);
  EXPECT_EQ(t->delta_epoch(), epoch + 1);

  auto r = MustExec(s, query);
  EXPECT_EQ(r.message, "ok (cached)");
  EXPECT_EQ(RowsAt(r), 20u);
  EXPECT_EQ(r.relation->size(), 20u);  // the entry dropped the expired rows
  const plan::ResultCache::Stats after = cache.stats();
  EXPECT_EQ(after.patches, before.patches + 1);
  EXPECT_LT(after.bytes, before.bytes);
}

// --- STATS meta-command (docs/OBSERVABILITY.md) --------------------------

TEST(SessionStatsTest, StatsRendersMetricsRelationEndToEnd) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1), (2) TTL 9");
  MustExec(s, "SELECT * FROM t");
  auto r = MustExec(s, "STATS");
  ASSERT_TRUE(r.relation.has_value());
  // Schema: metric STRING, type STRING, value DOUBLE.
  ASSERT_EQ(r.relation->schema().arity(), 3u);
  EXPECT_EQ(r.relation->schema().attribute(0).name, "metric");
  EXPECT_EQ(r.relation->schema().attribute(1).name, "type");
  EXPECT_EQ(r.relation->schema().attribute(2).name, "value");
  // The snapshot spans all five subsystems with >= 12 distinct metrics,
  // and histogram metrics expand to _count/_sum/_p50/_p95/_p99 rows.
  std::map<std::string, double> rows;
  bool eval = false, expiration = false, view = false, replica = false,
       sql_seen = false, p99_seen = false;
  for (const auto& [tuple, texp] : r.relation->SortedEntries()) {
    const std::string& name = tuple.values()[0].AsString();
    rows[name] = tuple.values()[2].AsDouble();
    if (name.rfind("expdb_eval_", 0) == 0) eval = true;
    if (name.rfind("expdb_expiration_", 0) == 0) expiration = true;
    if (name.rfind("expdb_view_", 0) == 0) view = true;
    if (name.rfind("expdb_replica_", 0) == 0) replica = true;
    if (name.rfind("expdb_sql_", 0) == 0) sql_seen = true;
    if (name.size() > 4 && name.substr(name.size() - 4) == "_p99") {
      p99_seen = true;
    }
  }
  EXPECT_GE(rows.size(), 12u);
  EXPECT_TRUE(eval);
  EXPECT_TRUE(expiration);
  EXPECT_TRUE(view);
  EXPECT_TRUE(replica);
  EXPECT_TRUE(sql_seen);
  EXPECT_TRUE(p99_seen);
  // The statements this test executed are themselves visible.
  EXPECT_GE(rows["expdb_sql_statements_total"], 4.0);
  EXPECT_GE(rows["expdb_eval_evaluations_total"], 1.0);
  EXPECT_GE(rows["expdb_expiration_inserted_total"], 2.0);
  // And the whole thing renders through the printer.
  std::string text = FormatExecResult(r);
  EXPECT_NE(text.find("expdb_sql_statements_total"), std::string::npos);
  EXPECT_NE(text.find("metric"), std::string::npos);
}

TEST(SessionStatsTest, StatsPrometheusAndJsonExporters) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  auto prom = MustExec(s, "STATS PROMETHEUS");
  EXPECT_FALSE(prom.relation.has_value());
  EXPECT_NE(prom.message.find("# TYPE"), std::string::npos);
  EXPECT_NE(prom.message.find("expdb_sql_statements_total"),
            std::string::npos);
  auto json = MustExec(s, "STATS JSON");
  EXPECT_EQ(json.message.front(), '[');
  EXPECT_NE(json.message.find("\"expdb_view_count\""), std::string::npos);
}

TEST(SessionStatsTest, ExplainStatsIncludesSpans) {
  Session s;
  MustExec(s, "TRACE ON");
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1) TTL 5");
  MustExec(s, "SELECT * FROM t");
  auto r = MustExec(s, "EXPLAIN STATS");
  EXPECT_FALSE(r.relation.has_value());
  EXPECT_NE(r.message.find("expdb_eval_evaluations_total"),
            std::string::npos);
  EXPECT_NE(r.message.find("recent spans"), std::string::npos);
  // Tracing is on, so the statements above produced sql.statement spans.
  EXPECT_NE(r.message.find("sql.statement"), std::string::npos);
  MustExec(s, "TRACE OFF");
}

TEST(SessionStatsTest, StatsResetZeroesAndErrorsAreCounted) {
  Session s;
  MustExec(s, "STATS RESET");  // zeroes everything, itself included
  MustExec(s, "CREATE TABLE t (x INT)");
  EXPECT_FALSE(s.Execute("SELECT * FROM missing_table").ok());
  EXPECT_FALSE(s.Execute("THIS IS NOT SQL").ok());
  auto r = MustExec(s, "STATS");
  std::map<std::string, double> rows;
  for (const auto& [tuple, texp] : r.relation->SortedEntries()) {
    rows[tuple.values()[0].AsString()] = tuple.values()[2].AsDouble();
  }
  EXPECT_DOUBLE_EQ(rows["expdb_sql_errors_total"], 2.0);
  // CREATE + 2 failures + STATS = 4 statements counted since the reset
  // (STATS RESET counted itself, then zeroed the counter).
  EXPECT_DOUBLE_EQ(rows["expdb_sql_statements_total"], 4.0);
}

TEST(SessionStatsTest, StatsParseErrors) {
  Session s;
  EXPECT_FALSE(s.Execute("STATS SIDEWAYS").ok());
  EXPECT_FALSE(s.Execute("EXPLAIN SELECT").ok());
}

// --- SET / TRACE / event log -----------------------------------------------

TEST(SessionSetTest, SlowQueryThresholdCountsSlowStatements) {
  Session s;
  obs::Counter* slow =
      obs::MetricsRegistry::Global().GetCounter("expdb_sql_slow_queries_total");
  const uint64_t before = slow->value();
  MustExec(s, "CREATE TABLE t (x INT)");
  EXPECT_EQ(slow->value(), before);  // threshold disabled by default
  MustExec(s, "SET slow_query_ns = 0");
  MustExec(s, "SELECT * FROM t");
  EXPECT_GE(slow->value(), before + 1);
  MustExec(s, "SET slow_query_ns = off");
  const uint64_t after_off = slow->value();
  MustExec(s, "SELECT * FROM t");
  EXPECT_EQ(slow->value(), after_off);
}

TEST(SessionSetTest, SlowQueryEmitsEventWhenLogEnabled) {
  Session s;
  obs::EventLog& log = obs::EventLog::Global();
  const bool was_enabled = log.enabled();
  log.Clear();
  MustExec(s, "TRACE ON");
  MustExec(s, "SET event_log = on");
  MustExec(s, "SET slow_query_ns = 0");
  MustExec(s, "CREATE TABLE t (x INT)");
  bool saw = false;
  for (const auto& e : log.Snapshot()) {
    if (e.component == "sql" && e.event == "slow_query") {
      saw = true;
      EXPECT_EQ(e.severity, obs::LogSeverity::kWarn);
      EXPECT_NE(e.trace_id, 0u);  // emitted under the statement's span
    }
  }
  EXPECT_TRUE(saw);
  MustExec(s, "TRACE OFF");
  log.set_enabled(was_enabled);
  log.Clear();
}

TEST(SessionSetTest, EventsCarryATraceIdWithTracingOff) {
  Session s;
  obs::EventLog& log = obs::EventLog::Global();
  const bool was_enabled = log.enabled();
  MustExec(s, "TRACE OFF");
  MustExec(s, "SET slow_query_ns = 0");
  MustExec(s, "SET event_log = on");
  log.Clear();
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1)");
  std::vector<uint64_t> ids;
  for (const auto& e : log.Snapshot()) {
    if (e.component == "sql" && e.event == "slow_query") {
      ids.push_back(e.trace_id);
    }
  }
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], 0u);
  EXPECT_NE(ids[1], 0u);
  EXPECT_NE(ids[0], ids[1]);
  log.set_enabled(was_enabled);
  log.Clear();
}

TEST(SessionSetTest, SetValidationErrors) {
  Session s;
  MustExec(s, "SET parallelism = 4");
  MustExec(s, "SET parallelism = 0");  // 0 = hardware concurrency
  EXPECT_FALSE(s.Execute("SET parallelism = 'lots'").ok());
  EXPECT_FALSE(s.Execute("SET slow_query_ns = 'fast'").ok());
  EXPECT_FALSE(s.Execute("SET event_log = sideways").ok());
  EXPECT_FALSE(s.Execute("SET warp_speed = 9").ok());
}

TEST(SessionSetTest, ParallelQueriesStillCorrectAfterSetParallelism) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  std::string insert = "INSERT INTO t VALUES (0)";
  for (int i = 1; i < 200; ++i) insert += ", (" + std::to_string(i) + ")";
  MustExec(s, insert);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 200u);
  MustExec(s, "SET parallelism = 4");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 200u);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT x FROM t WHERE x = 7")), 1u);
}

TEST(SessionSetTest, EventLogToggleAndSink) {
  Session s;
  obs::EventLog& log = obs::EventLog::Global();
  const bool was_enabled = log.enabled();
  MustExec(s, "SET event_log = on");
  EXPECT_TRUE(log.enabled());
  MustExec(s, "SET event_log = off");
  EXPECT_FALSE(log.enabled());
  const std::string path = ::testing::TempDir() + "/expdb_session_events.jsonl";
  MustExec(s, "SET event_log_path = '" + path + "'");
  EXPECT_TRUE(log.HasSink());
  EXPECT_TRUE(log.enabled());  // attaching a sink switches the log on
  MustExec(s, "SET event_log_path = off");
  EXPECT_FALSE(log.HasSink());
  EXPECT_FALSE(s.Execute("SET event_log_path = '/nonexistent-dir/x/e.jsonl'")
                   .ok());
  log.set_enabled(was_enabled);
  log.Clear();
  std::remove(path.c_str());
}

TEST(SessionSetTest, ViewMaintenanceEmitsEvents) {
  Session s;
  obs::EventLog& log = obs::EventLog::Global();
  const bool was_enabled = log.enabled();
  log.Clear();
  log.set_enabled(true);
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1) TTL 5");
  MustExec(s, "CREATE VIEW v AS SELECT x FROM t");
  MustExec(s, "INSERT INTO t VALUES (2) TTL 7");
  MustExec(s, "ADVANCE TIME 5");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 1u);
  bool saw_view_event = false;
  for (const auto& e : log.Snapshot()) {
    if (e.component == "view") {
      saw_view_event = true;
      // Every view event names the view it belongs to.
      bool named = false;
      for (const auto& [k, v] : e.fields) {
        if (k == "view" && v == "v") named = true;
      }
      EXPECT_TRUE(named) << e.ToJson();
    }
  }
  EXPECT_TRUE(saw_view_event);
  log.set_enabled(was_enabled);
  log.Clear();
}

TEST(SessionTraceTest, TraceShowWithNoTracesReportsNone) {
  Session s;
  obs::TraceRecorder::Global().Clear();
  auto r = MustExec(s, "TRACE SHOW");
  EXPECT_NE(r.message.find("no completed traces"), std::string::npos);
}

TEST(SessionTraceTest, TraceShowRendersMostRecentCompletedTrace) {
  Session s;
  obs::TraceRecorder::Global().Clear();
  MustExec(s, "TRACE ON");
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1), (2)");
  MustExec(s, "SELECT * FROM t");
  auto r = MustExec(s, "TRACE SHOW");
  EXPECT_NE(r.message.find("trace #"), std::string::npos);
  EXPECT_NE(r.message.find("sql.statement"), std::string::npos);
  MustExec(s, "TRACE OFF");
  EXPECT_FALSE(obs::TraceRecorder::Global().enabled());
}

TEST(SessionTraceTest, TraceExportWritesValidChromeTraceJson) {
  Session s;
  MustExec(s, "TRACE ON");
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1), (2)");
  MustExec(s, "SELECT * FROM t");
  const std::string path = ::testing::TempDir() + "/expdb_trace_export.json";
  auto r = MustExec(s, "TRACE EXPORT '" + path + "'");
  EXPECT_NE(r.message.find("trace exported to " + path), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  std::string error;
  EXPECT_TRUE(obs::ValidateJson(contents, &error)) << error;
  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(contents.find("sql.statement"), std::string::npos);
  std::remove(path.c_str());
  MustExec(s, "TRACE OFF");
}

TEST(SessionTraceTest, TraceExportToUnwritablePathFails) {
  Session s;
  EXPECT_FALSE(s.Execute("TRACE EXPORT '/nonexistent-dir/x/t.json'").ok());
}

TEST(SessionTraceTest, ExplainAnalyzeAggregatesTracedOperatorSpans) {
  Session s;
  MustExec(s, "TRACE ON");
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1), (2), (3)");
  auto r = MustExec(s, "EXPLAIN ANALYZE SELECT * FROM t WHERE x = 2");
  EXPECT_NE(r.message.find("traced operator spans"), std::string::npos);
  EXPECT_NE(r.message.find("node #"), std::string::npos);
  MustExec(s, "TRACE OFF");
}

}  // namespace
}  // namespace sql
}  // namespace expdb
