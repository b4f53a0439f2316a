// SQL-facing tests for the two-tier cache pipeline: PREPARE/EXECUTE,
// normalized-literal plan sharing, result-cache hit/patch/miss behavior
// (pinned through the process metrics: a hit performs zero plan-node
// executions), CACHE STATS/CLEAR, SET result_cache_bytes, DDL
// invalidation, and a cached-vs-fresh set-identity sweep across
// operators, time, and a tiny eviction budget. The result cache admits a
// statement on its second execution, so a test that wants a cached entry
// runs the statement once more first ("first sighting").

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/log.h"
#include "obs/metrics.h"
#include "sql/session.h"

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
  return r.relation.has_value() ? r.relation->CountUnexpiredAt(r.served_at)
                                : 0;
}

uint64_t Metric(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

void MakeTable(Session& s) {
  MustExec(s, "CREATE TABLE t (x INT, name STRING)");
  MustExec(s, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
}

// The headline acceptance check: a warm result-cache hit re-executes
// nothing — no root evaluation, no operator node, just a lookup.
TEST(ResultCacheSessionTest, HitPerformsZeroPlanNodeExecutions) {
  Session s;
  MakeTable(s);
  MustExec(s, "SELECT * FROM t WHERE x >= 2");  // first sighting
  MustExec(s, "SELECT * FROM t WHERE x >= 2");  // fill
  const uint64_t evals0 = Metric("expdb_eval_evaluations_total");
  const uint64_t ops0 = Metric("expdb_eval_operators_total");
  const uint64_t hits0 = Metric("expdb_result_cache_hits_total");
  auto r = MustExec(s, "SELECT * FROM t WHERE x >= 2");
  EXPECT_EQ(RowsAt(r), 2u);
  EXPECT_EQ(r.message, "ok (cached)");
  EXPECT_EQ(Metric("expdb_result_cache_hits_total") - hits0, 1u);
  EXPECT_EQ(Metric("expdb_eval_evaluations_total"), evals0);
  EXPECT_EQ(Metric("expdb_eval_operators_total"), ops0);
}

TEST(ResultCacheSessionTest, LiteralsShareOnePlanSkeleton) {
  Session s;
  MakeTable(s);
  const uint64_t plans0 = Metric("expdb_plan_plans_total");
  const uint64_t hits0 = Metric("expdb_plan_cache_hits_total");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t WHERE x = 1")), 1u);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t WHERE x = 2")), 1u);
  // Different literals, one skeleton: the second statement plans nothing.
  EXPECT_EQ(Metric("expdb_plan_plans_total") - plans0, 1u);
  EXPECT_EQ(Metric("expdb_plan_cache_hits_total") - hits0, 1u);
}

TEST(ResultCacheSessionTest, PrepareExecute) {
  Session s;
  MakeTable(s);
  auto p = MustExec(s, "PREPARE q AS SELECT name FROM t WHERE x >= $1");
  EXPECT_NE(p.message.find("1 parameter"), std::string::npos) << p.message;

  EXPECT_EQ(RowsAt(MustExec(s, "EXECUTE q (2)")), 2u);  // first sighting
  auto r = MustExec(s, "EXECUTE q (2)");
  EXPECT_EQ(RowsAt(r), 2u);
  ASSERT_TRUE(r.relation.has_value());
  EXPECT_EQ(r.relation->schema().attribute(0).name, "name");
  EXPECT_EQ(RowsAt(MustExec(s, "EXECUTE q (3)")), 1u);

  // Re-executing with the same argument is a result-cache hit.
  const uint64_t hits0 = Metric("expdb_result_cache_hits_total");
  EXPECT_EQ(RowsAt(MustExec(s, "EXECUTE q (2)")), 2u);
  EXPECT_EQ(Metric("expdb_result_cache_hits_total") - hits0, 1u);
}

TEST(ResultCacheSessionTest, PrepareExecuteErrors) {
  Session s;
  MakeTable(s);
  MustExec(s, "PREPARE q AS SELECT * FROM t WHERE x = $1");
  EXPECT_FALSE(s.Execute("EXECUTE q (1, 2)").ok());  // arity mismatch
  EXPECT_FALSE(s.Execute("EXECUTE q").ok());
  EXPECT_FALSE(s.Execute("EXECUTE nosuch (1)").ok());
  // $n parameters only make sense under PREPARE.
  EXPECT_FALSE(s.Execute("SELECT * FROM t WHERE x = $1").ok());
  // A parameter index must be positive.
  EXPECT_FALSE(s.Execute("PREPARE bad AS SELECT * FROM t WHERE x = $0").ok());

  // Re-PREPARE replaces silently.
  auto p = MustExec(s, "PREPARE q AS SELECT * FROM t");
  EXPECT_NE(p.message.find("re-prepared"), std::string::npos) << p.message;
  EXPECT_EQ(RowsAt(MustExec(s, "EXECUTE q")), 3u);
}

TEST(ResultCacheSessionTest, PrepareRejectsViews) {
  Session s;
  MakeTable(s);
  MustExec(s, "CREATE VIEW v AS SELECT x FROM t");
  EXPECT_FALSE(s.Execute("PREPARE q AS SELECT * FROM v").ok());
}

// The canonical view read serves the view's own materialization and
// never touches the result cache. A query that reads a view is cached
// like one over a table: it hits on its third sighting.
TEST(ResultCacheSessionTest, OnlyTheCanonicalViewReadBypassesTheResultCache) {
  Session s;
  MakeTable(s);
  MustExec(s, "CREATE VIEW v AS SELECT x FROM t WHERE x >= 2");
  const uint64_t hits0 = Metric("expdb_result_cache_hits_total");
  for (int i = 0; i < 3; ++i) {
    auto canonical = MustExec(s, "SELECT * FROM v");
    EXPECT_EQ(RowsAt(canonical), 2u);
    EXPECT_EQ(canonical.message, "view v");
  }
  EXPECT_EQ(Metric("expdb_result_cache_hits_total"), hits0);
  EXPECT_EQ(MustExec(s, "SELECT x FROM v WHERE x = 3").message, "ok");
  EXPECT_EQ(MustExec(s, "SELECT x FROM v WHERE x = 3").message, "ok");
  auto third = MustExec(s, "SELECT x FROM v WHERE x = 3");
  EXPECT_EQ(RowsAt(third), 1u);
  EXPECT_EQ(third.message, "ok (cached)");
  EXPECT_EQ(Metric("expdb_result_cache_hits_total") - hits0, 1u);
}

// A cached query over a view follows the view through the view's own
// delta history: a view patched in place records one delta batch, from
// which the cached entry patches; a view recompute installs a fresh
// relation, and the entry misses as instance churn.
TEST(ResultCacheSessionTest, QueriesOverAViewPatchOrMissWithTheView) {
  Session s;
  MakeTable(s);
  MustExec(s, "CREATE VIEW v AS SELECT x FROM t WHERE x >= 2");
  // The first explicit update seeds the view's propagator (a recompute);
  // later ones patch it.
  MustExec(s, "INSERT INTO t VALUES (4, 'd')");
  const std::string q = "SELECT x FROM v WHERE x >= 3";
  for (int i = 0; i < 3; ++i) EXPECT_EQ(RowsAt(MustExec(s, q)), 2u);
  MaterializedView* view = s.views().GetView("v").value();
  const Relation* rel = std::as_const(s).db().GetRelation("v").value();
  const uint64_t recomputes = view->stats().recomputations;
  const uint64_t epoch = rel->delta_epoch();
  const uint64_t patches0 = Metric("expdb_result_cache_patches_total");
  MustExec(s, "INSERT INTO t VALUES (5, 'e'), (6, 'f')");
  auto patched = MustExec(s, q);
  EXPECT_EQ(RowsAt(patched), 4u);
  EXPECT_EQ(patched.message, "ok (cached)");
  EXPECT_EQ(view->stats().recomputations, recomputes);
  EXPECT_EQ(rel->delta_epoch(), epoch + 1);  // one batch for the two rows
  EXPECT_EQ(Metric("expdb_result_cache_patches_total") - patches0, 1u);

  // <2> is critical in w until u's copy expires at 5: an eager recompute.
  MustExec(s, "CREATE TABLE u (x INT)");
  MustExec(s, "INSERT INTO u VALUES (2) EXPIRE AT 5");
  MustExec(s, "CREATE VIEW w AS SELECT x FROM t EXCEPT SELECT x FROM u");
  const std::string qw = "SELECT x FROM w WHERE x >= 1";
  for (int i = 0; i < 3; ++i) EXPECT_EQ(RowsAt(MustExec(s, qw)), 5u);
  const uint64_t churn0 =
      Metric("expdb_result_cache_misses_instance_churn_total");
  MustExec(s, "ADVANCE TIME 6");
  auto after = MustExec(s, qw);
  EXPECT_EQ(RowsAt(after), 6u);
  EXPECT_EQ(after.message, "ok");
  EXPECT_EQ(Metric("expdb_result_cache_misses_instance_churn_total") - churn0,
            1u);
}

TEST(ResultCacheSessionTest, InsertAndDeletePatchTheCachedResult) {
  Session s;
  MakeTable(s);
  // First sighting, then fill.
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t WHERE x >= 1")), 3u);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t WHERE x >= 1")), 3u);
  const uint64_t patches0 = Metric("expdb_result_cache_patches_total");
  MustExec(s, "INSERT INTO t VALUES (4, 'd')");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t WHERE x >= 1")), 4u);
  EXPECT_EQ(Metric("expdb_result_cache_patches_total") - patches0, 1u);
  MustExec(s, "DELETE FROM t WHERE x = 1");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t WHERE x >= 1")), 3u);
  EXPECT_EQ(Metric("expdb_result_cache_patches_total") - patches0, 2u);
}

// A DELETE is one delta batch however many rows it removes, and the ring
// always keeps its newest batch, so one wider than the delta ring
// (kDefaultDeltaRingCapacity entries) still patches a cached COUNT(*) and
// is delta-applied to a view. Recorded row by row, it would trim the
// cursors' history: a history_trimmed miss and a view recompute.
TEST(ResultCacheSessionTest, DeleteWiderThanTheDeltaRingStillPatches) {
  Session s;
  // Removes more rows than the ring holds entries, from a table twice as
  // large.
  const int wide = static_cast<int>(Relation::kDefaultDeltaRingCapacity) + 500;
  const int n = 2 * wide;
  MustExec(s, "CREATE TABLE t (x INT)");
  for (int lo = 0; lo < n; lo += 1000) {
    std::string values;
    for (int x = lo; x < std::min(n, lo + 1000); ++x) {
      values += std::string(x == lo ? "" : ", ") + "(" + std::to_string(x) +
                ")";
    }
    MustExec(s, "INSERT INTO t VALUES " + values);
  }
  MustExec(s, "CREATE VIEW v AS SELECT x FROM t WHERE x >= 0");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), static_cast<size_t>(n));
  MustExec(s, "INSERT INTO t VALUES (" + std::to_string(n) + ")");
  // Seeds the view's propagator.
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")),
            static_cast<size_t>(n) + 1);
  const std::string count = "SELECT COUNT(*) FROM t";
  MustExec(s, count);  // first sighting
  MustExec(s, count);  // fill

  const uint64_t patches0 = Metric("expdb_result_cache_patches_total");
  const uint64_t trimmed0 =
      Metric("expdb_result_cache_misses_history_trimmed_total");
  const uint64_t applies0 = Metric("expdb_view_delta_applies_total");
  const uint64_t fallbacks0 = Metric("expdb_view_delta_fallbacks_total");
  auto del = MustExec(s, "DELETE FROM t WHERE x < " + std::to_string(wide));
  EXPECT_NE(del.message.find(std::to_string(wide) + " rows"),
            std::string::npos)
      << del.message;

  const size_t left = static_cast<size_t>(n - wide) + 1;
  auto c = MustExec(s, count);
  EXPECT_EQ(c.message, "ok (cached)");
  ASSERT_TRUE(c.relation.has_value());
  EXPECT_EQ(c.relation->SortedEntries().at(0).first.at(0),
            Value(static_cast<int64_t>(left)));
  EXPECT_EQ(Metric("expdb_result_cache_patches_total") - patches0, 1u);
  EXPECT_EQ(Metric("expdb_result_cache_misses_history_trimmed_total"),
            trimmed0);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), left);
  EXPECT_EQ(Metric("expdb_view_delta_applies_total") - applies0, 1u);
  EXPECT_EQ(Metric("expdb_view_delta_fallbacks_total"), fallbacks0);
}

// Likewise an INSERT is one delta batch however many rows it adds. Recorded
// row by row, one wider than the ring would be a history_trimmed miss and
// a view recompute.
TEST(ResultCacheSessionTest, InsertWiderThanTheDeltaRingStillPatches) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (-2)");
  MustExec(s, "CREATE VIEW v AS SELECT x FROM t WHERE x >= -5");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 1u);
  MustExec(s, "INSERT INTO t VALUES (-1)");
  // Seeds the view's propagator.
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 2u);
  const std::string count = "SELECT COUNT(*) FROM t";
  MustExec(s, count);  // first sighting
  MustExec(s, count);  // fill

  const uint64_t patches0 = Metric("expdb_result_cache_patches_total");
  const uint64_t trimmed0 =
      Metric("expdb_result_cache_misses_history_trimmed_total");
  const uint64_t applies0 = Metric("expdb_view_delta_applies_total");
  const uint64_t fallbacks0 = Metric("expdb_view_delta_fallbacks_total");
  const int wide = static_cast<int>(Relation::kDefaultDeltaRingCapacity) + 500;
  std::string values;
  for (int x = 0; x < wide; ++x) {
    values += std::string(x == 0 ? "" : ", ") + "(" + std::to_string(x) + ")";
  }
  auto ins = MustExec(s, "INSERT INTO t VALUES " + values + " TTL 50");
  EXPECT_NE(ins.message.find(std::to_string(wide) + " rows"),
            std::string::npos)
      << ins.message;

  const size_t total = static_cast<size_t>(wide) + 2;
  auto c = MustExec(s, count);
  EXPECT_EQ(c.message, "ok (cached)");
  ASSERT_TRUE(c.relation.has_value());
  EXPECT_EQ(c.relation->SortedEntries().at(0).first.at(0),
            Value(static_cast<int64_t>(total)));
  EXPECT_EQ(Metric("expdb_result_cache_patches_total") - patches0, 1u);
  EXPECT_EQ(Metric("expdb_result_cache_misses_history_trimmed_total"),
            trimmed0);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), total);
  EXPECT_EQ(Metric("expdb_view_delta_applies_total") - applies0, 1u);
  EXPECT_EQ(Metric("expdb_view_delta_fallbacks_total"), fallbacks0);
}

// A statement's rows share one texp, so a row repeated within it is a
// no-op and a row already present with a lower texp is raised: the one
// batch's deletes-then-inserts order patches both exactly.
TEST(ResultCacheSessionTest, InsertWithDuplicatesAndRaisesPatchesExactly) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1), (2) TTL 5");
  MustExec(s, "INSERT INTO t VALUES (3) TTL 100");
  const std::string sql = "SELECT x FROM t WHERE x >= 0";
  MustExec(s, sql);  // first sighting
  MustExec(s, sql);  // fill
  const uint64_t patches0 = Metric("expdb_result_cache_patches_total");
  // 1 is raised from 5 to 20, 4 arrives twice, 3 keeps its later texp.
  MustExec(s, "INSERT INTO t VALUES (1), (4), (4), (3) TTL 20");
  auto r = MustExec(s, sql);
  EXPECT_EQ(r.message, "ok (cached)");
  EXPECT_EQ(Metric("expdb_result_cache_patches_total") - patches0, 1u);
  ASSERT_TRUE(r.relation.has_value());
  const auto entries = r.relation->SortedEntries();
  ASSERT_EQ(entries.size(), 4u);
  const Timestamp texps[] = {Timestamp(20), Timestamp(5), Timestamp(100),
                             Timestamp(20)};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(entries[i].first, Tuple{static_cast<int64_t>(i + 1)});
    EXPECT_EQ(entries[i].second, texps[i]) << i;
  }
  // The same answer as an uncached run.
  MustExec(s, "SET result_cache_bytes = 0");
  EXPECT_EQ(MustExec(s, sql).relation->SortedEntries(), entries);
}

// Only a recompute re-plans a view. A DELETE of most of a table is a 2x
// size drift from the view's plan-time snapshot, but it is one delta batch:
// the view delta-applies it in O(|delta|) and keeps its plan and
// propagator.
TEST(ResultCacheSessionTest, DeleteOfMostOfATableDeltaAppliesWithoutReplan) {
  Session s;
  const int n = 1000;
  MustExec(s, "CREATE TABLE t (x INT)");
  std::string values;
  for (int x = 0; x < n; ++x) {
    values += std::string(x == 0 ? "" : ", ") + "(" + std::to_string(x) + ")";
  }
  MustExec(s, "INSERT INTO t VALUES " + values);
  MustExec(s, "CREATE VIEW v AS SELECT x FROM t WHERE x >= 0");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), static_cast<size_t>(n));
  MustExec(s, "INSERT INTO t VALUES (" + std::to_string(n) + ")");
  // Seeds the view's propagator.
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")),
            static_cast<size_t>(n) + 1);

  const uint64_t applies0 = Metric("expdb_view_delta_applies_total");
  const uint64_t fallbacks0 = Metric("expdb_view_delta_fallbacks_total");
  const uint64_t replans0 = Metric("expdb_view_replans_total");
  const int gone = n - 100;  // 900 of 1 001 rows
  auto del = MustExec(s, "DELETE FROM t WHERE x < " + std::to_string(gone));
  EXPECT_NE(del.message.find(std::to_string(gone) + " rows"),
            std::string::npos)
      << del.message;
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")),
            static_cast<size_t>(n - gone) + 1);
  EXPECT_EQ(Metric("expdb_view_delta_applies_total") - applies0, 1u);
  EXPECT_EQ(Metric("expdb_view_delta_fallbacks_total"), fallbacks0);
  EXPECT_EQ(Metric("expdb_view_replans_total"), replans0);
}

TEST(ResultCacheSessionTest, TimePassingComputedExpiryRecomputes) {
  Session s;
  MustExec(s, "CREATE TABLE r (a INT)");
  MustExec(s, "CREATE TABLE q (a INT)");
  MustExec(s, "INSERT INTO r VALUES (1), (2)");
  MustExec(s, "INSERT INTO q VALUES (1) TTL 5");
  // texp(r -exp q) = 5: tuple 1 reappears when q's copy expires.
  const std::string sel = "SELECT a FROM r EXCEPT SELECT a FROM q";
  EXPECT_EQ(RowsAt(MustExec(s, sel)), 1u);  // first sighting
  EXPECT_EQ(RowsAt(MustExec(s, sel)), 1u);  // fill
  const uint64_t hits0 = Metric("expdb_result_cache_hits_total");
  EXPECT_EQ(RowsAt(MustExec(s, sel)), 1u);  // warm hit before the expiry
  EXPECT_EQ(Metric("expdb_result_cache_hits_total") - hits0, 1u);
  MustExec(s, "ADVANCE TIME TO 6");
  // Past the computed expiration the entry has lapsed: recompute, and the
  // difference now includes the reappeared tuple.
  EXPECT_EQ(RowsAt(MustExec(s, sel)), 2u);
  EXPECT_EQ(Metric("expdb_result_cache_hits_total") - hits0, 1u);
}

// Regression (issue satellite): Relation::Clear() breaks delta history;
// the session must recompute, not serve the pre-Clear tuples.
TEST(ResultCacheSessionTest, ClearedBaseDoesNotServeStale) {
  Session s;
  MakeTable(s);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 3u);  // first sighting
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 3u);  // fill
  s.db().GetRelation("t").value()->Clear();
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 0u);
}

TEST(ResultCacheSessionTest, CacheStatsAndClear) {
  Session s;
  MakeTable(s);
  MustExec(s, "SELECT * FROM t");
  MustExec(s, "SELECT * FROM t");
  auto stats = MustExec(s, "CACHE STATS");
  EXPECT_NE(stats.message.find("statement cache: 1 plans"),
            std::string::npos)
      << stats.message;
  EXPECT_NE(stats.message.find("result cache: 1 entries"),
            std::string::npos)
      << stats.message;
  // The first execution was rejected, the second admitted.
  EXPECT_NE(stats.message.find("1 admitted, 1 rejected (first sighting)"),
            std::string::npos)
      << stats.message;
  MustExec(s, "PREPARE q AS SELECT * FROM t");
  MustExec(s, "CACHE CLEAR");
  auto cleared = MustExec(s, "CACHE STATS");
  EXPECT_NE(cleared.message.find("statement cache: 0 plans"),
            std::string::npos)
      << cleared.message;
  EXPECT_NE(cleared.message.find("result cache: 0 entries"),
            std::string::npos)
      << cleared.message;
  // CACHE CLEAR keeps prepared statements — only the caches drop.
  EXPECT_NE(cleared.message.find("prepared statements: 1"),
            std::string::npos)
      << cleared.message;
  EXPECT_EQ(RowsAt(MustExec(s, "EXECUTE q")), 3u);
}

// Miss reasons surface in CACHE STATS (non-zero ones only) and, with the
// event log on, as cache_miss events carrying a `reason` field.
TEST(ResultCacheSessionTest, MissReasonsInCacheStatsAndEvents) {
  Session s;
  MakeTable(s);
  obs::EventLog& log = obs::EventLog::Global();
  const bool was_enabled = log.enabled();
  log.Clear();
  log.set_enabled(true);
  MustExec(s, "SELECT * FROM t WHERE x >= 1");  // first sighting: absent
  MustExec(s, "SELECT * FROM t WHERE x >= 1");  // absent, then filled
  MustExec(s, "DROP TABLE t");
  MakeTable(s);
  MustExec(s, "SELECT * FROM t WHERE x >= 1");  // DDL dropped it: absent
  log.set_enabled(was_enabled);
  auto stats = MustExec(s, "CACHE STATS");
  EXPECT_NE(stats.message.find("3 misses (absent 3), "), std::string::npos)
      << stats.message;
  EXPECT_EQ(stats.message.find("lapsed"), std::string::npos) << stats.message;
  size_t events = 0;
  for (const obs::LogEvent& e : log.Snapshot()) {
    if (e.event != "cache_miss") continue;
    ++events;
    ASSERT_EQ(e.fields.size(), 1u);
    EXPECT_EQ(e.fields[0].first, "reason");
    EXPECT_EQ(e.fields[0].second, "absent");
  }
  log.Clear();
  EXPECT_EQ(events, 3u);
}

TEST(ResultCacheSessionTest, SetResultCacheBytes) {
  Session s;
  MakeTable(s);
  MustExec(s, "SET result_cache_bytes = 0");
  const uint64_t hits0 = Metric("expdb_result_cache_hits_total");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 3u);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 3u);
  EXPECT_EQ(Metric("expdb_result_cache_hits_total"), hits0);  // disabled

  EXPECT_FALSE(s.Execute("SET result_cache_bytes = 'lots'").ok());

  MustExec(s, "SET result_cache_bytes = 1048576");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 3u);  // first sighting
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 3u);  // fill
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 3u);  // hit
  EXPECT_EQ(Metric("expdb_result_cache_hits_total") - hits0, 1u);
}

TEST(ResultCacheSessionTest, DdlInvalidatesCachedPlansAndResults) {
  Session s;
  MustExec(s, "CREATE TABLE t (x INT)");
  MustExec(s, "INSERT INTO t VALUES (1)");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 1u);
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM t")), 1u);  // warm
  MustExec(s, "PREPARE p AS SELECT * FROM t");
  MustExec(s, "DROP TABLE t");
  // The prepared statement read the dropped table: it is gone too.
  EXPECT_FALSE(s.Execute("EXECUTE p").ok());
  // Same name, different schema: nothing stale may serve.
  MustExec(s, "CREATE TABLE t (name STRING)");
  MustExec(s, "INSERT INTO t VALUES ('a'), ('b')");
  auto r = MustExec(s, "SELECT * FROM t");
  EXPECT_EQ(RowsAt(r), 2u);
  ASSERT_TRUE(r.relation.has_value());
  EXPECT_EQ(r.relation->schema().attribute(0).name, "name");
}

// Cached-vs-fresh set identity. A cached session and a cache-disabled
// session replay the same script; every SELECT, a view over each one, and
// queries over those views must agree exactly — tuples and texps
// (Relation::EqualAt) — across operators, mutations, time advancing past
// computed expiries, and a final phase under a tiny byte budget that
// forces LRU eviction mid-sweep.
TEST(ResultCacheSessionTest, CachedMatchesFreshAcrossOperatorsAndTime) {
  Session cached;
  Session fresh;
  MustExec(fresh, "SET result_cache_bytes = 0");
  auto both = [&](const std::string& stmt) {
    MustExec(cached, stmt);
    MustExec(fresh, stmt);
  };
  // Runs `q` in both sessions, expects the same rows and texps, and
  // returns the fresh session's result.
  auto same = [&](const std::string& where, const std::string& q) {
    auto c = MustExec(cached, q);
    auto f = MustExec(fresh, q);
    EXPECT_TRUE(c.relation.has_value() && f.relation.has_value()) << q;
    if (!c.relation.has_value() || !f.relation.has_value()) return f;
    EXPECT_EQ(c.served_at, f.served_at) << where << ": " << q;
    EXPECT_TRUE(Relation::EqualAt(*c.relation, *f.relation, c.served_at))
        << where << ": " << q << "\n  cached: " << c.relation->ToString()
        << "\n  fresh:  " << f.relation->ToString();
    return f;
  };
  const std::vector<std::string> queries = {
      "SELECT * FROM r",
      "SELECT b FROM r WHERE a >= 2",
      "SELECT * FROM r WHERE a = 1 OR a = 4",
      "SELECT DISTINCT b FROM r",
      "SELECT a, COUNT(*) FROM r GROUP BY a",
      "SELECT a, SUM(a) AS total FROM r GROUP BY a",
      "SELECT a FROM r UNION SELECT a FROM s",
      "SELECT a FROM r INTERSECT SELECT a FROM s",
      "SELECT a FROM r EXCEPT SELECT a FROM s",
      "SELECT r.b, s.a FROM r, s WHERE r.a = s.a",
      // Split joins: left-only, right-only, cross and OR conjuncts.
      "SELECT r.b, s.a FROM r, s WHERE r.a = s.a AND r.a >= 2 AND s.a < 5",
      "SELECT r.b, s.a FROM r, s WHERE r.a = s.a AND (r.b = 'y' OR s.a = 3)",
      "SELECT r.b, s.a FROM r, s WHERE (r.a = 1 OR r.a = 3) AND s.a >= 3",
      // GROUP BY over a filtered scan; a filter that keeps nothing.
      "SELECT a, COUNT(*) FROM r WHERE a >= 2 GROUP BY a",
      "SELECT * FROM r WHERE 1 = 2",
  };
  // Queries that filter, join and aggregate over the views qv<i> below:
  // both sessions read the views as relations, and only the cached one
  // keeps and patches the results.
  const std::vector<std::string> view_queries = {
      "SELECT b FROM qv0 WHERE a >= 2",
      "SELECT qv0.b, s.a FROM qv0, s WHERE qv0.a = s.a",
      "SELECT a, COUNT(*) FROM qv0 GROUP BY a",
      "SELECT * FROM qv4 WHERE a >= 2",
      "SELECT a FROM qv8 WHERE a >= 2",
      "SELECT COUNT(*) FROM qv9",
      "SELECT a FROM qv7 UNION SELECT a FROM qv8",
  };
  auto sweep = [&](const std::string& where) {
    for (const std::string& q : view_queries) same(where, q);
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string& q = queries[i];
      auto f = same(where, q);
      ASSERT_TRUE(f.relation.has_value());
      auto v = MustExec(cached, "SELECT * FROM qv" + std::to_string(i));
      ASSERT_TRUE(v.relation.has_value());
      EXPECT_EQ(v.served_at, f.served_at) << where << ": view " << q;
      EXPECT_TRUE(Relation::EqualAt(*v.relation, *f.relation, v.served_at))
          << where << ": view " << q << "\n  view:  "
          << v.relation->ToString() << "\n  fresh: " << f.relation->ToString();
    }
  };

  both("CREATE TABLE r (a INT, b STRING)");
  both("CREATE TABLE s (a INT)");
  both("INSERT INTO r VALUES (1, 'x'), (2, 'y') TTL 4");
  both("INSERT INTO r VALUES (2, 'z'), (3, 'w') EXPIRE NEVER");
  both("INSERT INTO s VALUES (1) TTL 6");
  both("INSERT INTO s VALUES (3), (5) EXPIRE NEVER");
  // Every query is also a view qv<i>, read next to it by the sweep: both
  // consumers of a materialization, cache entries and views, are held to
  // the fresh session.
  for (size_t i = 0; i < queries.size(); ++i) {
    both("CREATE VIEW qv" + std::to_string(i) + " AS " + queries[i]);
  }
  sweep("initial");
  sweep("admit");  // second sighting: the cached side stores its results
  const uint64_t hits0 = Metric("expdb_result_cache_hits_total");
  sweep("warm");  // third pass: cached side serves hits
  EXPECT_GE(Metric("expdb_result_cache_hits_total") - hits0,
            queries.size() + view_queries.size());

  both("ADVANCE TIME 3");
  sweep("t=3");
  both("INSERT INTO r VALUES (4, 'v') TTL 5");
  both("DELETE FROM s WHERE a = 5");
  sweep("t=3 after mutations");

  both("ADVANCE TIME 4");  // past the TTL-4 tuples and s's TTL 6
  sweep("t=7");

  // Tiny budget: entries evict under churn, correctness must hold.
  MustExec(cached, "SET result_cache_bytes = 2048");
  both("INSERT INTO r VALUES (5, 'u') TTL 9");
  sweep("tiny budget");
  both("ADVANCE TIME 3");
  sweep("tiny budget t=10");
}

void MakeJoinTables(Session& s) {
  MustExec(s, "CREATE TABLE r (a INT, b STRING)");
  MustExec(s, "CREATE TABLE s (a INT)");
  MustExec(s,
           "INSERT INTO r VALUES (1, 'x'), (2, 'y'), (3, 'z'), (4, 'w'), "
           "(5, 'v'), (6, 'u')");
  MustExec(s, "INSERT INTO s VALUES (1), (2), (3), (4), (5), (6)");
}

// The binder pushes single-table conjuncts below the join, so a cached
// join's propagator is seeded from the filtered sides. An INSERT or
// DELETE on either side must patch the entry to exactly what a fresh
// execution returns.
TEST(ResultCacheSessionTest, SplitJoinPatchesOnEitherSide) {
  Session cached;
  Session fresh;
  MustExec(fresh, "SET result_cache_bytes = 0");
  const std::string q =
      "SELECT r.b, s.a FROM r, s WHERE r.a = s.a AND r.a >= 2 AND s.a < 6";
  auto both = [&](const std::string& stmt) {
    MustExec(cached, stmt);
    MustExec(fresh, stmt);
  };
  MakeJoinTables(cached);
  MakeJoinTables(fresh);
  MustExec(cached, q);  // first sighting
  MustExec(cached, q);  // fill
  for (const char* update :
       {"INSERT INTO r VALUES (3, 'q')", "DELETE FROM s WHERE a = 4",
        "INSERT INTO s VALUES (7), (0)", "DELETE FROM r WHERE a = 2",
        "INSERT INTO r VALUES (1, 'p') TTL 3"}) {
    both(update);
    const uint64_t patches0 = Metric("expdb_result_cache_patches_total");
    auto c = MustExec(cached, q);
    auto f = MustExec(fresh, q);
    EXPECT_EQ(c.message, "ok (cached)") << update;
    EXPECT_EQ(Metric("expdb_result_cache_patches_total") - patches0, 1u)
        << update;
    ASSERT_TRUE(c.relation.has_value() && f.relation.has_value());
    EXPECT_TRUE(Relation::EqualAt(*c.relation, *f.relation, c.served_at))
        << update << "\n  cached: " << c.relation->ToString()
        << "\n  fresh:  " << f.relation->ToString();
  }
}

// A view over a split join keeps its incremental path: after the first
// explicit update seeds the propagator, later updates on either side are
// delta-applied, never recomputed.
TEST(ResultCacheSessionTest, ViewOverSplitJoinDeltaApplies) {
  Session s;
  MakeJoinTables(s);
  MustExec(s,
           "CREATE VIEW v AS SELECT r.b, s.a FROM r, s "
           "WHERE r.a = s.a AND r.a >= 2 AND s.a < 6");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 4u);
  MustExec(s, "INSERT INTO r VALUES (7, 't')");  // seeds on the next read
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 4u);
  const uint64_t applies0 = Metric("expdb_view_delta_applies_total");
  const uint64_t recomputes0 = Metric("expdb_view_recomputations_total");
  MustExec(s, "DELETE FROM s WHERE a = 3");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 3u);
  MustExec(s, "INSERT INTO r VALUES (5, 'q')");
  EXPECT_EQ(RowsAt(MustExec(s, "SELECT * FROM v")), 4u);
  EXPECT_EQ(Metric("expdb_view_delta_applies_total") - applies0, 2u);
  EXPECT_EQ(Metric("expdb_view_recomputations_total"), recomputes0);
}

// Readings whose ts arrives in order with its TTL: each batch lands in its
// own texp segment, so a ts window between batches skips every segment.
void MakeClusteredReadings(Session& s) {
  MustExec(s, "CREATE TABLE readings (sensor INT, ts INT, val INT)");
  for (int b = 1; b <= 4; ++b) {
    std::string values;
    for (int i = 0; i < 10; ++i) {
      const int ts = 100 * (b - 1) + i;
      values += std::string(i == 0 ? "" : ", ") + "(" + std::to_string(i) +
                ", " + std::to_string(ts) + ", " + std::to_string(ts * 2) +
                ")";
    }
    MustExec(s, "INSERT INTO readings VALUES " + values + " TTL " +
                    std::to_string(100 * b));
  }
}

// An INSERT into a ts range every segment was skipped for must patch the
// cached result and refresh a view over the same filter: skipping reads
// the bounds as they are now, and the insert widened them.
TEST(ResultCacheSessionTest, InsertIntoSkippedRangePatchesAndRefreshes) {
  Session cached;
  Session fresh;
  MustExec(fresh, "SET result_cache_bytes = 0");
  MakeClusteredReadings(cached);
  MakeClusteredReadings(fresh);
  const std::string q =
      "SELECT sensor, ts, val FROM readings WHERE ts >= 150 AND ts <= 180";
  MustExec(cached, "CREATE VIEW v AS " + q);
  EXPECT_EQ(RowsAt(MustExec(cached, "SELECT * FROM v")), 0u);

  const uint64_t skipped0 = Metric("expdb_segment_skipped_total");
  EXPECT_EQ(RowsAt(MustExec(cached, q)), 0u);  // first sighting
  EXPECT_EQ(Metric("expdb_segment_skipped_total") - skipped0, 4u);
  auto explained = MustExec(fresh, "EXPLAIN ANALYZE " + q);
  EXPECT_NE(explained.message.find("[segments: 0/0/0, 4 skipped]"),
            std::string::npos)
      << explained.message;
  EXPECT_EQ(RowsAt(MustExec(cached, q)), 0u);  // fill

  // TTL 200 lands in the segment holding ts 100..109.
  for (Session* s : {&cached, &fresh}) {
    MustExec(*s, "INSERT INTO readings VALUES (7, 160, 1) TTL 200");
  }
  const uint64_t patches0 = Metric("expdb_result_cache_patches_total");
  auto c = MustExec(cached, q);
  auto f = MustExec(fresh, q);
  EXPECT_EQ(c.message, "ok (cached)");
  EXPECT_EQ(Metric("expdb_result_cache_patches_total") - patches0, 1u);
  EXPECT_EQ(RowsAt(c), 1u);
  ASSERT_TRUE(c.relation.has_value() && f.relation.has_value());
  EXPECT_TRUE(Relation::EqualAt(*c.relation, *f.relation, c.served_at))
      << "cached: " << c.relation->ToString()
      << "\n fresh:  " << f.relation->ToString();
  EXPECT_EQ(RowsAt(MustExec(cached, "SELECT * FROM v")), 1u);
}

}  // namespace
}  // namespace sql
}  // namespace expdb
