// SQL robustness: malformed, truncated, and randomized inputs must
// produce Status errors — never crashes — and must leave the session
// fully usable afterwards.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sql/parser.h"
#include "sql/session.h"

namespace expdb {
namespace sql {
namespace {

TEST(SqlRobustnessTest, MalformedStatementsReturnErrors) {
  Session s;
  const char* bad[] = {
      "",
      "   ",
      "SELECT",
      "SELECT FROM",
      "SELECT * FROM",
      "SELECT * FORM t",
      "CREATE",
      "CREATE TABLE",
      "CREATE TABLE t",
      "CREATE TABLE t (",
      "CREATE TABLE t (x)",
      "CREATE TABLE t (x INT",
      "INSERT t VALUES (1)",
      "INSERT INTO t",
      "INSERT INTO t VALUES",
      "INSERT INTO t VALUES (",
      "INSERT INTO t VALUES (1",
      "INSERT INTO t VALUES (1) TTL",
      "INSERT INTO t VALUES (1) EXPIRE",
      "INSERT INTO t VALUES (1) EXPIRE AT 'soon'",
      "DROP",
      "DROP DATABASE x",
      "ADVANCE",
      "ADVANCE TIME",
      "SHOW",
      "SHOW ME",
      "DELETE t",
      "SELECT * FROM t WHERE",
      "SELECT * FROM t WHERE x",
      "SELECT * FROM t WHERE x =",
      "SELECT * FROM t WHERE x = = 1",
      "SELECT * FROM t GROUP",
      "SELECT * FROM t UNION",
      "SELECT COUNT( FROM t",
      "CREATE VIEW v AS",
      "CREATE VIEW v WITH () AS SELECT * FROM t",
      "CREATE VIEW v WITH (mode) AS SELECT * FROM t",
      "'unterminated",
      "SELECT * FROM t;;;; extra",
      "((((((((",
      "SELECT * FROM t WHERE (((x = 1)",
  };
  for (const char* stmt : bad) {
    auto r = s.Execute(stmt);
    EXPECT_FALSE(r.ok()) << "accepted malformed input: " << stmt;
  }
  // Session is still healthy.
  EXPECT_TRUE(s.Execute("CREATE TABLE t (x INT)").ok());
  EXPECT_TRUE(s.Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_TRUE(s.Execute("SELECT * FROM t").ok());
}

TEST(SqlRobustnessTest, SemanticErrorsDoNotCorruptState) {
  Session s;
  ASSERT_TRUE(s.Execute("CREATE TABLE t (x INT)").ok());
  const char* bad[] = {
      "SELECT * FROM ghost",
      "SELECT ghost FROM t",
      "INSERT INTO ghost VALUES (1)",
      "INSERT INTO t VALUES ('wrong')",
      "INSERT INTO t VALUES (1, 2)",
      "SELECT x FROM t GROUP BY ghost",
      "SELECT SUM(x) FROM t GROUP BY ghost",
      "SELECT x FROM t UNION SELECT x, x FROM t",
      "CREATE TABLE t (y INT)",   // duplicate
      "DROP VIEW nope",
      "DELETE FROM ghost",
  };
  for (const char* stmt : bad) {
    EXPECT_FALSE(s.Execute(stmt).ok()) << stmt;
  }
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (7)").ok());
  auto r = s.Execute("SELECT * FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->relation->CountUnexpiredAt(r->served_at), 1u);
}

TEST(SqlRobustnessTest, RandomPrintableGarbageNeverCrashes) {
  Session s;
  ASSERT_TRUE(s.Execute("CREATE TABLE t (x INT)").ok());
  Rng rng(424242);
  const std::string alphabet =
      "abcXYZ019 '\",.*()=<>!;-_\n\tSELECTFROMWHEREINSERT";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string garbage;
    const int len = static_cast<int>(rng.UniformInt(1, 60));
    for (int i = 0; i < len; ++i) {
      garbage += alphabet[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))];
    }
    // Must return, with either outcome, and never throw or crash.
    auto result = s.Execute(garbage);
    (void)result;
  }
  EXPECT_TRUE(s.Execute("SELECT * FROM t").ok());
}

TEST(SqlRobustnessTest, DeeplyNestedPredicatesParse) {
  Session s;
  ASSERT_TRUE(s.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (5)").ok());
  std::string stmt = "SELECT * FROM t WHERE ";
  for (int i = 0; i < 200; ++i) stmt += "(";
  stmt += "x = 5";
  for (int i = 0; i < 200; ++i) stmt += ")";
  auto r = s.Execute(stmt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->relation->CountUnexpiredAt(r->served_at), 1u);
}

TEST(SqlRobustnessTest, LongScriptsAndManyStatements) {
  Session s;
  std::string script = "CREATE TABLE t (x INT);";
  for (int i = 0; i < 500; ++i) {
    script += "INSERT INTO t VALUES (" + std::to_string(i) + ") TTL " +
              std::to_string(1 + i % 50) + ";";
  }
  script += "SELECT COUNT(*) AS n FROM t;";
  auto results = s.ExecuteScript(script);
  ASSERT_TRUE(results.ok());
  const auto& last = results->back();
  EXPECT_TRUE(last.relation->Contains(Tuple{500}));
}

// --- mutated corpus ---------------------------------------------------------

// Every statement shape the end-to-end benchmark (perfbench/) sends, and
// the statements of parser_test.
const char* const kCorpus[] = {
    // perfbench set-up, scan_read, hot_cache and ttl_churn.
    "CREATE TABLE sensors (sensor INT, region INT)",
    "INSERT INTO sensors VALUES (0, 0), (1, 1), (2, 2)",
    "CREATE TABLE readings (sensor INT, ts INT, val INT)",
    "INSERT INTO readings VALUES (3, 100, 7), (4, 101, 8) TTL 1000001",
    "SELECT sensor, ts, val FROM readings WHERE ts >= 4096 AND ts <= 5119",
    "SELECT r.ts, r.val, s.region FROM readings r, sensors s WHERE "
    "r.sensor = s.sensor AND r.ts >= 4096 AND r.ts <= 5119",
    "SELECT sensor, COUNT(*) FROM readings WHERE ts >= 4096 AND "
    "ts <= 5119 GROUP BY sensor",
    "SELECT COUNT(*) FROM readings",
    "CREATE TABLE hot (k INT, grp INT, v INT)",
    "INSERT INTO hot VALUES (0, 0, 17), (1, 1, 912) TTL 60",
    "PREPARE qa AS SELECT k, v FROM hot WHERE grp = $1",
    "PREPARE qb AS SELECT k, grp FROM hot WHERE v >= $1 AND v < $2",
    "SELECT k, v FROM hot WHERE grp = 17",
    "SELECT k, grp FROM hot WHERE v >= 412 AND v < 422",
    "EXECUTE qa (17)",
    "EXECUTE qb (412, 422)",
    "INSERT INTO hot VALUES (100000123, 17, 512) TTL 40",
    "ADVANCE TIME 1",
    "SET result_cache_bytes = 0",
    "CREATE TABLE w0 (k INT, v INT)",
    "CREATE VIEW v_sel AS SELECT k, v FROM w0 WHERE k < 4000",
    "CREATE VIEW v_diff AS SELECT k FROM w0 WHERE k < 4000 EXCEPT "
    "SELECT k FROM w1 WHERE k < 4000",
    "SELECT * FROM v_sel",
    "DELETE FROM w1 WHERE v = 77",
    "INSERT INTO w0 VALUES (5, 80), (6, 81) TTL 12",
    // parser_test.
    "CREATE TABLE pol (uid INT, deg INT, name STRING, score DOUBLE)",
    "INSERT INTO pol VALUES (1, 25), (2, 30) TTL 10",
    "INSERT INTO t VALUES (1) EXPIRE AT 99",
    "INSERT INTO t VALUES (1) EXPIRE NEVER",
    "INSERT INTO t VALUES (1, 'x', 2.5)",
    "INSERT INTO t VALUES ('it''s a;b')",
    "SELECT uid AS user, deg FROM pol AS p",
    "SELECT p.uid FROM pol p, el e WHERE p.uid = e.uid AND p.deg > 20",
    "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3",
    "SELECT * FROM t WHERE NOT (a = 1 OR b <> 2)",
    "SELECT deg, COUNT(*), SUM(deg) AS total FROM pol GROUP BY deg",
    "SELECT MIN(a), MAX(a), SUM(a), AVG(a), COUNT(a) FROM t",
    "SELECT DISTINCT a FROM t UNION SELECT a FROM s EXCEPT SELECT a FROM u",
    "SELECT a FROM t INTERSECT SELECT a FROM s",
    "CREATE MATERIALIZED VIEW v WITH (mode = patch, move = 'backward') "
    "AS SELECT a FROM t EXCEPT SELECT a FROM s",
    "DROP TABLE pol",
    "DROP VIEW vw",
    "ADVANCE TIME TO 99",
    "SHOW TABLES",
    "SHOW HEALTH",
    "DELETE FROM t WHERE x = 3",
    "SELECT * FROM t; -- a 'comment'",
    "SET event_log_path = '/tmp/events.jsonl'",
    "TRACE EXPORT '/tmp/trace.json'",
    "MONITOR HISTORY expdb_statements_total",
    "STATS PROMETHEUS",
    "EXPLAIN ANALYZE SELECT * FROM t WHERE x >= -2.5",
    "CACHE CLEAR",
    "MAINTENANCE RUN",
};

std::string Mutate(const std::string& in, Rng& rng) {
  static const std::string kAlphabet =
      "abzXYZ_019.-'$;,()*=<>! \n\t";
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n)));
  };
  std::string s = in;
  const int edits = static_cast<int>(rng.UniformInt(1, 3));
  for (int e = 0; e < edits; ++e) {
    const size_t at = pick(s.size());
    switch (rng.UniformInt(0, 4)) {
      case 0:  // delete a short run
        s.erase(at, 1 + pick(3));
        break;
      case 1:  // insert a character
        s.insert(at, 1, kAlphabet[pick(kAlphabet.size() - 1)]);
        break;
      case 2:  // duplicate a short run
        s.insert(at, s.substr(at, 1 + pick(8)));
        break;
      case 3:  // truncate
        s.resize(at);
        break;
      default: {  // splice in part of another statement
        const std::string other = kCorpus[pick(std::size(kCorpus) - 1)];
        const size_t from = pick(other.size());
        s.insert(at, other.substr(from, 1 + pick(12)));
        break;
      }
    }
  }
  return s;
}

// Reads every string an AST holds; a string that still viewed a
// destroyed input would be a use-after-free under ASan.
struct AstReader {
  size_t bytes = 0;

  void Read(const std::string& s) {
    for (char c : s) bytes += static_cast<unsigned char>(c) != 0 ? 1 : 0;
  }
  void Read(const Value& v) {
    if (v.is_string()) Read(v.AsString());
  }
  void Read(const ColumnRef& c) {
    Read(c.table);
    Read(c.column);
  }
  void Read(const ScalarOperand& o) {
    Read(o.column);
    Read(o.constant);
  }
  void Read(const BoolExprPtr& e) {
    if (e == nullptr) return;
    Read(e->lhs);
    Read(e->rhs);
    Read(e->left);
    Read(e->right);
  }
  void Read(const SelectStatement& s) {
    for (const SelectItem& item : s.items) {
      Read(item.column);
      Read(item.alias);
    }
    for (const TableRef& ref : s.from) {
      Read(ref.name);
      Read(ref.alias);
    }
    Read(s.where);
    for (const ColumnRef& c : s.group_by) Read(c);
    if (s.set_rhs != nullptr) Read(*s.set_rhs);
  }
  void Read(const Statement& stmt) {
    std::visit(
        [this](const auto& s) {
          using T = std::decay_t<decltype(s)>;
          if constexpr (std::is_same_v<T, SelectStatement>) {
            Read(s);
          } else if constexpr (std::is_same_v<T, CreateTableStatement>) {
            Read(s.name);
            for (const Attribute& a : s.columns) Read(a.name);
          } else if constexpr (std::is_same_v<T, InsertStatement>) {
            Read(s.table);
            for (const auto& row : s.rows) {
              for (const Value& v : row) Read(v);
            }
          } else if constexpr (std::is_same_v<T, CreateViewStatement>) {
            Read(s.name);
            for (const auto& [k, v] : s.options) {
              Read(k);
              Read(v);
            }
            Read(s.select);
          } else if constexpr (std::is_same_v<T, DropStatement>) {
            Read(s.name);
          } else if constexpr (std::is_same_v<T, DeleteStatement>) {
            Read(s.table);
            Read(s.where);
          } else if constexpr (std::is_same_v<T, ExplainStatement>) {
            Read(s.select);
          } else if constexpr (std::is_same_v<T, SetStatement>) {
            Read(s.name);
            Read(s.value);
          } else if constexpr (std::is_same_v<T, TraceStatement>) {
            Read(s.path);
          } else if constexpr (std::is_same_v<T, PrepareStatement>) {
            Read(s.name);
            Read(s.select);
          } else if constexpr (std::is_same_v<T, ExecutePreparedStatement>) {
            Read(s.name);
            for (const Value& v : s.args) Read(v);
          } else if constexpr (std::is_same_v<T, MonitorStatement>) {
            Read(s.metric);
          }
        },
        stmt);
  }
};

TEST(SqlRobustnessTest, MutatedCorpusParsesOrFailsCleanly) {
  Rng rng(20061);
  size_t parsed = 0;
  size_t bytes_read = 0;
  for (const char* stmt : kCorpus) {
    EXPECT_TRUE(ParseStatement(stmt).ok()) << stmt;
  }
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string& seed = kCorpus[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(std::size(kCorpus)) - 1))];
    // A heap copy the AST must not point into once destroyed.
    auto input = std::make_unique<std::string>(Mutate(seed, rng));
    const std::string text = *input;
    auto r = ParseStatement(*input);
    input->assign(input->size(), '\0');
    input.reset();
    if (!r.ok()) {
      ASSERT_EQ(r.status().code(), StatusCode::kParseError)
          << text << " -> " << r.status().ToString();
      continue;
    }
    ++parsed;
    AstReader reader;
    reader.Read(*r);
    bytes_read += reader.bytes;
  }
  // About one mutated statement in eleven still parses.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(bytes_read, 0u);
}

}  // namespace
}  // namespace sql
}  // namespace expdb
