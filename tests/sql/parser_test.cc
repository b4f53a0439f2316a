#include "sql/parser.h"

#include <gtest/gtest.h>

namespace expdb {
namespace sql {
namespace {

template <typename T>
T MustParseAs(const std::string& in) {
  auto r = ParseStatement(in);
  EXPECT_TRUE(r.ok()) << in << " -> " << r.status().ToString();
  T* stmt = std::get_if<T>(&r.value());
  EXPECT_NE(stmt, nullptr) << in << " parsed to a different statement kind";
  return *stmt;
}

TEST(ParserTest, CreateTable) {
  auto stmt = MustParseAs<CreateTableStatement>(
      "CREATE TABLE pol (uid INT, deg INT, name STRING, score DOUBLE)");
  EXPECT_EQ(stmt.name, "pol");
  ASSERT_EQ(stmt.columns.size(), 4u);
  EXPECT_EQ(stmt.columns[0].name, "uid");
  EXPECT_EQ(stmt.columns[0].type, ValueType::kInt64);
  EXPECT_EQ(stmt.columns[2].type, ValueType::kString);
  EXPECT_EQ(stmt.columns[3].type, ValueType::kDouble);
}

TEST(ParserTest, CreateTableRejectsBadTypes) {
  EXPECT_EQ(ParseStatement("CREATE TABLE t (x BLOB)").status().code(),
            StatusCode::kParseError);
}

TEST(ParserTest, InsertWithTtl) {
  auto stmt = MustParseAs<InsertStatement>(
      "INSERT INTO pol VALUES (1, 25), (2, 30) TTL 10");
  EXPECT_EQ(stmt.table, "pol");
  ASSERT_EQ(stmt.rows.size(), 2u);
  EXPECT_EQ(stmt.rows[0], (std::vector<Value>{Value(1), Value(25)}));
  EXPECT_EQ(stmt.ttl, 10);
  EXPECT_FALSE(stmt.expire_at.has_value());
}

TEST(ParserTest, InsertExpireAt) {
  auto stmt =
      MustParseAs<InsertStatement>("INSERT INTO t VALUES (1) EXPIRE AT 99");
  EXPECT_EQ(stmt.expire_at, Timestamp(99));
}

TEST(ParserTest, InsertExpireNever) {
  auto stmt =
      MustParseAs<InsertStatement>("INSERT INTO t VALUES (1) EXPIRE NEVER");
  ASSERT_TRUE(stmt.expire_at.has_value());
  EXPECT_TRUE(stmt.expire_at->IsInfinite());
}

TEST(ParserTest, InsertDefaultNoExpiration) {
  auto stmt = MustParseAs<InsertStatement>(
      "INSERT INTO t VALUES (1, 'x', 2.5)");
  EXPECT_FALSE(stmt.ttl.has_value());
  EXPECT_FALSE(stmt.expire_at.has_value());
  EXPECT_EQ(stmt.rows[0][1], Value("x"));
  EXPECT_EQ(stmt.rows[0][2], Value(2.5));
}

TEST(ParserTest, InsertRejectsNonPositiveTtl) {
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES (1) TTL 0").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES (1) TTL -5").ok());
}

TEST(ParserTest, SelectStarFromTable) {
  auto stmt = MustParseAs<SelectStatement>("SELECT * FROM pol");
  ASSERT_EQ(stmt.items.size(), 1u);
  EXPECT_EQ(stmt.items[0].kind, SelectItem::Kind::kStar);
  ASSERT_EQ(stmt.from.size(), 1u);
  EXPECT_EQ(stmt.from[0].name, "pol");
  EXPECT_EQ(stmt.where, nullptr);
}

TEST(ParserTest, SelectColumnsWithAliases) {
  auto stmt = MustParseAs<SelectStatement>(
      "SELECT uid AS user, deg FROM pol AS p");
  ASSERT_EQ(stmt.items.size(), 2u);
  EXPECT_EQ(stmt.items[0].column.column, "uid");
  EXPECT_EQ(stmt.items[0].alias, "user");
  EXPECT_EQ(stmt.from[0].alias, "p");
  EXPECT_EQ(stmt.from[0].EffectiveName(), "p");
}

TEST(ParserTest, SelectQualifiedColumnsAndJoin) {
  auto stmt = MustParseAs<SelectStatement>(
      "SELECT p.uid FROM pol p, el e WHERE p.uid = e.uid AND p.deg > 20");
  ASSERT_EQ(stmt.from.size(), 2u);
  EXPECT_EQ(stmt.items[0].column.table, "p");
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->kind, BoolExpr::Kind::kAnd);
  EXPECT_EQ(stmt.where->left->kind, BoolExpr::Kind::kCompare);
  EXPECT_EQ(stmt.where->left->lhs.column.table, "p");
  EXPECT_EQ(stmt.where->left->rhs.column.table, "e");
}

TEST(ParserTest, WhereOperatorPrecedenceOrBindsLooser) {
  auto stmt = MustParseAs<SelectStatement>(
      "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
  // OR at the top: (a=1) OR ((b=2) AND (c=3)).
  EXPECT_EQ(stmt.where->kind, BoolExpr::Kind::kOr);
  EXPECT_EQ(stmt.where->right->kind, BoolExpr::Kind::kAnd);
}

TEST(ParserTest, WhereParenthesesAndNot) {
  auto stmt = MustParseAs<SelectStatement>(
      "SELECT * FROM t WHERE NOT (a = 1 OR b = 2)");
  EXPECT_EQ(stmt.where->kind, BoolExpr::Kind::kNot);
  EXPECT_EQ(stmt.where->left->kind, BoolExpr::Kind::kOr);
}

TEST(ParserTest, GroupByWithAggregates) {
  auto stmt = MustParseAs<SelectStatement>(
      "SELECT deg, COUNT(*), SUM(deg) AS total FROM pol GROUP BY deg");
  ASSERT_EQ(stmt.items.size(), 3u);
  EXPECT_EQ(stmt.items[1].kind, SelectItem::Kind::kAggregate);
  EXPECT_EQ(stmt.items[1].aggregate, AggregateKind::kCount);
  EXPECT_TRUE(stmt.items[1].aggregate_star);
  EXPECT_EQ(stmt.items[2].aggregate, AggregateKind::kSum);
  EXPECT_EQ(stmt.items[2].alias, "total");
  ASSERT_EQ(stmt.group_by.size(), 1u);
  EXPECT_EQ(stmt.group_by[0].column, "deg");
}

TEST(ParserTest, AllAggregateFunctions) {
  auto stmt = MustParseAs<SelectStatement>(
      "SELECT MIN(a), MAX(a), SUM(a), AVG(a), COUNT(a) FROM t");
  EXPECT_EQ(stmt.items[0].aggregate, AggregateKind::kMin);
  EXPECT_EQ(stmt.items[1].aggregate, AggregateKind::kMax);
  EXPECT_EQ(stmt.items[2].aggregate, AggregateKind::kSum);
  EXPECT_EQ(stmt.items[3].aggregate, AggregateKind::kAvg);
  EXPECT_EQ(stmt.items[4].aggregate, AggregateKind::kCount);
  EXPECT_FALSE(stmt.items[4].aggregate_star);
}

TEST(ParserTest, OnlyCountTakesStar) {
  EXPECT_FALSE(ParseStatement("SELECT SUM(*) FROM t").ok());
}

TEST(ParserTest, SetOperations) {
  auto stmt = MustParseAs<SelectStatement>(
      "SELECT a FROM t UNION SELECT a FROM s EXCEPT SELECT a FROM u");
  EXPECT_EQ(stmt.set_op, SelectStatement::SetOp::kUnion);
  ASSERT_NE(stmt.set_rhs, nullptr);
  EXPECT_EQ(stmt.set_rhs->set_op, SelectStatement::SetOp::kExcept);
  auto i = MustParseAs<SelectStatement>(
      "SELECT a FROM t INTERSECT SELECT a FROM s");
  EXPECT_EQ(i.set_op, SelectStatement::SetOp::kIntersect);
}

TEST(ParserTest, CreateViewWithOptions) {
  auto stmt = MustParseAs<CreateViewStatement>(
      "CREATE MATERIALIZED VIEW v WITH (mode = patch, move = backward) "
      "AS SELECT a FROM t EXCEPT SELECT a FROM s");
  EXPECT_EQ(stmt.name, "v");
  EXPECT_TRUE(stmt.materialized);
  EXPECT_EQ(stmt.options.at("mode"), "patch");
  EXPECT_EQ(stmt.options.at("move"), "backward");
  EXPECT_EQ(stmt.select.set_op, SelectStatement::SetOp::kExcept);
}

TEST(ParserTest, DropStatements) {
  auto t = MustParseAs<DropStatement>("DROP TABLE pol");
  EXPECT_FALSE(t.is_view);
  EXPECT_EQ(t.name, "pol");
  auto v = MustParseAs<DropStatement>("DROP VIEW vw");
  EXPECT_TRUE(v.is_view);
}

TEST(ParserTest, AdvanceTime) {
  auto rel = MustParseAs<AdvanceStatement>("ADVANCE TIME 5");
  EXPECT_EQ(rel.amount, 5);
  EXPECT_FALSE(rel.absolute);
  auto abs = MustParseAs<AdvanceStatement>("ADVANCE TIME TO 99");
  EXPECT_EQ(abs.amount, 99);
  EXPECT_TRUE(abs.absolute);
  EXPECT_FALSE(ParseStatement("ADVANCE TIME -3").ok());
}

TEST(ParserTest, ShowStatements) {
  EXPECT_EQ(MustParseAs<ShowStatement>("SHOW TABLES").what,
            ShowStatement::What::kTables);
  EXPECT_EQ(MustParseAs<ShowStatement>("SHOW VIEWS").what,
            ShowStatement::What::kViews);
  EXPECT_EQ(MustParseAs<ShowStatement>("SHOW TIME").what,
            ShowStatement::What::kTime);
}

TEST(ParserTest, DeleteWithAndWithoutWhere) {
  auto all = MustParseAs<DeleteStatement>("DELETE FROM t");
  EXPECT_EQ(all.where, nullptr);
  auto some = MustParseAs<DeleteStatement>("DELETE FROM t WHERE x = 3");
  ASSERT_NE(some.where, nullptr);
}

TEST(ParserTest, TrailingSemicolonAccepted) {
  EXPECT_TRUE(ParseStatement("SELECT * FROM t;").ok());
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseStatement("SELECT * FROM t garbage garbage").ok());
  EXPECT_FALSE(ParseStatement("DROP TABLE t extra").ok());
}

TEST(ParserTest, ParseScriptSplitsOnSemicolons) {
  auto r = ParseScript(
      "CREATE TABLE t (x INT);\n"
      "INSERT INTO t VALUES (1) TTL 5;\n"
      "-- a comment line\n"
      "SELECT * FROM t;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 3u);
}

TEST(ParserTest, ParseScriptRespectsSemicolonsInStrings) {
  auto r = ParseScript("INSERT INTO t VALUES ('a;b'); SELECT * FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  const auto& insert = std::get<InsertStatement>((*r)[0]);
  EXPECT_EQ(insert.rows[0][0], Value("a;b"));
}

// A script is one token stream split on ';' tokens, so a quote or a
// semicolon inside a -- comment neither opens a string nor ends a
// statement.
std::vector<std::string> ScriptTables(const std::string& script) {
  auto r = ParseScript(script);
  EXPECT_TRUE(r.ok()) << script << " -> " << r.status().ToString();
  std::vector<std::string> tables;
  if (!r.ok()) return tables;
  for (const Statement& stmt : *r) {
    tables.push_back(std::get<SelectStatement>(stmt).from.at(0).name);
  }
  return tables;
}

TEST(ParserTest, ParseScriptQuoteInComment) {
  EXPECT_EQ(ScriptTables("SELECT * FROM t; -- don't\n"
                         "SELECT * FROM u; SELECT * FROM v"),
            (std::vector<std::string>{"t", "u", "v"}));
}

TEST(ParserTest, ParseScriptSemicolonInComment) {
  EXPECT_EQ(ScriptTables("SELECT * FROM t; -- a; b\nSELECT * FROM u"),
            (std::vector<std::string>{"t", "u"}));
}

TEST(ParserTest, ParseScriptSemicolonInTrailingComment) {
  EXPECT_EQ(ScriptTables("SELECT * FROM t -- trailing; comment\n"),
            (std::vector<std::string>{"t"}));
}

TEST(ParserTest, ParseScriptErrors) {
  EXPECT_EQ(ParseScript("SELECT * FROM t; DROP TABLE u v; SELECT * FROM w")
                .status()
                .message(),
            "trailing input after statement: identifier 'v'");
  EXPECT_EQ(ParseScript("SELECT * FROM t; SELECT FROM u").status().message(),
            "expected column name, got keyword 'FROM'");
  // A lexical error outranks a parse error before it.
  EXPECT_EQ(ParseScript("SELECT FROM t; SELECT * FROM @").status().message(),
            "unexpected character '@' at offset 29");
  auto empty = ParseScript(" ;; -- nothing\n ;");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->empty());
}

TEST(ParserTest, EmptyStatementsRejected) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("   ;").ok());
}

TEST(ParserTest, ParseSet) {
  auto r = ParseStatement("SET slow_query_ns = 1000000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& set = std::get<SetStatement>(*r);
  EXPECT_EQ(set.name, "slow_query_ns");
  EXPECT_EQ(set.value, Value(int64_t{1000000}));

  r = ParseStatement("SET event_log = ON");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(std::get<SetStatement>(*r).value, Value("on"));

  r = ParseStatement("SET event_log_path = '/tmp/events.jsonl'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(std::get<SetStatement>(*r).value, Value("/tmp/events.jsonl"));

  EXPECT_FALSE(ParseStatement("SET").ok());
  EXPECT_FALSE(ParseStatement("SET x").ok());
  EXPECT_FALSE(ParseStatement("SET x = ").ok());
}

TEST(ParserTest, ParseTrace) {
  auto r = ParseStatement("TRACE ON");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(std::get<TraceStatement>(*r).what, TraceStatement::What::kOn);

  r = ParseStatement("trace off");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(std::get<TraceStatement>(*r).what, TraceStatement::What::kOff);

  r = ParseStatement("TRACE SHOW");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(std::get<TraceStatement>(*r).what, TraceStatement::What::kShow);

  r = ParseStatement("TRACE EXPORT '/tmp/trace.json'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& exp = std::get<TraceStatement>(*r);
  EXPECT_EQ(exp.what, TraceStatement::What::kExport);
  EXPECT_EQ(exp.path, "/tmp/trace.json");

  EXPECT_FALSE(ParseStatement("TRACE").ok());
  EXPECT_FALSE(ParseStatement("TRACE SIDEWAYS").ok());
  EXPECT_FALSE(ParseStatement("TRACE EXPORT").ok());
  EXPECT_FALSE(ParseStatement("TRACE EXPORT unquoted").ok());
}

}  // namespace
}  // namespace sql
}  // namespace expdb
