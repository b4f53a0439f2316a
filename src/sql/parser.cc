#include "sql/parser.h"

#include <optional>
#include <string_view>

#include "common/str_util.h"
#include "sql/lexer.h"

namespace expdb {
namespace sql {

namespace {

std::optional<AggregateKind> AggregateOf(Keyword kw) {
  switch (kw) {
    case Keyword::kMin:
      return AggregateKind::kMin;
    case Keyword::kMax:
      return AggregateKind::kMax;
    case Keyword::kSum:
      return AggregateKind::kSum;
    case Keyword::kCount:
      return AggregateKind::kCount;
    case Keyword::kAvg:
      return AggregateKind::kAvg;
    default:
      return std::nullopt;
  }
}

/// Recursive descent over a streaming Lexer, with the two tokens of
/// lookahead that `COUNT (` needs. Tokens view the input, so identifiers
/// and literals are copied only into the AST fields that keep them.
class Parser {
 public:
  explicit Parser(std::string_view input)
      : lexer_(input), tok_(lexer_.Next()) {}

  /// One statement, optionally ';'-terminated, and nothing after it.
  Result<Statement> ParseOne() {
    Statement stmt;
    Status status = ParseStatementInner(&stmt);
    if (status.ok()) {
      AcceptSymbol(";");
      if (!AtEnd()) status = TrailingInput();
    }
    EXPDB_RETURN_NOT_OK(Finish(std::move(status)));
    return stmt;
  }

  /// Statements separated by ';' tokens; empty statements are skipped.
  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> out;
    Status status;
    while (status.ok()) {
      while (AcceptSymbol(";")) {
      }
      if (AtEnd()) break;
      status = ParseStatementInner(&out.emplace_back());
      if (status.ok() && !AtEnd() && !Peek().IsSymbol(";")) {
        status = TrailingInput();
      }
    }
    EXPDB_RETURN_NOT_OK(Finish(std::move(status)));
    return out;
  }

 private:
  Status TrailingInput() const {
    return Status::ParseError("trailing input after statement: " +
                              Peek().ToString());
  }

  /// A lexical error anywhere in the input outranks a parse error, which
  /// may only be the lexer's kEnd standing in for the bad character.
  Status Finish(Status status) {
    if (!status.ok()) {
      while (!AtEnd()) Advance();
    }
    if (!lexer_.status().ok()) return lexer_.status();
    return status;
  }

  const Token& Peek() const { return tok_; }
  const Token& PeekSecond() {
    if (!has_second_) {
      second_ = lexer_.Next();
      has_second_ = true;
    }
    return second_;
  }
  bool AtEnd() const { return tok_.type == TokenType::kEnd; }
  Token Advance() {
    Token old = tok_;
    if (has_second_) {
      tok_ = second_;
      has_second_ = false;
    } else {
      tok_ = lexer_.Next();
    }
    return old;
  }

  bool AcceptKeyword(Keyword kw) {
    if (!tok_.Is(kw)) return false;
    Advance();
    return true;
  }
  bool AcceptSymbol(std::string_view s) {
    if (!tok_.IsSymbol(s)) return false;
    Advance();
    return true;
  }
  /// Accepts an unreserved word (an identifier), case-insensitively.
  bool AcceptWord(std::string_view word) {
    if (tok_.type != TokenType::kIdentifier ||
        !AsciiEqualsIgnoreCase(tok_.text, word)) {
      return false;
    }
    Advance();
    return true;
  }
  Status ExpectKeyword(Keyword kw) {
    if (!AcceptKeyword(kw)) {
      return Status::ParseError("expected " + std::string(KeywordName(kw)) +
                                ", got " + Peek().ToString());
    }
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view s) {
    if (!AcceptSymbol(s)) {
      return Status::ParseError("expected '" + std::string(s) + "', got " +
                                Peek().ToString());
    }
    return Status::OK();
  }
  /// Reads an identifier into `out`, a std::string or std::string_view.
  template <typename String>
  Status ExpectIdentifier(std::string_view what, String* out) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::ParseError("expected " + std::string(what) + ", got " +
                                Peek().ToString());
    }
    *out = Advance().text;
    return Status::OK();
  }
  Result<int64_t> ExpectInteger(std::string_view what) {
    if (Peek().type != TokenType::kInteger) {
      return Status::ParseError("expected " + std::string(what) + ", got " +
                                Peek().ToString());
    }
    return Advance().int_value;
  }
  /// An integer, double or string literal as a Value, or nullopt.
  std::optional<Value> AcceptLiteral() {
    switch (tok_.type) {
      case TokenType::kInteger:
        return Value(Advance().int_value);
      case TokenType::kDouble:
        return Value(Advance().double_value);
      case TokenType::kString:
        return Value(Advance().StringValue());
      default:
        return std::nullopt;
    }
  }

  /// Parses one statement into `*stmt`.
  Status ParseStatementInner(Statement* stmt) {
    if (Peek().Is(Keyword::kSelect)) {
      return ParseSelect(&stmt->emplace<SelectStatement>());
    }
    if (AcceptKeyword(Keyword::kCreate)) return ParseCreate(stmt);
    if (AcceptKeyword(Keyword::kInsert)) return ParseInsert(stmt);
    if (AcceptKeyword(Keyword::kDrop)) return ParseDrop(stmt);
    if (AcceptKeyword(Keyword::kAdvance)) return ParseAdvance(stmt);
    if (AcceptKeyword(Keyword::kShow)) return ParseShow(stmt);
    if (AcceptKeyword(Keyword::kDelete)) return ParseDelete(stmt);
    if (AcceptKeyword(Keyword::kStats)) {
      return ParseStats(/*explain=*/false, stmt);
    }
    if (AcceptKeyword(Keyword::kExplain)) {
      if (AcceptKeyword(Keyword::kStats)) {
        return ParseStats(/*explain=*/true, stmt);
      }
      return ParseExplain(stmt);
    }
    if (AcceptKeyword(Keyword::kSet)) return ParseSet(stmt);
    if (AcceptKeyword(Keyword::kTrace)) return ParseTrace(stmt);
    if (AcceptKeyword(Keyword::kPrepare)) return ParsePrepare(stmt);
    if (AcceptKeyword(Keyword::kExecute)) return ParseExecute(stmt);
    if (AcceptKeyword(Keyword::kCache)) return ParseCache(stmt);
    if (AcceptKeyword(Keyword::kMaintenance)) return ParseMaintenance(stmt);
    if (AcceptKeyword(Keyword::kMonitor)) return ParseMonitor(stmt);
    return Status::ParseError("expected a statement, got " +
                              Peek().ToString());
  }

  // PREPARE name AS SELECT ... ($n placeholders allowed in WHERE).
  Status ParsePrepare(Statement* stmt) {
    PrepareStatement& out = stmt->emplace<PrepareStatement>();
    EXPDB_RETURN_NOT_OK(ExpectIdentifier("statement name", &out.name));
    EXPDB_RETURN_NOT_OK(ExpectKeyword(Keyword::kAs));
    if (!Peek().Is(Keyword::kSelect)) {
      return Status::ParseError("expected SELECT after PREPARE ... AS, got " +
                                Peek().ToString());
    }
    EXPDB_RETURN_NOT_OK(ParseSelect(&out.select));
    return Status::OK();
  }

  // EXECUTE name [(literal, ...)].
  Status ParseExecute(Statement* stmt) {
    ExecutePreparedStatement& out = stmt->emplace<ExecutePreparedStatement>();
    EXPDB_RETURN_NOT_OK(ExpectIdentifier("statement name", &out.name));
    if (AcceptSymbol("(")) {
      if (!AcceptSymbol(")")) {
        do {
          std::optional<Value> arg = AcceptLiteral();
          if (!arg.has_value()) {
            return Status::ParseError("expected a literal argument, got " +
                                      Peek().ToString());
          }
          out.args.push_back(std::move(*arg));
        } while (AcceptSymbol(","));
        EXPDB_RETURN_NOT_OK(ExpectSymbol(")"));
      }
    }
    return Status::OK();
  }

  // CACHE STATS | CLEAR (CLEAR is a bare identifier, kept unreserved).
  Status ParseCache(Statement* stmt) {
    CacheStatement& out = stmt->emplace<CacheStatement>();
    if (AcceptKeyword(Keyword::kStats)) {
      out.what = CacheStatement::What::kStats;
    } else if (AcceptWord("CLEAR")) {
      out.what = CacheStatement::What::kClear;
    } else {
      return Status::ParseError("expected STATS or CLEAR after CACHE, got " +
                                Peek().ToString());
    }
    return Status::OK();
  }

  // MAINTENANCE STATUS | PAUSE | RESUME | RUN (the subcommands are bare
  // identifiers, kept unreserved like CACHE CLEAR).
  Status ParseMaintenance(Statement* stmt) {
    MaintenanceStatement& out = stmt->emplace<MaintenanceStatement>();
    if (AcceptWord("STATUS")) {
      out.what = MaintenanceStatement::What::kStatus;
    } else if (AcceptWord("PAUSE")) {
      out.what = MaintenanceStatement::What::kPause;
    } else if (AcceptWord("RESUME")) {
      out.what = MaintenanceStatement::What::kResume;
    } else if (AcceptWord("RUN")) {
      out.what = MaintenanceStatement::What::kRun;
    } else {
      return Status::ParseError(
          "expected STATUS, PAUSE, RESUME, or RUN after MAINTENANCE, got " +
          Peek().ToString());
    }
    return Status::OK();
  }

  // MONITOR STATUS | HISTORY <metric> | THRESHOLDS (subcommands are
  // bare identifiers, kept unreserved like the MAINTENANCE ones).
  Status ParseMonitor(Statement* stmt) {
    MonitorStatement& out = stmt->emplace<MonitorStatement>();
    if (AcceptWord("STATUS")) {
      out.what = MonitorStatement::What::kStatus;
    } else if (AcceptWord("HISTORY")) {
      out.what = MonitorStatement::What::kHistory;
      EXPDB_RETURN_NOT_OK(ExpectIdentifier("metric name", &out.metric));
    } else if (AcceptWord("THRESHOLDS")) {
      out.what = MonitorStatement::What::kThresholds;
    } else {
      return Status::ParseError(
          "expected STATUS, HISTORY <metric>, or THRESHOLDS after MONITOR, "
          "got " +
          Peek().ToString());
    }
    return Status::OK();
  }

  // SET name = value (value: integer, double, string, or bare word).
  Status ParseSet(Statement* stmt) {
    SetStatement& out = stmt->emplace<SetStatement>();
    std::string_view name;
    EXPDB_RETURN_NOT_OK(ExpectIdentifier("setting name", &name));
    out.name = AsciiToLower(name);
    EXPDB_RETURN_NOT_OK(ExpectSymbol("="));
    if (std::optional<Value> literal = AcceptLiteral()) {
      out.value = std::move(*literal);
    } else if (Peek().type == TokenType::kIdentifier ||
               Peek().type == TokenType::kKeyword) {
      // Bare words (on, off, ...) become strings; keywords too, so
      // e.g. SET event_log = RESET does not confuse the lexer.
      out.value = Value(AsciiToLower(Advance().text));
    } else {
      return Status::ParseError("expected a setting value, got " +
                                Peek().ToString());
    }
    return Status::OK();
  }

  // TRACE ON | OFF | SHOW | EXPORT '<file>'. ON/OFF/EXPORT are bare
  // identifiers (kept unreserved); SHOW is already a keyword.
  Status ParseTrace(Statement* stmt) {
    TraceStatement& out = stmt->emplace<TraceStatement>();
    if (AcceptKeyword(Keyword::kShow)) {
      out.what = TraceStatement::What::kShow;
    } else if (AcceptWord("ON")) {
      out.what = TraceStatement::What::kOn;
    } else if (AcceptWord("OFF")) {
      out.what = TraceStatement::What::kOff;
    } else if (AcceptWord("EXPORT")) {
      out.what = TraceStatement::What::kExport;
      if (Peek().type != TokenType::kString) {
        return Status::ParseError(
            "expected a quoted file path after TRACE EXPORT, got " +
            Peek().ToString());
      }
      out.path = Advance().StringValue();
    } else {
      return Status::ParseError(
          "expected ON, OFF, SHOW, or EXPORT after TRACE, got " +
          Peek().ToString());
    }
    return Status::OK();
  }

  // EXPLAIN [PLAN | ANALYZE] SELECT ... (bare EXPLAIN means PLAN).
  Status ParseExplain(Statement* stmt) {
    ExplainStatement& out = stmt->emplace<ExplainStatement>();
    if (AcceptWord("PLAN")) {
      out.what = ExplainStatement::What::kPlan;
    } else if (AcceptWord("ANALYZE")) {
      out.what = ExplainStatement::What::kAnalyze;
    }
    if (!Peek().Is(Keyword::kSelect)) {
      return Status::ParseError(
          "expected PLAN, ANALYZE, STATS, or SELECT after EXPLAIN, got " +
          Peek().ToString());
    }
    EXPDB_RETURN_NOT_OK(ParseSelect(&out.select));
    return Status::OK();
  }

  // STATS [PROMETHEUS | JSON | RESET]; EXPLAIN STATS takes no modifier.
  Status ParseStats(bool explain, Statement* stmt) {
    StatsStatement& out = stmt->emplace<StatsStatement>();
    out.explain = explain;
    if (explain) return Status::OK();
    if (AcceptKeyword(Keyword::kReset)) {
      out.reset = true;
    } else if (AcceptWord("PROMETHEUS")) {
      out.format = StatsStatement::Format::kPrometheus;
    } else if (AcceptWord("JSON")) {
      out.format = StatsStatement::Format::kJson;
    } else if (Peek().type == TokenType::kIdentifier) {
      return Status::ParseError(
          "expected PROMETHEUS, JSON, or RESET after STATS, got " +
          Peek().ToString());
    }
    return Status::OK();
  }

  // SELECT ... [UNION|INTERSECT|EXCEPT SELECT ...]
  Status ParseSelect(SelectStatement* out) {
    EXPDB_RETURN_NOT_OK(ExpectKeyword(Keyword::kSelect));
    out->distinct = AcceptKeyword(Keyword::kDistinct);

    // Select list.
    out->items.reserve(4);
    do {
      EXPDB_RETURN_NOT_OK(ParseSelectItem(&out->items.emplace_back()));
    } while (AcceptSymbol(","));

    EXPDB_RETURN_NOT_OK(ExpectKeyword(Keyword::kFrom));
    do {
      TableRef& ref = out->from.emplace_back();
      EXPDB_RETURN_NOT_OK(ExpectIdentifier("table name", &ref.name));
      if (AcceptKeyword(Keyword::kAs)) {
        EXPDB_RETURN_NOT_OK(ExpectIdentifier("alias", &ref.alias));
      } else if (Peek().type == TokenType::kIdentifier) {
        ref.alias = Advance().text;
      }
    } while (AcceptSymbol(","));

    if (AcceptKeyword(Keyword::kWhere)) {
      EXPDB_ASSIGN_OR_RETURN(out->where, ParseBoolExpr());
    }
    if (AcceptKeyword(Keyword::kGroup)) {
      EXPDB_RETURN_NOT_OK(ExpectKeyword(Keyword::kBy));
      do {
        EXPDB_RETURN_NOT_OK(ParseColumnRef(&out->group_by.emplace_back()));
      } while (AcceptSymbol(","));
    }

    if (AcceptKeyword(Keyword::kUnion)) {
      out->set_op = SelectStatement::SetOp::kUnion;
    } else if (AcceptKeyword(Keyword::kIntersect)) {
      out->set_op = SelectStatement::SetOp::kIntersect;
    } else if (AcceptKeyword(Keyword::kExcept)) {
      out->set_op = SelectStatement::SetOp::kExcept;
    }
    if (out->set_op != SelectStatement::SetOp::kNone) {
      out->set_rhs = std::make_shared<SelectStatement>();
      return ParseSelect(out->set_rhs.get());
    }
    return Status::OK();
  }

  Status ParseSelectItem(SelectItem* item) {
    if (AcceptSymbol("*")) {
      item->kind = SelectItem::Kind::kStar;
      return Status::OK();
    }
    const std::optional<AggregateKind> aggregate = AggregateOf(Peek().keyword);
    if (aggregate.has_value() && PeekSecond().IsSymbol("(")) {
      Advance();  // keyword
      Advance();  // (
      item->kind = SelectItem::Kind::kAggregate;
      item->aggregate = *aggregate;
      if (AcceptSymbol("*")) {
        if (*aggregate != AggregateKind::kCount) {
          return Status::ParseError("only COUNT may take *");
        }
        item->aggregate_star = true;
      } else {
        EXPDB_RETURN_NOT_OK(ParseColumnRef(&item->column));
      }
      EXPDB_RETURN_NOT_OK(ExpectSymbol(")"));
    } else {
      item->kind = SelectItem::Kind::kColumn;
      EXPDB_RETURN_NOT_OK(ParseColumnRef(&item->column));
    }
    if (AcceptKeyword(Keyword::kAs)) {
      EXPDB_RETURN_NOT_OK(ExpectIdentifier("alias", &item->alias));
    }
    return Status::OK();
  }

  Status ParseColumnRef(ColumnRef* col) {
    EXPDB_RETURN_NOT_OK(ExpectIdentifier("column name", &col->column));
    if (AcceptSymbol(".")) {
      col->table = std::move(col->column);
      EXPDB_RETURN_NOT_OK(ExpectIdentifier("column name", &col->column));
    }
    return Status::OK();
  }

  // Boolean expressions: OR < AND < NOT < comparison.
  Result<BoolExprPtr> ParseBoolExpr() { return ParseOr(); }

  Result<BoolExprPtr> ParseOr() {
    EXPDB_ASSIGN_OR_RETURN(BoolExprPtr lhs, ParseAnd());
    while (AcceptKeyword(Keyword::kOr)) {
      EXPDB_ASSIGN_OR_RETURN(BoolExprPtr rhs, ParseAnd());
      auto node = std::make_shared<BoolExpr>();
      node->kind = BoolExpr::Kind::kOr;
      node->left = std::move(lhs);
      node->right = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<BoolExprPtr> ParseAnd() {
    EXPDB_ASSIGN_OR_RETURN(BoolExprPtr lhs, ParseNot());
    while (AcceptKeyword(Keyword::kAnd)) {
      EXPDB_ASSIGN_OR_RETURN(BoolExprPtr rhs, ParseNot());
      auto node = std::make_shared<BoolExpr>();
      node->kind = BoolExpr::Kind::kAnd;
      node->left = std::move(lhs);
      node->right = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<BoolExprPtr> ParseNot() {
    if (AcceptKeyword(Keyword::kNot)) {
      EXPDB_ASSIGN_OR_RETURN(BoolExprPtr inner, ParseNot());
      auto node = std::make_shared<BoolExpr>();
      node->kind = BoolExpr::Kind::kNot;
      node->left = std::move(inner);
      return node;
    }
    if (AcceptSymbol("(")) {
      EXPDB_ASSIGN_OR_RETURN(BoolExprPtr inner, ParseBoolExpr());
      EXPDB_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    return ParseComparison();
  }

  Result<BoolExprPtr> ParseComparison() {
    auto node = std::make_shared<BoolExpr>();
    node->kind = BoolExpr::Kind::kCompare;
    EXPDB_RETURN_NOT_OK(ParseScalarOperand(&node->lhs));
    const Token& op = Peek();
    if (op.IsSymbol("=")) {
      node->op = ComparisonOp::kEq;
    } else if (op.IsSymbol("!=")) {
      node->op = ComparisonOp::kNe;
    } else if (op.IsSymbol("<")) {
      node->op = ComparisonOp::kLt;
    } else if (op.IsSymbol("<=")) {
      node->op = ComparisonOp::kLe;
    } else if (op.IsSymbol(">")) {
      node->op = ComparisonOp::kGt;
    } else if (op.IsSymbol(">=")) {
      node->op = ComparisonOp::kGe;
    } else {
      return Status::ParseError("expected comparison operator, got " +
                                op.ToString());
    }
    Advance();
    EXPDB_RETURN_NOT_OK(ParseScalarOperand(&node->rhs));
    return node;
  }

  Status ParseScalarOperand(ScalarOperand* out) {
    if (std::optional<Value> literal = AcceptLiteral()) {
      out->constant = std::move(*literal);
    } else if (Peek().type == TokenType::kIdentifier) {
      out->is_column = true;
      EXPDB_RETURN_NOT_OK(ParseColumnRef(&out->column));
    } else if (AcceptSymbol("$")) {
      EXPDB_ASSIGN_OR_RETURN(int64_t idx, ExpectInteger("parameter number"));
      if (idx < 1) {
        return Status::ParseError("parameter numbers start at $1");
      }
      out->is_parameter = true;
      out->parameter_index = static_cast<size_t>(idx - 1);
    } else {
      return Status::ParseError(
          "expected a column, literal, or $n parameter, got " +
          Peek().ToString());
    }
    return Status::OK();
  }

  Status ParseCreate(Statement* stmt) {
    if (AcceptKeyword(Keyword::kTable)) return ParseCreateTable(stmt);
    bool materialized = AcceptKeyword(Keyword::kMaterialized);
    if (AcceptKeyword(Keyword::kView)) {
      return ParseCreateView(materialized, stmt);
    }
    return Status::ParseError("expected TABLE or VIEW after CREATE, got " +
                              Peek().ToString());
  }

  Status ParseCreateTable(Statement* stmt) {
    CreateTableStatement& out = stmt->emplace<CreateTableStatement>();
    EXPDB_RETURN_NOT_OK(ExpectIdentifier("table name", &out.name));
    EXPDB_RETURN_NOT_OK(ExpectSymbol("("));
    do {
      Attribute attr;
      EXPDB_RETURN_NOT_OK(ExpectIdentifier("column name", &attr.name));
      if (AcceptKeyword(Keyword::kInt)) {
        attr.type = ValueType::kInt64;
      } else if (AcceptKeyword(Keyword::kDouble)) {
        attr.type = ValueType::kDouble;
      } else if (AcceptKeyword(Keyword::kString)) {
        attr.type = ValueType::kString;
      } else {
        return Status::ParseError(
            "expected column type (INT, DOUBLE, STRING), got " +
            Peek().ToString());
      }
      out.columns.push_back(std::move(attr));
    } while (AcceptSymbol(","));
    EXPDB_RETURN_NOT_OK(ExpectSymbol(")"));
    return Status::OK();
  }

  Status ParseCreateView(bool materialized, Statement* stmt) {
    CreateViewStatement& out = stmt->emplace<CreateViewStatement>();
    out.materialized = materialized;
    EXPDB_RETURN_NOT_OK(ExpectIdentifier("view name", &out.name));
    if (AcceptKeyword(Keyword::kWith)) {
      EXPDB_RETURN_NOT_OK(ExpectSymbol("("));
      do {
        std::string_view key;
        EXPDB_RETURN_NOT_OK(ExpectIdentifier("option name", &key));
        EXPDB_RETURN_NOT_OK(ExpectSymbol("="));
        std::string value;
        if (Peek().type == TokenType::kString) {
          value = Advance().StringValue();
        } else if (Peek().type == TokenType::kIdentifier ||
                   Peek().type == TokenType::kInteger ||
                   Peek().type == TokenType::kDouble) {
          value = Advance().text;
        } else {
          return Status::ParseError("expected option value, got " +
                                    Peek().ToString());
        }
        out.options[AsciiToLower(key)] = AsciiToLower(value);
      } while (AcceptSymbol(","));
      EXPDB_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    EXPDB_RETURN_NOT_OK(ExpectKeyword(Keyword::kAs));
    EXPDB_RETURN_NOT_OK(ParseSelect(&out.select));
    return Status::OK();
  }

  Status ParseInsert(Statement* stmt) {
    EXPDB_RETURN_NOT_OK(ExpectKeyword(Keyword::kInto));
    InsertStatement& out = stmt->emplace<InsertStatement>();
    EXPDB_RETURN_NOT_OK(ExpectIdentifier("table name", &out.table));
    EXPDB_RETURN_NOT_OK(ExpectKeyword(Keyword::kValues));
    do {
      EXPDB_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<Value> row;
      if (!out.rows.empty()) row.reserve(out.rows.front().size());
      do {
        std::optional<Value> literal = AcceptLiteral();
        if (!literal.has_value()) {
          return Status::ParseError("expected a literal, got " +
                                    Peek().ToString());
        }
        row.push_back(std::move(*literal));
      } while (AcceptSymbol(","));
      EXPDB_RETURN_NOT_OK(ExpectSymbol(")"));
      out.rows.push_back(std::move(row));
    } while (AcceptSymbol(","));

    if (AcceptKeyword(Keyword::kExpire)) {
      if (AcceptKeyword(Keyword::kNever)) {
        out.expire_at = Timestamp::Infinity();
      } else {
        EXPDB_RETURN_NOT_OK(ExpectKeyword(Keyword::kAt));
        EXPDB_ASSIGN_OR_RETURN(int64_t at, ExpectInteger("expiration time"));
        if (at < 0) return Status::ParseError("EXPIRE AT must be >= 0");
        out.expire_at = Timestamp(at);
      }
    } else if (AcceptKeyword(Keyword::kTtl)) {
      EXPDB_ASSIGN_OR_RETURN(int64_t ttl, ExpectInteger("ttl"));
      if (ttl <= 0) return Status::ParseError("TTL must be positive");
      out.ttl = ttl;
    }
    return Status::OK();
  }

  Status ParseDrop(Statement* stmt) {
    DropStatement& out = stmt->emplace<DropStatement>();
    if (AcceptKeyword(Keyword::kTable)) {
      out.is_view = false;
    } else if (AcceptKeyword(Keyword::kView)) {
      out.is_view = true;
    } else {
      return Status::ParseError("expected TABLE or VIEW after DROP, got " +
                                Peek().ToString());
    }
    EXPDB_RETURN_NOT_OK(ExpectIdentifier("name", &out.name));
    return Status::OK();
  }

  Status ParseAdvance(Statement* stmt) {
    EXPDB_RETURN_NOT_OK(ExpectKeyword(Keyword::kTime));
    AdvanceStatement& out = stmt->emplace<AdvanceStatement>();
    out.absolute = AcceptWord("TO");
    EXPDB_ASSIGN_OR_RETURN(out.amount, ExpectInteger("time amount"));
    if (out.amount < 0) {
      return Status::ParseError("time amount must be >= 0");
    }
    return Status::OK();
  }

  Status ParseShow(Statement* stmt) {
    ShowStatement& out = stmt->emplace<ShowStatement>();
    if (AcceptKeyword(Keyword::kTables)) {
      out.what = ShowStatement::What::kTables;
    } else if (AcceptKeyword(Keyword::kViews)) {
      out.what = ShowStatement::What::kViews;
    } else if (AcceptKeyword(Keyword::kTime)) {
      out.what = ShowStatement::What::kTime;
    } else if (AcceptWord("HEALTH")) {
      // HEALTH stays a bare identifier (unreserved, like CACHE CLEAR).
      out.what = ShowStatement::What::kHealth;
    } else {
      return Status::ParseError(
          "expected TABLES, VIEWS, TIME, or HEALTH after SHOW, got " +
          Peek().ToString());
    }
    return Status::OK();
  }

  Status ParseDelete(Statement* stmt) {
    EXPDB_RETURN_NOT_OK(ExpectKeyword(Keyword::kFrom));
    DeleteStatement& out = stmt->emplace<DeleteStatement>();
    EXPDB_RETURN_NOT_OK(ExpectIdentifier("table name", &out.table));
    if (AcceptKeyword(Keyword::kWhere)) {
      EXPDB_ASSIGN_OR_RETURN(out.where, ParseBoolExpr());
    }
    return Status::OK();
  }

  Lexer lexer_;
  Token tok_;
  Token second_;
  bool has_second_ = false;
};

}  // namespace

Result<Statement> ParseStatement(const std::string& input) {
  return Parser(input).ParseOne();
}

Result<std::vector<Statement>> ParseScript(const std::string& input) {
  return Parser(input).ParseAll();
}

}  // namespace sql
}  // namespace expdb
