// Tokens of the ExpSQL surface language.

#ifndef EXPDB_SQL_TOKEN_H_
#define EXPDB_SQL_TOKEN_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace expdb {
namespace sql {

enum class TokenType {
  kEnd,         // end of input
  kIdentifier,  // bare identifier (case preserved)
  kKeyword,     // recognized keyword, in `keyword`
  kInteger,     // integer literal
  kDouble,      // floating literal
  kString,      // 'quoted' string literal (quotes stripped)
  kSymbol,      // punctuation / operator: ( ) , ; . * = != < <= > >= $
};

std::string_view TokenTypeToString(TokenType type);

// The reserved words, as (enumerator, upper-case spelling).
#define EXPDB_SQL_KEYWORDS(X)                                            \
  X(kSelect, "SELECT") X(kFrom, "FROM") X(kWhere, "WHERE")               \
  X(kGroup, "GROUP") X(kBy, "BY") X(kAnd, "AND") X(kOr, "OR")            \
  X(kNot, "NOT") X(kAs, "AS") X(kCreate, "CREATE") X(kTable, "TABLE")    \
  X(kView, "VIEW") X(kMaterialized, "MATERIALIZED") X(kInsert, "INSERT") \
  X(kInto, "INTO") X(kValues, "VALUES") X(kExpire, "EXPIRE")             \
  X(kAt, "AT") X(kTtl, "TTL") X(kUnion, "UNION")                         \
  X(kIntersect, "INTERSECT") X(kExcept, "EXCEPT") X(kDrop, "DROP")       \
  X(kShow, "SHOW") X(kTables, "TABLES") X(kViews, "VIEWS")               \
  X(kTime, "TIME") X(kAdvance, "ADVANCE") X(kDelete, "DELETE")           \
  X(kMin, "MIN") X(kMax, "MAX") X(kSum, "SUM") X(kCount, "COUNT")        \
  X(kAvg, "AVG") X(kInt, "INT") X(kDouble, "DOUBLE")                     \
  X(kString, "STRING") X(kWith, "WITH") X(kNever, "NEVER")               \
  X(kTriggers, "TRIGGERS") X(kDistinct, "DISTINCT") X(kStats, "STATS")   \
  X(kExplain, "EXPLAIN") X(kReset, "RESET") X(kSet, "SET")               \
  X(kTrace, "TRACE") X(kPrepare, "PREPARE") X(kExecute, "EXECUTE")       \
  X(kCache, "CACHE") X(kMaintenance, "MAINTENANCE") X(kMonitor, "MONITOR")

enum class Keyword : uint8_t {
  kNone,  // not a keyword
#define EXPDB_SQL_KEYWORD_ENUMERATOR(name, spelling) name,
  EXPDB_SQL_KEYWORDS(EXPDB_SQL_KEYWORD_ENUMERATOR)
#undef EXPDB_SQL_KEYWORD_ENUMERATOR
};

/// \brief The keyword's upper-case spelling ("" for kNone).
std::string_view KeywordName(Keyword kw);

/// \brief The keyword `word` spells, case-insensitively; kNone if none.
Keyword LookupKeyword(std::string_view word);

/// \brief One lexed token. It borrows from the lexed text: `text` views
/// either that text or a static spelling, so a token must not outlive
/// the string it was lexed from.
struct Token {
  TokenType type = TokenType::kEnd;
  Keyword keyword = Keyword::kNone;  // kKeyword
  bool escaped = false;  // kString: `text` still holds '' quote pairs
  // Source text: the identifier, keyword or number as written, a
  // string's body between its quotes, or a symbol's spelling ("<>" is
  // spelled "!=").
  std::string_view text;
  int64_t int_value = 0;       // kInteger
  double double_value = 0.0;   // kDouble
  size_t position = 0;   // 0-based byte offset in the input, for diagnostics

  bool Is(Keyword kw) const { return keyword == kw; }
  bool IsSymbol(std::string_view s) const {
    return type == TokenType::kSymbol && text == s;
  }

  /// \brief A kString token's value, with each '' unescaped to '.
  std::string StringValue() const;

  std::string ToString() const;
};

}  // namespace sql
}  // namespace expdb

#endif  // EXPDB_SQL_TOKEN_H_
