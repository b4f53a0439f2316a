// Lexer: turns ExpSQL text into a token stream.

#ifndef EXPDB_SQL_LEXER_H_
#define EXPDB_SQL_LEXER_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "sql/token.h"

namespace expdb {
namespace sql {

/// \brief Streams the tokens of `input`, one per Next(), without
/// allocating: tokens view `input`, which must outlive them. Keywords are
/// case-insensitive; identifiers keep their case. `--` starts a comment
/// to end of line.
class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  /// \brief The next token. At the end of the input, and from the first
  /// lexical error on, a kEnd token; status() tells the two apart.
  Token Next();

  /// \brief OK, or the ParseError that stopped the stream.
  const Status& status() const { return status_; }

 private:
  Token Fail(size_t start, std::string message);

  std::string_view input_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace sql
}  // namespace expdb

#endif  // EXPDB_SQL_LEXER_H_
