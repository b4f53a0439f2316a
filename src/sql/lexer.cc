#include "sql/lexer.h"

#include <array>
#include <iterator>
#include <optional>

#include "common/str_util.h"

namespace expdb {
namespace sql {

std::string_view TokenTypeToString(TokenType type) {
  switch (type) {
    case TokenType::kEnd:
      return "end";
    case TokenType::kIdentifier:
      return "identifier";
    case TokenType::kKeyword:
      return "keyword";
    case TokenType::kInteger:
      return "integer";
    case TokenType::kDouble:
      return "double";
    case TokenType::kString:
      return "string";
    case TokenType::kSymbol:
      return "symbol";
  }
  return "?";
}

namespace {

constexpr std::string_view kKeywordNames[] = {
    "",
#define EXPDB_SQL_KEYWORD_NAME(name, spelling) spelling,
    EXPDB_SQL_KEYWORDS(EXPDB_SQL_KEYWORD_NAME)
#undef EXPDB_SQL_KEYWORD_NAME
};
constexpr size_t kNumKeywords = std::size(kKeywordNames) - 1;

/// The keywords grouped by first letter: those starting with the i-th
/// letter are by_letter[begin[i] .. begin[i + 1]).
struct KeywordIndex {
  std::array<uint8_t, 27> begin{};
  std::array<Keyword, kNumKeywords> by_letter{};
};

constexpr KeywordIndex BuildKeywordIndex() {
  KeywordIndex index;
  size_t n = 0;
  for (size_t letter = 0; letter < 26; ++letter) {
    index.begin[letter] = static_cast<uint8_t>(n);
    for (size_t k = 1; k <= kNumKeywords; ++k) {
      if (kKeywordNames[k][0] == static_cast<char>('A' + letter)) {
        index.by_letter[n++] = static_cast<Keyword>(k);
      }
    }
  }
  index.begin[26] = static_cast<uint8_t>(n);
  return index;
}

constexpr KeywordIndex kKeywordIndex = BuildKeywordIndex();
static_assert(kKeywordIndex.begin[26] == kNumKeywords,
              "every keyword must start with an upper-case letter");

constexpr bool IsDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsLetter(char c) {
  return static_cast<unsigned char>((c | 0x20) - 'a') < 26;
}
constexpr bool IsIdentifierStart(char c) { return IsLetter(c) || c == '_'; }
constexpr bool IsIdentifierChar(char c) {
  return IsIdentifierStart(c) || IsDigit(c);
}
constexpr bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

}  // namespace

std::string_view KeywordName(Keyword kw) {
  return kKeywordNames[static_cast<size_t>(kw)];
}

Keyword LookupKeyword(std::string_view word) {
  if (word.empty() || !IsLetter(word[0])) return Keyword::kNone;
  const size_t letter = static_cast<size_t>((word[0] | 0x20) - 'a');
  for (size_t i = kKeywordIndex.begin[letter];
       i < kKeywordIndex.begin[letter + 1]; ++i) {
    const Keyword kw = kKeywordIndex.by_letter[i];
    const std::string_view name = KeywordName(kw);
    if (name.size() != word.size()) continue;
    // Clearing bit 5 upper-cases a letter; no other character maps onto
    // one, and the bucket already matched the first letter.
    size_t j = 1;
    while (j < name.size() && static_cast<char>(word[j] & ~0x20) == name[j]) {
      ++j;
    }
    if (j == name.size()) return kw;
  }
  return Keyword::kNone;
}

std::string Token::StringValue() const {
  if (!escaped) return std::string(text);
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    out += text[i];
    if (text[i] == '\'') ++i;  // the body holds each quote doubled
  }
  return out;
}

std::string Token::ToString() const {
  switch (type) {
    case TokenType::kEnd:
      return "<end>";
    case TokenType::kKeyword:
      return "keyword '" + std::string(KeywordName(keyword)) + "'";
    case TokenType::kString:
      return "string '" + StringValue() + "'";
    default:
      return std::string(TokenTypeToString(type)) + " '" + std::string(text) +
             "'";
  }
}

Token Lexer::Fail(size_t start, std::string message) {
  status_ = Status::ParseError(std::move(message) + " at offset " +
                               std::to_string(start));
  pos_ = input_.size();
  Token t;
  t.position = start;
  return t;
}

Token Lexer::Next() {
  const size_t n = input_.size();
  // Whitespace, and comments from -- to end of line.
  while (pos_ < n) {
    if (IsSpace(input_[pos_])) {
      ++pos_;
    } else if (input_[pos_] == '-' && pos_ + 1 < n && input_[pos_ + 1] == '-') {
      pos_ = input_.find('\n', pos_);
      if (pos_ == std::string_view::npos) pos_ = n;
    } else {
      break;
    }
  }
  Token t;
  const size_t start = pos_;
  t.position = start;
  if (start == n) return t;
  const char c = input_[start];
  const char next = start + 1 < n ? input_[start + 1] : '\0';

  // Numbers (integers and doubles), including a leading '-': the grammar
  // has no binary minus, so '-' before a digit is always a sign.
  if (IsDigit(c) || (c == '-' && IsDigit(next))) {
    size_t j = start + 1;
    bool is_double = false;
    while (j < n && (IsDigit(input_[j]) || input_[j] == '.')) {
      if (input_[j] == '.') {
        if (is_double) break;  // a second dot ends the number
        is_double = true;
      }
      ++j;
    }
    pos_ = j;
    t.text = input_.substr(start, j - start);
    if (is_double) {
      t.type = TokenType::kDouble;
      const std::optional<double> v = ParseDouble(t.text);
      if (!v) {
        return Fail(start, "malformed number '" + std::string(t.text) + "'");
      }
      t.double_value = *v;
    } else {
      t.type = TokenType::kInteger;
      const std::optional<int64_t> v = ParseInt64(t.text);
      if (!v) {
        return Fail(start, "malformed integer '" + std::string(t.text) + "'");
      }
      t.int_value = *v;
    }
    return t;
  }

  // Identifiers and keywords.
  if (IsIdentifierStart(c)) {
    size_t j = start + 1;
    while (j < n && IsIdentifierChar(input_[j])) ++j;
    pos_ = j;
    t.text = input_.substr(start, j - start);
    t.keyword = LookupKeyword(t.text);
    t.type = t.keyword == Keyword::kNone ? TokenType::kIdentifier
                                         : TokenType::kKeyword;
    return t;
  }

  // String literals; '' inside one escapes a quote.
  if (c == '\'') {
    size_t j = start + 1;
    while (true) {
      const size_t quote = input_.find('\'', j);
      if (quote == std::string_view::npos) {
        return Fail(start, "unterminated string literal");
      }
      if (quote + 1 < n && input_[quote + 1] == '\'') {
        t.escaped = true;
        j = quote + 2;
        continue;
      }
      pos_ = quote + 1;
      t.type = TokenType::kString;
      t.text = input_.substr(start + 1, quote - start - 1);
      return t;
    }
  }

  // Symbols, two-character operators first.
  t.type = TokenType::kSymbol;
  if (c == '<' && next == '>') {
    pos_ = start + 2;
    t.text = "!=";
    return t;
  }
  if ((c == '!' || c == '<' || c == '>') && next == '=') {
    pos_ = start + 2;
    t.text = input_.substr(start, 2);
    return t;
  }
  if (std::string_view("(),;.*=<>$").find(c) != std::string_view::npos) {
    pos_ = start + 1;
    t.text = input_.substr(start, 1);
    return t;
  }
  return Fail(start, "unexpected character '" + std::string(1, c) + "'");
}

}  // namespace sql
}  // namespace expdb
