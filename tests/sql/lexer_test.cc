#include "sql/lexer.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace expdb {
namespace sql {
namespace {

/// Every token of `in`, ending with the kEnd token. The tokens view `in`.
std::vector<Token> MustLex(std::string_view in) {
  Lexer lexer(in);
  std::vector<Token> tokens;
  do {
    tokens.push_back(lexer.Next());
  } while (tokens.back().type != TokenType::kEnd);
  EXPECT_TRUE(lexer.status().ok()) << in << " -> " << lexer.status().ToString();
  return tokens;
}

/// The status that stops lexing `in`.
Status LexStatus(std::string_view in) {
  Lexer lexer(in);
  while (lexer.Next().type != TokenType::kEnd) {
  }
  return lexer.status();
}

TEST(LexerTest, EmptyInputYieldsEnd) {
  auto tokens = MustLex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
  EXPECT_EQ(tokens[0].ToString(), "<end>");
}

TEST(LexerTest, KeywordsAreCaseInsensitiveAndNormalized) {
  auto tokens = MustLex("select SeLeCt SELECT");
  ASSERT_EQ(tokens.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(tokens[i].type, TokenType::kKeyword);
    EXPECT_EQ(tokens[i].keyword, Keyword::kSelect);
    // Rendered by the enum's name; the text stays the source spelling.
    EXPECT_EQ(tokens[i].ToString(), "keyword 'SELECT'");
  }
  EXPECT_EQ(tokens[1].text, "SeLeCt");
}

TEST(LexerTest, EveryKeywordInMixedCase) {
  const std::pair<Keyword, std::string_view> keywords[] = {
#define EXPDB_TEST_KEYWORD(name, spelling) {Keyword::name, spelling},
      EXPDB_SQL_KEYWORDS(EXPDB_TEST_KEYWORD)
#undef EXPDB_TEST_KEYWORD
  };
  ASSERT_EQ(std::size(keywords), 51u);
  for (const auto& [kw, spelling] : keywords) {
    EXPECT_EQ(KeywordName(kw), spelling);
    std::string lower, mixed;
    for (size_t i = 0; i < spelling.size(); ++i) {
      const char up = spelling[i];
      const char low = static_cast<char>(up - 'A' + 'a');
      lower += low;
      mixed += i % 2 == 0 ? low : up;
    }
    for (const std::string& word : {std::string(spelling), lower, mixed}) {
      auto tokens = MustLex(word);
      ASSERT_EQ(tokens.size(), 2u) << word;
      EXPECT_EQ(tokens[0].type, TokenType::kKeyword) << word;
      EXPECT_EQ(tokens[0].keyword, kw) << word;
      EXPECT_EQ(tokens[0].ToString(),
                "keyword '" + std::string(spelling) + "'");
      EXPECT_EQ(LookupKeyword(word), kw) << word;
    }
  }
  EXPECT_EQ(LookupKeyword("CLEAR"), Keyword::kNone);
  EXPECT_EQ(LookupKeyword(""), Keyword::kNone);
  EXPECT_EQ(LookupKeyword("_select"), Keyword::kNone);
}

TEST(LexerTest, IdentifiersThatStartWithAKeywordStayIdentifiers) {
  auto tokens = MustLex("selected fromage counts as_of int8 SELECT_ ORDER");
  ASSERT_EQ(tokens.size(), 8u);
  const char* expected[] = {"selected", "fromage", "counts", "as_of",
                            "int8",     "SELECT_", "ORDER"};
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(tokens[i].type, TokenType::kIdentifier) << expected[i];
    EXPECT_EQ(tokens[i].keyword, Keyword::kNone) << expected[i];
    EXPECT_EQ(tokens[i].text, expected[i]);
  }
}

TEST(LexerTest, IdentifiersKeepCase) {
  auto tokens = MustLex("myTable _x a1");
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "myTable");
  EXPECT_EQ(tokens[0].ToString(), "identifier 'myTable'");
  EXPECT_EQ(tokens[1].text, "_x");
  EXPECT_EQ(tokens[2].text, "a1");
}

TEST(LexerTest, IntegerLiterals) {
  auto tokens = MustLex("42 -7 0");
  EXPECT_EQ(tokens[0].type, TokenType::kInteger);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[0].text, "42");
  EXPECT_EQ(tokens[1].int_value, -7);
  EXPECT_EQ(tokens[2].int_value, 0);
}

TEST(LexerTest, IntegerLimits) {
  auto tokens = MustLex("9223372036854775807 -9223372036854775808");
  EXPECT_EQ(tokens[0].int_value, INT64_MAX);
  EXPECT_EQ(tokens[1].int_value, INT64_MIN);
  EXPECT_EQ(LexStatus("9223372036854775808").message(),
            "malformed integer '9223372036854775808' at offset 0");
  EXPECT_EQ(LexStatus("x -9223372036854775809").message(),
            "malformed integer '-9223372036854775809' at offset 2");
}

TEST(LexerTest, DoubleLiterals) {
  auto tokens = MustLex("2.5 -0.25 3.");
  EXPECT_EQ(tokens[0].type, TokenType::kDouble);
  EXPECT_DOUBLE_EQ(tokens[0].double_value, 2.5);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, -0.25);
  EXPECT_DOUBLE_EQ(tokens[2].double_value, 3.0);
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = MustLex("'hello' 'it''s' '' ''''");
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "hello");
  EXPECT_FALSE(tokens[0].escaped);
  EXPECT_EQ(tokens[0].StringValue(), "hello");
  // The text views the source; only StringValue() unescapes.
  EXPECT_EQ(tokens[1].text, "it''s");
  EXPECT_TRUE(tokens[1].escaped);
  EXPECT_EQ(tokens[1].StringValue(), "it's");
  EXPECT_EQ(tokens[1].ToString(), "string 'it's'");
  EXPECT_EQ(tokens[2].StringValue(), "");
  EXPECT_EQ(tokens[3].StringValue(), "'");
}

TEST(LexerTest, SymbolsAndOperators) {
  auto tokens = MustLex("( ) , ; . * = != <= >= < > <> $");
  std::vector<std::string> expected = {"(", ")",  ",",  ";",  ".", "*", "=",
                                       "!=", "<=", ">=", "<", ">", "!=", "$"};
  ASSERT_EQ(tokens.size(), expected.size() + 1);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(tokens[i].type, TokenType::kSymbol);
    EXPECT_EQ(tokens[i].text, expected[i]) << "token " << i;
  }
  // <> is spelled != wherever it shows.
  EXPECT_TRUE(tokens[12].IsSymbol("!="));
  EXPECT_EQ(tokens[12].ToString(), "symbol '!='");
  EXPECT_EQ(tokens[12].position, 27u);
}

TEST(LexerTest, CommentsIgnoredToEndOfLine) {
  auto tokens = MustLex("select -- this is a comment\n 42");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].keyword, Keyword::kSelect);
  EXPECT_EQ(tokens[1].int_value, 42);
}

TEST(LexerTest, CommentAtEndOfInput) {
  auto tokens = MustLex("select 42 -- no newline follows; 'x");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[2].type, TokenType::kEnd);
  EXPECT_EQ(MustLex("--").size(), 1u);
  EXPECT_EQ(MustLex("select --").size(), 2u);
}

TEST(LexerTest, MinusBeforeDigitIsNegativeLiteral) {
  auto tokens = MustLex("-5");
  EXPECT_EQ(tokens[0].type, TokenType::kInteger);
  EXPECT_EQ(tokens[0].int_value, -5);
}

TEST(LexerTest, PositionsAreZeroBasedByteOffsets) {
  auto tokens = MustLex("  SELECT x\nFROM t");
  EXPECT_EQ(tokens[0].position, 2u);
  EXPECT_EQ(tokens[1].position, 9u);
  EXPECT_EQ(tokens[2].position, 11u);
  EXPECT_EQ(tokens[3].position, 16u);
  EXPECT_EQ(tokens[4].position, 17u);  // kEnd: the input's length
}

// Every error path names the offset of the token it stopped at.
TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_EQ(LexStatus("'oops").code(), StatusCode::kParseError);
  EXPECT_EQ(LexStatus("select 'oops").message(),
            "unterminated string literal at offset 7");
  EXPECT_EQ(LexStatus("'it''s").message(),
            "unterminated string literal at offset 0");
}

TEST(LexerTest, UnexpectedCharacterFails) {
  EXPECT_EQ(LexStatus("select @").code(), StatusCode::kParseError);
  EXPECT_EQ(LexStatus("select @").message(),
            "unexpected character '@' at offset 7");
  EXPECT_EQ(LexStatus("a !b").message(),
            "unexpected character '!' at offset 2");
}

TEST(LexerTest, MalformedNumbersFail) {
  EXPECT_EQ(LexStatus("t 99999999999999999999").message(),
            "malformed integer '99999999999999999999' at offset 2");
  // A double out of range.
  const std::string huge = "1" + std::string(400, '0') + ".5";
  EXPECT_EQ(LexStatus("x = " + huge).message(),
            "malformed number '" + huge + "' at offset 4");
}

TEST(LexerTest, StreamEndsAtTheFirstError) {
  Lexer lexer("a @ b");
  EXPECT_EQ(lexer.Next().text, "a");
  EXPECT_TRUE(lexer.status().ok());
  const Token t = lexer.Next();
  EXPECT_EQ(t.type, TokenType::kEnd);
  EXPECT_EQ(t.position, 2u);
  EXPECT_FALSE(lexer.status().ok());
  EXPECT_EQ(lexer.Next().type, TokenType::kEnd);
  EXPECT_EQ(lexer.status().message(), "unexpected character '@' at offset 2");
}

TEST(LexerTest, FullStatement) {
  auto tokens = MustLex("INSERT INTO sessions VALUES (1, 'key') TTL 30;");
  // INSERT INTO sessions VALUES ( 1 , 'key' ) TTL 30 ; <end>
  ASSERT_EQ(tokens.size(), 13u);
  EXPECT_EQ(tokens[0].keyword, Keyword::kInsert);
  EXPECT_EQ(tokens[2].text, "sessions");
  EXPECT_EQ(tokens[2].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[9].keyword, Keyword::kTtl);
  EXPECT_EQ(tokens[10].int_value, 30);
}

}  // namespace
}  // namespace sql
}  // namespace expdb
