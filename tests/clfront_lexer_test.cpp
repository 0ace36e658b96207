// Lexer tests: token kinds, literals with OpenCL suffixes, comments,
// preprocessor lines (at every chunk size), operators, keyword and type-name
// classification, and error reporting.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "clfront/lexer.hpp"

namespace rc = repro::clfront;

namespace {

std::vector<rc::Token> lex_ok(const std::string& src) {
  rc::Lexer lexer(src);
  auto tokens = lexer.tokenize();
  EXPECT_TRUE(tokens.ok()) << (tokens.ok() ? "" : tokens.error().message);
  return tokens.ok() ? std::move(tokens).take() : std::vector<rc::Token>{};
}

}  // namespace

TEST(LexerTest, EmptyInputYieldsEof) {
  const auto tokens = lex_ok("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, rc::TokenKind::kEof);
}

TEST(LexerTest, IdentifiersAndKeywords) {
  const auto tokens = lex_ok("kernel void my_fn");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, rc::TokenKind::kKeyword);
  EXPECT_EQ(tokens[0].text, "kernel");
  EXPECT_EQ(tokens[1].kind, rc::TokenKind::kKeyword);
  EXPECT_EQ(tokens[2].kind, rc::TokenKind::kIdentifier);
  EXPECT_EQ(tokens[2].text, "my_fn");
}

TEST(LexerTest, IntegerLiterals) {
  const auto tokens = lex_ok("42 0x1F 7u 100UL");
  EXPECT_EQ(tokens[0].int_value, 42u);
  EXPECT_EQ(tokens[1].int_value, 31u);
  EXPECT_TRUE(tokens[2].is_unsigned);
  EXPECT_EQ(tokens[3].int_value, 100u);
}

TEST(LexerTest, FloatLiterals) {
  const auto tokens = lex_ok("1.5f 2.0 3e2 4.5e-1f .25f");
  EXPECT_EQ(tokens[0].kind, rc::TokenKind::kFloatLiteral);
  EXPECT_TRUE(tokens[0].is_float32);
  EXPECT_DOUBLE_EQ(tokens[0].float_value, 1.5);
  EXPECT_FALSE(tokens[1].is_float32);  // no 'f' suffix -> double
  EXPECT_DOUBLE_EQ(tokens[2].float_value, 300.0);
  EXPECT_DOUBLE_EQ(tokens[3].float_value, 0.45);
  EXPECT_DOUBLE_EQ(tokens[4].float_value, 0.25);
}

TEST(LexerTest, TrailingDotFloat) {
  const auto tokens = lex_ok("1.f");
  EXPECT_EQ(tokens[0].kind, rc::TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ(tokens[0].float_value, 1.0);
}

TEST(LexerTest, CommentsAreSkipped) {
  const auto tokens = lex_ok("a // line comment\nb /* block\ncomment */ c");
  ASSERT_EQ(tokens.size(), 4u);  // a b c eof
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(LexerTest, PreprocessorLinesAreSkipped) {
  const auto tokens = lex_ok("#pragma OPENCL EXTENSION cl_khr_fp64 : enable\nx");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "x");
}

TEST(LexerTest, MultiCharOperators) {
  const auto tokens = lex_ok("<< >> <= >= == != && || += -= <<= >>= ++ -- ->");
  const rc::TokenKind expected[] = {
      rc::TokenKind::kShl, rc::TokenKind::kShr, rc::TokenKind::kLe,
      rc::TokenKind::kGe, rc::TokenKind::kEq, rc::TokenKind::kNe,
      rc::TokenKind::kAmpAmp, rc::TokenKind::kPipePipe, rc::TokenKind::kPlusAssign,
      rc::TokenKind::kMinusAssign, rc::TokenKind::kShlAssign, rc::TokenKind::kShrAssign,
      rc::TokenKind::kPlusPlus, rc::TokenKind::kMinusMinus, rc::TokenKind::kArrow,
  };
  ASSERT_EQ(tokens.size(), std::size(expected) + 1);
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(tokens[i].kind, expected[i]) << "token " << i;
  }
}

TEST(LexerTest, SourceLocationsTrackLinesAndColumns) {
  const auto tokens = lex_ok("a\n  b");
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[1].loc.line, 2);
  EXPECT_EQ(tokens[1].loc.column, 3);
}

TEST(LexerTest, UnterminatedBlockCommentFails) {
  rc::Lexer lexer("a /* never closed");
  EXPECT_FALSE(lexer.tokenize().ok());
}

TEST(LexerTest, UnexpectedCharacterFails) {
  rc::Lexer lexer("int a = $;");
  const auto result = lexer.tokenize();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("unexpected character"), std::string::npos);
}

TEST(LexerTest, MalformedExponentFails) {
  rc::Lexer lexer("1e+");
  EXPECT_FALSE(lexer.tokenize().ok());
}

TEST(LexerTest, KeywordPredicate) {
  EXPECT_TRUE(rc::is_keyword("__global"));
  EXPECT_TRUE(rc::is_keyword("float"));
  EXPECT_FALSE(rc::is_keyword("float4"));  // type *names* are contextual
  EXPECT_FALSE(rc::is_keyword("banana"));
}

// --- preprocessor lines at any chunking ------------------------------------------

namespace {

/// Lex `src` fed in `chunk`-byte pieces the way SourceFeeder does: a pending
/// buffer, the carried scanner state, and a final drain.
repro::common::Result<std::vector<rc::Token>> lex_chunked(std::string_view src,
                                                          std::size_t chunk) {
  std::vector<rc::Token> tokens;
  std::string pending;
  rc::detail::LexState state;
  for (std::size_t offset = 0; offset < src.size(); offset += chunk) {
    pending.append(src.substr(offset, chunk));
    const auto out = rc::detail::lex_chunk(pending, state, false, tokens);
    if (out.error.has_value()) return *out.error;
    pending.erase(0, out.consumed);
    state = out.state;
  }
  const auto out = rc::detail::lex_chunk(pending, state, true, tokens);
  if (out.error.has_value()) return *out.error;
  rc::Token& eof = tokens.emplace_back();
  eof.kind = rc::TokenKind::kEof;
  eof.loc = out.state.loc;
  return tokens;
}

/// Every field of every token, so two lexings compare byte for byte.
std::string describe(const std::vector<rc::Token>& tokens) {
  std::string out;
  for (const auto& t : tokens) {
    out += std::string(rc::token_kind_name(t.kind)) + " " +
           std::to_string(static_cast<int>(t.keyword)) + " '" + t.text + "' " +
           std::to_string(t.int_value) + " " + std::to_string(t.float_value) + " " +
           std::to_string(t.is_unsigned) + std::to_string(t.is_float32) + " " +
           std::to_string(t.loc.line) + ":" + std::to_string(t.loc.column) + " " +
           (t.type ? t.type->to_string() : "-") + "\n";
  }
  return out;
}

/// Whole-string tokens of `src`, checked equal to the chunked lexing at
/// every chunk size from 1 to the length of the source.
std::vector<rc::Token> lex_at_every_chunk_size(const std::string& src) {
  auto whole = lex_ok(src);
  const std::string expected = describe(whole);
  for (std::size_t chunk = 1; chunk <= src.size(); ++chunk) {
    const auto chunked = lex_chunked(src, chunk);
    EXPECT_TRUE(chunked.ok()) << "chunk=" << chunk;
    if (!chunked.ok()) break;
    EXPECT_EQ(describe(chunked.value()), expected) << "chunk=" << chunk;
  }
  return whole;
}

}  // namespace

TEST(LexerTest, IndentedPreprocessorLinesAreSkipped) {
  const std::string src =
      "kernel void k(global float* x) {\n"
      "  #pragma unroll\n"
      "  for (int i = 0; i < 4; i++) x[i] = 0.0f;\n"
      "\t \r#pragma unroll 2\n"
      "}\n";
  const auto tokens = lex_at_every_chunk_size(src);
  for (const auto& t : tokens) {
    EXPECT_NE(t.text, "pragma");
    EXPECT_NE(t.text, "unroll");
    EXPECT_NE(t.text, "2");
  }
  EXPECT_EQ(tokens[tokens.size() - 2].kind, rc::TokenKind::kRBrace);
  EXPECT_EQ(tokens[tokens.size() - 2].loc.line, 5);
}

TEST(LexerTest, HashAfterCodeOnTheSameLineFails) {
  rc::Lexer lexer("a # b");
  const auto result = lexer.tokenize();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().message, "line 1:4: unexpected character '#'");
  // A comment is not a blank: the '#' after it does not open a # line.
  rc::Lexer after_comment("/* c */ #pragma unroll");
  EXPECT_FALSE(after_comment.tokenize().ok());
}

TEST(LexerTest, BackslashNewlineContinuesPreprocessorLine) {
  const std::string src =
      "#define N \\\n"
      "  16\n"
      "#define M \\\r\n"
      " 8 \\\n"
      " \\\n"
      "4\n"
      "x\n";
  const auto tokens = lex_at_every_chunk_size(src);
  ASSERT_EQ(tokens.size(), 2u);  // x eof
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_EQ(tokens[0].loc.line, 7);
  EXPECT_EQ(tokens[0].loc.column, 1);
}

TEST(LexerTest, BackslashNewlineContinuesLineComment) {
  const auto tokens = lex_at_every_chunk_size("a // c \\\nb\n// d \\\r\ne\nf\n");
  ASSERT_EQ(tokens.size(), 3u);  // a f eof
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "f");
  EXPECT_EQ(tokens[1].loc.line, 5);
}

TEST(LexerTest, BackslashInsideLineDoesNotContinueIt) {
  const auto tokens = lex_at_every_chunk_size("#define S \\ x\ny");
  ASSERT_EQ(tokens.size(), 2u);  // y eof
  EXPECT_EQ(tokens[0].text, "y");
  // Outside a # line a backslash is just an unexpected character.
  rc::Lexer code("y \\\nz");
  EXPECT_FALSE(code.tokenize().ok());
}

// --- classification: each identifier is classified once, by the lexer ----------

TEST(LexerTest, ClassificationTable) {
  using K = rc::Keyword;
  struct Expected {
    std::string spelling;
    rc::TokenKind kind;
    K keyword;
    std::optional<rc::Type> type;
  };
  auto scalar = [](rc::ScalarKind s, int width = 1) {
    return std::optional<rc::Type>(rc::Type{s, width, false, rc::AddressSpace::kPrivate});
  };
  const auto kw = rc::TokenKind::kKeyword;
  const auto id = rc::TokenKind::kIdentifier;
  std::vector<Expected> table = {
      {"kernel", kw, K::kKernel, {}},       {"__kernel", kw, K::kKernel, {}},
      {"global", kw, K::kGlobal, {}},       {"__global", kw, K::kGlobal, {}},
      {"local", kw, K::kLocal, {}},         {"__local", kw, K::kLocal, {}},
      {"constant", kw, K::kConstant, {}},   {"__constant", kw, K::kConstant, {}},
      {"private", kw, K::kPrivate, {}},     {"__private", kw, K::kPrivate, {}},
      {"const", kw, K::kConst, {}},         {"restrict", kw, K::kRestrict, {}},
      {"volatile", kw, K::kVolatile, {}},   {"signed", kw, K::kSigned, {}},
      {"unsigned", kw, K::kUnsigned, scalar(rc::ScalarKind::kUInt)},
      {"size_t", kw, K::kType, scalar(rc::ScalarKind::kULong)},
      {"if", kw, K::kIf, {}},               {"else", kw, K::kElse, {}},
      {"for", kw, K::kFor, {}},             {"while", kw, K::kWhile, {}},
      {"do", kw, K::kDo, {}},               {"return", kw, K::kReturn, {}},
      {"break", kw, K::kBreak, {}},         {"continue", kw, K::kContinue, {}},
      {"struct", kw, K::kStruct, {}},
      // Near misses are plain identifiers.
      {"float5", id, K::kNone, {}},         {"int1", id, K::kNone, {}},
      {"float16x", id, K::kNone, {}},       {"void4", id, K::kNone, {}},
      {"bool2", id, K::kNone, {}},          {"kernel_", id, K::kNone, {}},
      {"__globalx", id, K::kNone, {}},      {"Float", id, K::kNone, {}},
      {"banana", id, K::kNone, {}},
      {"a_much_longer_identifier", id, K::kNone, {}},
  };
  const std::pair<const char*, rc::ScalarKind> scalars[] = {
      {"void", rc::ScalarKind::kVoid},   {"bool", rc::ScalarKind::kBool},
      {"char", rc::ScalarKind::kChar},   {"uchar", rc::ScalarKind::kUChar},
      {"short", rc::ScalarKind::kShort}, {"ushort", rc::ScalarKind::kUShort},
      {"int", rc::ScalarKind::kInt},     {"uint", rc::ScalarKind::kUInt},
      {"long", rc::ScalarKind::kLong},   {"ulong", rc::ScalarKind::kULong},
      {"float", rc::ScalarKind::kFloat}, {"double", rc::ScalarKind::kDouble},
      {"half", rc::ScalarKind::kHalf},
  };
  for (const auto& [base, kind] : scalars) {
    table.push_back({base, kw, K::kType, scalar(kind)});
    const bool has_vectors =
        kind != rc::ScalarKind::kVoid && kind != rc::ScalarKind::kBool;
    for (const int width : {2, 3, 4, 8, 16}) {
      table.push_back({base + std::to_string(width), id, K::kNone,
                       has_vectors ? scalar(kind, width) : std::nullopt});
    }
  }
  ASSERT_EQ(table.size(), 35u + 13u * 6u);

  std::string src;
  for (const auto& e : table) src += e.spelling + "\n";
  const auto tokens = lex_ok(src);
  ASSERT_EQ(tokens.size(), table.size() + 1);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto& e = table[i];
    EXPECT_EQ(tokens[i].text, e.spelling);
    EXPECT_EQ(tokens[i].kind, e.kind) << e.spelling;
    EXPECT_EQ(tokens[i].keyword, e.keyword) << e.spelling;
    EXPECT_EQ(tokens[i].type, e.type) << e.spelling;
    // The token, the predicate and parse_type_name give one answer.
    EXPECT_EQ(rc::is_keyword(e.spelling), e.kind == kw) << e.spelling;
    EXPECT_EQ(rc::parse_type_name(e.spelling), e.type) << e.spelling;
  }
}
