// Token vocabulary of the OpenCL-C subset accepted by the frontend.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "clfront/types.hpp"

namespace repro::clfront {

enum class TokenKind : std::uint8_t {
  kEof,
  kIdentifier,
  kKeyword,
  kIntLiteral,
  kFloatLiteral,
  // Punctuation / operators.
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kComma, kSemicolon, kColon, kQuestion,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kAmp, kPipe, kCaret, kTilde, kShl, kShr,
  kAmpAmp, kPipePipe, kBang,
  kAssign, kPlusAssign, kMinusAssign, kStarAssign, kSlashAssign, kPercentAssign,
  kAmpAssign, kPipeAssign, kCaretAssign, kShlAssign, kShrAssign,
  kEq, kNe, kLt, kGt, kLe, kGe,
  kPlusPlus, kMinusMinus,
  kDot, kArrow,
};

[[nodiscard]] const char* token_kind_name(TokenKind kind) noexcept;

/// Reserved words of the accepted subset, by role. Spellings the parser
/// treats alike share an id ("kernel" and "__kernel" are both kKernel), and
/// every scalar type keyword ("void" … "half", "size_t") is kType — its
/// Token::type says which.
enum class Keyword : std::uint8_t {
  kNone,  // not a keyword
  kKernel,
  kGlobal, kLocal, kConstant, kPrivate,  // address spaces
  kConst, kRestrict, kVolatile, kUnsigned, kSigned,
  kType,
  kIf, kElse, kFor, kWhile, kDo, kReturn, kBreak, kContinue, kStruct,
};

/// How the lexer classifies one identifier-shaped word, decided once per
/// token: its keyword id (kNone for plain identifiers) and, for type names
/// ("float4", "uint", "size_t", "unsigned"), the Type parse_type_name
/// returns.
struct WordClass {
  Keyword keyword = Keyword::kNone;
  std::optional<Type> type;
};

/// Classify `word` (keywords and type names; everything else is a plain
/// identifier with no type).
[[nodiscard]] WordClass classify_word(std::string_view word) noexcept;

/// Source location (1-based line/column).
struct SourceLoc {
  int line = 1;
  int column = 1;
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  Keyword keyword = Keyword::kNone;  // kKeyword tokens: which reserved word
  bool is_unsigned = false;   // integer literal had a 'u' suffix
  bool is_float32 = true;     // float literal had an 'f' suffix (else double)
  SourceLoc loc;
  std::string text;        // identifier/keyword spelling or literal text
  std::uint64_t int_value = 0;
  double float_value = 0.0;
  std::optional<Type> type;   // identifier/keyword spelling a type name
};

/// True if `word` is a reserved keyword of the accepted subset.
[[nodiscard]] bool is_keyword(std::string_view word) noexcept;

}  // namespace repro::clfront
