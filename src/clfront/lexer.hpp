// Hand-written lexer for the OpenCL-C subset. Handles line/block comments,
// preprocessor-line skipping (#pragma etc., indented or continued with a
// backslash-newline), integer/float literals with OpenCL suffixes, and all
// multi-character operators. Every identifier is classified once, here
// (Token::keyword, Token::type), so the parser never compares spellings.
//
// The implementation is a resumable chunk lexer (detail::lex_chunk): the
// whole-string Lexer below and the streaming clfront::SourceFeeder drive the
// same scanner, so chunked input produces byte-identical tokens (text,
// values, locations) to one-shot tokenization at any chunk size.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "clfront/token.hpp"
#include "common/status.hpp"

namespace repro::clfront {

class Lexer {
 public:
  explicit Lexer(std::string source);

  /// Tokenize the whole input. Fails on unterminated comments or malformed
  /// literals; the error message carries the source location.
  [[nodiscard]] common::Result<std::vector<Token>> tokenize();

 private:
  std::string src_;
};

namespace detail {

/// Scanner state carried across chunk boundaries. Comments and preprocessor
/// lines can span many chunks; their bytes are consumed as they stream (the
/// pending buffer never has to hold a whole comment), so only the mode — and
/// for block comments whether the last consumed byte was '*', for
/// preprocessor lines whether it was a backslash — survives.
enum class LexMode : std::uint8_t {
  kNormal,
  kLine,                   // inside a // comment or # line, ends at an unescaped '\n'
  kLineBackslash,          // inside such a line, previous byte was '\\'
  kBlockComment,           // inside /* …, previous byte was not '*'
  kBlockCommentStar,       // inside /* …, previous byte was '*' ('/' closes)
};

/// Where the scanner stands: the source location, the mode, and whether
/// only blanks have been consumed since the last newline (a '#' there starts
/// a preprocessor line).
struct LexState {
  SourceLoc loc;
  LexMode mode = LexMode::kNormal;
  bool line_start = true;
};

struct ChunkLex {
  std::size_t consumed = 0;  ///< prefix of the window that can be discarded
  LexState state;            ///< scanner state just after `consumed`
  std::optional<common::Error> error;  ///< first lexical error, if any
};

/// Lex as many complete tokens as the window allows, starting in `state`,
/// and append them to `tokens`. With `final == false` no token touching the
/// end of the window is committed (the next chunk could extend an
/// identifier, a literal, or a multi-character operator) — it stays in the
/// unconsumed tail. With `final == true` everything drains and end-of-input
/// errors (unterminated block comment) are reported. The kEof token is
/// never appended; callers add it once the stream ends.
[[nodiscard]] ChunkLex lex_chunk(std::string_view text, LexState state, bool final,
                                 std::vector<Token>& tokens);

}  // namespace detail

}  // namespace repro::clfront
