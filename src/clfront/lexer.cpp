#include "clfront/lexer.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "clfront/spelling_table.hpp"

namespace repro::clfront {

namespace {

/// What the lexer knows about one reserved spelling: its keyword id and,
/// for type names, the scalar kind and vector width (0: not a type name).
struct WordInfo {
  Keyword keyword = Keyword::kNone;
  ScalarKind scalar = ScalarKind::kInt;
  std::uint8_t width = 0;
};

/// Every keyword and type spelling of the subset (~100 of them; the longest
/// is "__constant"), built at compile time.
constexpr auto kWordTable = [] {
  SpellingTable<WordInfo, 10, 256> table;
  constexpr std::pair<std::string_view, Keyword> kKeywords[] = {
      {"kernel", Keyword::kKernel},       {"__kernel", Keyword::kKernel},
      {"global", Keyword::kGlobal},       {"__global", Keyword::kGlobal},
      {"local", Keyword::kLocal},         {"__local", Keyword::kLocal},
      {"constant", Keyword::kConstant},   {"__constant", Keyword::kConstant},
      {"private", Keyword::kPrivate},     {"__private", Keyword::kPrivate},
      {"const", Keyword::kConst},         {"restrict", Keyword::kRestrict},
      {"volatile", Keyword::kVolatile},   {"unsigned", Keyword::kUnsigned},
      {"signed", Keyword::kSigned},       {"size_t", Keyword::kType},
      {"if", Keyword::kIf},               {"else", Keyword::kElse},
      {"for", Keyword::kFor},             {"while", Keyword::kWhile},
      {"do", Keyword::kDo},               {"return", Keyword::kReturn},
      {"break", Keyword::kBreak},         {"continue", Keyword::kContinue},
      {"struct", Keyword::kStruct},
  };
  constexpr std::pair<std::string_view, ScalarKind> kScalars[] = {
      {"void", ScalarKind::kVoid},     {"bool", ScalarKind::kBool},
      {"char", ScalarKind::kChar},     {"uchar", ScalarKind::kUChar},
      {"short", ScalarKind::kShort},   {"ushort", ScalarKind::kUShort},
      {"int", ScalarKind::kInt},       {"uint", ScalarKind::kUInt},
      {"long", ScalarKind::kLong},     {"ulong", ScalarKind::kULong},
      {"float", ScalarKind::kFloat},   {"double", ScalarKind::kDouble},
      {"half", ScalarKind::kHalf},
  };
  const auto set_type = [](WordInfo& info, ScalarKind scalar, int width) {
    info.scalar = scalar;
    info.width = static_cast<std::uint8_t>(width);
  };
  for (const auto& [word, keyword] : kKeywords) table.insert(word).keyword = keyword;
  set_type(table.insert("size_t"), ScalarKind::kULong, 1);
  set_type(table.insert("unsigned"), ScalarKind::kUInt, 1);
  // Scalar type keywords, and their vectors (float4, uchar16, …) as plain
  // identifiers: void and bool have no vector forms.
  for (const auto& [base, scalar] : kScalars) {
    WordInfo& info = table.insert(base);
    info.keyword = Keyword::kType;
    set_type(info, scalar, 1);
    if (scalar == ScalarKind::kVoid || scalar == ScalarKind::kBool) continue;
    for (const int width : {2, 3, 4, 8, 16}) {
      std::array<char, 10> name{};
      std::size_t n = 0;
      for (const char c : base) name[n++] = c;
      if (width >= 10) name[n++] = static_cast<char>('0' + width / 10);
      name[n++] = static_cast<char>('0' + width % 10);
      set_type(table.insert(std::string_view(name.data(), n)), scalar, width);
    }
  }
  return table;
}();

/// ASCII character classes — what <cctype> answers in the "C" locale, which
/// this library never changes — as one table lookup.
enum CharClass : std::uint8_t { kDigit = 1, kHexDigit = 2, kIdentStart = 4, kSpace = 8 };

constexpr std::array<std::uint8_t, 256> kCharClass = [] {
  std::array<std::uint8_t, 256> table{};
  for (int c = '0'; c <= '9'; ++c) table[c] = kDigit | kHexDigit;
  for (int c = 'a'; c <= 'f'; ++c) table[c] |= kHexDigit;
  for (int c = 'A'; c <= 'F'; ++c) table[c] |= kHexDigit;
  for (int c = 'a'; c <= 'z'; ++c) table[c] |= kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] |= kIdentStart;
  table['_'] |= kIdentStart;
  for (const char c : {' ', '\t', '\r', '\n'}) {
    table[static_cast<unsigned char>(c)] = kSpace;
  }
  return table;
}();

constexpr bool has_class(char c, std::uint8_t mask) noexcept {
  return (kCharClass[static_cast<unsigned char>(c)] & mask) != 0;
}
constexpr bool is_space(char c) noexcept { return has_class(c, kSpace); }
constexpr bool is_digit(char c) noexcept { return has_class(c, kDigit); }
constexpr bool is_hex_digit(char c) noexcept { return has_class(c, kHexDigit); }
constexpr bool is_ident_start(char c) noexcept { return has_class(c, kIdentStart); }
constexpr bool is_ident_char(char c) noexcept {
  return has_class(c, kIdentStart | kDigit);
}

}  // namespace

WordClass classify_word(std::string_view word) noexcept {
  WordClass out;
  if (const WordInfo* info = kWordTable.find(word)) {
    out.keyword = info->keyword;
    if (info->width != 0) {
      out.type = Type{info->scalar, info->width, false, AddressSpace::kPrivate};
    }
  }
  return out;
}

bool is_keyword(std::string_view word) noexcept {
  return classify_word(word).keyword != Keyword::kNone;
}

const char* token_kind_name(TokenKind kind) noexcept {
  switch (kind) {
    case TokenKind::kEof: return "<eof>";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kKeyword: return "keyword";
    case TokenKind::kIntLiteral: return "integer literal";
    case TokenKind::kFloatLiteral: return "float literal";
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kLBrace: return "{";
    case TokenKind::kRBrace: return "}";
    case TokenKind::kLBracket: return "[";
    case TokenKind::kRBracket: return "]";
    case TokenKind::kComma: return ",";
    case TokenKind::kSemicolon: return ";";
    case TokenKind::kColon: return ":";
    case TokenKind::kQuestion: return "?";
    case TokenKind::kPlus: return "+";
    case TokenKind::kMinus: return "-";
    case TokenKind::kStar: return "*";
    case TokenKind::kSlash: return "/";
    case TokenKind::kPercent: return "%";
    case TokenKind::kAmp: return "&";
    case TokenKind::kPipe: return "|";
    case TokenKind::kCaret: return "^";
    case TokenKind::kTilde: return "~";
    case TokenKind::kShl: return "<<";
    case TokenKind::kShr: return ">>";
    case TokenKind::kAmpAmp: return "&&";
    case TokenKind::kPipePipe: return "||";
    case TokenKind::kBang: return "!";
    case TokenKind::kAssign: return "=";
    case TokenKind::kPlusAssign: return "+=";
    case TokenKind::kMinusAssign: return "-=";
    case TokenKind::kStarAssign: return "*=";
    case TokenKind::kSlashAssign: return "/=";
    case TokenKind::kPercentAssign: return "%=";
    case TokenKind::kAmpAssign: return "&=";
    case TokenKind::kPipeAssign: return "|=";
    case TokenKind::kCaretAssign: return "^=";
    case TokenKind::kShlAssign: return "<<=";
    case TokenKind::kShrAssign: return ">>=";
    case TokenKind::kEq: return "==";
    case TokenKind::kNe: return "!=";
    case TokenKind::kLt: return "<";
    case TokenKind::kGt: return ">";
    case TokenKind::kLe: return "<=";
    case TokenKind::kGe: return ">=";
    case TokenKind::kPlusPlus: return "++";
    case TokenKind::kMinusMinus: return "--";
    case TokenKind::kDot: return ".";
    case TokenKind::kArrow: return "->";
  }
  return "?";
}

namespace {

/// The one lexing implementation. Scans a byte window starting in `state`;
/// with final == false it suspends (rolls back) any token that touches the
/// end of the window instead of committing it, so the caller can retry once
/// more bytes arrive — which is exactly what makes chunked lexing
/// byte-identical to one-shot lexing at any chunk size.
class ChunkLexer {
 public:
  ChunkLexer(std::string_view text, detail::LexState state, bool final,
             std::vector<Token>& tokens)
      : text_(text),
        loc_(state.loc),
        committed_loc_(state.loc),
        mode_(state.mode),
        line_start_(state.line_start),
        committed_line_start_(state.line_start),
        final_(final),
        tokens_(tokens) {}

  detail::ChunkLex run() {
    for (;;) {
      if (mode_ != detail::LexMode::kNormal) {
        if (!resume()) break;  // suspended (bytes committed) or error
      }
      commit();
      if (at_end()) break;
      token_start_ = loc_;
      const std::size_t start_pos = pos_;
      const SourceLoc start_loc = loc_;
      const char c = peek();

      if (is_space(c)) {
        for (char w = c; is_space(w); w = peek()) {  // the whole run at once
          advance();
          if (w == '\n') line_start_ = true;
        }
        continue;
      }
      // Preprocessor lines (e.g. #pragma OPENCL EXTENSION ..., or an
      // indented #pragma unroll) are skipped.
      if (c == '#' && line_start_) {
        advance();
        line_start_ = false;
        mode_ = detail::LexMode::kLine;
        continue;
      }
      line_start_ = false;
      if (c == '/') {
        // Classifying '/' needs one byte of lookahead; mid-stream, suspend
        // on the bare slash until the next chunk supplies it.
        if (pos_ + 1 >= text_.size() && !final_) break;
        if (peek(1) == '/') {
          advance();
          advance();
          mode_ = detail::LexMode::kLine;
          continue;
        }
        if (peek(1) == '*') {
          advance();
          advance();
          mode_ = detail::LexMode::kBlockComment;
          continue;
        }
      }
      // A '.' may start a float literal (".5f") — that too needs lookahead.
      if (c == '.' && pos_ + 1 >= text_.size() && !final_) break;

      if (is_digit(c) || (c == '.' && is_digit(peek(1)))) {
        const bool done = lex_number(push(TokenKind::kIntLiteral));
        if (!done) {
          tokens_.pop_back();
          if (error_.has_value()) break;
          rollback(start_pos, start_loc);  // suspended mid-exponent
          break;
        }
      } else if (is_ident_start(c)) {
        lex_identifier();
      } else if (!lex_operator(c)) {
        break;  // error recorded
      }
      if (pos_ == text_.size() && !final_) {
        tokens_.pop_back();
        rollback(start_pos, start_loc);
        break;
      }
    }

    detail::ChunkLex out;
    out.consumed = committed_pos_;
    out.state = {committed_loc_, mode_, committed_line_start_};
    out.error = std::move(error_);
    return out;
  }

 private:
  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const noexcept {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  char advance() noexcept {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++loc_.line;
      loc_.column = 1;
    } else {
      ++loc_.column;
    }
    return c;
  }
  [[nodiscard]] bool match(char expected) noexcept {
    if (at_end() || text_[pos_] != expected) return false;
    advance();
    return true;
  }
  void commit() noexcept {
    committed_pos_ = pos_;
    committed_loc_ = loc_;
    committed_line_start_ = line_start_;
  }
  void rollback(std::size_t pos, SourceLoc loc) noexcept {
    pos_ = pos;
    loc_ = loc;
  }

  void fail_here(const std::string& msg) {
    error_ = common::parse_error("line " + std::to_string(loc_.line) + ":" +
                                 std::to_string(loc_.column) + ": " + msg);
  }

  /// Append a token of `kind` starting at the current token start.
  Token& push(TokenKind kind) {
    Token& t = tokens_.emplace_back();
    t.kind = kind;
    t.loc = token_start_;
    return t;
  }

  /// Consume the open comment / preprocessor line. Returns true when normal
  /// lexing may proceed; false on suspend (bytes committed, mode saved) or
  /// error.
  bool resume() {
    if (mode_ == detail::LexMode::kLine || mode_ == detail::LexMode::kLineBackslash) {
      // A // comment or # line. A backslash right before the newline (a '\r'
      // of a CRLF may sit in between) continues it, even across chunks; the
      // first unescaped '\n' ends it and is left to the whitespace path,
      // exactly like the one-shot scan.
      bool backslash = mode_ == detail::LexMode::kLineBackslash;
      while (!at_end()) {
        const char c = peek();
        if (c == '\n' && !backslash) {
          mode_ = detail::LexMode::kNormal;
          return true;
        }
        advance();
        backslash = c == '\\' || (backslash && c == '\r');
      }
      if (final_) {
        mode_ = detail::LexMode::kNormal;
        return true;
      }
      mode_ = backslash ? detail::LexMode::kLineBackslash : detail::LexMode::kLine;
      commit();
      return false;
    }
    // Block comment; a '/' right after a '*' closes it, even across chunks.
    bool star = mode_ == detail::LexMode::kBlockCommentStar;
    while (!at_end()) {
      const char c = advance();
      if (star && c == '/') {
        mode_ = detail::LexMode::kNormal;
        return true;
      }
      star = c == '*';
    }
    if (final_) {
      fail_here("unterminated block comment");
      return false;
    }
    mode_ = star ? detail::LexMode::kBlockCommentStar : detail::LexMode::kBlockComment;
    commit();
    return false;
  }

  /// Scan a numeric literal into `t` (pre-set as an integer literal at the
  /// token start). False on a lexical error (recorded) or when the literal
  /// is cut off mid-exponent by the end of a non-final window.
  bool lex_number(Token& t) {
    const std::size_t start = pos_;
    bool is_float = false;
    bool is_hex = false;

    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      is_hex = true;
      advance();
      advance();
      while (is_hex_digit(peek())) advance();
    } else {
      while (is_digit(peek())) advance();
      if (peek() == '.' && is_digit(peek(1))) {
        is_float = true;
        advance();
        while (is_digit(peek())) advance();
      } else if (peek() == '.') {
        is_float = true;
        advance();
      }
      if (peek() == 'e' || peek() == 'E') {
        is_float = true;
        advance();
        if (peek() == '+' || peek() == '-') advance();
        if (!is_digit(peek())) {
          // Mid-stream the missing digit may simply be in the next chunk.
          if (at_end() && !final_) return false;
          fail_here("malformed exponent in float literal");
          return false;
        }
        while (is_digit(peek())) advance();
      }
    }

    t.text.assign(text_.substr(start, pos_ - start));
    if (is_float) {
      t.kind = TokenKind::kFloatLiteral;
      t.float_value = std::strtod(t.text.c_str(), nullptr);
      t.is_float32 = false;
      if (peek() == 'f' || peek() == 'F') {
        advance();
        t.is_float32 = true;
      }
    } else {
      t.int_value = std::strtoull(t.text.c_str(), nullptr, is_hex ? 16 : 10);
      // OpenCL suffixes: u, U, l, L and combinations.
      while (peek() == 'u' || peek() == 'U' || peek() == 'l' || peek() == 'L') {
        if (peek() == 'u' || peek() == 'U') t.is_unsigned = true;
        advance();
      }
      // "1.f"-style handled above; "1f" is invalid in C but accept gracefully.
      if (peek() == 'f' || peek() == 'F') {
        advance();
        t.kind = TokenKind::kFloatLiteral;
        t.float_value = static_cast<double>(t.int_value);
        t.is_float32 = true;
      }
    }
    return true;
  }

  /// Identifier or keyword, classified here once for the parser.
  void lex_identifier() {
    // No newline inside: the column moves by the length.
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_ident_char(text_[pos_])) ++pos_;
    loc_.column += static_cast<int>(pos_ - start);
    const std::string_view word = text_.substr(start, pos_ - start);
    Token& t = push(TokenKind::kIdentifier);
    t.text.assign(word);
    const WordClass word_class = classify_word(word);
    if (word_class.keyword != Keyword::kNone) t.kind = TokenKind::kKeyword;
    t.keyword = word_class.keyword;
    t.type = word_class.type;
  }

  /// Punctuation and operators; pushes the token. False on error.
  bool lex_operator(char c) {
    advance();
    switch (c) {
      case '(': push(TokenKind::kLParen); break;
      case ')': push(TokenKind::kRParen); break;
      case '{': push(TokenKind::kLBrace); break;
      case '}': push(TokenKind::kRBrace); break;
      case '[': push(TokenKind::kLBracket); break;
      case ']': push(TokenKind::kRBracket); break;
      case ',': push(TokenKind::kComma); break;
      case ';': push(TokenKind::kSemicolon); break;
      case ':': push(TokenKind::kColon); break;
      case '?': push(TokenKind::kQuestion); break;
      case '~': push(TokenKind::kTilde); break;
      case '.': push(TokenKind::kDot); break;
      case '+':
        if (match('+')) push(TokenKind::kPlusPlus);
        else if (match('=')) push(TokenKind::kPlusAssign);
        else push(TokenKind::kPlus);
        break;
      case '-':
        if (match('-')) push(TokenKind::kMinusMinus);
        else if (match('=')) push(TokenKind::kMinusAssign);
        else if (match('>')) push(TokenKind::kArrow);
        else push(TokenKind::kMinus);
        break;
      case '*':
        push(match('=') ? TokenKind::kStarAssign : TokenKind::kStar);
        break;
      case '/':
        push(match('=') ? TokenKind::kSlashAssign : TokenKind::kSlash);
        break;
      case '%':
        push(match('=') ? TokenKind::kPercentAssign : TokenKind::kPercent);
        break;
      case '&':
        if (match('&')) push(TokenKind::kAmpAmp);
        else if (match('=')) push(TokenKind::kAmpAssign);
        else push(TokenKind::kAmp);
        break;
      case '|':
        if (match('|')) push(TokenKind::kPipePipe);
        else if (match('=')) push(TokenKind::kPipeAssign);
        else push(TokenKind::kPipe);
        break;
      case '^':
        push(match('=') ? TokenKind::kCaretAssign : TokenKind::kCaret);
        break;
      case '!':
        push(match('=') ? TokenKind::kNe : TokenKind::kBang);
        break;
      case '=':
        push(match('=') ? TokenKind::kEq : TokenKind::kAssign);
        break;
      case '<':
        if (match('<')) {
          push(match('=') ? TokenKind::kShlAssign : TokenKind::kShl);
        } else {
          push(match('=') ? TokenKind::kLe : TokenKind::kLt);
        }
        break;
      case '>':
        if (match('>')) {
          push(match('=') ? TokenKind::kShrAssign : TokenKind::kShr);
        } else {
          push(match('=') ? TokenKind::kGe : TokenKind::kGt);
        }
        break;
      default:
        fail_here(std::string("unexpected character '") + c + "'");
        return false;
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t committed_pos_ = 0;
  SourceLoc loc_;
  SourceLoc committed_loc_;
  SourceLoc token_start_{};
  detail::LexMode mode_;
  bool line_start_;  // only blanks since the last '\n': a '#' opens a # line
  bool committed_line_start_;
  bool final_;
  std::vector<Token>& tokens_;
  std::optional<common::Error> error_;
};

}  // namespace

namespace detail {

ChunkLex lex_chunk(std::string_view text, LexState state, bool final,
                   std::vector<Token>& tokens) {
  // Real sources run at ~0.3 tokens per byte; grow geometrically so a long
  // run of small chunks stays linear.
  const std::size_t need = tokens.size() + text.size() / 3 + 16;
  if (tokens.capacity() < need) tokens.reserve(std::max(need, 2 * tokens.capacity()));
  return ChunkLexer(text, state, final, tokens).run();
}

}  // namespace detail

Lexer::Lexer(std::string source) : src_(std::move(source)) {}

common::Result<std::vector<Token>> Lexer::tokenize() {
  std::vector<Token> tokens;
  const auto out = detail::lex_chunk(src_, detail::LexState{}, true, tokens);
  if (out.error.has_value()) return *out.error;
  Token& eof = tokens.emplace_back();
  eof.kind = TokenKind::kEof;
  eof.loc = out.state.loc;
  return tokens;
}

}  // namespace repro::clfront
