// Recursive-descent parser for the OpenCL-C subset.
//
// Supported constructs: kernel/helper function definitions, OpenCL address-
// space and access qualifiers, scalar/vector types and pointers, the full C
// expression grammar (without the comma operator), declarations with
// initializers, if/for/while/do-while/return/break/continue, vector literals
// `(float4)(...)` and constructor calls `float4(...)`, and calls to the
// OpenCL builtin library (work-item queries, math, synchronization).
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "clfront/ast.hpp"
#include "clfront/lexer.hpp"
#include "common/status.hpp"

namespace repro::clfront {

/// Hard nesting budget across statements and expressions. Pathologically
/// nested input (thousands of parentheses or braces) fails with a parse
/// error at this depth instead of overflowing the stack — the parser is fed
/// untrusted sources over the serving socket.
inline constexpr int kMaxNestingDepth = 256;

class Parser {
 public:
  /// Parse `tokens` in place (no kEof among them; reading past the last one
  /// yields a kEof token at `end`). The tokens must outlive the parser; the
  /// tree does not view them — every node, list and name of it is
  /// allocated from `arena` and lives until the arena is reset.
  Parser(std::span<const Token> tokens, SourceLoc end, common::Arena& arena)
      : tokens_(tokens), arena_(arena) {
    eof_.loc = end;
  }

  /// Parse every function of the token range; returns a parse error with
  /// location info on the first syntax problem.
  [[nodiscard]] common::Result<std::span<const FunctionDecl>> parse_functions();

 private:
  struct ParseError {
    common::Error error;
  };

  // Token stream helpers.
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const noexcept;
  const Token& advance() noexcept;
  [[nodiscard]] bool check(TokenKind kind) const noexcept;
  [[nodiscard]] bool check_keyword(Keyword kw) const noexcept;
  bool match(TokenKind kind) noexcept;
  bool match_keyword(Keyword kw) noexcept;
  const Token& expect(TokenKind kind, const char* what);
  [[noreturn]] void fail(const std::string& msg) const;

  /// RAII guard enforcing kMaxNestingDepth on the recursive-descent entry
  /// points (statements and unary expressions cover every recursion cycle).
  struct DepthGuard {
    explicit DepthGuard(Parser& parser);
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& parser_;
  };

  // Types.
  [[nodiscard]] bool looks_like_type_start(std::size_t ahead = 0) const noexcept;
  Type parse_type();  // qualifiers + scalar/vector + optional '*'

  // Arena storage.
  template <typename T, typename... Args>
  T* make(Args&&... args);
  std::string_view copy_name(const std::string& text);

  // Declarations.
  FunctionDecl parse_function();
  const CompoundStmt* parse_compound();
  StmtPtr parse_statement();
  StmtPtr parse_declaration();  // after lookahead confirmed a type

  // Expressions (precedence climbing).
  ExprPtr parse_expression();   // assignment level
  ExprPtr parse_assignment();
  ExprPtr parse_conditional();
  ExprPtr parse_binary(int min_prec);
  ExprPtr parse_unary();
  ExprPtr parse_postfix();
  ExprPtr parse_primary();
  std::span<const ExprPtr> parse_arguments(const char* what);  // after '('

  std::span<const Token> tokens_;
  common::Arena& arena_;
  Token eof_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// Convenience: lex + parse a source string into a unit owning its arena.
[[nodiscard]] common::Result<TranslationUnit> parse_opencl(const std::string& source);

}  // namespace repro::clfront
