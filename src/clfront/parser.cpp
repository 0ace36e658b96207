#include "clfront/parser.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace repro::clfront {

namespace {

/// Collects a list of unknown length for an arena node: the first kInline
/// elements on the stack, then arena storage that doubles (the outgrown
/// copies are dead arena bytes until the reset). finish() returns the list
/// as a span of arena memory.
template <typename T, std::size_t kInline = 8>
class ListBuilder {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

 public:
  explicit ListBuilder(common::Arena& arena) : arena_(arena) {}
  ListBuilder(const ListBuilder&) = delete;
  ListBuilder& operator=(const ListBuilder&) = delete;

  void push_back(const T& value) {
    if (size_ == capacity_) move_to(2 * capacity_);
    data_[size_++] = value;
  }

  [[nodiscard]] std::span<const T> finish() {
    if (size_ == 0) return {};
    if (data_ == inline_.data()) move_to(size_);
    return {data_, size_};
  }

 private:
  void move_to(std::size_t capacity) {
    T* grown = static_cast<T*>(arena_.allocate(capacity * sizeof(T), alignof(T)));
    std::memcpy(static_cast<void*>(grown), data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = capacity;
  }

  common::Arena& arena_;
  std::array<T, kInline> inline_{};
  T* data_ = inline_.data();
  std::size_t size_ = 0;
  std::size_t capacity_ = kInline;
};

/// Binary operator precedence for the climbing parser (higher binds tighter).
struct OpInfo {
  BinaryOp op;
  int prec;
};

std::optional<OpInfo> binary_op_info(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPipePipe: return OpInfo{BinaryOp::kLogicalOr, 1};
    case TokenKind::kAmpAmp: return OpInfo{BinaryOp::kLogicalAnd, 2};
    case TokenKind::kPipe: return OpInfo{BinaryOp::kBitOr, 3};
    case TokenKind::kCaret: return OpInfo{BinaryOp::kBitXor, 4};
    case TokenKind::kAmp: return OpInfo{BinaryOp::kBitAnd, 5};
    case TokenKind::kEq: return OpInfo{BinaryOp::kEq, 6};
    case TokenKind::kNe: return OpInfo{BinaryOp::kNe, 6};
    case TokenKind::kLt: return OpInfo{BinaryOp::kLt, 7};
    case TokenKind::kGt: return OpInfo{BinaryOp::kGt, 7};
    case TokenKind::kLe: return OpInfo{BinaryOp::kLe, 7};
    case TokenKind::kGe: return OpInfo{BinaryOp::kGe, 7};
    case TokenKind::kShl: return OpInfo{BinaryOp::kShl, 8};
    case TokenKind::kShr: return OpInfo{BinaryOp::kShr, 8};
    case TokenKind::kPlus: return OpInfo{BinaryOp::kAdd, 9};
    case TokenKind::kMinus: return OpInfo{BinaryOp::kSub, 9};
    case TokenKind::kStar: return OpInfo{BinaryOp::kMul, 10};
    case TokenKind::kSlash: return OpInfo{BinaryOp::kDiv, 10};
    case TokenKind::kPercent: return OpInfo{BinaryOp::kRem, 10};
    default: return std::nullopt;
  }
}

std::optional<BinaryOp> compound_assign_op(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPlusAssign: return BinaryOp::kAdd;
    case TokenKind::kMinusAssign: return BinaryOp::kSub;
    case TokenKind::kStarAssign: return BinaryOp::kMul;
    case TokenKind::kSlashAssign: return BinaryOp::kDiv;
    case TokenKind::kPercentAssign: return BinaryOp::kRem;
    case TokenKind::kAmpAssign: return BinaryOp::kBitAnd;
    case TokenKind::kPipeAssign: return BinaryOp::kBitOr;
    case TokenKind::kCaretAssign: return BinaryOp::kBitXor;
    case TokenKind::kShlAssign: return BinaryOp::kShl;
    case TokenKind::kShrAssign: return BinaryOp::kShr;
    default: return std::nullopt;
  }
}

bool is_address_space_kw(Keyword kw, AddressSpace* out) {
  switch (kw) {
    case Keyword::kGlobal: *out = AddressSpace::kGlobal; return true;
    case Keyword::kLocal: *out = AddressSpace::kLocal; return true;
    case Keyword::kConstant: *out = AddressSpace::kConstant; return true;
    case Keyword::kPrivate: *out = AddressSpace::kPrivate; return true;
    default: return false;
  }
}

bool is_qualifier_kw(Keyword kw) {
  AddressSpace dummy;
  return is_address_space_kw(kw, &dummy) || kw == Keyword::kConst ||
         kw == Keyword::kRestrict || kw == Keyword::kVolatile ||
         kw == Keyword::kUnsigned || kw == Keyword::kSigned;
}

}  // namespace

template <typename T, typename... Args>
T* Parser::make(Args&&... args) {
  static_assert(std::is_trivially_destructible_v<T>);
  return new (arena_.allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
}

std::string_view Parser::copy_name(const std::string& text) {
  char* bytes = static_cast<char*>(arena_.allocate(text.size(), 1));
  std::memcpy(bytes, text.data(), text.size());
  return {bytes, text.size()};
}

const Token& Parser::peek(std::size_t ahead) const noexcept {
  const std::size_t idx = pos_ + ahead;
  return idx < tokens_.size() ? tokens_[idx] : eof_;
}

const Token& Parser::advance() noexcept {
  const Token& t = peek();
  if (pos_ < tokens_.size()) ++pos_;
  return t;
}

bool Parser::check(TokenKind kind) const noexcept { return peek().kind == kind; }

bool Parser::check_keyword(Keyword kw) const noexcept { return peek().keyword == kw; }

bool Parser::match(TokenKind kind) noexcept {
  if (!check(kind)) return false;
  advance();
  return true;
}

bool Parser::match_keyword(Keyword kw) noexcept {
  if (!check_keyword(kw)) return false;
  advance();
  return true;
}

const Token& Parser::expect(TokenKind kind, const char* what) {
  if (!check(kind)) {
    fail("expected " + std::string(token_kind_name(kind)) + " (" + what + "), got '" +
         (peek().text.empty() ? token_kind_name(peek().kind) : peek().text) + "'");
  }
  return advance();
}

void Parser::fail(const std::string& msg) const {
  const SourceLoc loc = peek().loc;
  throw ParseError{common::parse_error("line " + std::to_string(loc.line) + ":" +
                                       std::to_string(loc.column) + ": " + msg)};
}

Parser::DepthGuard::DepthGuard(Parser& parser) : parser_(parser) {
  if (parser_.depth_ >= kMaxNestingDepth) {
    parser_.fail("nesting exceeds the depth budget of " +
                 std::to_string(kMaxNestingDepth));
  }
  ++parser_.depth_;
}

bool Parser::looks_like_type_start(std::size_t ahead) const noexcept {
  // Only identifier and keyword tokens carry a keyword id or a type.
  const Token& t = peek(ahead);
  return is_qualifier_kw(t.keyword) || t.type.has_value();
}

Type Parser::parse_type() {
  AddressSpace space = AddressSpace::kPrivate;
  bool saw_unsigned = false;
  // Leading qualifiers in any order.
  while (is_qualifier_kw(peek().keyword)) {
    AddressSpace s;
    if (is_address_space_kw(peek().keyword, &s)) space = s;
    if (peek().keyword == Keyword::kUnsigned) saw_unsigned = true;
    advance();
  }

  Type type = Type::int_type();
  if (peek().kind == TokenKind::kKeyword || peek().kind == TokenKind::kIdentifier) {
    if (const auto& parsed = peek().type) {
      type = *parsed;
      advance();
    } else if (saw_unsigned) {
      type = Type::uint_type();  // bare "unsigned"
    } else {
      fail("expected type name, got '" + peek().text + "'");
    }
  } else if (saw_unsigned) {
    type = Type::uint_type();
  } else {
    fail("expected type name");
  }
  if (saw_unsigned && type.scalar == ScalarKind::kInt) type.scalar = ScalarKind::kUInt;
  // Record the address space on the base type as well: array declarations
  // like `__local float tile[256]` need it even without a pointer declarator.
  type.addr_space = space;

  // Trailing qualifiers between type and declarator (e.g. "float const *").
  while (is_qualifier_kw(peek().keyword)) advance();

  if (match(TokenKind::kStar)) {
    type = type.as_pointer(space);
    // "* restrict" / "* const"
    while (is_qualifier_kw(peek().keyword)) advance();
  }
  return type;
}

common::Result<std::span<const FunctionDecl>> Parser::parse_functions() {
  try {
    ListBuilder<FunctionDecl, 2> functions(arena_);
    while (!check(TokenKind::kEof)) functions.push_back(parse_function());
    return functions.finish();
  } catch (ParseError& e) {
    return std::move(e.error);
  }
}

FunctionDecl Parser::parse_function() {
  FunctionDecl fn;
  fn.loc = peek().loc;
  while (check_keyword(Keyword::kKernel)) {
    fn.is_kernel = true;
    advance();
  }
  fn.return_type = parse_type();
  fn.name = copy_name(expect(TokenKind::kIdentifier, "function name").text);
  expect(TokenKind::kLParen, "parameter list");
  ListBuilder<ParamDecl> params(arena_);
  if (!check(TokenKind::kRParen)) {
    do {
      ParamDecl param;
      param.type = parse_type();
      param.name = copy_name(expect(TokenKind::kIdentifier, "parameter name").text);
      params.push_back(param);
    } while (match(TokenKind::kComma));
  }
  expect(TokenKind::kRParen, "end of parameter list");
  fn.params = params.finish();
  fn.body = parse_compound();
  return fn;
}

const CompoundStmt* Parser::parse_compound() {
  const SourceLoc loc = peek().loc;
  expect(TokenKind::kLBrace, "block");
  ListBuilder<StmtPtr> body(arena_);
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    body.push_back(parse_statement());
  }
  expect(TokenKind::kRBrace, "end of block");
  return make<CompoundStmt>(body.finish(), loc);
}

StmtPtr Parser::parse_statement() {
  const DepthGuard depth(*this);
  const SourceLoc loc = peek().loc;
  if (check(TokenKind::kLBrace)) return parse_compound();
  if (match_keyword(Keyword::kIf)) {
    expect(TokenKind::kLParen, "if condition");
    auto cond = parse_expression();
    expect(TokenKind::kRParen, "end of if condition");
    auto then_s = parse_statement();
    StmtPtr else_s = nullptr;
    if (match_keyword(Keyword::kElse)) else_s = parse_statement();
    return make<IfStmt>(cond, then_s, else_s, loc);
  }
  if (match_keyword(Keyword::kFor)) {
    expect(TokenKind::kLParen, "for header");
    StmtPtr init = nullptr;
    if (!check(TokenKind::kSemicolon)) {
      if (looks_like_type_start()) {
        init = parse_declaration();  // consumes ';'
      } else {
        init = make<ExprStmt>(parse_expression(), loc);
        expect(TokenKind::kSemicolon, "after for-init");
      }
    } else {
      advance();
    }
    ExprPtr cond = nullptr;
    if (!check(TokenKind::kSemicolon)) cond = parse_expression();
    expect(TokenKind::kSemicolon, "after for-condition");
    ExprPtr step = nullptr;
    if (!check(TokenKind::kRParen)) step = parse_expression();
    expect(TokenKind::kRParen, "end of for header");
    return make<ForStmt>(init, cond, step, parse_statement(), loc);
  }
  if (match_keyword(Keyword::kWhile)) {
    expect(TokenKind::kLParen, "while condition");
    auto cond = parse_expression();
    expect(TokenKind::kRParen, "end of while condition");
    auto body = parse_statement();
    return make<WhileStmt>(cond, body, loc);
  }
  if (match_keyword(Keyword::kDo)) {
    auto body = parse_statement();
    if (!match_keyword(Keyword::kWhile)) fail("expected 'while' after do-body");
    expect(TokenKind::kLParen, "do-while condition");
    auto cond = parse_expression();
    expect(TokenKind::kRParen, "end of do-while condition");
    expect(TokenKind::kSemicolon, "after do-while");
    return make<DoWhileStmt>(body, cond, loc);
  }
  if (match_keyword(Keyword::kReturn)) {
    ExprPtr value = nullptr;
    if (!check(TokenKind::kSemicolon)) value = parse_expression();
    expect(TokenKind::kSemicolon, "after return");
    return make<ReturnStmt>(value, loc);
  }
  if (match_keyword(Keyword::kBreak)) {
    expect(TokenKind::kSemicolon, "after break");
    return make<BreakStmt>(loc);
  }
  if (match_keyword(Keyword::kContinue)) {
    expect(TokenKind::kSemicolon, "after continue");
    return make<ContinueStmt>(loc);
  }
  if (looks_like_type_start()) return parse_declaration();

  auto expr = parse_expression();
  expect(TokenKind::kSemicolon, "after expression statement");
  return make<ExprStmt>(expr, loc);
}

StmtPtr Parser::parse_declaration() {
  const SourceLoc loc = peek().loc;
  ListBuilder<VarDecl, 4> decls(arena_);
  const Type base = parse_type();
  do {
    VarDecl decl;
    decl.type = base;
    if (match(TokenKind::kStar)) decl.type = base.as_pointer(base.addr_space);
    decl.name = copy_name(expect(TokenKind::kIdentifier, "variable name").text);
    if (match(TokenKind::kLBracket)) {
      const Token& size = expect(TokenKind::kIntLiteral, "array size");
      decl.array_size = size.int_value;
      expect(TokenKind::kRBracket, "end of array size");
    }
    if (match(TokenKind::kAssign)) decl.init = parse_assignment();
    decls.push_back(decl);
  } while (match(TokenKind::kComma));
  expect(TokenKind::kSemicolon, "after declaration");
  return make<DeclStmt>(decls.finish(), loc);
}

ExprPtr Parser::parse_expression() { return parse_assignment(); }

ExprPtr Parser::parse_assignment() {
  const SourceLoc loc = peek().loc;
  auto lhs = parse_conditional();
  if (match(TokenKind::kAssign)) {
    auto rhs = parse_assignment();
    return make<AssignExpr>(lhs, rhs, std::nullopt, loc);
  }
  if (auto op = compound_assign_op(peek().kind)) {
    advance();
    auto rhs = parse_assignment();
    return make<AssignExpr>(lhs, rhs, op, loc);
  }
  return lhs;
}

ExprPtr Parser::parse_conditional() {
  const SourceLoc loc = peek().loc;
  auto cond = parse_binary(1);
  if (match(TokenKind::kQuestion)) {
    auto then_e = parse_assignment();
    expect(TokenKind::kColon, "conditional expression");
    auto else_e = parse_assignment();
    return make<ConditionalExpr>(cond, then_e, else_e, loc);
  }
  return cond;
}

ExprPtr Parser::parse_binary(int min_prec) {
  auto lhs = parse_unary();
  while (true) {
    const auto info = binary_op_info(peek().kind);
    if (!info || info->prec < min_prec) return lhs;
    const SourceLoc loc = peek().loc;
    advance();
    auto rhs = parse_binary(info->prec + 1);
    lhs = make<BinaryExpr>(info->op, lhs, rhs, loc);
  }
}

ExprPtr Parser::parse_unary() {
  // Every expression-level recursion cycle (parenthesized primaries, casts,
  // unary chains, nested subscripts/calls/ternaries) passes through here, so
  // one guard bounds them all; parse_statement bounds the statement cycles.
  const DepthGuard depth(*this);
  const SourceLoc loc = peek().loc;
  if (match(TokenKind::kMinus)) {
    return make<UnaryExpr>(UnaryOp::kNegate, parse_unary(), loc);
  }
  if (match(TokenKind::kPlus)) return parse_unary();
  if (match(TokenKind::kBang)) {
    return make<UnaryExpr>(UnaryOp::kNot, parse_unary(), loc);
  }
  if (match(TokenKind::kTilde)) {
    return make<UnaryExpr>(UnaryOp::kBitNot, parse_unary(), loc);
  }
  if (match(TokenKind::kPlusPlus)) {
    return make<UnaryExpr>(UnaryOp::kPreInc, parse_unary(), loc);
  }
  if (match(TokenKind::kMinusMinus)) {
    return make<UnaryExpr>(UnaryOp::kPreDec, parse_unary(), loc);
  }
  // Cast or vector literal: '(' type ')' expr | '(' typeN ')' '(' args ')'.
  if (check(TokenKind::kLParen) && looks_like_type_start(1)) {
    advance();  // '('
    const Type target = parse_type();
    expect(TokenKind::kRParen, "end of cast");
    if (target.is_vector() && check(TokenKind::kLParen)) {
      // OpenCL vector literal (float4)(a, b, c, d).
      advance();
      return make<VectorCtorExpr>(target, parse_arguments("end of vector literal"), loc);
    }
    return make<CastExpr>(target, parse_unary(), loc);
  }
  return parse_postfix();
}

ExprPtr Parser::parse_postfix() {
  auto expr = parse_primary();
  while (true) {
    const SourceLoc loc = peek().loc;
    if (match(TokenKind::kLBracket)) {
      auto index = parse_expression();
      expect(TokenKind::kRBracket, "array subscript");
      expr = make<IndexExpr>(expr, index, loc);
    } else if (match(TokenKind::kDot)) {
      const Token& member = expect(TokenKind::kIdentifier, "member name");
      expr = make<MemberExpr>(expr, copy_name(member.text), loc);
    } else if (match(TokenKind::kPlusPlus)) {
      expr = make<UnaryExpr>(UnaryOp::kPostInc, expr, loc);
    } else if (match(TokenKind::kMinusMinus)) {
      expr = make<UnaryExpr>(UnaryOp::kPostDec, expr, loc);
    } else {
      return expr;
    }
  }
}

ExprPtr Parser::parse_primary() {
  const SourceLoc loc = peek().loc;
  if (check(TokenKind::kIntLiteral)) {
    const Token& t = advance();
    return make<IntLiteralExpr>(t.int_value, t.is_unsigned, loc);
  }
  if (check(TokenKind::kFloatLiteral)) {
    const Token& t = advance();
    return make<FloatLiteralExpr>(t.float_value, t.is_float32, loc);
  }
  if (match(TokenKind::kLParen)) {
    auto inner = parse_expression();
    expect(TokenKind::kRParen, "closing parenthesis");
    return inner;
  }
  if (check(TokenKind::kIdentifier) || check(TokenKind::kKeyword)) {
    // Function-style vector constructor: float4(a, b, c, d).
    if (const auto& type = peek().type;
        type && type->is_vector() && peek(1).kind == TokenKind::kLParen) {
      const Type ctor_type = *type;
      advance();
      advance();
      return make<VectorCtorExpr>(ctor_type, parse_arguments("end of constructor"), loc);
    }
    if (check(TokenKind::kIdentifier)) {
      const std::string_view name = copy_name(advance().text);
      if (match(TokenKind::kLParen)) {
        return make<CallExpr>(name, parse_arguments("end of call"), loc);
      }
      return make<VarRefExpr>(name, loc);
    }
  }
  fail("expected expression, got '" +
       (peek().text.empty() ? token_kind_name(peek().kind) : peek().text) + "'");
}

std::span<const ExprPtr> Parser::parse_arguments(const char* what) {
  ListBuilder<ExprPtr> args(arena_);
  if (!check(TokenKind::kRParen)) {
    do {
      args.push_back(parse_assignment());
    } while (match(TokenKind::kComma));
  }
  expect(TokenKind::kRParen, what);
  return args.finish();
}

common::Result<TranslationUnit> parse_opencl(const std::string& source) {
  Lexer lexer(source);
  auto tokens = lexer.tokenize();
  if (!tokens.ok()) return tokens.error();
  const std::span<const Token> all(tokens.value());
  TranslationUnit unit;
  unit.arena = std::make_shared<common::Arena>();
  Parser parser(all.first(all.size() - 1), all.back().loc, *unit.arena);  // kEof ends it
  auto functions = parser.parse_functions();
  if (!functions.ok()) return functions.error();
  unit.functions = functions.value();
  return unit;
}

}  // namespace repro::clfront
