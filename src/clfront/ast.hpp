// Abstract syntax tree of the OpenCL-C subset.
//
// Nodes are tagged with a kind enum and down-cast with the as<T>() helpers.
// Every node, child list and name lives in a common::Arena: the parser
// allocates them there, a node owns nothing (children are plain pointers,
// lists are spans, names are views), and no node is ever destroyed — the
// whole tree dies when its arena is reset or freed. A TranslationUnit from
// parse_opencl owns its arena; the streaming featurizer parses each
// function into an arena it resets once the function is summarized.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "clfront/token.hpp"
#include "clfront/types.hpp"
#include "common/arena.hpp"

namespace repro::clfront {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : std::uint8_t {
  kIntLiteral,
  kFloatLiteral,
  kVarRef,
  kUnary,
  kBinary,
  kAssign,
  kConditional,
  kCall,
  kIndex,
  kMember,     // vector component access / swizzle
  kCast,
  kVectorCtor, // (float4)(a,b,c,d) or float4(a,b,c,d)
};

struct Expr {
  explicit Expr(ExprKind kind, SourceLoc loc) : kind(kind), loc(loc) {}
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  template <typename T>
  [[nodiscard]] const T& as() const {
    return static_cast<const T&>(*this);
  }

  ExprKind kind;
  SourceLoc loc;
};

using ExprPtr = const Expr*;

struct IntLiteralExpr final : Expr {
  IntLiteralExpr(std::uint64_t value, bool is_unsigned, SourceLoc loc)
      : Expr(ExprKind::kIntLiteral, loc), value(value), is_unsigned(is_unsigned) {}
  std::uint64_t value;
  bool is_unsigned;
};

struct FloatLiteralExpr final : Expr {
  FloatLiteralExpr(double value, bool is_float32, SourceLoc loc)
      : Expr(ExprKind::kFloatLiteral, loc), value(value), is_float32(is_float32) {}
  double value;
  bool is_float32;
};

struct VarRefExpr final : Expr {
  VarRefExpr(std::string_view name, SourceLoc loc) : Expr(ExprKind::kVarRef, loc), name(name) {}
  std::string_view name;
};

enum class UnaryOp : std::uint8_t {
  kNegate,   // -x
  kNot,      // !x
  kBitNot,   // ~x
  kPreInc, kPreDec, kPostInc, kPostDec,
};

struct UnaryExpr final : Expr {
  UnaryExpr(UnaryOp op, ExprPtr operand, SourceLoc loc)
      : Expr(ExprKind::kUnary, loc), op(op), operand(operand) {}
  UnaryOp op;
  ExprPtr operand;
};

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kRem,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  kLogicalAnd, kLogicalOr,
  kEq, kNe, kLt, kGt, kLe, kGe,
};

struct BinaryExpr final : Expr {
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc)
      : Expr(ExprKind::kBinary, loc), op(op), lhs(lhs), rhs(rhs) {}
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

/// Assignment, optionally compound (op != nullopt means `lhs op= rhs`).
struct AssignExpr final : Expr {
  AssignExpr(ExprPtr lhs, ExprPtr rhs, std::optional<BinaryOp> op, SourceLoc loc)
      : Expr(ExprKind::kAssign, loc), lhs(lhs), rhs(rhs), op(op) {}
  ExprPtr lhs;
  ExprPtr rhs;
  std::optional<BinaryOp> op;
};

struct ConditionalExpr final : Expr {
  ConditionalExpr(ExprPtr cond, ExprPtr then_e, ExprPtr else_e, SourceLoc loc)
      : Expr(ExprKind::kConditional, loc),
        cond(cond),
        then_expr(then_e),
        else_expr(else_e) {}
  ExprPtr cond;
  ExprPtr then_expr;
  ExprPtr else_expr;
};

struct CallExpr final : Expr {
  CallExpr(std::string_view callee, std::span<const ExprPtr> args, SourceLoc loc)
      : Expr(ExprKind::kCall, loc), callee(callee), args(args) {}
  std::string_view callee;
  std::span<const ExprPtr> args;
};

struct IndexExpr final : Expr {
  IndexExpr(ExprPtr base, ExprPtr index, SourceLoc loc)
      : Expr(ExprKind::kIndex, loc), base(base), index(index) {}
  ExprPtr base;
  ExprPtr index;
};

struct MemberExpr final : Expr {
  MemberExpr(ExprPtr base, std::string_view member, SourceLoc loc)
      : Expr(ExprKind::kMember, loc), base(base), member(member) {}
  ExprPtr base;
  std::string_view member;  // "x", "y", "s0", "xyzw", ...
};

struct CastExpr final : Expr {
  CastExpr(Type target, ExprPtr operand, SourceLoc loc)
      : Expr(ExprKind::kCast, loc), target(target), operand(operand) {}
  Type target;
  ExprPtr operand;
};

struct VectorCtorExpr final : Expr {
  VectorCtorExpr(Type type, std::span<const ExprPtr> args, SourceLoc loc)
      : Expr(ExprKind::kVectorCtor, loc), type(type), args(args) {}
  Type type;
  std::span<const ExprPtr> args;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : std::uint8_t {
  kCompound,
  kDecl,
  kExpr,
  kIf,
  kFor,
  kWhile,
  kDoWhile,
  kReturn,
  kBreak,
  kContinue,
};

struct Stmt {
  explicit Stmt(StmtKind kind, SourceLoc loc) : kind(kind), loc(loc) {}
  Stmt(const Stmt&) = delete;
  Stmt& operator=(const Stmt&) = delete;

  template <typename T>
  [[nodiscard]] const T& as() const {
    return static_cast<const T&>(*this);
  }

  StmtKind kind;
  SourceLoc loc;
};

using StmtPtr = const Stmt*;

struct CompoundStmt final : Stmt {
  CompoundStmt(std::span<const StmtPtr> body, SourceLoc loc)
      : Stmt(StmtKind::kCompound, loc), body(body) {}
  std::span<const StmtPtr> body;
};

/// One declared variable; a DeclStmt may declare several.
struct VarDecl {
  std::string_view name;
  Type type;
  ExprPtr init = nullptr;
  /// Array size for local arrays like `__local float tile[256];` (0 = scalar).
  std::uint64_t array_size = 0;
};

struct DeclStmt final : Stmt {
  DeclStmt(std::span<const VarDecl> decls, SourceLoc loc)
      : Stmt(StmtKind::kDecl, loc), decls(decls) {}
  std::span<const VarDecl> decls;
};

struct ExprStmt final : Stmt {
  ExprStmt(ExprPtr expr, SourceLoc loc) : Stmt(StmtKind::kExpr, loc), expr(expr) {}
  ExprPtr expr;
};

struct IfStmt final : Stmt {
  IfStmt(ExprPtr cond, StmtPtr then_s, StmtPtr else_s, SourceLoc loc)
      : Stmt(StmtKind::kIf, loc),
        cond(cond),
        then_stmt(then_s),
        else_stmt(else_s) {}
  ExprPtr cond;
  StmtPtr then_stmt;
  StmtPtr else_stmt;  // may be null
};

struct ForStmt final : Stmt {
  ForStmt(StmtPtr init, ExprPtr cond, ExprPtr step, StmtPtr body, SourceLoc loc)
      : Stmt(StmtKind::kFor, loc), init(init), cond(cond), step(step), body(body) {}
  StmtPtr init;    // DeclStmt or ExprStmt or null
  ExprPtr cond;    // may be null
  ExprPtr step;    // may be null
  StmtPtr body;
};

struct WhileStmt final : Stmt {
  WhileStmt(ExprPtr cond, StmtPtr body, SourceLoc loc)
      : Stmt(StmtKind::kWhile, loc), cond(cond), body(body) {}
  ExprPtr cond;
  StmtPtr body;
};

struct DoWhileStmt final : Stmt {
  DoWhileStmt(StmtPtr body, ExprPtr cond, SourceLoc loc)
      : Stmt(StmtKind::kDoWhile, loc), body(body), cond(cond) {}
  StmtPtr body;
  ExprPtr cond;
};

struct ReturnStmt final : Stmt {
  ReturnStmt(ExprPtr value, SourceLoc loc)
      : Stmt(StmtKind::kReturn, loc), value(value) {}
  ExprPtr value;  // may be null
};

struct BreakStmt final : Stmt {
  explicit BreakStmt(SourceLoc loc) : Stmt(StmtKind::kBreak, loc) {}
};

struct ContinueStmt final : Stmt {
  explicit ContinueStmt(SourceLoc loc) : Stmt(StmtKind::kContinue, loc) {}
};

// ---------------------------------------------------------------------------
// Functions / translation unit
// ---------------------------------------------------------------------------

struct ParamDecl {
  std::string_view name;
  Type type;
};

struct FunctionDecl {
  std::string_view name;
  Type return_type;
  std::span<const ParamDecl> params;
  const CompoundStmt* body = nullptr;
  bool is_kernel = false;
  SourceLoc loc;
};

/// Everything above is arena storage and is never destroyed.
static_assert(std::is_trivially_destructible_v<ForStmt> &&
              std::is_trivially_destructible_v<CallExpr> &&
              std::is_trivially_destructible_v<VarDecl> &&
              std::is_trivially_destructible_v<FunctionDecl>);

/// A parsed source: its functions and the arena that holds them (shared,
/// so IR lowered from the unit can keep the names it views alive).
struct TranslationUnit {
  std::shared_ptr<common::Arena> arena;
  std::span<const FunctionDecl> functions;

  [[nodiscard]] const FunctionDecl* find_kernel(std::string_view name) const noexcept {
    for (const auto& f : functions) {
      if (f.is_kernel && f.name == name) return &f;
    }
    return nullptr;
  }
  [[nodiscard]] const FunctionDecl* first_kernel() const noexcept {
    for (const auto& f : functions) {
      if (f.is_kernel) return &f;
    }
    return nullptr;
  }
};

/// Human-readable dump (for tests and debugging).
[[nodiscard]] std::string dump_ast(const TranslationUnit& unit);

}  // namespace repro::clfront
