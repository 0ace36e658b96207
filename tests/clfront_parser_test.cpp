// Parser tests: declarations, statements, expressions, OpenCL qualifiers,
// vector literals and syntax-error reporting (golden messages included).
#include <gtest/gtest.h>

#include "clfront/parser.hpp"
#include "clfront/stream.hpp"

namespace rc = repro::clfront;

namespace {

rc::TranslationUnit parse_ok(const std::string& src) {
  auto unit = rc::parse_opencl(src);
  EXPECT_TRUE(unit.ok()) << (unit.ok() ? "" : unit.error().message);
  return unit.ok() ? std::move(unit).take() : rc::TranslationUnit{};
}

}  // namespace

TEST(ParserTest, MinimalKernel) {
  const auto unit = parse_ok("kernel void k(global float* a) { a[0] = 1.0f; }");
  ASSERT_EQ(unit.functions.size(), 1u);
  const auto& fn = unit.functions[0];
  EXPECT_TRUE(fn.is_kernel);
  EXPECT_EQ(fn.name, "k");
  ASSERT_EQ(fn.params.size(), 1u);
  EXPECT_TRUE(fn.params[0].type.is_pointer);
  EXPECT_EQ(fn.params[0].type.addr_space, rc::AddressSpace::kGlobal);
}

TEST(ParserTest, UnderscoreQualifiersAccepted) {
  const auto unit =
      parse_ok("__kernel void k(__global int* a, __local float* b, __constant int* c) {}");
  const auto& params = unit.functions[0].params;
  EXPECT_EQ(params[0].type.addr_space, rc::AddressSpace::kGlobal);
  EXPECT_EQ(params[1].type.addr_space, rc::AddressSpace::kLocal);
  EXPECT_EQ(params[2].type.addr_space, rc::AddressSpace::kConstant);
}

TEST(ParserTest, HelperFunctionIsNotKernel) {
  const auto unit = parse_ok("float f(float x) { return x * 2.0f; }");
  EXPECT_FALSE(unit.functions[0].is_kernel);
  EXPECT_EQ(unit.functions[0].return_type.scalar, rc::ScalarKind::kFloat);
}

TEST(ParserTest, FindKernelHelpers) {
  const auto unit = parse_ok(
      "float helper(float x) { return x; }\n"
      "kernel void main_k(global float* a) { a[0] = helper(1.0f); }");
  EXPECT_EQ(unit.first_kernel()->name, "main_k");
  EXPECT_NE(unit.find_kernel("main_k"), nullptr);
  EXPECT_EQ(unit.find_kernel("helper"), nullptr);  // not a kernel
}

TEST(ParserTest, VectorTypes) {
  const auto unit = parse_ok("kernel void k(global float4* v) { float4 x = v[0]; }");
  EXPECT_EQ(unit.functions[0].params[0].type.width, 4);
}

TEST(ParserTest, DeclarationsWithMultipleVariables) {
  const auto unit = parse_ok("kernel void k() { int a = 1, b = 2, c; }");
  const auto& body = unit.functions[0].body->body;
  ASSERT_EQ(body.size(), 1u);
  const auto& decl = body[0]->as<rc::DeclStmt>();
  ASSERT_EQ(decl.decls.size(), 3u);
  EXPECT_NE(decl.decls[0].init, nullptr);
  EXPECT_EQ(decl.decls[2].init, nullptr);
}

TEST(ParserTest, LocalArrayDeclaration) {
  const auto unit = parse_ok("kernel void k() { local float tile[256]; }");
  const auto& decl = unit.functions[0].body->body[0]->as<rc::DeclStmt>();
  EXPECT_EQ(decl.decls[0].array_size, 256u);
  EXPECT_EQ(decl.decls[0].type.addr_space, rc::AddressSpace::kLocal);
}

TEST(ParserTest, ControlFlowStatements) {
  const auto unit = parse_ok(R"(
kernel void k(global int* a, int n) {
  for (int i = 0; i < n; i++) {
    if (i > 2) { a[i] = i; } else { continue; }
    while (n > 0) { n = n - 1; break; }
    do { n = n + 1; } while (n < 5);
  }
  return;
})");
  ASSERT_EQ(unit.functions.size(), 1u);
  const auto& outer = unit.functions[0].body->body;
  EXPECT_EQ(outer[0]->kind, rc::StmtKind::kFor);
  EXPECT_EQ(outer[1]->kind, rc::StmtKind::kReturn);
}

TEST(ParserTest, OperatorPrecedence) {
  // a + b * c parses as a + (b * c).
  const auto unit = parse_ok("kernel void k(int a, int b, int c) { int r = a + b * c; }");
  const auto& decl = unit.functions[0].body->body[0]->as<rc::DeclStmt>();
  const auto& root = decl.decls[0].init->as<rc::BinaryExpr>();
  EXPECT_EQ(root.op, rc::BinaryOp::kAdd);
  EXPECT_EQ(root.rhs->as<rc::BinaryExpr>().op, rc::BinaryOp::kMul);
}

TEST(ParserTest, TernaryAndComparisons) {
  const auto unit = parse_ok("kernel void k(float x) { float y = x > 0.0f ? x : -x; }");
  const auto& decl = unit.functions[0].body->body[0]->as<rc::DeclStmt>();
  EXPECT_EQ(decl.decls[0].init->kind, rc::ExprKind::kConditional);
}

TEST(ParserTest, CompoundAssignments) {
  const auto unit = parse_ok("kernel void k(global float* a) { a[0] += 2.0f; }");
  const auto& stmt = unit.functions[0].body->body[0]->as<rc::ExprStmt>();
  const auto& assign = stmt.expr->as<rc::AssignExpr>();
  ASSERT_TRUE(assign.op.has_value());
  EXPECT_EQ(*assign.op, rc::BinaryOp::kAdd);
}

TEST(ParserTest, VectorLiteralCastSyntax) {
  const auto unit = parse_ok("kernel void k() { float4 v = (float4)(1.0f, 2.0f, 3.0f, 4.0f); }");
  const auto& decl = unit.functions[0].body->body[0]->as<rc::DeclStmt>();
  const auto& ctor = decl.decls[0].init->as<rc::VectorCtorExpr>();
  EXPECT_EQ(ctor.type.width, 4);
  EXPECT_EQ(ctor.args.size(), 4u);
}

TEST(ParserTest, FunctionStyleVectorConstructor) {
  const auto unit = parse_ok("kernel void k() { float2 v = float2(1.0f, 2.0f); }");
  const auto& decl = unit.functions[0].body->body[0]->as<rc::DeclStmt>();
  EXPECT_EQ(decl.decls[0].init->kind, rc::ExprKind::kVectorCtor);
}

TEST(ParserTest, ScalarCast) {
  const auto unit = parse_ok("kernel void k(int a) { float x = (float)a; }");
  const auto& decl = unit.functions[0].body->body[0]->as<rc::DeclStmt>();
  const auto& cast = decl.decls[0].init->as<rc::CastExpr>();
  EXPECT_EQ(cast.target.scalar, rc::ScalarKind::kFloat);
}

TEST(ParserTest, MemberSwizzle) {
  const auto unit = parse_ok("kernel void k(float4 v) { float x = v.x; float2 lo = v.lo; }");
  const auto& d0 = unit.functions[0].body->body[0]->as<rc::DeclStmt>();
  EXPECT_EQ(d0.decls[0].init->kind, rc::ExprKind::kMember);
}

TEST(ParserTest, CallsWithArguments) {
  const auto unit = parse_ok(
      "kernel void k(global float* a) { int i = get_global_id(0); a[i] = sin(a[i]); }");
  EXPECT_EQ(unit.functions.size(), 1u);
}

TEST(ParserTest, DumpAstContainsStructure) {
  const auto unit = parse_ok("kernel void k(int n) { if (n > 0) { n = n - 1; } }");
  const auto dump = rc::dump_ast(unit);
  EXPECT_NE(dump.find("kernel function k"), std::string::npos);
  EXPECT_NE(dump.find("if"), std::string::npos);
}

// --- error cases -----------------------------------------------------------------

TEST(ParserErrorTest, MissingSemicolon) {
  const auto result = rc::parse_opencl("kernel void k() { int a = 1 }");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("line 1"), std::string::npos);
}

TEST(ParserErrorTest, UnbalancedBrace) {
  EXPECT_FALSE(rc::parse_opencl("kernel void k() { if (1) {").ok());
}

TEST(ParserErrorTest, MissingParameterName) {
  EXPECT_FALSE(rc::parse_opencl("kernel void k(global float*) {}").ok());
}

TEST(ParserErrorTest, GarbageExpression) {
  EXPECT_FALSE(rc::parse_opencl("kernel void k() { int a = * ; }").ok());
}

TEST(ParserErrorTest, MissingWhileAfterDo) {
  EXPECT_FALSE(rc::parse_opencl("kernel void k() { do { } until (1); }").ok());
}

// --- type name parsing ---------------------------------------------------------------

TEST(TypeNameTest, ScalarAndVectorNames) {
  EXPECT_EQ(rc::parse_type_name("int")->scalar, rc::ScalarKind::kInt);
  EXPECT_EQ(rc::parse_type_name("float4")->width, 4);
  EXPECT_EQ(rc::parse_type_name("uchar16")->width, 16);
  EXPECT_EQ(rc::parse_type_name("size_t")->scalar, rc::ScalarKind::kULong);
  EXPECT_FALSE(rc::parse_type_name("float5").has_value());
  EXPECT_FALSE(rc::parse_type_name("banana").has_value());
}

TEST(TypeNameTest, PromotionRules) {
  const auto f = rc::Type::float_type();
  const auto i = rc::Type::int_type();
  EXPECT_TRUE(rc::promote(f, i).is_floating());
  EXPECT_EQ(rc::promote(f.with_width(4), i).width, 4);
  rc::Type d = f;
  d.scalar = rc::ScalarKind::kDouble;
  EXPECT_EQ(rc::promote(f, d).scalar, rc::ScalarKind::kDouble);
}

TEST(TypeNameTest, TypeToString) {
  rc::Type t = rc::Type::float_type().with_width(4).as_pointer(rc::AddressSpace::kGlobal);
  EXPECT_EQ(t.to_string(), "global float4*");
}

// --- golden error messages: the full text of every parser diagnostic ---------

TEST(ParserErrorTest, GoldenMessages) {
  // One source per expect() label, plus the other diagnostics; the whole
  // message is pinned, and the streamed path must say exactly the same.
  const struct Case {
    const char* source;
    const char* message;
  } cases[] = {
      {"kernel void 1() {}",
       "line 1:13: expected identifier (function name), got '1'"},
      {"kernel void k {}",
       "line 1:15: expected ( (parameter list), got '{'"},
      {"kernel void k(global float*) {}",
       "line 1:28: expected identifier (parameter name), got ')'"},
      {"kernel void k(int a; {}",
       "line 1:20: expected ) (end of parameter list), got ';'"},
      {"kernel void k() ;",
       "line 1:17: expected { (block), got ';'"},
      {"kernel void k() {",
       "line 1:18: expected } (end of block), got '<eof>'"},
      {"kernel void k() { if 1) {} }",
       "line 1:22: expected ( (if condition), got '1'"},
      {"kernel void k() { if (1 {} }",
       "line 1:25: expected ) (end of if condition), got '{'"},
      {"kernel void k() { for ;;) {} }",
       "line 1:23: expected ( (for header), got ';'"},
      {"kernel void k() { int i; for (i = 0 i < 4; i++) {} }",
       "line 1:37: expected ; (after for-init), got 'i'"},
      {"kernel void k() { for (int i = 0; i < 4 i++) {} }",
       "line 1:41: expected ; (after for-condition), got 'i'"},
      {"kernel void k() { for (int i = 0; i < 4; i++ {} }",
       "line 1:46: expected ) (end of for header), got '{'"},
      {"kernel void k() { while 1) {} }",
       "line 1:25: expected ( (while condition), got '1'"},
      {"kernel void k() { while (1 {} }",
       "line 1:28: expected ) (end of while condition), got '{'"},
      {"kernel void k() { do {} while 1); }",
       "line 1:31: expected ( (do-while condition), got '1'"},
      {"kernel void k() { do {} while (1; }",
       "line 1:33: expected ) (end of do-while condition), got ';'"},
      {"kernel void k() { do {} while (1) }",
       "line 1:35: expected ; (after do-while), got '}'"},
      {"kernel void k() { return 1 }",
       "line 1:28: expected ; (after return), got '}'"},
      {"kernel void k() { for (;;) { break } }",
       "line 1:36: expected ; (after break), got '}'"},
      {"kernel void k() { for (;;) { continue } }",
       "line 1:39: expected ; (after continue), got '}'"},
      {"kernel void k() { int a; a = 1 }",
       "line 1:32: expected ; (after expression statement), got '}'"},
      {"kernel void k() { int 1; }",
       "line 1:23: expected identifier (variable name), got '1'"},
      {"kernel void k() { int a[n]; }",
       "line 1:25: expected integer literal (array size), got 'n'"},
      {"kernel void k() { int a[4; }",
       "line 1:26: expected ] (end of array size), got ';'"},
      {"kernel void k() { int a = 1 }",
       "line 1:29: expected ; (after declaration), got '}'"},
      {"kernel void k() { int a = 1 ? 2 3; }",
       "line 1:33: expected : (conditional expression), got '3'"},
      {"kernel void k() { int a = (int 1; }",
       "line 1:32: expected ) (end of cast), got '1'"},
      {"kernel void k() { float4 a = (float4)(1, 2; }",
       "line 1:43: expected ) (end of vector literal), got ';'"},
      {"kernel void k(global int* x) { x[0 = 1; }",
       "line 1:39: expected ] (array subscript), got ';'"},
      {"kernel void k() { float4 v; v.( = 0; }",
       "line 1:31: expected identifier (member name), got '('"},
      {"kernel void k() { int a = (1; }",
       "line 1:29: expected ) (closing parenthesis), got ';'"},
      {"kernel void k() { float4 a = float4(1, 2; }",
       "line 1:41: expected ) (end of constructor), got ';'"},
      {"kernel void k() { int a = min(1, 2; }",
       "line 1:35: expected ) (end of call), got ';'"},
      {"kernel banana k() {}",
       "line 1:8: expected type name, got 'banana'"},
      {"kernel void k(global *p) {}",
       "line 1:22: expected type name"},
      {"kernel void k(global ) {}",
       "line 1:22: expected type name"},
      {"kernel void k() { do {} until (1); }",
       "line 1:25: expected 'while' after do-body"},
      {"kernel void k() { int a = * ; }",
       "line 1:27: expected expression, got '*'"},
      {"kernel void k() { int a = if; }",
       "line 1:27: expected expression, got 'if'"},
      {"kernel void k() { int a = b c; }",
       "line 1:29: expected ; (after declaration), got 'c'"},
  };
  for (const auto& c : cases) {
    const auto result = rc::parse_opencl(c.source);
    ASSERT_FALSE(result.ok()) << c.source;
    EXPECT_EQ(result.error().message, c.message);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
      const auto streamed = rc::extract_features_chunked(c.source, chunk);
      ASSERT_FALSE(streamed.ok()) << c.source;
      EXPECT_EQ(streamed.error().message, c.message) << "chunk=" << chunk;
    }
  }
}
