// AST -> IR lowering with lightweight type inference.
//
// The lowering pass assigns every expression a type (OpenCL's usual
// arithmetic conversions), expands vector operations into width-weighted
// instructions, classifies memory accesses by address space, and maps the
// OpenCL builtin library onto the instruction classes of the paper's
// feature vector. Loop bodies are emitted once — the counts are static.
#pragma once

#include <memory>

#include "clfront/ast.hpp"
#include "clfront/ir.hpp"
#include "common/status.hpp"

namespace repro::clfront {

/// Lower a parsed translation unit to IR. Produces one IrFunction per
/// function declaration, whose names view the unit's arena (the module
/// shares it). Fails on undeclared identifiers, calls to unknown
/// functions, or unsupported constructs.
[[nodiscard]] common::Result<IrModule> lower_to_ir(const TranslationUnit& unit);

/// What the lowerer needs to know about a call target: its arity (argument
/// count check) and return type (usual-arithmetic-conversion input).
struct FunctionSignature {
  Type return_type;
  std::size_t num_params = 0;
};

class Lowerer;  // lower.cpp

/// Incremental lowering for the streaming featurizer (clfront/stream.hpp):
/// signatures accumulate as function definitions arrive, and each function
/// lowers independently against everything declared so far. lower_to_ir is
/// the one-shot equivalent — it declares every function of the unit first,
/// then lowers them in order through a session, so the two paths emit
/// identical IR.
///
/// A session keeps its buffers (the scope table, the instruction buffer)
/// from one lower() to the next, so a warmed-up session lowers a function
/// without allocating.
class LowerSession {
 public:
  LowerSession();
  ~LowerSession();
  LowerSession(LowerSession&&) noexcept;
  LowerSession& operator=(LowerSession&&) noexcept;

  /// Register `fn` as a call target for subsequently lowered bodies. A
  /// redefinition keeps the first signature, mirroring IrModule::find. The
  /// name is copied: `fn` need not outlive the call.
  void declare(const FunctionDecl& fn);

  /// Lower one function against the signatures declared so far. A call to a
  /// user function with no declared signature fails with kNotFound — the
  /// streaming featurizer defers those functions and retries once the whole
  /// stream (hence every signature) has been seen. The IR lives in the
  /// session's buffer until the next lower(), and views `fn`'s names.
  [[nodiscard]] common::Result<const IrFunction*> lower(const FunctionDecl& fn);

 private:
  std::unique_ptr<Lowerer> lowerer_;  // the signatures and every buffer
};

}  // namespace repro::clfront
