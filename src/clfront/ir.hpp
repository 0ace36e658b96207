// Three-address-style intermediate representation.
//
// The frontend lowers the AST to a linear instruction stream per function;
// the feature-extraction pass (the stand-in for the paper's LLVM pass) then
// counts instructions by class. Control flow is represented with labels and
// branches so the IR is a faithful, inspectable program form — but feature
// extraction is purely static: loop bodies count once, exactly like a static
// pass over LLVM IR.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "clfront/token.hpp"
#include "common/arena.hpp"
#include "common/status.hpp"

namespace repro::clfront {

enum class Opcode : std::uint8_t {
  // Feature-carrying instruction classes (paper §3.2).
  kIAdd,        // integer add/sub/compare
  kIMul,
  kIDiv,        // integer div/rem
  kIBitwise,    // and/or/xor/shifts/not
  kFAdd,        // float add/sub/compare/abs-like
  kFMul,
  kFDiv,
  kSpecialFn,   // transcendental / sqrt family
  kGlobalLoad,
  kGlobalStore,
  kLocalLoad,
  kLocalStore,
  // Neutral instructions (no feature contribution).
  kCast,
  kRuntime,     // work-item geometry queries
  kBarrier,
  kCall,        // user function call (callee name attached)
  kBr,
  kCondBr,
  kLabel,
  kRet,
};

[[nodiscard]] const char* opcode_name(Opcode op) noexcept;

/// The kinds of branch target lowering creates.
enum class LabelStem : std::uint8_t {
  kIfThen, kIfElse, kIfEnd,
  kForCond, kForBody, kForEnd,
  kWhileCond, kWhileBody, kWhileEnd,
  kDoBody, kDoCond, kDoEnd,
};

/// A branch target: its stem and a number unique within the function. It
/// prints as both run together ("while_cond3").
struct Label {
  LabelStem stem = LabelStem::kIfThen;
  std::uint32_t id = 0;
};

struct Instruction {
  Opcode op = Opcode::kIAdd;
  /// Vector width of the operation (a float4 add counts as 4 float adds).
  int width = 1;
  /// Callee of kCall and of builtin calls, empty otherwise: a view of the
  /// name storage of the AST the function was lowered from.
  std::string_view callee;
  /// kLabel and kBr: the label. kCondBr: the taken and the other target.
  Label target;
  Label other;
  SourceLoc loc;
};

struct IrFunction {
  std::string_view name;  // views the AST's name storage, like callees
  bool is_kernel = false;
  std::vector<Instruction> body;

  /// Number of instructions carrying a feature class, width-weighted.
  [[nodiscard]] double feature_instruction_count() const noexcept;
};

struct IrModule {
  /// The arena of the unit the module was lowered from, which the names
  /// of its functions and callees view; shared so the module may outlive
  /// the unit.
  std::shared_ptr<const common::Arena> names;
  std::vector<IrFunction> functions;

  [[nodiscard]] const IrFunction* find(std::string_view name) const noexcept {
    for (const auto& f : functions) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }
};

/// Sanity checks: labels referenced by branches exist, calls reference
/// functions of the module or known builtins are absent (already lowered),
/// widths positive.
[[nodiscard]] common::Status verify_ir(const IrModule& module);

/// Printable listing.
[[nodiscard]] std::string dump_ir(const IrModule& module);

}  // namespace repro::clfront
