#include "clfront/ir.hpp"

#include <set>
#include <sstream>

namespace repro::clfront {

const char* opcode_name(Opcode op) noexcept {
  switch (op) {
    case Opcode::kIAdd: return "iadd";
    case Opcode::kIMul: return "imul";
    case Opcode::kIDiv: return "idiv";
    case Opcode::kIBitwise: return "ibw";
    case Opcode::kFAdd: return "fadd";
    case Opcode::kFMul: return "fmul";
    case Opcode::kFDiv: return "fdiv";
    case Opcode::kSpecialFn: return "sf";
    case Opcode::kGlobalLoad: return "gload";
    case Opcode::kGlobalStore: return "gstore";
    case Opcode::kLocalLoad: return "lload";
    case Opcode::kLocalStore: return "lstore";
    case Opcode::kCast: return "cast";
    case Opcode::kRuntime: return "runtime";
    case Opcode::kBarrier: return "barrier";
    case Opcode::kCall: return "call";
    case Opcode::kBr: return "br";
    case Opcode::kCondBr: return "condbr";
    case Opcode::kLabel: return "label";
    case Opcode::kRet: return "ret";
  }
  return "?";
}

namespace {

std::string label_name(Label label) {
  static constexpr const char* kStems[] = {
      "if_then",   "if_else",    "if_end",    "for_cond", "for_body", "for_end",
      "while_cond", "while_body", "while_end", "do_body",  "do_cond",  "do_end",
  };
  return kStems[static_cast<std::size_t>(label.stem)] + std::to_string(label.id);
}

bool is_feature_opcode(Opcode op) noexcept {
  switch (op) {
    case Opcode::kIAdd:
    case Opcode::kIMul:
    case Opcode::kIDiv:
    case Opcode::kIBitwise:
    case Opcode::kFAdd:
    case Opcode::kFMul:
    case Opcode::kFDiv:
    case Opcode::kSpecialFn:
    case Opcode::kGlobalLoad:
    case Opcode::kGlobalStore:
    case Opcode::kLocalLoad:
    case Opcode::kLocalStore:
      return true;
    default:
      return false;
  }
}

}  // namespace

double IrFunction::feature_instruction_count() const noexcept {
  double acc = 0.0;
  for (const auto& inst : body) {
    if (is_feature_opcode(inst.op)) acc += static_cast<double>(inst.width);
  }
  return acc;
}

common::Status verify_ir(const IrModule& module) {
  for (const auto& fn : module.functions) {
    const std::string fn_name(fn.name);
    std::set<std::pair<LabelStem, std::uint32_t>> labels;
    for (const auto& inst : fn.body) {
      if (inst.width <= 0) {
        return common::internal_error("ir verify: non-positive width in " + fn_name);
      }
      if (inst.op == Opcode::kLabel) labels.emplace(inst.target.stem, inst.target.id);
    }
    const auto check_target = [&](Label label) {
      if (labels.count({label.stem, label.id}) != 0) return common::Status::Ok();
      return common::Status(common::internal_error(
          "ir verify: branch to unknown label '" + label_name(label) + "' in " + fn_name));
    };
    for (const auto& inst : fn.body) {
      if (inst.op == Opcode::kBr || inst.op == Opcode::kCondBr) {
        if (auto st = check_target(inst.target); !st.ok()) return st;
      }
      if (inst.op == Opcode::kCondBr) {
        if (auto st = check_target(inst.other); !st.ok()) return st;
      }
      if (inst.op == Opcode::kCall && module.find(inst.callee) == nullptr) {
        return common::internal_error("ir verify: call to unknown function '" +
                                      std::string(inst.callee) + "' in " + fn_name);
      }
    }
  }
  return common::Status::Ok();
}

std::string dump_ir(const IrModule& module) {
  std::ostringstream oss;
  for (const auto& fn : module.functions) {
    oss << (fn.is_kernel ? "kernel " : "") << "func @" << fn.name << " {\n";
    for (const auto& inst : fn.body) {
      if (inst.op == Opcode::kLabel) {
        oss << label_name(inst.target) << ":\n";
        continue;
      }
      oss << "  " << opcode_name(inst.op);
      if (inst.width > 1) oss << " x" << inst.width;
      if (inst.op == Opcode::kBr) {
        oss << " @" << label_name(inst.target);
      } else if (inst.op == Opcode::kCondBr) {
        oss << " @" << label_name(inst.target) << ',' << label_name(inst.other);
      } else if (!inst.callee.empty()) {
        oss << " @" << inst.callee;
      }
      oss << '\n';
    }
    oss << "}\n";
  }
  return oss.str();
}

}  // namespace repro::clfront
