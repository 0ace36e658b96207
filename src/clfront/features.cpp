#include "clfront/features.hpp"

#include <algorithm>
#include <sstream>

#include "clfront/lower.hpp"
#include "clfront/parser.hpp"

namespace repro::clfront {

const char* feature_name(FeatureIndex i) noexcept {
  switch (i) {
    case FeatureIndex::kIntAdd: return "int_add";
    case FeatureIndex::kIntMul: return "int_mul";
    case FeatureIndex::kIntDiv: return "int_div";
    case FeatureIndex::kIntBw: return "int_bw";
    case FeatureIndex::kFloatAdd: return "float_add";
    case FeatureIndex::kFloatMul: return "float_mul";
    case FeatureIndex::kFloatDiv: return "float_div";
    case FeatureIndex::kSf: return "sf";
    case FeatureIndex::kGlAccess: return "gl_access";
    case FeatureIndex::kLocAccess: return "loc_access";
  }
  return "?";
}

double StaticFeatures::total() const noexcept {
  double acc = 0.0;
  for (double c : counts) acc += c;
  return acc;
}

std::array<double, kNumFeatures> StaticFeatures::normalized() const noexcept {
  std::array<double, kNumFeatures> out{};
  const double t = total();
  if (t <= 0.0) return out;
  for (std::size_t i = 0; i < kNumFeatures; ++i) out[i] = counts[i] / t;
  return out;
}

std::string StaticFeatures::to_string() const {
  std::ostringstream oss;
  oss << kernel_name << ": ";
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    if (i != 0) oss << ' ';
    oss << feature_name(static_cast<FeatureIndex>(i)) << '=' << counts[i];
  }
  return oss.str();
}

std::optional<FeatureIndex> feature_index(Opcode op) noexcept {
  switch (op) {
    case Opcode::kIAdd: return FeatureIndex::kIntAdd;
    case Opcode::kIMul: return FeatureIndex::kIntMul;
    case Opcode::kIDiv: return FeatureIndex::kIntDiv;
    case Opcode::kIBitwise: return FeatureIndex::kIntBw;
    case Opcode::kFAdd: return FeatureIndex::kFloatAdd;
    case Opcode::kFMul: return FeatureIndex::kFloatMul;
    case Opcode::kFDiv: return FeatureIndex::kFloatDiv;
    case Opcode::kSpecialFn: return FeatureIndex::kSf;
    case Opcode::kGlobalLoad:
    case Opcode::kGlobalStore: return FeatureIndex::kGlAccess;
    case Opcode::kLocalLoad:
    case Opcode::kLocalStore: return FeatureIndex::kLocAccess;
    default: return std::nullopt;
  }
}

FunctionSummary summarize(const IrFunction& ir) {
  FunctionSummary summary;
  summary.name = ir.name;
  summary.is_kernel = ir.is_kernel;
  summary.calls.reserve(static_cast<std::size_t>(std::count_if(
      ir.body.begin(), ir.body.end(),
      [](const Instruction& inst) { return inst.op == Opcode::kCall; })));
  for (const auto& inst : ir.body) {
    if (const auto f = feature_index(inst.op)) {
      summary.counts[static_cast<std::size_t>(*f)] += static_cast<double>(inst.width);
    } else if (inst.op == Opcode::kCall) {
      summary.calls.emplace_back(inst.callee);
    }
  }
  return summary;
}

CallResolver::CallResolver(std::span<const FunctionSummary> functions)
    : functions_(functions), nodes_(functions.size()) {
  for (std::uint32_t i = 0; i < functions.size(); ++i) {
    const auto [first, added] = by_name_.insert(functions[i].name);
    if (added) *first = i;
    nodes_[i].first = *first;
  }
  callee_begin_.reserve(functions.size() + 1);
  for (const auto& fn : functions) {
    callee_begin_.push_back(callees_.size());
    for (const auto& call : fn.calls) {
      const std::uint32_t* first = by_name_.find(call);
      callees_.push_back(first == nullptr ? kMissing : *first);
    }
  }
  callee_begin_.push_back(callees_.size());
}

const FunctionSummary* CallResolver::find(std::string_view name) const noexcept {
  const std::uint32_t* first = by_name_.find(name);
  return first == nullptr ? nullptr : &functions_[*first];
}

common::Status CallResolver::visit(std::uint32_t index, std::size_t depth) {
  const FunctionSummary& fn = functions_[index];
  Node& node = nodes_[index];
  // A known total is free to reuse unless the chain now runs past the depth
  // budget below it; then the walk goes on, to fail where the re-expanding
  // walk would. (A known total's call tree is acyclic and fully defined, so
  // the budget is the only error it can still produce.)
  if (node.done && depth + node.height < kMaxCallDepth) return common::Status::Ok();
  if (depth >= kMaxCallDepth) {
    return common::internal_error("call chain exceeds the depth budget of " +
                                  std::to_string(kMaxCallDepth) + " at '" + fn.name +
                                  "'");
  }
  Node& chain = nodes_[node.first];
  if (chain.active) {
    return common::internal_error("recursive call chain through '" + fn.name + "'");
  }
  const std::size_t begin = callee_begin_[index];
  const std::size_t end = callee_begin_[index + 1];
  if (node.done) {
    for (std::size_t k = begin; k < end; ++k) {
      if (auto st = visit(callees_[k], depth + 1); !st.ok()) return st;
    }
    return common::Status::Ok();
  }
  chain.active = true;
  // Integer-valued sums below 2^53 are exact, so adding call-tree totals
  // equals adding every instruction in walk order (docs/DETERMINISM.md).
  std::array<double, kNumFeatures> total = fn.counts;
  std::size_t height = 0;
  for (std::size_t k = begin; k < end; ++k) {
    const std::uint32_t callee = callees_[k];
    if (callee == kMissing) {
      return common::not_found("callee '" + fn.calls[k - begin] + "' not in module");
    }
    if (auto st = visit(callee, depth + 1); !st.ok()) return st;
    const Node& done = nodes_[callee];
    for (std::size_t i = 0; i < kNumFeatures; ++i) total[i] += done.total[i];
    height = std::max(height, done.height + 1);
  }
  chain.active = false;
  node.total = total;
  node.height = height;
  node.done = true;
  return common::Status::Ok();
}

common::Result<StaticFeatures> CallResolver::resolve(const FunctionSummary& target) {
  const auto index = static_cast<std::uint32_t>(&target - functions_.data());
  if (nodes_[index].first != index) {
    // A redefinition walks under its name, which its calls resolve to the
    // first definition of: a total known from another walk may pass through
    // that definition, which is recursion here. Forget every stored total.
    for (auto& node : nodes_) node.done = false;
  }
  if (auto st = visit(index, 0); !st.ok()) {
    for (auto& node : nodes_) node.active = false;  // the failed walk's chain
    return st.error();
  }
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  for (const double count : nodes_[index].total) {
    if (count >= kExactLimit) {
      return common::parse_error("feature counts of '" + target.name +
                                 "' reach 2^53, past exact binary64 sums");
    }
  }
  StaticFeatures features;
  features.kernel_name = target.name;
  features.counts = nodes_[index].total;
  return features;
}

common::Result<StaticFeatures> CallResolver::features(const std::string& kernel) {
  const FunctionSummary* target = nullptr;
  if (kernel.empty()) {
    const auto it = std::find_if(functions_.begin(), functions_.end(),
                                 [](const FunctionSummary& s) { return s.is_kernel; });
    if (it == functions_.end()) {
      return common::not_found("module contains no kernel function");
    }
    target = &*it;
  } else {
    target = find(kernel);
    if (target == nullptr) {
      return common::not_found("kernel '" + kernel + "' not in module");
    }
  }
  return resolve(*target);
}

common::Result<StaticFeatures> extract_features(const IrModule& module,
                                                const std::string& kernel) {
  std::vector<FunctionSummary> summaries;
  summaries.reserve(module.functions.size());
  for (const auto& f : module.functions) summaries.push_back(summarize(f));
  return CallResolver(summaries).features(kernel);
}

common::Result<StaticFeatures> extract_features_from_source(const std::string& source,
                                                            const std::string& kernel) {
  auto unit = parse_opencl(source);
  if (!unit.ok()) return unit.error();
  auto module = lower_to_ir(unit.value());
  if (!module.ok()) return module.error();
  return extract_features(module.value(), kernel);
}

}  // namespace repro::clfront
