#include "clfront/builtins.hpp"

#include <initializer_list>

#include "clfront/spelling_table.hpp"

namespace repro::clfront {

namespace {

/// One builtin spelling: a callee category, or (constant == true) a
/// numeric constant of the given scalar type.
struct BuiltinInfo {
  BuiltinCategory category = BuiltinCategory::kNotBuiltin;
  bool constant = false;
  ScalarKind scalar = ScalarKind::kFloat;
};

/// The whole builtin library in one compile-time table; the longest
/// spelling is "CLK_GLOBAL_MEM_FENCE".
constexpr auto kBuiltinTable = [] {
  SpellingTable<BuiltinInfo, 20, 256> table;
  const auto callees = [&table](BuiltinCategory category,
                                std::initializer_list<std::string_view> names) {
    for (const std::string_view name : names) table.insert(name).category = category;
  };
  const auto constants = [&table](ScalarKind scalar,
                                  std::initializer_list<std::string_view> names) {
    for (const std::string_view name : names) table.insert(name) = {{}, true, scalar};
  };
  callees(BuiltinCategory::kRuntime,
          {"get_global_id", "get_local_id", "get_group_id", "get_num_groups",
           "get_global_size", "get_local_size", "get_work_dim", "get_global_offset"});
  callees(BuiltinCategory::kBarrier,
          {"barrier", "mem_fence", "read_mem_fence", "write_mem_fence"});
  callees(BuiltinCategory::kSpecial,
          {"sin",        "cos",        "tan",        "asin",        "acos",
           "atan",       "atan2",      "sinh",       "cosh",        "tanh",
           "exp",        "exp2",       "exp10",      "log",         "log2",
           "log10",      "pow",        "powr",       "pown",        "sqrt",
           "rsqrt",      "cbrt",       "hypot",      "erf",         "erfc",
           "sincos",     "native_sin", "native_cos", "native_exp",  "native_log",
           "native_sqrt", "native_rsqrt", "native_powr", "half_sqrt"});
  callees(BuiltinCategory::kCheapMath,
          {"fabs", "fmin",  "fmax",  "floor", "ceil",  "round", "trunc", "sign", "step",
           "min",  "max",   "abs",   "clamp", "select", "smoothstep", "isnan", "isinf",
           "fract"});
  callees(BuiltinCategory::kMulAdd, {"fma", "mad", "mix"});
  callees(BuiltinCategory::kDot, {"dot", "length", "distance", "fast_length"});
  callees(BuiltinCategory::kAtomic,
          {"atomic_add", "atomic_sub", "atomic_inc", "atomic_dec", "atomic_xchg",
           "atomic_cmpxchg"});
  constants(ScalarKind::kFloat,
            {"M_PI", "M_PI_F", "M_E", "M_E_F", "M_SQRT2", "FLT_MAX", "FLT_MIN",
             "FLT_EPSILON", "INFINITY", "NAN"});
  constants(ScalarKind::kUInt, {"CLK_LOCAL_MEM_FENCE", "CLK_GLOBAL_MEM_FENCE", "UINT_MAX"});
  constants(ScalarKind::kInt, {"INT_MAX", "INT_MIN"});
  return table;
}();

}  // namespace

BuiltinCategory classify_builtin(std::string_view name) noexcept {
  if (const BuiltinInfo* info = kBuiltinTable.find(name)) return info->category;
  if (name.starts_with("convert_") || name.starts_with("as_")) {
    return BuiltinCategory::kConvert;
  }
  return BuiltinCategory::kNotBuiltin;  // vloadN/vstoreN are handled in lowering
}

std::optional<Type> builtin_constant_type(std::string_view name) noexcept {
  const BuiltinInfo* info = kBuiltinTable.find(name);
  if (info == nullptr || !info->constant) return std::nullopt;
  return Type{info->scalar, 1, false, AddressSpace::kPrivate};
}

}  // namespace repro::clfront
