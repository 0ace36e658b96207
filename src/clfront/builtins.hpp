// Classification of the OpenCL builtin library for lowering: which calls are
// work-item runtime queries, which are transcendental "special functions"
// (the paper's k_sf feature), what arithmetic the cheap math helpers
// expand to, and which identifiers are builtin numeric constants.
#pragma once

#include <optional>
#include <string_view>

#include "clfront/types.hpp"

namespace repro::clfront {

enum class BuiltinCategory : std::uint8_t {
  kNotBuiltin,   // user-defined function
  kRuntime,      // get_global_id & friends — no feature contribution
  kBarrier,      // barrier / mem_fence — synchronization only
  kSpecial,      // sin, cos, exp, sqrt, pow, native_* ... -> k_sf
  kCheapMath,    // fabs, fmin, floor, min/max/abs, step ... -> one add-class op
  kMulAdd,       // fma, mad, mix -> one mul + one add
  kDot,          // dot/length/distance -> width-dependent mul/add chain
  kConvert,      // convert_*/as_* reinterpretation — free
  kAtomic,       // atomic_* -> one global access + one integer op
};

/// Classify a callee name.
[[nodiscard]] BuiltinCategory classify_builtin(std::string_view name) noexcept;

/// Type of a builtin numeric constant accepted as an identifier (M_PI,
/// FLT_MAX, CLK_LOCAL_MEM_FENCE, ...), or nullopt.
[[nodiscard]] std::optional<Type> builtin_constant_type(std::string_view name) noexcept;

}  // namespace repro::clfront
