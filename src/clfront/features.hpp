// Static feature extraction — the stand-in for the paper's LLVM pass (§3.2).
//
// The 10-dimensional static feature vector of a kernel:
//   k = (int_add, int_mul, int_div, int_bw,
//        float_add, float_mul, float_div, sf,
//        gl_access, loc_access)
// Counts are static (each IR instruction once, width-weighted) and
// normalized over the total number of counted instructions, so kernels with
// the same arithmetic intensity but different sizes share a representation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "clfront/ir.hpp"
#include "clfront/name_map.hpp"
#include "common/status.hpp"

namespace repro::clfront {

inline constexpr std::size_t kNumFeatures = 10;

/// Hard budget on the user-function call-chain depth feature extraction will
/// inline through (the static analogue of an inliner depth limit): deeper
/// chains fail with an error instead of overflowing the stack on
/// pathological many-function sources.
inline constexpr std::size_t kMaxCallDepth = 256;

/// Feature indices (the order of the paper's vector).
enum class FeatureIndex : std::size_t {
  kIntAdd = 0,
  kIntMul,
  kIntDiv,
  kIntBw,
  kFloatAdd,
  kFloatMul,
  kFloatDiv,
  kSf,
  kGlAccess,
  kLocAccess,
};

[[nodiscard]] const char* feature_name(FeatureIndex i) noexcept;

/// The feature class an IR opcode contributes to, if any — the one
/// opcode→feature mapping shared by whole-module extraction below and the
/// per-function summaries of the streaming featurizer (clfront/stream.hpp).
[[nodiscard]] std::optional<FeatureIndex> feature_index(Opcode op) noexcept;

struct StaticFeatures {
  std::string kernel_name;
  /// Raw width-weighted static counts.
  std::array<double, kNumFeatures> counts{};

  [[nodiscard]] double count(FeatureIndex i) const noexcept {
    return counts[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] double total() const noexcept;

  /// Counts normalized over the total (all-zero when total == 0).
  [[nodiscard]] std::array<double, kNumFeatures> normalized() const noexcept;

  /// Compact printable form (for logs / tests).
  [[nodiscard]] std::string to_string() const;
};

/// Per-function feature accumulator: the local width-weighted counts plus
/// every user-call site in instruction order. Cross-function resolution
/// (CallResolver) runs over these, not over IR.
struct FunctionSummary {
  std::string name;
  bool is_kernel = false;
  std::array<double, kNumFeatures> counts{};
  std::vector<std::string> calls;
};

/// Collapse one lowered function into its summary.
[[nodiscard]] FunctionSummary summarize(const IrFunction& ir);

/// Resolves call trees over a set of function summaries: the features of a
/// function are its own counts plus, at each call site, the callee's — the
/// static analogue of inlining. Each function's call-tree total is computed
/// once and reused at every later call site, so a chain of functions that
/// each call the next twice costs linear, not exponential, time.
///
/// Errors match a plain depth-first walk that re-expands every call: the
/// first error in call order wins, with the same message — a callee missing
/// from the set, a recursive chain, or a chain deeper than kMaxCallDepth
/// (reported at the first function the walk would enter past the budget,
/// even when that function's total is already known). A total that reaches
/// 2^53 fails too: beyond it binary64 sums stop being exact, and the result
/// would depend on summation order (docs/DETERMINISM.md).
class CallResolver {
 public:
  /// `functions` must outlive the resolver. A name defined twice resolves
  /// to its first definition, like IrModule::find.
  explicit CallResolver(std::span<const FunctionSummary> functions);

  /// Features of `target`, which must be an element of the set.
  [[nodiscard]] common::Result<StaticFeatures> resolve(const FunctionSummary& target);

  /// Features of the function named `kernel`, or of the first kernel
  /// function when `kernel` is empty.
  [[nodiscard]] common::Result<StaticFeatures> features(const std::string& kernel);

 private:
  static constexpr std::uint32_t kMissing = ~std::uint32_t{0};

  struct Node {
    bool done = false;        // `total` and `height` are known
    bool active = false;      // on the current call chain (first definitions)
    std::uint32_t first = 0;  // index of the first definition of this name
    std::size_t height = 0;   // calls on the longest chain below this one
    std::array<double, kNumFeatures> total{};
  };

  /// The first definition of `name`, or nullptr.
  [[nodiscard]] const FunctionSummary* find(std::string_view name) const noexcept;
  /// Walk function `index`, entered with `depth` callers on the chain; on
  /// success its node is done.
  common::Status visit(std::uint32_t index, std::size_t depth);

  std::span<const FunctionSummary> functions_;
  NameMap<std::uint32_t> by_name_;           // first definition of each name
  std::vector<std::uint32_t> callees_;       // every call site, resolved
  std::vector<std::size_t> callee_begin_;    // per function, into callees_
  std::vector<Node> nodes_;
};

/// Extract features from a lowered module for one kernel. Calls to user
/// functions are resolved by adding the callee's counts at each call site
/// (recursively, with a cycle guard) — the static analogue of inlining.
[[nodiscard]] common::Result<StaticFeatures> extract_features(const IrModule& module,
                                                              const std::string& kernel);

/// Convenience: parse + lower + extract in one step. With an empty kernel
/// name the first __kernel function in the source is used.
[[nodiscard]] common::Result<StaticFeatures> extract_features_from_source(
    const std::string& source, const std::string& kernel = "");

}  // namespace repro::clfront
