// Streaming featurization of OpenCL-C source: feed a multi-megabyte kernel
// file in chunks of any size and get the same static features — bit for bit
// — as the whole-string path (extract_features_from_source).
//
//   SourceFeeder feeder;
//   while (auto chunk = read_more())
//     if (auto st = feeder.feed(*chunk); !st.ok()) ...;
//   if (auto st = feeder.finish(); !st.ok()) ...;
//   auto features = feeder.features("my_kernel");
//
// How bounded memory is achieved:
//  * the chunk lexer (clfront/lexer.hpp, detail::lex_chunk) consumes
//    comments and preprocessor lines as they stream and keeps only the
//    bytes of a possibly-incomplete trailing token in its pending buffer;
//  * tokens are grouped into top-level functions by brace depth, and each
//    function is parsed, lowered, and collapsed into a FunctionSummary (10
//    local feature counts + the ordered callee list) the moment its closing
//    brace arrives — tokens, AST, and IR never outlive the function. The
//    AST is parsed into one arena that is reset once the function is
//    summarized, and the lowering reuses one instruction buffer, so a
//    warmed-up feeder parses and lowers a function without allocating;
//  * cross-function call resolution (CallResolver, shared with
//    extract_features) runs over the summaries once features are asked
//    for, after finish() has seen every signature. A function whose callee
//    is not yet defined (a forward reference) is parsed once more into a
//    second arena that keeps its AST, and only the ASTs of such functions,
//    until finish() — the only case that buffers more than one function.
//
// Why the result is bit-identical: feature counts are sums of integer
// instruction widths, exact in binary64 below 2^53 (CallResolver refuses
// larger totals), so the chunking cannot change a count. Error reporting
// keeps the whole-string precedence (first lexical error, else first parse
// error, else first lowering error in declaration order).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "clfront/ast.hpp"
#include "clfront/features.hpp"
#include "clfront/lexer.hpp"
#include "clfront/lower.hpp"
#include "common/arena.hpp"
#include "common/status.hpp"

namespace repro::clfront {

struct StreamOptions {
  /// Hard input budget; feeding more fails with a parse error. Protects the
  /// serving path from unbounded request bodies. (The recursion budgets are
  /// kMaxNestingDepth in parser.hpp and kMaxCallDepth in features.hpp.)
  std::size_t max_source_bytes = 64u << 20;
};

class SourceFeeder {
 public:
  explicit SourceFeeder(StreamOptions options = {});

  /// Append the next chunk of source; chunk boundaries may fall anywhere
  /// (mid-token, mid-comment, mid-escape). Returns the sticky stream error,
  /// if one has been detected, so callers may stop early — feeding after an
  /// error is harmless and ignored.
  common::Status feed(std::string_view chunk);

  /// Declare end of input, resolve deferred functions, and settle the
  /// stream verdict. Must be called exactly once; feed() is invalid after.
  common::Status finish();

  /// Features of `kernel` (first __kernel function when empty), resolved
  /// across every function of the stream — bit-identical to
  /// extract_features_from_source on the concatenated input. Requires
  /// finish().
  [[nodiscard]] common::Result<StaticFeatures> features(
      const std::string& kernel = {}) const;

  /// Features of every kernel, in declaration order. Requires finish().
  [[nodiscard]] common::Result<std::vector<StaticFeatures>> kernel_features() const;

  [[nodiscard]] std::size_t bytes_fed() const noexcept { return bytes_fed_; }
  /// High-water mark of the pending byte buffer — the observable "bounded
  /// memory" part of the contract (tokens of the open function and deferred
  /// forward-reference ASTs come on top).
  [[nodiscard]] std::size_t peak_pending_bytes() const noexcept {
    return peak_pending_bytes_;
  }
  /// Arena bytes reserved for the ASTs of functions deferred on a forward
  /// reference, until finish() releases them: each deferred function adds
  /// its own tree, not a whole arena slab.
  [[nodiscard]] std::size_t deferred_ast_bytes() const noexcept {
    return deferred_arena_ != nullptr ? deferred_arena_->reserved_bytes() : 0;
  }

 private:
  struct Outcome {
    // Exactly one engaged: a finished summary, a deferred AST (unknown
    // callee, retried at finish), or this function's lowering error.
    std::optional<FunctionSummary> summary;
    std::optional<FunctionDecl> deferred;
    std::optional<common::Error> error;
  };

  void ingest(std::size_t first_new);
  void complete_function(std::span<const Token> tokens);
  /// Declare and lower `fn`; true when it is deferred to finish().
  bool absorb_function(const FunctionDecl& fn);

  StreamOptions options_;
  std::string pending_;
  detail::LexState lex_state_;
  // Tokens lexed but not yet parsed: the open function's, then the latest
  // pass's. Closed functions are parsed in place and erased after the pass.
  std::vector<Token> tokens_;
  int brace_depth_ = 0;
  // The open function's AST; reset once it is summarized.
  std::unique_ptr<common::Arena> arena_;
  // The ASTs of deferred functions, parsed a second time from their tokens
  // so each costs only its own bytes; released by finish().
  std::unique_ptr<common::Arena> deferred_arena_;
  LowerSession session_;
  std::vector<Outcome> outcomes_;
  std::optional<common::Error> lex_error_;    // outranks everything
  std::optional<common::Error> parse_error_;  // outranks lowering errors
  bool lower_error_seen_ = false;             // later lowering is skipped
  std::vector<FunctionSummary> resolved_;     // settled by finish()
  std::optional<common::Error> final_error_;  // the stream verdict
  bool finished_ = false;
  std::size_t bytes_fed_ = 0;
  std::size_t peak_pending_bytes_ = 0;
};

/// Convenience for tests and benchmarks: featurize `source` fed in
/// `chunk_size`-byte pieces. Equal to extract_features_from_source for every
/// chunk size ≥ 1 — the chunk-size-invariance contract of
/// docs/DETERMINISM.md.
[[nodiscard]] common::Result<StaticFeatures> extract_features_chunked(
    std::string_view source, std::size_t chunk_size, const std::string& kernel = {},
    StreamOptions options = {});

}  // namespace repro::clfront
