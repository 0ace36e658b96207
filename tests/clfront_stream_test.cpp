// Streaming featurization: the chunk-size-invariance contract. Feeding a
// source through SourceFeeder in chunks of ANY size — including one byte at
// a time — must produce bit-identical features, the same kernel set, and
// the same errors as the whole-string path (extract_features_from_source).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "clfront/features.hpp"
#include "clfront/parser.hpp"
#include "clfront/stream.hpp"
#include "common/rng.hpp"

namespace rcl = repro::clfront;
namespace rc = repro::common;

namespace {

/// A workout for the lexer and the function splitter: comments (line/block,
/// some spanning lines), a preprocessor line, float/hex/suffixed literals,
/// vector literals, helpers called before AND after their definition, and
/// two kernels.
const char* kMultiKernelSource = R"CL(
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
// scale by a constant /* not a block comment opener inside a line comment
float helper_before(float v) { return v * 2.0f + 1.0e-3f; }

kernel void first_kernel(global float* x, global float* y, int n) {
  int gid = get_global_id(0);
  /* block
     comment */
  float a = helper_before(x[gid]);
  float b = helper_after(a);        // forward reference
  float4 v = (float4)(a, b, 0.5f, 1.25f);
  y[gid] = dot(v, v) + native_sin(a) / (b + 0x10);
}

float helper_after(float v) { return v - 3u; }

kernel void second_kernel(global int* z) {
  int gid = get_global_id(0);
  for (int i = 0; i < 8; i++) z[gid] = z[gid] << 1 | (z[gid] & 1);
}
)CL";

bool features_bitwise_equal(const rcl::StaticFeatures& a, const rcl::StaticFeatures& b) {
  return a.kernel_name == b.kernel_name &&
         std::memcmp(a.counts.data(), b.counts.data(),
                     sizeof(double) * rcl::kNumFeatures) == 0;
}

}  // namespace

TEST(SourceFeederTest, ChunkSizeInvariance) {
  const std::string source = kMultiKernelSource;
  for (const char* kernel : {"", "first_kernel", "second_kernel"}) {
    const auto whole = rcl::extract_features_from_source(source, kernel);
    ASSERT_TRUE(whole.ok()) << whole.error().message;
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                    std::size_t{5}, std::size_t{7}, std::size_t{64},
                                    std::size_t{4096}, source.size()}) {
      const auto streamed = rcl::extract_features_chunked(source, chunk, kernel);
      ASSERT_TRUE(streamed.ok())
          << "chunk=" << chunk << ": " << streamed.error().message;
      EXPECT_TRUE(features_bitwise_equal(whole.value(), streamed.value()))
          << "chunk=" << chunk << " kernel='" << kernel << "'\nwhole:    "
          << whole.value().to_string() << "\nstreamed: "
          << streamed.value().to_string();
    }
  }
}

TEST(SourceFeederTest, KernelFeaturesListsKernelsInOrder) {
  rcl::SourceFeeder feeder;
  ASSERT_TRUE(feeder.feed(kMultiKernelSource).ok());
  ASSERT_TRUE(feeder.finish().ok());
  const auto kernels = feeder.kernel_features();
  ASSERT_TRUE(kernels.ok()) << kernels.error().message;
  ASSERT_EQ(kernels.value().size(), 2u);
  EXPECT_EQ(kernels.value()[0].kernel_name, "first_kernel");
  EXPECT_EQ(kernels.value()[1].kernel_name, "second_kernel");
  const auto whole = rcl::extract_features_from_source(kMultiKernelSource,
                                                       "second_kernel");
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(features_bitwise_equal(whole.value(), kernels.value()[1]));
}

TEST(SourceFeederTest, PendingBufferStaysBoundedOnLargeInput) {
  // 400 small functions, each complete: the feeder must summarize and
  // release them as they stream — the pending buffer never holds more than
  // a chunk plus one unfinished token, and never the whole source.
  std::string source;
  for (int i = 0; i < 400; ++i) {
    source += "float fn" + std::to_string(i) + "(float v) { return v * " +
              std::to_string(i) + ".5f; /* filler comment to fatten the source " +
              std::string(64, 'x') + " */ }\n";
  }
  source += "kernel void big(global float* x) { x[0] = fn399(fn0(x[0])); }\n";

  rcl::SourceFeeder feeder;
  constexpr std::size_t kChunk = 256;
  for (std::size_t off = 0; off < source.size(); off += kChunk) {
    ASSERT_TRUE(feeder.feed(std::string_view(source).substr(off, kChunk)).ok());
  }
  ASSERT_TRUE(feeder.finish().ok());
  EXPECT_EQ(feeder.bytes_fed(), source.size());
  EXPECT_LT(feeder.peak_pending_bytes(), std::size_t{2048});

  const auto whole = rcl::extract_features_from_source(source);
  const auto streamed = feeder.features();
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(streamed.ok()) << streamed.error().message;
  EXPECT_TRUE(features_bitwise_equal(whole.value(), streamed.value()));
}

TEST(SourceFeederTest, ErrorParityWithWholeStringPath) {
  // Lexical, parse, lowering, kernel-lookup, and cycle errors must agree
  // with the whole-string path — same code, same message — at any chunking.
  const struct Case {
    const char* name;
    const char* source;
  } cases[] = {
      {"lex_unterminated_comment", "kernel void f(global int* x) { x[0] = 1; } /* oops"},
      {"lex_bad_char", "kernel void f(global int* x) { x[0] = 1 @ 2; }"},
      {"parse_missing_paren", "kernel void f(global int* x { x[0] = 1; }"},
      {"lower_unknown_call", "kernel void f(global int* x) { x[0] = nosuch(1); }"},
      {"lower_undeclared_var", "kernel void f(global int* x) { x[0] = y; }"},
      {"recursive_chain",
       "float a(float v) { return b(v); } float b(float v) { return a(v); } "
       "kernel void f(global float* x) { x[0] = a(x[0]); }"},
  };
  for (const auto& c : cases) {
    const auto whole = rcl::extract_features_from_source(c.source);
    ASSERT_FALSE(whole.ok()) << c.name;
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{9}, std::size_t{1024}}) {
      const auto streamed = rcl::extract_features_chunked(c.source, chunk);
      ASSERT_FALSE(streamed.ok()) << c.name << " chunk=" << chunk;
      EXPECT_EQ(static_cast<int>(streamed.error().code),
                static_cast<int>(whole.error().code))
          << c.name << " chunk=" << chunk;
      EXPECT_EQ(streamed.error().message, whole.error().message)
          << c.name << " chunk=" << chunk;
    }
  }
}

TEST(SourceFeederTest, UnknownKernelNameMatchesWholeString) {
  const auto whole =
      rcl::extract_features_from_source(kMultiKernelSource, "missing_kernel");
  const auto streamed =
      rcl::extract_features_chunked(kMultiKernelSource, 16, "missing_kernel");
  ASSERT_FALSE(whole.ok());
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.error().message, whole.error().message);
  // And a helper is findable by name but is not a kernel — both paths
  // resolve it (extract_features allows any function by name).
  const auto helper_whole =
      rcl::extract_features_from_source(kMultiKernelSource, "helper_after");
  const auto helper_streamed =
      rcl::extract_features_chunked(kMultiKernelSource, 16, "helper_after");
  ASSERT_TRUE(helper_whole.ok());
  ASSERT_TRUE(helper_streamed.ok());
  EXPECT_TRUE(features_bitwise_equal(helper_whole.value(), helper_streamed.value()));
}

TEST(SourceFeederTest, SourceBudgetIsEnforced) {
  rcl::StreamOptions options;
  options.max_source_bytes = 64;
  rcl::SourceFeeder feeder(options);
  const std::string big(65, ' ');
  const auto st = feeder.feed(big);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, rc::ErrorCode::kParseError);
  // The error is sticky: finish() and features() report it too.
  EXPECT_FALSE(feeder.finish().ok());
  EXPECT_FALSE(feeder.features().ok());
}

TEST(SourceFeederTest, FeedAfterFinishIsRejected) {
  rcl::SourceFeeder feeder;
  ASSERT_TRUE(feeder.feed("kernel void f(global int* x) { x[0] = 1; }").ok());
  ASSERT_TRUE(feeder.finish().ok());
  EXPECT_FALSE(feeder.feed("more").ok());
  EXPECT_TRUE(feeder.finish().ok());  // idempotent verdict
}

TEST(SourceFeederTest, FeaturesBeforeFinishIsRejected) {
  rcl::SourceFeeder feeder;
  ASSERT_TRUE(feeder.feed("kernel void f(global int* x) { x[0] = 1; }").ok());
  EXPECT_FALSE(feeder.features().ok());
}

// --- parser hardening (deep nesting must be a parse error, not a crash) ------

TEST(ParserDepthBudgetTest, DeeplyNestedParensFailGracefully) {
  const std::string deep(4096, '(');
  const std::string source = "kernel void f(global float* x) { x[0] = " + deep +
                             "1.0f" + std::string(4096, ')') + "; }";
  const auto result = rcl::extract_features_from_source(source);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kParseError);
  EXPECT_NE(result.error().message.find("depth budget"), std::string::npos);
  // The streamed path reports the identical error.
  const auto streamed = rcl::extract_features_chunked(source, 37);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.error().message, result.error().message);
}

TEST(ParserDepthBudgetTest, DeeplyNestedBracesFailGracefully) {
  std::string source = "kernel void f(global float* x) ";
  source += std::string(4096, '{');
  source += "x[0] = 1.0f;";
  source += std::string(4096, '}');
  const auto result = rcl::extract_features_from_source(source);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kParseError);
  EXPECT_NE(result.error().message.find("depth budget"), std::string::npos);
}

TEST(ParserDepthBudgetTest, ModerateNestingStillParses) {
  const int depth = rcl::kMaxNestingDepth / 4;
  const std::string source = "kernel void f(global float* x) { x[0] = " +
                             std::string(depth, '(') + "1.0f" +
                             std::string(depth, ')') + "; }";
  EXPECT_TRUE(rcl::extract_features_from_source(source).ok());
}

// --- preprocessor lines the lexer must skip, at every chunk size -------------

namespace {

/// Featurize `source` whole and at every chunk size from 1 to its length;
/// every run must succeed with bit-identical features.
rcl::StaticFeatures featurize_at_every_chunk_size(const std::string& source) {
  const auto whole = rcl::extract_features_from_source(source);
  EXPECT_TRUE(whole.ok()) << whole.error().message;
  if (!whole.ok()) return {};
  for (std::size_t chunk = 1; chunk <= source.size(); ++chunk) {
    const auto streamed = rcl::extract_features_chunked(source, chunk);
    EXPECT_TRUE(streamed.ok()) << "chunk=" << chunk << ": " << streamed.error().message;
    if (!streamed.ok()) break;
    EXPECT_TRUE(features_bitwise_equal(whole.value(), streamed.value()))
        << "chunk=" << chunk;
  }
  return whole.value();
}

}  // namespace

TEST(SourceFeederTest, IndentedPragmaInLoopBody) {
  const std::string source =
      "kernel void k(global float* x) {\n"
      "  #pragma unroll\n"
      "  for (int i = 0; i < 4; i++) {\n"
      "    #pragma unroll 2\n"
      "    x[i] = x[i] * 2.0f;\n"
      "  }\n"
      "}\n";
  const auto features = featurize_at_every_chunk_size(source);
  EXPECT_EQ(features.count(rcl::FeatureIndex::kFloatMul), 1.0);
  EXPECT_EQ(features.count(rcl::FeatureIndex::kGlAccess), 2.0);
}

TEST(SourceFeederTest, BackslashContinuedDefine) {
  const std::string source =
      "#define N \\\n"
      "  16\n"
      "#define SCALE(v) \\\r\n"
      "  ((v) * 2.0f)\n"
      "kernel void k(global float* x) { x[0] = x[1] * 3.0f; }\n";
  const auto features = featurize_at_every_chunk_size(source);
  EXPECT_EQ(features.count(rcl::FeatureIndex::kFloatMul), 1.0);
  EXPECT_EQ(features.count(rcl::FeatureIndex::kGlAccess), 2.0);
}

TEST(SourceFeederTest, BackslashContinuedLineComment) {
  // A backslash-newline splices the next line into a // comment, as in C:
  // the multiply and both accesses below are comment text.
  const std::string source =
      "kernel void k(global float* x) {\n"
      "  // scale \\\n"
      "  x[0] = x[0] * 2.0f;\n"
      "}\n";
  const auto features = featurize_at_every_chunk_size(source);
  EXPECT_EQ(features.count(rcl::FeatureIndex::kFloatMul), 0.0);
  EXPECT_EQ(features.count(rcl::FeatureIndex::kGlAccess), 0.0);
  const auto crlf = featurize_at_every_chunk_size(
      "kernel void k(global float* x) {\n  // scale \\\r\n  x[0] = x[0] * 2.0f;\n}\n");
  EXPECT_EQ(crlf.count(rcl::FeatureIndex::kFloatMul), 0.0);
  EXPECT_EQ(crlf.count(rcl::FeatureIndex::kGlAccess), 0.0);
}

// --- call resolution: each call tree is summed once --------------------------

namespace {

/// f0 multiplies once; f_i calls f_{i-1} twice and adds the results, so the
/// kernel's call tree holds 2^depth multiplies and 2^depth - 1 adds.
std::string doubling_chain(int depth) {
  std::string source = "float f0(float v) { return v * 2.0f; }\n";
  for (int i = 1; i <= depth; ++i) {
    const std::string prev = "f" + std::to_string(i - 1);
    source += "float f" + std::to_string(i) + "(float v) { return " + prev + "(v) + " +
              prev + "(v); }\n";
  }
  source += "kernel void k(global float* x) { x[0] = f" + std::to_string(depth) +
            "(x[0]); }\n";
  return source;
}

/// The plain walk call resolution must agree with: re-expand every call
/// site, depth-first, with a chain of names for cycles and the depth budget.
rc::Status plain_walk(const std::vector<rcl::FunctionSummary>& all,
                      const rcl::FunctionSummary& fn,
                      std::array<double, rcl::kNumFeatures>& counts,
                      std::set<std::string>& chain) {
  if (chain.size() >= rcl::kMaxCallDepth) {
    return rc::internal_error("call chain exceeds the depth budget of " +
                              std::to_string(rcl::kMaxCallDepth) + " at '" + fn.name +
                              "'");
  }
  if (!chain.insert(fn.name).second) {
    return rc::internal_error("recursive call chain through '" + fn.name + "'");
  }
  for (std::size_t i = 0; i < rcl::kNumFeatures; ++i) counts[i] += fn.counts[i];
  for (const auto& callee_name : fn.calls) {
    const auto it = std::find_if(all.begin(), all.end(), [&](const auto& s) {
      return s.name == callee_name;
    });
    if (it == all.end()) {
      return rc::not_found("callee '" + callee_name + "' not in module");
    }
    if (auto st = plain_walk(all, *it, counts, chain); !st.ok()) return st;
  }
  chain.erase(fn.name);
  return rc::Status::Ok();
}

/// "ok <counts>" or "<code> <message>", for comparing two resolutions.
std::string outcome(const rc::Result<rcl::StaticFeatures>& r) {
  if (!r.ok()) {
    return std::to_string(static_cast<int>(r.error().code)) + " " + r.error().message;
  }
  return "ok " + r.value().to_string();
}

}  // namespace

TEST(CallResolutionTest, DoublingCallChainIsLinear) {
  constexpr int kDepth = 40;
  const std::string source = doubling_chain(kDepth);
  const double calls = std::ldexp(1.0, kDepth);  // 2^40
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{64}}) {
    const auto start = std::chrono::steady_clock::now();
    const auto features = chunk == 0 ? rcl::extract_features_from_source(source)
                                     : rcl::extract_features_chunked(source, chunk);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    ASSERT_TRUE(features.ok()) << features.error().message;
    EXPECT_LT(seconds, 1.0) << "chunk=" << chunk;
    const auto& f = features.value();
    EXPECT_EQ(f.kernel_name, "k");
    EXPECT_EQ(f.count(rcl::FeatureIndex::kFloatMul), calls);
    EXPECT_EQ(f.count(rcl::FeatureIndex::kFloatAdd), calls - 1.0);
    EXPECT_EQ(f.count(rcl::FeatureIndex::kGlAccess), 2.0);
    EXPECT_EQ(f.total(), 2.0 * calls + 1.0);
  }
}

TEST(CallResolutionTest, CountsPast2To53AreRefused) {
  // 2^53 multiplies: the first count binary64 sums can no longer keep exact.
  const std::string source = doubling_chain(53);
  const auto whole = rcl::extract_features_from_source(source);
  ASSERT_FALSE(whole.ok());
  EXPECT_EQ(whole.error().code, rc::ErrorCode::kParseError);
  EXPECT_EQ(whole.error().message,
            "feature counts of 'k' reach 2^53, past exact binary64 sums");
  const auto streamed = rcl::extract_features_chunked(source, 97);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.error().message, whole.error().message);
  // One level less stays exact.
  const auto below = rcl::extract_features_from_source(doubling_chain(52));
  ASSERT_TRUE(below.ok()) << below.error().message;
  EXPECT_EQ(below.value().count(rcl::FeatureIndex::kFloatMul), std::ldexp(1.0, 52));
}

TEST(CallResolutionTest, DepthBudgetIsReportedWhereThePlainWalkMeetsIt) {
  // k calls c100 (a 100-deep chain, resolved and memoized first), then
  // reaches c100 again under a 200-deep chain: the budget runs out inside
  // c100's known call tree, at the function the plain walk would enter.
  std::string source = "float c0(float v) { return v * 2.0f; }\n";
  for (int i = 1; i <= 100; ++i) {
    source += "float c" + std::to_string(i) + "(float v) { return c" +
              std::to_string(i - 1) + "(v) + 1.0f; }\n";
  }
  source += "float d199(float v) { return c100(v); }\n";
  for (int i = 198; i >= 0; --i) {
    source += "float d" + std::to_string(i) + "(float v) { return d" +
              std::to_string(i + 1) + "(v); }\n";
  }
  source += "kernel void k(global float* x) { x[0] = c100(x[0]) + d0(x[0]); }\n";
  const auto whole = rcl::extract_features_from_source(source);
  ASSERT_FALSE(whole.ok());
  // k is entered at depth 0, d0..d199 at 1..200, c100 at 201: depth 256 is
  // c45.
  EXPECT_EQ(whole.error().message, "call chain exceeds the depth budget of 256 at 'c45'");
  const auto streamed = rcl::extract_features_chunked(source, 113);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.error().message, whole.error().message);
}

TEST(CallResolutionTest, MatchesThePlainWalkOnRandomCallGraphs) {
  // Chains past the depth budget, cycles, missing callees, redefinitions
  // and shared subtrees; every function resolved as a target both with a
  // fresh resolver and with one shared across targets (and past errors).
  std::map<std::string, int> seen;  // outcome kinds, to prove coverage
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    rc::Xoshiro256 rng(seed);
    const std::size_t n = 260 + rng.uniform_index(300);
    std::vector<rcl::FunctionSummary> all(n + n / 20);
    for (std::size_t i = 0; i < all.size(); ++i) {
      auto& fn = all[i];
      // g0 .. g{n-1}, then redefinitions of some of those names.
      fn.name = "g" + std::to_string(i < n ? i : rng.uniform_index(n));
      fn.is_kernel = rng.uniform_index(4) == 0;
      for (auto& c : fn.counts) c = static_cast<double>(rng.uniform_index(3));
      if (i > 0 && i < n && rng.uniform_index(1000) != 0) {
        fn.calls.push_back("g" + std::to_string(i - 1));  // long chains
      }
      if (i >= n || rng.uniform_index(300) == 0) {
        fn.calls.push_back("g" + std::to_string(rng.uniform_index(n)));  // maybe a cycle
      }
      if (i > 0 && rng.uniform_index(60) == 0) {
        // A shared subtree.
        fn.calls.push_back("g" + std::to_string(rng.uniform_index(std::min(i, n))));
      }
      if (rng.uniform_index(400) == 0) fn.calls.push_back("nosuch");
    }
    rcl::CallResolver shared(all);
    for (const auto& target : all) {
      rcl::StaticFeatures expected;
      expected.kernel_name = target.name;
      std::set<std::string> chain;
      const auto st = plain_walk(all, target, expected.counts, chain);
      const rc::Result<rcl::StaticFeatures> reference =
          st.ok() ? rc::Result<rcl::StaticFeatures>(expected)
                  : rc::Result<rcl::StaticFeatures>(st.error());
      const auto fresh = rcl::CallResolver(all).resolve(target);
      EXPECT_EQ(outcome(fresh), outcome(reference))
          << "seed=" << seed << " " << target.name;
      EXPECT_EQ(outcome(shared.resolve(target)), outcome(reference))
          << "seed=" << seed << " " << target.name;
      if (fresh.ok()) {
        EXPECT_TRUE(features_bitwise_equal(fresh.value(), expected));
      }
      const std::string kind = outcome(reference);
      // "ok", or the message up to the quoted name.
      const std::size_t from = kind.find(' ') + 1;
      ++seen[kind.rfind("ok ", 0) == 0 ? "ok"
                                       : kind.substr(from, kind.find('\'') - from)];
    }
  }
  EXPECT_GT(seen["ok"], 0);
  EXPECT_GT(seen["callee "], 0);
  EXPECT_GT(seen["recursive call chain through "], 0);
  EXPECT_GT(seen["call chain exceeds the depth budget of 256 at "], 0);
}
