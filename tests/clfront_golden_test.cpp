// Golden frontend oracle: what the frontend says about every repository
// kernel — the 12 paper kernels and the 106 benchgen kernels — and about 48
// seeded byte mutants of each, pinned by digests recorded from a known-good
// frontend. An outcome is the 10 feature counts as bit patterns, or the
// error code and the full message, so any change to a count, a token
// location or a diagnostic shows up here. The whole-string path and the
// streaming SourceFeeder (whole feed and 7-byte chunks) must agree on every
// input, and the AST and IR dumps of the unmutated kernels are pinned too.
//
// A mismatch prints the row the current frontend produces; a deliberate
// change of frontend behaviour replaces the table with those rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "clfront/ast.hpp"
#include "clfront/features.hpp"
#include "clfront/lower.hpp"
#include "clfront/parser.hpp"
#include "clfront/stream.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"

namespace rc = repro::common;
namespace rcl = repro::clfront;

namespace {

constexpr int kMutantsPerKernel = 48;

struct GoldenRow {
  const char* kernel;
  std::uint64_t outcomes;  // original + mutants, whole and streamed
  std::uint64_t dumps;     // dump_ast + dump_ir of the original
};

// Recorded from the frontend as of the allocation-light rewrite's parent.
constexpr GoldenRow kGolden[] = {
#include "clfront_golden_table.inc"
};

struct Input {
  std::string kernel;
  std::string source;
};

std::vector<Input> repository_kernels() {
  std::vector<Input> out;
  for (const auto& bench : repro::kernels::test_suite()) {
    out.push_back({bench.kernel_name, bench.source});
  }
  auto suite = repro::benchgen::generate_training_suite();
  EXPECT_TRUE(suite.ok());
  if (suite.ok()) {
    for (auto& mb : suite.value()) out.push_back({mb.name, std::move(mb.source)});
  }
  return out;
}

std::string outcome(const rc::Result<rcl::StaticFeatures>& r) {
  if (!r.ok()) {
    return "error " + std::to_string(static_cast<int>(r.error().code)) + " " +
           r.error().message;
  }
  std::string out = "ok " + r.value().kernel_name;
  for (const double count : r.value().counts) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &count, sizeof bits);
    char hex[20];
    std::snprintf(hex, sizeof hex, " %016llx", static_cast<unsigned long long>(bits));
    out += hex;
  }
  return out;
}

/// One to three byte edits: replace, delete, insert, duplicate a short
/// slice, or append another kernel's source (a multi-function unit with
/// possible redefinitions and forward references).
std::string mutate(const std::string& source, const std::vector<Input>& all,
                   rc::Xoshiro256& rng) {
  static constexpr char kBytes[] =
      "{}()[];,=+-*/%<>!&|^~?:.#\"'\\\n\t 0123456789aefxuLlhiz_\x01\x7f\xff";
  std::string s = source;
  const int edits = 1 + static_cast<int>(rng.uniform_index(3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = s.empty() ? 0 : rng.uniform_index(s.size());
    const char byte = kBytes[rng.uniform_index(sizeof kBytes - 1)];
    switch (rng.uniform_index(5)) {
      case 0:
        if (!s.empty()) s[pos] = byte;
        break;
      case 1:
        if (!s.empty()) s.erase(pos, 1);
        break;
      case 2:
        s.insert(pos, 1, byte);
        break;
      case 3: {
        const std::string slice = s.substr(pos, 1 + rng.uniform_index(16));
        s.insert(rng.uniform_index(s.size() + 1), slice);
        break;
      }
      default:
        s += "\n" + all[rng.uniform_index(all.size())].source;
        break;
    }
  }
  return s;
}

/// The outcome of featurizing `source`, checked equal on every path.
std::string checked_outcome(const std::string& source, const std::string& kernel) {
  const std::string whole = outcome(rcl::extract_features_from_source(source, kernel));
  const std::string fed =
      outcome(rcl::extract_features_chunked(source, source.size() + 1, kernel));
  const std::string chunked = outcome(rcl::extract_features_chunked(source, 7, kernel));
  EXPECT_EQ(fed, whole) << kernel;
  EXPECT_EQ(chunked, whole) << kernel;
  return whole;
}

std::string dumps_of(const std::string& source) {
  auto unit = rcl::parse_opencl(source);
  if (!unit.ok()) return "parse " + unit.error().message;
  std::string out = rcl::dump_ast(unit.value());
  auto module = rcl::lower_to_ir(unit.value());
  if (!module.ok()) return out + "lower " + module.error().message;
  return out + rcl::dump_ir(module.value());
}

}  // namespace

TEST(ClfrontGoldenTest, RepositoryKernelsAndMutantsMatchTheRecordedOutcomes) {
  const std::vector<Input> all = repository_kernels();
  ASSERT_EQ(all.size(), 118u);
  ASSERT_EQ(std::size(kGolden), all.size());
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < all.size(); ++k) {
    const Input& input = all[k];
    rc::Xoshiro256 rng(rc::hash_combine(0x601DE, k));
    std::uint64_t outcomes = rc::fnv1a(checked_outcome(input.source, input.kernel));
    for (int m = 0; m < kMutantsPerKernel; ++m) {
      const std::string mutant = mutate(input.source, all, rng);
      outcomes = rc::hash_combine(outcomes, rc::fnv1a(checked_outcome(mutant, input.kernel)));
    }
    const std::uint64_t dumps = rc::fnv1a(dumps_of(input.source));
    const GoldenRow& row = kGolden[k];
    if (input.kernel != row.kernel || outcomes != row.outcomes || dumps != row.dumps) {
      ++mismatches;
      char line[160];
      std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxULL, 0x%016llxULL},",
                    input.kernel.c_str(), static_cast<unsigned long long>(outcomes),
                    static_cast<unsigned long long>(dumps));
      ADD_FAILURE() << "kernel " << k << " differs; current row:\n" << line;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}
