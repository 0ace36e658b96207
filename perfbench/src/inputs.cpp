#include "inputs.hpp"

#include <algorithm>

#include "benchgen/benchgen.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"

namespace perfbench {

namespace rc = repro::common;

rc::Result<std::vector<CorpusKernel>> repo_kernels() {
  std::vector<CorpusKernel> corpus;
  for (const auto& bench : repro::kernels::test_suite()) {
    auto features = repro::kernels::benchmark_features(bench);
    if (!features.ok()) return features.error();
    corpus.push_back({bench.kernel_name, bench.source, features.value()});
  }
  auto suite = repro::benchgen::generate_training_suite();
  if (!suite.ok()) return suite.error();
  for (auto& mb : suite.value()) {
    corpus.push_back({mb.name, std::move(mb.source), mb.features});
  }
  return corpus;
}

std::uint32_t pick_kernel(std::uint64_t seed, std::uint64_t stream, std::uint64_t i,
                          std::size_t corpus_size) {
  const std::uint64_t h = rc::mix64(rc::hash_combine(rc::hash_combine(seed, stream), i));
  return static_cast<std::uint32_t>(h % corpus_size);
}

namespace {

/// A helper in the style of bench/perf_stack's stream_featurize filler, with
/// seeded constants so two seeds give different bytes.
void append_helper(std::string& out, const std::string& name, rc::Xoshiro256& rng) {
  const std::string a = std::to_string(rng.uniform_index(1000)) + "." +
                        std::to_string(rng.uniform_index(100)) + "f";
  const std::string b = std::to_string(1 + rng.uniform_index(97));
  switch (rng.uniform_index(3)) {
    case 0:
      out += "float " + name + "(float v) { /* generated helper */ return v * " + a +
             " + native_sin(v) - " + b + ".0f; }\n";
      break;
    case 1:
      out += "float " + name + "(float v) {\n  float acc = v;\n  for (int k = 0; k < " + b +
             "; k++) {\n    acc = acc * " + a + " + sqrt(fabs(acc));\n  }\n  return acc;\n}\n";
      break;
    default:
      out += "int " + name + "(int v) { return (v ^ " + b + ") + (v << 2) - v / " + b +
             "; }\n";
      break;
  }
}

}  // namespace

OfflineUnit offline_unit(std::uint64_t seed, const std::vector<CorpusKernel>& corpus,
                         std::size_t u, std::size_t count) {
  rc::Xoshiro256 rng(rc::hash_combine(seed, 0x0FF1'0000ULL + u));
  // Sizes are stratified: unit u falls in the u-th of `count` equal slices
  // of 20-60 KB, so every seed gets the same spread of sizes.
  const std::size_t target = 20 * 1024 + (40 * 1024 * u + rng.uniform_index(40 * 1024)) / count;
  const std::string prefix = "u" + std::to_string(u) + "_";

  std::vector<std::size_t> picked;
  const std::size_t n_kernels = 2 + rng.uniform_index(4);
  while (picked.size() < n_kernels) {
    const std::size_t k = rng.uniform_index(corpus.size());
    if (std::find(picked.begin(), picked.end(), k) == picked.end()) picked.push_back(k);
  }

  OfflineUnit unit;
  std::string& src = unit.source;
  src.reserve(target + 4096);
  for (std::size_t k : picked) src += corpus[k].source + "\n";
  std::vector<std::string> float_helpers;
  for (std::size_t h = 0; src.size() < target; ++h) {
    const std::string name = prefix + "helper" + std::to_string(h);
    const std::size_t before = src.size();
    append_helper(src, name, rng);
    if (src.compare(before, 6, "float ") == 0) float_helpers.push_back(name);
  }
  const std::string driver = prefix + "main";
  src += "kernel void " + driver + "(global float* x) {\n  float v = x[get_global_id(0)];\n";
  for (const auto& name : float_helpers) {
    if (rng.uniform_index(4) == 0) src += "  v = " + name + "(v);\n";
  }
  src += "  x[get_global_id(0)] = v;\n}\n";

  const std::size_t choice = rng.uniform_index(picked.size() + 1);
  unit.kernel = choice == picked.size() ? driver : corpus[picked[choice]].name;
  return unit;
}

std::vector<OfflineUnit> offline_units(std::uint64_t seed,
                                       const std::vector<CorpusKernel>& corpus,
                                       std::size_t count) {
  std::vector<OfflineUnit> units;
  units.reserve(count);
  for (std::size_t u = 0; u < count; ++u) units.push_back(offline_unit(seed, corpus, u, count));
  return units;
}

std::uint64_t inputs_digest(std::uint64_t seed, const std::vector<CorpusKernel>& corpus,
                            std::size_t requests, std::size_t units) {
  std::uint64_t h = rc::fnv1a("perfbench", 9);
  for (std::uint64_t stream = 0; stream < 2; ++stream) {
    for (std::size_t i = 0; i < requests; ++i) {
      const auto& k = corpus[pick_kernel(seed, stream, i, corpus.size())];
      h = rc::hash_combine(h, rc::fnv1a(k.source));
    }
  }
  for (std::size_t u = 0; u < units; ++u) {
    const OfflineUnit unit = offline_unit(seed, corpus, u, units);
    h = rc::hash_combine(h, rc::fnv1a(unit.source));
    h = rc::hash_combine(h, rc::fnv1a(unit.kernel));
  }
  return h;
}

}  // namespace perfbench
