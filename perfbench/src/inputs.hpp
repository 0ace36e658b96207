// Seeded workload inputs. Everything the program under test receives is
// made here from the workload seed: which kernel each request carries, in
// which order, and how each offline translation unit is assembled. The same
// seed gives byte-identical inputs (inputs_digest proves it in one number).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "clfront/features.hpp"
#include "common/status.hpp"
#include "core/predictor.hpp"

namespace perfbench {

/// One of the repository's kernels: source, entry point, static features.
struct CorpusKernel {
  std::string name;
  std::string source;
  repro::clfront::StaticFeatures features;
};

/// The 118 repository kernels: the paper's 12 test kernels followed by the
/// 106 benchgen training micro-benchmarks. Fixed; not seeded.
[[nodiscard]] repro::common::Result<std::vector<CorpusKernel>> repo_kernels();

/// The kernel index (into a corpus of `corpus_size`) of request `i` of
/// request stream `stream` under `seed`: a pure function, so any phase of
/// any length draws its requests without storing a sequence.
[[nodiscard]] std::uint32_t pick_kernel(std::uint64_t seed, std::uint64_t stream,
                                        std::uint64_t i, std::size_t corpus_size);

/// One offline compile-time request: a multi-function translation unit and
/// the kernel it names.
using OfflineUnit = repro::core::Predictor::SourceRequest;

/// Translation unit `u` of `count`, each 20–60 KB, unit u in the u-th of
/// `count` equal slices of that range. A unit concatenates 2–5
/// distinct corpus kernels with generated helper functions (seeded
/// constants and names unique to the unit) and a driver kernel calling a
/// seeded subset of them; it names either the driver or one of the corpus
/// kernels.
[[nodiscard]] OfflineUnit offline_unit(std::uint64_t seed, const std::vector<CorpusKernel>& corpus,
                                       std::size_t u, std::size_t count);
/// Units 0..count-1 of offline_unit.
[[nodiscard]] std::vector<OfflineUnit> offline_units(std::uint64_t seed,
                                                     const std::vector<CorpusKernel>& corpus,
                                                     std::size_t count);

/// FNV-1a over every byte of the inputs a workload would send for `seed`
/// (the first `requests` picks of streams 0 and 1, and `units` offline
/// units): printed with each run, and compared across seeds by the tests.
[[nodiscard]] std::uint64_t inputs_digest(std::uint64_t seed,
                                          const std::vector<CorpusKernel>& corpus,
                                          std::size_t requests, std::size_t units);

}  // namespace perfbench
