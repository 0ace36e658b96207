// Frequency-domain tables of the simulated GPUs.
//
// Reproduces the topology the paper reports for the NVIDIA GTX Titan X
// (Maxwell) and Tesla P100 (Fig. 4):
//   * Titan X: four memory clocks — 405 (mem-L), 810 (mem-l), 3304 (mem-h),
//     3505 MHz (mem-H). mem-L supports only 6 core clocks (up to ~405 MHz),
//     mem-l supports 71, mem-h/H support 50 each (177 actual configurations).
//     NVML additionally *reports* core clocks up to 1392 MHz which are
//     silently clamped to the ~1202 MHz cap — the "gray points" of Fig. 4a.
//   * Tesla P100: a single memory clock (715 MHz) with a dense core range.
//   * Titan X default applications clocks: core 1001 MHz, memory 3505 MHz.
//
// The concrete intermediate clock values are generated around the paper's
// anchor values (135 MHz floor, 13 MHz vendor step, 1001 MHz default) — see
// DESIGN.md §1 for the documented approximations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace repro::gpusim {

/// One core/memory clock pair, in MHz.
struct FrequencyConfig {
  int core_mhz = 0;
  int mem_mhz = 0;

  friend bool operator==(const FrequencyConfig&, const FrequencyConfig&) = default;
};

/// The paper's shorthand for the Titan X memory clocks: L < l < h < H.
enum class MemLevel { kL = 0, kLow = 1, kHigh = 2, kH = 3 };

[[nodiscard]] const char* mem_level_label(MemLevel level) noexcept;  // "Mem-L" ...

/// All supported clocks for one memory level.
struct MemoryClockDomain {
  MemLevel level = MemLevel::kH;
  int mem_mhz = 0;
  std::vector<int> actual_core_mhz;    // settings that really take effect
  std::vector<int> reported_core_mhz;  // superset NVML advertises (gray points clamp)
};

/// A device's full DVFS configuration space.
class FrequencyDomain {
 public:
  /// Simulated NVIDIA GTX Titan X (Maxwell) — the paper's main platform.
  [[nodiscard]] static FrequencyDomain titan_x();

  /// Simulated NVIDIA Tesla P100 — single memory clock (Fig. 4b).
  [[nodiscard]] static FrequencyDomain tesla_p100();

  [[nodiscard]] const std::string& device_name() const noexcept { return name_; }
  [[nodiscard]] FrequencyConfig default_config() const noexcept { return default_; }

  [[nodiscard]] const std::vector<MemoryClockDomain>& domains() const noexcept {
    return domains_;
  }

  /// All actually-effective configurations, mem-major then ascending core.
  [[nodiscard]] std::vector<FrequencyConfig> all_actual() const;

  [[nodiscard]] bool is_actual(FrequencyConfig c) const noexcept;
  [[nodiscard]] bool is_reported(FrequencyConfig c) const noexcept;

  /// NVML set-clocks semantics: a reported config maps to the actual config
  /// that takes effect (clamping over-cap core clocks); an unknown config is
  /// an error.
  [[nodiscard]] common::Result<FrequencyConfig> resolve(FrequencyConfig requested) const;

  /// Memory domain lookup by clock or level.
  [[nodiscard]] const MemoryClockDomain* find_domain(int mem_mhz) const noexcept;
  [[nodiscard]] const MemoryClockDomain* find_domain(MemLevel level) const noexcept;

  /// MemLevel of a memory clock (error if no such domain).
  [[nodiscard]] common::Result<MemLevel> level_of(int mem_mhz) const;

  /// The paper's training-set sampling (§3.3): `total` configurations spread
  /// over the memory levels — every mem-L config (there are only 6) plus
  /// evenly strided core clocks of the remaining levels. Deterministic.
  [[nodiscard]] std::vector<FrequencyConfig> sample_configs(std::size_t total) const;

  /// Normalization bounds used for the frequency features (§3.2: core in
  /// [135, 1392]-ish, memory in [405, 3505], both mapped to [0, 1]).
  [[nodiscard]] int min_core_mhz() const noexcept { return min_core_; }
  [[nodiscard]] int max_core_mhz() const noexcept { return max_core_; }
  [[nodiscard]] int min_mem_mhz() const noexcept { return min_mem_; }
  [[nodiscard]] int max_mem_mhz() const noexcept { return max_mem_; }

 private:
  std::string name_;
  FrequencyConfig default_;
  std::vector<MemoryClockDomain> domains_;  // ascending mem clock
  int min_core_ = 0, max_core_ = 0, min_mem_ = 0, max_mem_ = 0;

  void finalize_bounds();
};

}  // namespace repro::gpusim
