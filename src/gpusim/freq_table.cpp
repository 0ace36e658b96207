#include "gpusim/freq_table.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace repro::gpusim {

namespace {

/// Master Titan X core-clock table: the 135 MHz idle clock plus a 13 MHz
/// ladder from 143 MHz to the 1196 MHz effective cap. Contains the 1001 MHz
/// default exactly (143 + 66*13 = 1001). 83 values in total.
std::vector<int> titan_master_cores() {
  std::vector<int> cores;
  cores.push_back(135);
  for (int f = 143; f <= 1196; f += 13) cores.push_back(f);
  return cores;
}

/// Over-cap clocks NVML reports but silently clamps (Fig. 4a gray points):
/// 1209..1391 MHz on the same 13 MHz ladder.
std::vector<int> titan_gray_cores() {
  std::vector<int> cores;
  for (int f = 1209; f <= 1391; f += 13) cores.push_back(f);
  return cores;
}

/// Evenly strided subset of size `count` that always keeps the first and
/// last element and (when present) the `keep` value.
std::vector<int> strided_subset(const std::vector<int>& values, std::size_t count,
                                std::optional<int> keep) {
  assert(count >= 2 && count <= values.size());
  std::vector<int> out;
  out.reserve(count);
  const double step = static_cast<double>(values.size() - 1) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    const auto idx = static_cast<std::size_t>(std::llround(static_cast<double>(i) * step));
    out.push_back(values[idx]);
  }
  if (keep && std::find(out.begin(), out.end(), *keep) == out.end() &&
      std::find(values.begin(), values.end(), *keep) != values.end()) {
    // Replace the nearest element with the protected value.
    auto nearest = std::min_element(out.begin(), out.end(), [&](int a, int b) {
      return std::abs(a - *keep) < std::abs(b - *keep);
    });
    *nearest = *keep;
    std::sort(out.begin(), out.end());
  }
  return out;
}

}  // namespace

const char* mem_level_label(MemLevel level) noexcept {
  switch (level) {
    case MemLevel::kL: return "Mem-L";
    case MemLevel::kLow: return "Mem-l";
    case MemLevel::kHigh: return "Mem-h";
    case MemLevel::kH: return "Mem-H";
  }
  return "?";
}

FrequencyDomain FrequencyDomain::titan_x() {
  FrequencyDomain d;
  d.name_ = "NVIDIA GTX Titan X (simulated)";
  d.default_ = {1001, 3505};

  const auto master = titan_master_cores();
  const auto gray = titan_gray_cores();

  // mem-L 405 MHz: six low core clocks, capped near the memory clock itself.
  MemoryClockDomain mem_L;
  mem_L.level = MemLevel::kL;
  mem_L.mem_mhz = 405;
  mem_L.actual_core_mhz = {135, 195, 247, 299, 351, 403};
  mem_L.reported_core_mhz = mem_L.actual_core_mhz;

  // mem-l 810 MHz: 71 of the 83 master clocks (a few ladder steps are not
  // exposed at this level, mirroring the vendor tables).
  MemoryClockDomain mem_l;
  mem_l.level = MemLevel::kLow;
  mem_l.mem_mhz = 810;
  {
    const std::vector<int> skipped = {156, 260, 364, 468, 572, 676,
                                      780, 884, 988, 1092, 1144, 1170};
    for (int f : master) {
      if (std::find(skipped.begin(), skipped.end(), f) == skipped.end()) {
        mem_l.actual_core_mhz.push_back(f);
      }
    }
    mem_l.reported_core_mhz = mem_l.actual_core_mhz;
    mem_l.reported_core_mhz.insert(mem_l.reported_core_mhz.end(), gray.begin(), gray.end());
  }

  // mem-h 3304 MHz and mem-H 3505 MHz: the upper 50 clocks of the ladder
  // (559..1196 MHz), as on real boards where high memory clocks only pair
  // with the performance-range core clocks. Contains the 1001 MHz default.
  std::vector<int> fifty;
  for (int f : master) {
    if (f >= 559) fifty.push_back(f);
  }
  MemoryClockDomain mem_h;
  mem_h.level = MemLevel::kHigh;
  mem_h.mem_mhz = 3304;
  mem_h.actual_core_mhz = fifty;
  mem_h.reported_core_mhz = fifty;
  mem_h.reported_core_mhz.insert(mem_h.reported_core_mhz.end(), gray.begin(), gray.end());

  MemoryClockDomain mem_H = mem_h;
  mem_H.level = MemLevel::kH;
  mem_H.mem_mhz = 3505;

  d.domains_ = {mem_L, mem_l, mem_h, mem_H};
  d.finalize_bounds();
  return d;
}

FrequencyDomain FrequencyDomain::tesla_p100() {
  FrequencyDomain d;
  d.name_ = "NVIDIA Tesla P100 (simulated)";
  MemoryClockDomain mem;
  mem.level = MemLevel::kH;
  mem.mem_mhz = 715;
  for (int f = 544; f <= 1324; f += 13) mem.actual_core_mhz.push_back(f);
  mem.reported_core_mhz = mem.actual_core_mhz;
  d.domains_ = {mem};
  d.default_ = {1324, 715};
  d.finalize_bounds();
  return d;
}

void FrequencyDomain::finalize_bounds() {
  min_core_ = 1 << 30;
  max_core_ = 0;
  min_mem_ = 1 << 30;
  max_mem_ = 0;
  for (const auto& dom : domains_) {
    min_mem_ = std::min(min_mem_, dom.mem_mhz);
    max_mem_ = std::max(max_mem_, dom.mem_mhz);
    for (int f : dom.reported_core_mhz) {
      min_core_ = std::min(min_core_, f);
      max_core_ = std::max(max_core_, f);
    }
  }
}

std::vector<FrequencyConfig> FrequencyDomain::all_actual() const {
  std::vector<FrequencyConfig> out;
  for (const auto& dom : domains_) {
    for (int f : dom.actual_core_mhz) out.push_back({f, dom.mem_mhz});
  }
  return out;
}

bool FrequencyDomain::is_actual(FrequencyConfig c) const noexcept {
  const auto* dom = find_domain(c.mem_mhz);
  if (dom == nullptr) return false;
  return std::find(dom->actual_core_mhz.begin(), dom->actual_core_mhz.end(), c.core_mhz) !=
         dom->actual_core_mhz.end();
}

bool FrequencyDomain::is_reported(FrequencyConfig c) const noexcept {
  const auto* dom = find_domain(c.mem_mhz);
  if (dom == nullptr) return false;
  return std::find(dom->reported_core_mhz.begin(), dom->reported_core_mhz.end(),
                   c.core_mhz) != dom->reported_core_mhz.end();
}

common::Result<FrequencyConfig> FrequencyDomain::resolve(FrequencyConfig requested) const {
  const auto* dom = find_domain(requested.mem_mhz);
  if (dom == nullptr) {
    return common::not_found("memory clock " + std::to_string(requested.mem_mhz) +
                             " MHz is not supported");
  }
  if (std::find(dom->reported_core_mhz.begin(), dom->reported_core_mhz.end(),
                requested.core_mhz) == dom->reported_core_mhz.end()) {
    return common::not_found("core clock " + std::to_string(requested.core_mhz) +
                             " MHz is not reported for memory clock " +
                             std::to_string(requested.mem_mhz) + " MHz");
  }
  if (std::find(dom->actual_core_mhz.begin(), dom->actual_core_mhz.end(),
                requested.core_mhz) != dom->actual_core_mhz.end()) {
    return requested;
  }
  // Reported but not actual: NVML accepts the request and the hardware
  // silently clamps to the highest effective clock of this memory level.
  return FrequencyConfig{dom->actual_core_mhz.back(), dom->mem_mhz};
}

const MemoryClockDomain* FrequencyDomain::find_domain(int mem_mhz) const noexcept {
  for (const auto& dom : domains_) {
    if (dom.mem_mhz == mem_mhz) return &dom;
  }
  return nullptr;
}

const MemoryClockDomain* FrequencyDomain::find_domain(MemLevel level) const noexcept {
  for (const auto& dom : domains_) {
    if (dom.level == level) return &dom;
  }
  return nullptr;
}

common::Result<MemLevel> FrequencyDomain::level_of(int mem_mhz) const {
  const auto* dom = find_domain(mem_mhz);
  if (dom == nullptr) {
    return common::not_found("memory clock " + std::to_string(mem_mhz) + " MHz");
  }
  return dom->level;
}

std::vector<FrequencyConfig> FrequencyDomain::sample_configs(std::size_t total) const {
  // Allocation policy (§3.3 "40 carefully sampled frequency settings"):
  // every configuration of tiny domains (|cores| <= 8) is kept; the rest of
  // the budget is split evenly across the remaining domains with any
  // remainder given to the highest memory clocks.
  std::vector<FrequencyConfig> out;
  std::vector<const MemoryClockDomain*> large;
  std::size_t budget = total;
  for (const auto& dom : domains_) {
    if (dom.actual_core_mhz.size() <= 8) {
      for (int f : dom.actual_core_mhz) out.push_back({f, dom.mem_mhz});
      budget -= std::min(budget, dom.actual_core_mhz.size());
    } else {
      large.push_back(&dom);
    }
  }
  if (large.empty() || budget == 0) return out;
  const std::size_t base = budget / large.size();
  std::size_t extra = budget % large.size();
  // Give remainders to the highest memory clocks first (iterate descending).
  for (auto it = large.rbegin(); it != large.rend(); ++it) {
    std::size_t want = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    want = std::min(want, (*it)->actual_core_mhz.size());
    if (want < 2) want = 2;
    const auto cores = strided_subset((*it)->actual_core_mhz, want, default_.core_mhz);
    for (int f : cores) out.push_back({f, (*it)->mem_mhz});
  }
  // Stable order: mem-major ascending, then core ascending.
  std::sort(out.begin(), out.end(), [](const FrequencyConfig& a, const FrequencyConfig& b) {
    if (a.mem_mhz != b.mem_mhz) return a.mem_mhz < b.mem_mhz;
    return a.core_mhz < b.core_mhz;
  });
  return out;
}

}  // namespace repro::gpusim
