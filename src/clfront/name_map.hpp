// Open-addressing hash map from names to values, for the frontend's hot
// lookups: the lowering's lexical scopes and function signatures, and call
// resolution over function summaries. One flat slot array with linear
// probing, so an entry costs no allocation of its own; the array grows by
// doubling and is kept across clear().
//
// Keys are views: whoever inserts a name keeps its bytes alive for as long
// as the entry is used (until the next clear()). clear() is O(1) — slots
// written before it belong to an older generation and read as empty, so
// their keys are never looked at again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace repro::clfront {

template <typename V>
class NameMap {
 public:
  /// The value of `name`, or nullptr.
  [[nodiscard]] V* find(std::string_view name) noexcept {
    if (slots_.empty()) return nullptr;
    const std::size_t hash = hash_of(name);
    for (std::size_t i = hash & mask();; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) return nullptr;
      if (slot.hash == hash && slot.key == name) return &slot.value;
    }
  }
  [[nodiscard]] const V* find(std::string_view name) const noexcept {
    return const_cast<NameMap*>(this)->find(name);
  }

  /// The value of `name` — value-initialized and `true` when it was just
  /// added. The pointer is valid until the next insert().
  std::pair<V*, bool> insert(std::string_view name) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t hash = hash_of(name);
    for (std::size_t i = hash & mask();; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        slot = Slot{name, hash, generation_, V{}};
        ++size_;
        return {&slot.value, true};
      }
      if (slot.hash == hash && slot.key == name) return {&slot.value, false};
    }
  }

  /// Forget every entry, keeping the slot array.
  void clear() noexcept {
    size_ = 0;
    if (++generation_ == 0) {  // wrapped: no slot may look current
      for (Slot& slot : slots_) slot.generation = 0;
      generation_ = 1;
    }
  }

 private:
  struct Slot {
    std::string_view key;
    std::size_t hash = 0;
    std::uint32_t generation = 0;  // current generation: occupied
    V value{};
  };

  static std::size_t hash_of(std::string_view name) noexcept {
    return std::hash<std::string_view>{}(name);
  }
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }

  /// Double the slot array (16 to start) and re-insert the live entries.
  void grow() {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(
                                                      slots_.empty() ? 16 : 2 * slots_.size()));
    const std::uint32_t live = generation_;
    generation_ = 1;
    for (Slot& slot : old) {
      if (slot.generation != live) continue;
      std::size_t i = slot.hash & mask();
      while (slots_[i].generation == generation_) i = (i + 1) & mask();
      slots_[i] = std::move(slot);
      slots_[i].generation = generation_;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t generation_ = 1;
  std::size_t size_ = 0;
};

}  // namespace repro::clfront
