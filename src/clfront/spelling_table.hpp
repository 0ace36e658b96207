// Compile-time open-addressing table keyed by short spellings: the lexer's
// keyword and type-name table and the lowering's builtin-library table are
// both built by a constexpr initializer, so a lookup costs one FNV-1a hash
// and, in the common case, one length compare — no allocation, no startup.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace repro::clfront {

template <typename Value, std::size_t kMaxLength, std::size_t kSlots>
class SpellingTable {
 public:
  /// The value of `word`, added value-initialized if absent. Build-time
  /// only: a spelling longer than kMaxLength or a full table fails the
  /// constant evaluation.
  constexpr Value& insert(std::string_view word) {
    if (word.empty() || word.size() > kMaxLength || size_ + 1 >= kSlots) {
      throw "spelling table: word too long or table full";
    }
    for (std::size_t i = hash(word);; i = (i + 1) % kSlots) {
      Slot& slot = slots_[i];
      if (slot.length == 0) {
        for (std::size_t j = 0; j < word.size(); ++j) slot.text[j] = word[j];
        slot.length = static_cast<std::uint8_t>(word.size());
        ++size_;
        return slot.value;
      }
      if (slot.spelling() == word) return slot.value;
    }
  }

  /// The value of `word`, or nullptr when the table does not hold it.
  [[nodiscard]] constexpr const Value* find(std::string_view word) const noexcept {
    if (word.empty() || word.size() > kMaxLength) return nullptr;
    for (std::size_t i = hash(word);; i = (i + 1) % kSlots) {
      const Slot& slot = slots_[i];
      if (slot.length == 0) return nullptr;
      if (slot.length == word.size() && slot.spelling() == word) return &slot.value;
    }
  }

 private:
  struct Slot {
    std::array<char, kMaxLength> text{};
    std::uint8_t length = 0;  // 0: empty slot
    Value value{};

    [[nodiscard]] constexpr std::string_view spelling() const noexcept {
      return {text.data(), length};
    }
  };

  static constexpr std::size_t hash(std::string_view word) noexcept {
    std::uint32_t h = 2166136261u;  // FNV-1a
    for (const char c : word) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
    return h % kSlots;
  }

  std::array<Slot, kSlots> slots_{};
  std::size_t size_ = 0;
};

}  // namespace repro::clfront
