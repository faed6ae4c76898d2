// Flat key→id index over a vector of distinct keys.
#ifndef ANTIMR_COMMON_KEY_INDEX_H_
#define ANTIMR_COMMON_KEY_INDEX_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/slice.h"

namespace antimr {

/// \brief Open-addressing key→id index over a vector of distinct keys.
///
/// The AntiCombiner's decode loop probes this once per key, so it is a
/// flat pow2 table of (hash32, id) slots with linear probing: one hash, a
/// masked index, and inline verification against the entry vector, instead
/// of std::unordered_map's modulo and bucket chain. Entries must be unique
/// and must outlive the index, which stores only ids into them. Call
/// Rebuild before the first Find or Insert.
class KeyIndex {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;

  /// Drop all slots and re-seed from `entries[0..n)`.
  void Rebuild(const std::vector<Slice>& entries) {
    size_t want = 16;
    while (want < entries.size() * 2) want <<= 1;
    slots_.assign(want, kEmpty);
    mask_ = want - 1;
    size_ = 0;
    for (uint32_t id = 0; id < entries.size(); ++id) Insert(entries, id);
  }

  uint32_t Find(const std::vector<Slice>& entries, const Slice& key) const {
    const uint64_t h = Hash(key);
    for (size_t idx = h & mask_;; idx = (idx + 1) & mask_) {
      const uint64_t slot = slots_[idx];
      if (slot == kEmpty) return kNotFound;
      if (static_cast<uint32_t>(slot >> 32) == static_cast<uint32_t>(h) &&
          entries[static_cast<uint32_t>(slot)] == key) {
        return static_cast<uint32_t>(slot);
      }
    }
  }

  /// Index `entries[id]`, which the caller just appended.
  void Insert(const std::vector<Slice>& entries, uint32_t id) {
    if ((size_ + 1) * 4 > (mask_ + 1) * 3) Grow(entries);
    const uint64_t h = Hash(entries[id]);
    size_t idx = h & mask_;
    while (slots_[idx] != kEmpty) idx = (idx + 1) & mask_;
    slots_[idx] = (h << 32) | id;
    ++size_;
  }

 private:
  static uint64_t Hash(const Slice& key) {
    return static_cast<uint32_t>(std::hash<std::string_view>{}(key.view()));
  }

  void Grow(const std::vector<Slice>& entries) {
    std::vector<uint64_t> old;
    old.swap(slots_);
    slots_.assign((mask_ + 1) * 2, kEmpty);
    mask_ = slots_.size() - 1;
    for (uint64_t slot : old) {
      if (slot == kEmpty) continue;
      const uint64_t h = Hash(entries[static_cast<uint32_t>(slot)]);
      size_t idx = h & mask_;
      while (slots_[idx] != kEmpty) idx = (idx + 1) & mask_;
      slots_[idx] = slot;
    }
  }

  // Each slot packs (hash32 << 32) | entry id; ids stay far below 2^32-1,
  // so an all-ones slot can only mean empty.
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace antimr

#endif  // ANTIMR_COMMON_KEY_INDEX_H_
