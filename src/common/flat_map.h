// Open-addressing hash map for the numeric hot paths.
//
// `std::unordered_map` costs one heap node per entry and a pointer chase per
// probe; the voxel/feature/cluster inner loops issue millions of lookups
// per frame, so they use this flat, cache-friendly alternative instead:
//
//   * linear probing over a power-of-two slot array (index = hash & mask);
//   * tombstone-free: `Erase` backward-shifts the following probe run
//     (Knuth, TAOCP 6.4 Algorithm R), so probe lengths never degrade under
//     churn and `Find` needs no deleted-marker checks;
//   * the full 64-bit hash is stored per slot (0 reserved for "empty"), so
//     probing rejects non-matches on an integer compare before touching the
//     key, and rehashing never re-invokes the hash functor;
//   * `Clear` keeps capacity — the scratch-reuse pattern (DESIGN.md "Kernel
//     execution & memory") clears maps between frames instead of freeing.
//
// Requirements: Key equality-comparable + default/move-constructible, Value
// default/move-constructible.  The hash functor must mix well — slot indices
// are the *low* bits of the hash (see `pc::VoxelCoordHash`).  Iteration
// (`ForEach`) runs in slot order, which is deterministic for a deterministic
// operation sequence but is NOT insertion order; callers that need a stable
// order must keep their own (the voxel grid and clustering keep
// first-appearance vectors alongside the map).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cooper::common {

template <typename Key, typename Value, typename Hash>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  /// Drops all entries but keeps the slot array (capacity) allocated.
  void Clear() {
    if (size_ == 0) return;
    for (auto& h : hashes_) h = 0;
    for (auto& s : slots_) s = Slot{};
    size_ = 0;
  }

  /// Ensures capacity for `n` entries without rehashing on the way there.
  void Reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    // Grow while `n` would exceed the load-factor ceiling at `cap`.
    while (n * 8 > cap * 7) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

  /// Pointer to the value for `key`, or nullptr.
  Value* Find(const Key& key) {
    if (size_ == 0) return nullptr;
    const std::uint64_t h = HashOf(key);
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      if (hashes_[i] == 0) return nullptr;
      if (hashes_[i] == h && slots_[i].key == key) return &slots_[i].value;
    }
  }
  const Value* Find(const Key& key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  bool Contains(const Key& key) const { return Find(key) != nullptr; }

  /// Inserts `(key, value)` if absent.  Returns the slot's value pointer and
  /// whether an insert happened (existing value left untouched otherwise).
  std::pair<Value*, bool> TryEmplace(const Key& key, Value value = Value{}) {
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::uint64_t h = HashOf(key);
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      if (hashes_[i] == 0) {
        hashes_[i] = h;
        slots_[i].key = key;
        slots_[i].value = std::move(value);
        ++size_;
        return {&slots_[i].value, true};
      }
      if (hashes_[i] == h && slots_[i].key == key) {
        return {&slots_[i].value, false};
      }
    }
  }

  /// Insert-or-assign convenience.
  Value& operator[](const Key& key) { return *TryEmplace(key).first; }

  /// Removes `key` if present; returns whether it was.  Backward-shift
  /// deletion: entries in the following probe run that would become
  /// unreachable through the vacated slot are moved into it, so no tombstone
  /// is left behind.
  bool Erase(const Key& key) {
    if (size_ == 0) return false;
    const std::uint64_t h = HashOf(key);
    std::size_t i = h & mask_;
    for (;; i = (i + 1) & mask_) {
      if (hashes_[i] == 0) return false;
      if (hashes_[i] == h && slots_[i].key == key) break;
    }
    // Shift the cluster after `i` back over the hole.
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask_; hashes_[j] != 0;
         j = (j + 1) & mask_) {
      const std::size_t home = hashes_[j] & mask_;
      // `j`'s probe path wraps through `hole` iff `home` is cyclically
      // outside (hole, j]; only then may it move back into the hole.
      const bool reaches_hole =
          hole <= j ? (home <= hole || home > j) : (home <= hole && home > j);
      if (reaches_hole) {
        hashes_[hole] = hashes_[j];
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    hashes_[hole] = 0;
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Calls `fn(key, value)` for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (hashes_[i] != 0) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
  };

  static constexpr std::size_t kMinCapacity = 16;

  std::uint64_t HashOf(const Key& key) const {
    std::uint64_t h = static_cast<std::uint64_t>(Hash{}(key));
    return h == 0 ? 1 : h;  // 0 marks an empty slot
  }

  void Rehash(std::size_t new_capacity) {
    COOPER_CHECK((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint64_t> old_hashes = std::move(hashes_);
    slots_.assign(new_capacity, Slot{});
    hashes_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_hashes[i] == 0) continue;
      const std::uint64_t h = old_hashes[i];
      std::size_t j = h & mask_;
      while (hashes_[j] != 0) j = (j + 1) & mask_;
      hashes_[j] = h;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> hashes_;  // 0 = empty, else HashOf(key)
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace cooper::common
