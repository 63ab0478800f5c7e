// Flat hash table keyed by block address: the DRAM mapping table of
// SrcCache (§4.1), of the compressed tier and of the baseline caches.
//
// Open addressing over a power-of-two slot array: linear probing from a
// multiplicative (Fibonacci) hash, at most 7/8 full, and backward-shift
// erase, so churn leaves no tombstones and probe runs stay short. The key
// ~0 marks an empty slot; it is kDeadSlot/kTombstone elsewhere, never a
// real LBA, and inserting it throws.
//
// Unlike std::unordered_map, entries move: an insert may grow the table
// and an erase shifts its neighbours back, so a pointer from find, at or
// try_emplace is valid only until the next insert or erase. Iteration
// runs in slot order, a function of the operations applied.
#pragma once

#include <bit>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace srcache::common {

template <typename V>
class LbaMap {
 public:
  static constexpr u64 kEmptyKey = ~u64{0};
  static constexpr size_t kMinSlots = 16;

  struct Slot {
    u64 key = kEmptyKey;
    V value{};
  };

  // Visits the occupied slots; read-only, so iteration cannot move them.
  class const_iterator {
   public:
    const_iterator(const Slot* p, const Slot* end) : p_(p), end_(end) {
      skip();
    }
    const Slot& operator*() const { return *p_; }
    const_iterator& operator++() {
      ++p_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return p_ == o.p_; }

   private:
    void skip() {
      while (p_ != end_ && p_->key == kEmptyKey) ++p_;
    }
    const Slot* p_;
    const Slot* end_;
  };

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] size_t slot_count() const { return slots_.size(); }

  // Empties the table and keeps its slots.
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  [[nodiscard]] V* find(u64 key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] const V* find(u64 key) const {
    if (size_ == 0) return nullptr;
    for (size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      // Empty first: a probe for ~0 itself must stop, not match.
      if (s.key == kEmptyKey) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  [[nodiscard]] bool contains(u64 key) const { return find(key) != nullptr; }

  V& at(u64 key) { return const_cast<V&>(std::as_const(*this).at(key)); }
  const V& at(u64 key) const {
    const V* v = find(key);
    if (v == nullptr) throw std::out_of_range("LbaMap::at: key not present");
    return *v;
  }

  // Insert-or-find in one probe: returns the entry for `key` and whether
  // it was inserted (with `value`) by this call.
  std::pair<V*, bool> try_emplace(u64 key, const V& value = V{}) {
    if (key == kEmptyKey)
      throw std::invalid_argument("LbaMap: key ~0 marks an empty slot");
    if (!slots_.empty()) {
      size_t i = home(key);
      for (; slots_[i].key != kEmptyKey; i = (i + 1) & mask_)
        if (slots_[i].key == key) return {&slots_[i].value, false};
      if ((size_ + 1) * 8 <= slots_.size() * 7)
        return {place(i, key, value), true};
    }
    rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    size_t i = home(key);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
    return {place(i, key, value), true};
  }

  V& operator[](u64 key) { return *try_emplace(key).first; }

  // Removes `key`; returns whether it was present.
  bool erase(u64 key) {
    if (size_ == 0) return false;
    size_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      if (slots_[i].key == kEmptyKey) return false;
      if (slots_[i].key == key) break;
    }
    // Backward shift: an entry further along the run moves into the hole
    // unless its home lies cyclically inside (hole, entry].
    for (size_t j = (i + 1) & mask_; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
    return true;
  }

  [[nodiscard]] const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  [[nodiscard]] const_iterator end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

 private:
  [[nodiscard]] size_t home(u64 key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  V* place(size_t i, u64 key, const V& value) {
    slots_[i].key = key;
    slots_[i].value = value;
    ++size_;
    return &slots_[i].value;
  }

  void rehash(size_t cap) {
    std::vector<Slot> old(cap);
    old.swap(slots_);
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
    for (Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      size_t i = home(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace srcache::common
