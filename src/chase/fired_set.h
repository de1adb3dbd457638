#ifndef NUCHASE_CHASE_FIRED_SET_H_
#define NUCHASE_CHASE_FIRED_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.h"

namespace nuchase {
namespace chase {

/// A borrowed fired-set key: a run of uint32 words. The chase builds
/// every key in one reused buffer and probes through this view, so no
/// key is ever an allocation of its own.
class KeySpan {
 public:
  KeySpan(const std::uint32_t* data, std::size_t size)
      : data_(data), size_(size) {}
  // Implicit: a vector is a key.
  KeySpan(const std::vector<std::uint32_t>& v)
      : data_(v.data()), size_(v.size()) {}

  const std::uint32_t* begin() const { return data_; }
  const std::uint32_t* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }

 private:
  const std::uint32_t* data_;
  std::size_t size_;
};

/// The collect-phase (σ, h)-dedup set: one flat open-addressing table
/// over one flat key arena. Keys are small uint32 sequences (rule index
/// plus term images, BuildFiredKey's layout); they are appended
/// back-to-back into `arena_` and each table slot records (hash, offset,
/// length) — no per-key heap node, no bucket lists. Replaces the former
/// 16-way sharded unordered_set group: the set is cumulative across a
/// run's rounds, and under the flat layout its growth costs amortized
/// appends into two vectors instead of a node allocation per key and a
/// bucket-array rehash per doubling of every shard.
///
/// Byte-identity holds trivially: only membership is ever observed,
/// never iteration order, so the probe layout is not part of the
/// deterministic contract.
///
/// One set serves one chase run; nothing is ever erased.
class FlatFiredSet {
 public:
  FlatFiredSet() : slots_(kInitialSlots) {}

  /// True iff `key` was inserted.
  bool Contains(KeySpan key) const {
    const std::uint64_t h = HashKey(key);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(h) & mask;;
         i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (!s.live) return false;  // first hole: absent
      if (s.hash == h && KeyEquals(s, key)) return true;
    }
  }

  /// True iff the key was newly inserted.
  bool Insert(KeySpan key) {
    // Linear probing wants headroom: grow at 7/8 occupancy so probe
    // chains stay short even in the table's final generation.
    if ((size_ + 1) * 8 > slots_.size() * 7) Grow();
    const std::uint64_t h = HashKey(key);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(h) & mask;;
         i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (!s.live) {
        s.hash = h;
        s.offset = arena_.size();
        s.len = static_cast<std::uint32_t>(key.size());
        s.live = true;
        arena_.insert(arena_.end(), key.begin(), key.end());
        ++size_;
        return true;
      }
      if (s.hash == h && KeyEquals(s, key)) return false;
    }
  }

  /// Number of keys inserted.
  std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    bool live = false;  // false: a hole
  };

  static constexpr std::size_t kInitialSlots = 256;  // power of two

  static std::uint64_t HashKey(KeySpan key) {
    // Same word mixer as the sharded predecessor (and the instance's
    // tuple index); the extra finalizer keeps the low bits — which the
    // power-of-two mask consumes directly — fully mixed.
    return util::Mix64(util::HashRange(key.begin(), key.end(), key.size()));
  }

  bool KeyEquals(const Slot& s, KeySpan key) const {
    if (s.len != key.size()) return false;
    return std::equal(key.begin(), key.end(), arena_.data() + s.offset);
  }

  void Grow() {
    std::vector<Slot> grown(slots_.size() * 2);
    const std::size_t mask = grown.size() - 1;
    for (const Slot& s : slots_) {
      if (!s.live) continue;
      std::size_t i = static_cast<std::size_t>(s.hash) & mask;
      while (grown[i].live) i = (i + 1) & mask;
      grown[i] = s;
    }
    slots_.swap(grown);
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> arena_;
  std::size_t size_ = 0;
};

}  // namespace chase
}  // namespace nuchase

#endif  // NUCHASE_CHASE_FIRED_SET_H_
