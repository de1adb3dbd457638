#ifndef NUCHASE_CORE_POSITION_INDEX_H_
#define NUCHASE_CORE_POSITION_INDEX_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/term.h"
#include "util/hash.h"

namespace nuchase {
namespace core {

/// Index of an atom within an Instance, in insertion order.
using AtomIndex = std::uint32_t;

/// A non-owning view of a run of atom indexes (ascending wherever the
/// instance hands one out). Trivially copyable; valid until the next
/// mutation of the structure it points into.
class IndexSpan {
 public:
  using value_type = AtomIndex;
  using iterator = const AtomIndex*;
  using const_iterator = const AtomIndex*;

  IndexSpan() = default;
  IndexSpan(const AtomIndex* data, std::size_t size)
      : data_(data), size_(size) {}
  // Implicit: a vector is a span.
  IndexSpan(const std::vector<AtomIndex>& v)
      : data_(v.data()), size_(v.size()) {}

  const AtomIndex* data() const { return data_; }
  std::size_t size() const { return size_; }
  const AtomIndex* begin() const { return data_; }
  const AtomIndex* end() const { return data_ + size_; }

  friend bool operator==(IndexSpan a, IndexSpan b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(IndexSpan a, IndexSpan b) { return !(a == b); }

 private:
  const AtomIndex* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One argument position's slice of the (predicate, position, term)
/// join index: term -> the ascending list of atoms holding that term at
/// that position. One open-addressed table, linear probing, no per-term
/// node: a list of up to kInline atoms lives inside its table entry, and
/// only a longer one spills to a heap array that doubles as it grows.
/// Most (position, term) lists of a chase are that short, so the index
/// costs one table per position instead of a node and a vector per key.
///
/// Lists only ever grow at the tail (Append) or shrink at the tail
/// (PopBack, the batch rollback), so they stay ascending. An entry whose
/// list empties keeps its key: entries are never removed, which keeps
/// every probe chain intact without tombstones.
///
/// Find is const and touches nothing, so concurrent readers are safe
/// between mutations. A span from Find is invalidated by the next
/// Append or PopBack on the same table (the table may rehash, and a
/// list may move between its entry and the heap).
class PositionTable {
 public:
  PositionTable() = default;
  PositionTable(const PositionTable&) = delete;
  PositionTable& operator=(const PositionTable&) = delete;
  PositionTable(PositionTable&& o) noexcept
      : entries_(std::move(o.entries_)), used_(o.used_) {
    o.entries_.clear();
    o.used_ = 0;
  }
  PositionTable& operator=(PositionTable&& o) noexcept {
    if (this != &o) {
      FreeSpills();
      entries_ = std::move(o.entries_);
      used_ = o.used_;
      o.entries_.clear();
      o.used_ = 0;
    }
    return *this;
  }
  ~PositionTable() { FreeSpills(); }

  /// The atoms holding `t` at this position (empty if none).
  IndexSpan Find(Term t) const {
    if (entries_.empty()) return {};
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t i = SlotOf(t.bits(), mask);; i = (i + 1) & mask) {
      const Entry& e = entries_[i];
      if (e.key == t.bits()) return IndexSpan(e.data(), e.count);
      if (e.key == kEmptyKey) return {};
    }
  }

  /// Appends `idx` to `t`'s list; `idx` must exceed every index already
  /// there.
  void Append(Term t, AtomIndex idx) {
    assert(t.bits() != kEmptyKey && "the empty-key tag is not a term");
    if ((used_ + 1) * 4 > entries_.size() * 3) Grow();
    Entry& e = Locate(t.bits());
    if (e.key == kEmptyKey) {
      e.key = t.bits();
      ++used_;
    }
    assert((e.count == 0 || e.data()[e.count - 1] < idx) &&
           "position lists are ascending");
    if (e.count < kInline) {
      e.store.inline_atoms[e.count++] = idx;
      return;
    }
    if (e.count == kInline) {
      AtomIndex* heap = new AtomIndex[kFirstSpill];
      std::copy(e.store.inline_atoms, e.store.inline_atoms + kInline, heap);
      e.store.heap = heap;
    } else if (e.count == Capacity(e.count)) {
      AtomIndex* heap = new AtomIndex[std::size_t{e.count} * 2];
      std::copy(e.store.heap, e.store.heap + e.count, heap);
      delete[] e.store.heap;
      e.store.heap = heap;
    }
    e.store.heap[e.count++] = idx;
  }

  /// Removes `idx`, which must be the last atom of `t`'s list.
  void PopBack(Term t, AtomIndex idx) {
    Entry& e = Locate(t.bits());
    assert(e.key == t.bits() && e.count > 0 &&
           e.data()[e.count - 1] == idx && "pop of a non-tail atom");
    (void)idx;
    --e.count;
    if (e.count == kInline) {
      AtomIndex* heap = e.store.heap;
      std::copy(heap, heap + kInline, e.store.inline_atoms);
      delete[] heap;
    }
  }

 private:
  static constexpr std::uint32_t kEmptyKey = 0xffffffffu;  // kind 3
  static constexpr std::uint32_t kInline = 4;
  static constexpr std::uint32_t kFirstSpill = 2 * kInline;

  struct Entry {
    std::uint32_t key = kEmptyKey;
    std::uint32_t count = 0;
    // count <= kInline: the list is inline_atoms[0, count);
    // count > kInline: it is heap[0, count), of Capacity(count) or more.
    union Store {
      AtomIndex inline_atoms[kInline];
      AtomIndex* heap;
    } store{};

    const AtomIndex* data() const {
      return count <= kInline ? store.inline_atoms : store.heap;
    }
  };

  /// The smallest spill capacity a list of `count` > kInline atoms may
  /// have: a power of two, at least kFirstSpill. A list that shrank may
  /// hold more; Append then reallocates early, which is harmless.
  static std::uint32_t Capacity(std::uint32_t count) {
    std::uint32_t cap = kFirstSpill;
    while (cap < count) cap *= 2;
    return cap;
  }

  static std::size_t SlotOf(std::uint32_t key, std::size_t mask) {
    return static_cast<std::size_t>(util::Mix64(key)) & mask;
  }

  /// The entry holding `key`, or the empty entry where it would go.
  Entry& Locate(std::uint32_t key) {
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t i = SlotOf(key, mask);; i = (i + 1) & mask) {
      Entry& e = entries_[i];
      if (e.key == key || e.key == kEmptyKey) return e;
    }
  }

  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.empty() ? 16 : old.size() * 2, Entry{});
    for (const Entry& e : old) {
      if (e.key != kEmptyKey) Locate(e.key) = e;  // spills move as-is
    }
  }

  void FreeSpills() {
    for (Entry& e : entries_) {
      if (e.count > kInline) delete[] e.store.heap;
    }
  }

  std::vector<Entry> entries_;  // size 0 or a power of two
  std::size_t used_ = 0;
};

}  // namespace core
}  // namespace nuchase

#endif  // NUCHASE_CORE_POSITION_INDEX_H_
