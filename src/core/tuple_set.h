#ifndef NUCHASE_CORE_TUPLE_SET_H_
#define NUCHASE_CORE_TUPLE_SET_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/atom.h"
#include "core/term.h"

namespace nuchase {
namespace core {

/// A duplicate-free, insertion-ordered set of fixed-arity term tuples:
/// one relation. Its rows lie back to back in one term vector (row r is
/// terms[r * arity, (r + 1) * arity)) and its dedup table is open
/// addressing over row numbers, slot = low bits of TupleHash(id, row),
/// power-of-two size, empty until the first insert. Nothing is ever
/// erased, so a row number names its tuple for the set's lifetime.
///
/// The one dedup table of the program: core::Instance keeps one per
/// predicate (id = the predicate), and the chase keeps one per rule as
/// its fired set (id = the rule index; a row is a trigger's frontier
/// images, or its body images in the oblivious variant). The id only
/// seeds the hash; sets with different ids are independent.
///
/// Only membership and row numbers are observable, never the probe
/// layout, so the table's layout is not part of the byte-identity
/// contract.
class TupleSet {
 public:
  TupleSet(std::uint32_t id, std::uint32_t arity) : id_(id), arity_(arity) {}

  std::uint32_t arity() const { return arity_; }
  /// The number of rows.
  std::uint32_t size() const { return size_; }
  /// The rows, back to back; valid until the next insert.
  const Term* data() const { return terms_.data(); }
  /// Terms stored across all rows (not capacity).
  std::size_t num_terms() const { return terms_.size(); }
  /// Row `row`, valid until the next insert.
  TermSpan Row(std::uint32_t row) const {
    return TermSpan(terms_.data() + std::size_t{row} * arity_, arity_);
  }

  /// Finds the row holding `tuple`; false if absent (a tuple of another
  /// arity is always absent).
  bool Find(TermSpan tuple, std::uint32_t* row) const {
    if (dedup_.empty() || tuple.size() != arity_) return false;
    const std::uint32_t found = dedup_[Probe(tuple)];
    if (found == kEmptySlot) return false;
    *row = found;
    return true;
  }

  /// Inserts `tuple` (of the set's arity) unless present. Returns its
  /// row and whether it was new. `tuple` may alias this set's own rows:
  /// a stored tuple returns before anything is appended.
  std::pair<std::uint32_t, bool> Insert(TermSpan tuple) {
    assert(tuple.size() == arity_ && "a tuple set has one fixed arity");
    // Keep the table's load factor below ~0.75 (counting the insert to
    // come).
    if ((std::size_t{size_} + 1) * 4 >= dedup_.size() * 3) Grow();
    const std::size_t slot = Probe(tuple);
    if (dedup_[slot] != kEmptySlot) return {dedup_[slot], false};
    const std::uint32_t row = size_++;
    terms_.insert(terms_.end(), tuple.begin(), tuple.end());
    dedup_[slot] = row;
    return {row, true};
  }

 private:
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  /// The slot holding `tuple`'s row, or the empty slot where it would
  /// go. The table is non-empty.
  std::size_t Probe(TermSpan tuple) const {
    const std::size_t mask = dedup_.size() - 1;
    for (std::size_t slot = TupleHash(id_, tuple) & mask;;
         slot = (slot + 1) & mask) {
      const std::uint32_t row = dedup_[slot];
      if (row == kEmptySlot ||
          std::equal(tuple.begin(), tuple.end(), Row(row).begin())) {
        return slot;
      }
    }
  }

  /// Doubles the table (64 slots at the first insert) and re-seats
  /// every row.
  void Grow() {
    const std::size_t new_size = dedup_.empty() ? 64 : dedup_.size() * 2;
    dedup_.assign(new_size, kEmptySlot);
    const std::size_t mask = new_size - 1;
    for (std::uint32_t row = 0; row < size_; ++row) {
      std::size_t slot = TupleHash(id_, Row(row)) & mask;
      while (dedup_[slot] != kEmptySlot) slot = (slot + 1) & mask;
      dedup_[slot] = row;
    }
  }

  std::uint32_t id_;
  std::uint32_t arity_;
  std::uint32_t size_ = 0;
  std::vector<Term> terms_;
  std::vector<std::uint32_t> dedup_;
};

}  // namespace core
}  // namespace nuchase

#endif  // NUCHASE_CORE_TUPLE_SET_H_
