#ifndef NUCHASE_CORE_INSTANCE_H_
#define NUCHASE_CORE_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/atom.h"
#include "core/position_index.h"
#include "core/symbol_table.h"
#include "core/tuple_set.h"

namespace nuchase {
namespace core {

/// A (finite prefix of an) instance: a duplicate-free, insertion-ordered
/// set of atoms over constants and nulls, stored columnar ("VLog-style")
/// and partitioned by predicate:
///
///   - every predicate owns a *segment*, created at its first insert
///     with that insert's arity: one core::TupleSet (the rows, back to
///     back, plus their dedup table), its own per-(position, term) join
///     index (one flat PositionTable per argument position) and its
///     own insertion-ordered atom list;
///   - a global directory of AtomRefs (predicate + offset *within that
///     predicate's row vector*) maps AtomIndex to its tuple — the
///     global-index indirection. Indexes are assigned in insertion
///     order across all predicates and are stable forever; every
///     layered structure (join indexes, the chase's delta windows and
///     forest) speaks global AtomIndexes only;
///   - dedup is the segment's TupleSet: open addressing over local row
///     numbers, keyed by the (predicate, tuple) hash and probing the
///     rows directly. Contains / Find / Insert never materialize an
///     Atom and never read the global directory.
///
/// Atoms are exposed as AtomView handles (see core/atom.h) that point
/// straight into a segment's row vector. A view, a TupleData pointer
/// and every IndexSpan the instance hands out are valid until the next
/// insert; re-resolve an index after inserting.
///
/// Thread safety: between mutations, every const method — FindTuple,
/// atom(), TupleData(), AtomsWithPredicate(In), AtomsWithTermAt and the
/// rest — is safe to call concurrently: none of them mutate anything,
/// not even lazily. No mutation may overlap any read.
class Instance {
 public:
  Instance() = default;
  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;

  /// The fast path: inserts the tuple `pred(terms...)` without
  /// materializing an Atom. Returns the atom's index and whether it was
  /// new. `terms` may alias this instance's own rows: a stored tuple of
  /// `pred` is a duplicate and returns before anything is appended, and
  /// appending to `pred`'s rows never moves another predicate's. The
  /// tuple's size must equal the arity every earlier tuple of `pred`
  /// had.
  std::pair<AtomIndex, bool> InsertTuple(PredicateId pred, TermSpan terms);

  /// Convenience wrapper over InsertTuple for materialized atoms.
  std::pair<AtomIndex, bool> Insert(const Atom& atom) {
    return InsertTuple(atom.predicate, atom.terms());
  }

  bool ContainsTuple(PredicateId pred, TermSpan terms) const {
    AtomIndex ignored;
    return FindTuple(pred, terms, &ignored);
  }
  bool Contains(const Atom& atom) const {
    return ContainsTuple(atom.predicate, atom.terms());
  }

  /// Finds the index of a tuple by probing its segment; returns false
  /// if absent.
  bool FindTuple(PredicateId pred, TermSpan terms, AtomIndex* index) const;
  bool Find(const Atom& atom, AtomIndex* index) const {
    return FindTuple(atom.predicate, atom.terms(), index);
  }

  /// A view of the i-th atom (insertion order), valid until the next
  /// insert. Cheap; resolve freely.
  AtomView atom(AtomIndex i) const {
    const AtomRef& ref = refs_[i];
    return AtomView(RowPtr(ref), ref.predicate, ref.arity);
  }

  /// Raw pointer to the i-th atom's argument tuple in its segment — the
  /// join kernel's per-probe accessor (one ref load + one segment
  /// load). Valid until the next insert.
  const Term* TupleData(AtomIndex i) const { return RowPtr(refs_[i]); }

  std::size_t size() const { return refs_.size(); }
  bool empty() const { return refs_.empty(); }

  /// All atom indexes with the given predicate (empty if none).
  const std::vector<AtomIndex>& AtomsWithPredicate(PredicateId pred) const;

  /// Arity of a predicate as stored here: the arity of its first
  /// insert, which created its segment; 0 if `pred` has no atoms yet. A
  /// populated 0-ary predicate also returns 0 — ask
  /// AtomsWithPredicate(pred).empty() to distinguish "unseen" from
  /// "nullary".
  std::uint32_t PredicateArity(PredicateId pred) const {
    if (pred >= segments_.size() || segments_[pred] == nullptr) return 0;
    return segments_[pred]->tuples.arity();
  }

  /// Atom indexes with predicate `pred` in the global index window
  /// [begin, end), ascending (empty if none). A segment's atom list is
  /// ascending — global indexes are assigned at insert — so the window
  /// is one contiguous run of it, found by two binary searches. This is
  /// how the semi-naive chase reads a round's delta. The span points
  /// into the segment's atom list: it stays valid until the next insert.
  IndexSpan AtomsWithPredicateIn(PredicateId pred, AtomIndex begin,
                                 AtomIndex end) const;

  /// All atom indexes with predicate `pred` and term `t` at position
  /// `pos`, ascending. The span points into the segment's position
  /// table: it stays valid until the next insert — the join kernel
  /// reads it while the instance is frozen.
  IndexSpan AtomsWithTermAt(PredicateId pred, std::uint32_t pos,
                            Term t) const {
    if (pred >= segments_.size() || segments_[pred] == nullptr) return {};
    const Segment& seg = *segments_[pred];
    if (pos >= seg.by_position.size()) return {};
    return seg.by_position[pos].Find(t);
  }

  // Memory accounting ------------------------------------------------------

  /// Bytes of term storage the stored tuples occupy (stored terms, not
  /// vector capacity), so the number is deterministic for a given atom
  /// set — the `arena_bytes` chase counter.
  std::uint64_t arena_bytes() const {
    return arena_terms() * sizeof(Term);
  }

  /// Terms stored across all segments (not capacity).
  std::uint64_t arena_terms() const {
    std::uint64_t total = 0;
    for (const auto& seg : segments_) {
      if (seg != nullptr) total += seg->tuples.num_terms();
    }
    return total;
  }

  /// Sorted multi-line rendering (stable across runs), for tests and goldens.
  std::string ToSortedString(const SymbolScope& symbols) const;

 private:
  /// Everything one predicate owns, created at its first insert.
  /// Segments are heap-allocated, so appending to one segment's vectors
  /// never moves another's.
  struct Segment {
    Segment(PredicateId pred, std::uint32_t arity)
        : tuples(pred, arity), by_position(arity) {}
    // The rows and their dedup table; row r is the r-th atom of this
    // predicate.
    TupleSet tuples;
    // Global indexes of this predicate's atoms by row, insertion order
    // (hence ascending): the AtomsWithPredicate list.
    std::vector<AtomIndex> atoms;
    // by_position[pos]: term -> global indexes.
    std::vector<PositionTable> by_position;
  };

  const Term* RowPtr(const AtomRef& ref) const {
    return segments_[ref.predicate]->tuples.data() + ref.offset;
  }

  // The per-predicate segment directory. Dense by PredicateId (ids are
  // interned small ints); a null entry means the predicate has no
  // atoms yet.
  std::vector<std::unique_ptr<Segment>> segments_;

  // The global-index indirection: AtomIndex -> (predicate, offset into
  // the segment's rows, arity). Assigned in insertion order across all
  // predicates, stable forever. This directory is the `size()`
  // authority.
  std::vector<AtomRef> refs_;

  static const std::vector<AtomIndex> kEmpty;
};

}  // namespace core
}  // namespace nuchase

#endif  // NUCHASE_CORE_INSTANCE_H_
