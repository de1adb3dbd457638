#ifndef NUCHASE_CORE_INSTANCE_H_
#define NUCHASE_CORE_INSTANCE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/atom.h"
#include "core/position_index.h"
#include "core/symbol_table.h"

namespace nuchase {
namespace core {

/// A (finite prefix of an) instance: a duplicate-free, insertion-ordered
/// set of atoms over constants and nulls, stored columnar ("VLog-style")
/// and partitioned by predicate:
///
///   - every predicate owns a *segment*: its own extent-sharded term
///     arena (fixed-size extents of 2^extent_log2 terms, default 2^16;
///     immobile unique_ptr<Term[]> blocks; tuples never straddle an
///     extent boundary — short tail gaps are padded per segment and
///     excluded from every accounting number), its own dedup table,
///     its own per-(position, term) join index (one flat
///     PositionTable per argument position), its own
///     insertion-ordered atom list, and its own delta watermark;
///   - a global directory of AtomRefs (predicate + offset *within that
///     predicate's segment*) maps AtomIndex to its tuple — the
///     global-index indirection. Indexes are assigned in insertion
///     order across all predicates and are stable forever; every
///     layered structure (join indexes, delta lists, the chase's
///     forest) speaks global AtomIndexes only;
///   - dedup is per-segment open addressing keyed by the
///     (predicate, tuple) hash, probing tuples directly in the segment
///     arena. Contains / Find / Insert never materialize an Atom.
///
/// Atoms are exposed as AtomView handles (see core/atom.h): views point
/// straight into the immobile extent blocks, so they stay valid across
/// later inserts and across moves of the Instance; only destroying the
/// owning storage invalidates them.
///
/// Thread safety: between mutations, concurrent const reads are safe
/// for the accessors the join kernel uses — FindTuple / ContainsTuple,
/// atom(), TupleData(), AtomsWithPredicate, AtomsWithTermAt,
/// DeltaAtomsWithPredicate, size(), PredicateArity — none of them
/// mutate anything, not even lazily. Two exceptions are NOT safe
/// concurrently: ActiveDomain() (lazily catches a mutable cache up)
/// and, of course, any non-const method; no mutation may overlap any
/// read.
class Instance {
 public:
  /// Terms per extent = 2^kDefaultExtentLog2. 2^16 terms = 256 KiB per
  /// extent: big enough that padding waste is negligible, small enough
  /// that growth never copies or stalls. Extents are per predicate
  /// segment, so a workload's footprint scales with the predicates it
  /// actually populates.
  static constexpr std::uint32_t kDefaultExtentLog2 = 16;

  Instance() : Instance(kDefaultExtentLog2) {}

  /// An instance whose arena extents hold 2^extent_log2 terms. Tests
  /// shrink this to force tuples across extent boundaries; the geometry
  /// is observationally invisible. Every tuple's arity must fit in one
  /// extent.
  explicit Instance(std::uint32_t extent_log2)
      : extent_log2_(extent_log2),
        extent_capacity_(std::uint64_t{1} << extent_log2),
        extent_mask_(extent_capacity_ - 1) {}

  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;

  /// The fast path: inserts the tuple `pred(terms...)` without
  /// materializing an Atom. Returns the atom's index and whether it was
  /// new. `terms` may alias this instance's own arena (re-inserting a
  /// view's tuple is safe — extents are immobile, so no growth can
  /// invalidate the source). The tuple's size must equal the arity
  /// every earlier tuple of `pred` had.
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

  /// A view of the i-th atom (insertion order). Cheap; resolve freely.
  AtomView atom(AtomIndex i) const {
    const AtomRef& ref = refs_[i];
    return AtomView(TuplePtr(*segments_[ref.predicate], ref.offset),
                    ref.predicate, ref.arity);
  }

  /// Raw pointer to the i-th atom's argument tuple in its segment — the
  /// join kernel's per-probe accessor (one ref load + one segment/extent
  /// load). Extents are immobile, so this pointer is NOT invalidated by
  /// later inserts; it lives as long as the instance's storage.
  const Term* TupleData(AtomIndex i) const {
    const AtomRef& ref = refs_[i];
    return TuplePtr(*segments_[ref.predicate], ref.offset);
  }

  std::size_t size() const { return refs_.size(); }
  bool empty() const { return refs_.empty(); }

  /// All atom indexes with the given predicate (empty if none).
  const std::vector<AtomIndex>& AtomsWithPredicate(PredicateId pred) const;

  /// Arity of a predicate as stored here; 0 if `pred` has no atoms yet
  /// and no arity was recorded. A populated 0-ary predicate also
  /// returns 0 — ask AtomsWithPredicate(pred).empty() to distinguish
  /// "unseen" from "nullary".
  std::uint32_t PredicateArity(PredicateId pred) const {
    if (pred >= segments_.size() || segments_[pred] == nullptr) return 0;
    std::uint32_t arity = segments_[pred]->arity;
    return arity == kUnknownArity ? 0 : arity;
  }

  /// Turns on the per-predicate delta index used by the semi-naive chase
  /// engine: every atom inserted after this call is part of the "next"
  /// delta generation until AdvanceDelta() rotates it into the current
  /// one. Off by default so non-chase users (query evaluation,
  /// saturation) pay nothing — and because the generations are
  /// watermarks into the segments' insertion-ordered atom lists, even
  /// *on* it costs inserts nothing.
  void EnableDeltaTracking();
  bool delta_tracking_enabled() const { return track_delta_; }

  /// Rotates the delta generations: the atoms inserted since the last
  /// call become the current delta; the previous current delta is
  /// discarded. Returns the number of atoms in the new current delta.
  std::size_t AdvanceDelta();

  /// Atom indexes of the current delta with the given predicate (empty if
  /// none, or if delta tracking is disabled). Indexes are in insertion
  /// order, mirroring AtomsWithPredicate restricted to the last
  /// generation.
  const std::vector<AtomIndex>& DeltaAtomsWithPredicate(
      PredicateId pred) const;

  /// Number of atoms in the current delta generation.
  std::size_t delta_size() const { return delta_curr_size_; }

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

  /// dom(I): the active domain (constants and nulls occurring in the
  /// instance). Maintained incrementally behind an atom-index
  /// watermark: each call only scans the tuples of atoms inserted
  /// since the previous call, so the total work over any insert/read
  /// interleaving is O(terms) — and inserts themselves pay nothing for
  /// it. (The watermark walks the global directory, not raw segment
  /// positions, so extent padding is never scanned.) Deterministic
  /// iteration order: first occurrence in the insertion sequence.
  /// (Catch-up mutates cache members; do not call concurrently on a
  /// shared Instance.)
  const std::vector<Term>& ActiveDomain() const;

  // Memory accounting ------------------------------------------------------

  /// Bytes of term storage the stored tuples occupy (used terms only:
  /// neither extent capacity nor per-segment boundary padding counts),
  /// so the number is deterministic for a given atom set regardless of
  /// extent geometry or the predicate partition — the `arena_bytes`
  /// chase counter.
  std::uint64_t arena_bytes() const {
    return arena_terms() * sizeof(Term);
  }

  /// Terms stored across all segments (used, not padding or capacity).
  std::uint64_t arena_terms() const {
    std::uint64_t total = 0;
    for (const auto& seg : segments_) {
      if (seg != nullptr) total += seg->used_terms;
    }
    return total;
  }

  /// Sorted multi-line rendering (stable across runs), for tests and goldens.
  std::string ToSortedString(const SymbolScope& symbols) const;

 private:
  static constexpr AtomIndex kEmptySlot = 0xffffffffu;
  // Arity sentinel for segments that exist but have no tuples yet.
  static constexpr std::uint32_t kUnknownArity = 0xffffffffu;

  /// Everything one predicate owns. Segments are heap-allocated and
  /// never move once created.
  struct Segment {
    // Extent-sharded term arena: tuples appended back to back, local
    // offsets, padding at extent boundaries (excluded from used_terms).
    std::vector<std::unique_ptr<Term[]>> extents;
    std::uint64_t raw_next = 0;    // next raw append offset (incl. padding)
    std::uint64_t used_terms = 0;  // stored terms (excl. padding)
    // Fixed arity, learned at the first insert.
    std::uint32_t arity = kUnknownArity;
    // The dedup table: open addressing over this predicate's global
    // indexes, slot = low bits of the tuple hash, power-of-two size
    // (empty until the first insert). It holds exactly `atoms`.
    std::vector<AtomIndex> dedup;
    // Global indexes of this predicate's atoms, insertion order — both
    // the AtomsWithPredicate list and the delta watermark's substrate.
    std::vector<AtomIndex> atoms;
    // by_position[pos]: term -> global indexes (sized to the arity at
    // the first recorded tuple).
    std::vector<PositionTable> by_position;
    // Two-generation delta as watermarks into `atoms`: the "next"
    // generation is atoms[delta_next_mark ..); AdvanceDelta materializes
    // it into delta_curr (the stable vector DeltaAtomsWithPredicate
    // returns) and advances the mark. No per-insert work.
    std::vector<AtomIndex> delta_curr;
    std::size_t delta_next_mark = 0;
  };

  const Term* TuplePtr(const Segment& seg, std::uint64_t offset) const {
    return seg.extents[offset >> extent_log2_].get() +
           (offset & extent_mask_);
  }

  /// The segment of `pred`, created (empty) if absent.
  Segment& EnsureSegment(PredicateId pred);

  /// Learns (or checks) the fixed arity of a segment's predicate.
  void LearnArity(Segment* seg, std::uint32_t n) {
    if (seg->arity == kUnknownArity) seg->arity = n;
    assert(seg->arity == n && "predicate arity is fixed per Instance");
  }

  /// Probes `seg`'s (non-empty) dedup table for (pred, terms) with its
  /// precomputed hash. Returns the slot holding the matching atom's
  /// index, or the empty slot where it would be inserted.
  std::size_t Probe(const Segment& seg, PredicateId pred, TermSpan terms,
                    std::size_t hash) const;

  /// Doubles `seg`'s dedup table and re-seats every atom of the
  /// segment.
  void GrowDedup(Segment* seg);

  /// Appends a tuple to `seg`'s arena (padding to the next extent if
  /// the current one cannot hold it whole) and returns its local
  /// offset. The source may alias the arena: extents are immobile and
  /// the target region is fresh, so the copy is safe either way.
  std::uint64_t AppendTuple(Segment* seg, const Term* src, std::uint32_t n);

  /// Records the freshly appended tuple (already in the segment arena at
  /// `offset`, already numbered `idx`) in the segment's atom list and
  /// position index.
  void RecordTuple(Segment* seg, AtomIndex idx, std::uint64_t offset,
                   std::uint32_t n);

  bool TupleAt(AtomIndex idx, PredicateId pred, TermSpan terms) const {
    const AtomRef& ref = refs_[idx];
    if (ref.predicate != pred) return false;
    return TermSpan(TuplePtr(*segments_[ref.predicate], ref.offset),
                    ref.arity) == terms;
  }

  // Extent geometry, shared by every segment.
  std::uint32_t extent_log2_;
  std::uint64_t extent_capacity_;
  std::uint64_t extent_mask_;

  // The per-predicate segment directory. Dense by PredicateId (ids are
  // interned small ints); a null entry means the predicate has never
  // been touched.
  std::vector<std::unique_ptr<Segment>> segments_;

  // The global-index indirection: AtomIndex -> (predicate, local
  // offset, arity). Assigned in insertion order across all predicates,
  // stable forever. This directory is the `size()` authority.
  std::vector<AtomRef> refs_;

  // Active-domain cache: `domain_` lists every distinct term of the
  // first `domain_scanned_` atoms' tuples in first-occurrence order
  // (deterministic), `domain_seen_` is the membership filter behind
  // it. Caught up lazily by ActiveDomain() so the insert fast path
  // never touches it; mutable because catch-up happens in the const
  // accessor.
  mutable std::vector<Term> domain_;
  mutable std::unordered_set<Term> domain_seen_;
  mutable AtomIndex domain_scanned_ = 0;

  // Delta tracking (semi-naive evaluation): the generations live in
  // the segments as watermarks; this is just the switch and the
  // current generation's total size.
  bool track_delta_ = false;
  std::size_t delta_curr_size_ = 0;

  static const std::vector<AtomIndex> kEmpty;
};

}  // namespace core
}  // namespace nuchase

#endif  // NUCHASE_CORE_INSTANCE_H_
