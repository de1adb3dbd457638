#ifndef NUCHASE_CORE_INSTANCE_H_
#define NUCHASE_CORE_INSTANCE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/atom.h"
#include "core/position_index.h"
#include "core/symbol_table.h"
#include "util/thread_pool.h"

namespace nuchase {
namespace core {

/// One tuple of a batched insert (Instance::InsertTupleBatch): the atom
/// `pred(buffer[begin], ..., buffer[begin + arity - 1])` over the
/// caller's shared candidate term buffer.
struct BatchTuple {
  PredicateId pred = kInvalidPredicate;
  std::uint64_t begin = 0;
  std::uint32_t arity = 0;
};

/// A (finite prefix of an) instance: a duplicate-free, insertion-ordered
/// set of atoms over constants and nulls, stored columnar ("VLog-style")
/// and partitioned by predicate:
///
///   - every predicate owns a *segment*: its own extent-sharded term
///     arena (fixed-size extents of 2^extent_log2 terms, default 2^16;
///     immobile unique_ptr<Term[]> blocks; tuples never straddle an
///     extent boundary — short tail gaps are padded per segment and
///     excluded from every accounting number), its own group of dedup
///     shards, its own per-(position, term) join index (one flat
///     PositionTable per argument position), its own
///     insertion-ordered atom list, and its own delta watermark;
///   - a global directory of AtomRefs (predicate + offset *within that
///     predicate's segment*) maps AtomIndex to its tuple — the
///     global-index indirection. Indexes are assigned in insertion
///     order across all predicates and are stable forever; every
///     layered structure (join indexes, delta lists, the chase's
///     forest) speaks global AtomIndexes only;
///   - dedup is per-segment open addressing keyed by the
///     (predicate, tuple) hash — the HIGH bits pick the shard within
///     the segment's group, the low bits the slot — probing tuples
///     directly in the segment arena. Contains / Find / Insert never
///     materialize an Atom;
///   - the per-predicate split is what makes the batched insert's
///     commit parallel: distinct predicates touch disjoint segments,
///     so workers that own disjoint predicates append and index their
///     candidates concurrently (see InsertTupleBatch).
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
/// mutate anything, not even lazily. This is the contract the parallel
/// trigger engine relies on: during a collect region (and during the
/// apply phase's read-only pre-checks) the instance is frozen and every
/// worker probes it read-only. Two exceptions are NOT safe
/// concurrently: ActiveDomain() (lazily catches a mutable cache up)
/// and, of course, any non-const method; no mutation may overlap any
/// read. InsertTupleBatch is a mutation: its internal hash/probe/commit
/// stages run on the caller's pool, but the call as a whole must be
/// exclusive, like any other insert.
class Instance {
 public:
  /// Terms per extent = 2^kDefaultExtentLog2. 2^16 terms = 256 KiB per
  /// extent: big enough that padding waste is negligible, small enough
  /// that growth never copies or stalls. Extents are per predicate
  /// segment, so a workload's footprint scales with the predicates it
  /// actually populates.
  static constexpr std::uint32_t kDefaultExtentLog2 = 16;

  /// Dedup shards per segment. Shard = high bits of the tuple hash;
  /// slot = low bits. 8 shards per predicate keep single-predicate
  /// batches (the insert-heavy shape) probing in parallel while the
  /// cross-predicate batches parallelize over segments anyway.
  static constexpr std::uint32_t kShardBits = 3;
  static constexpr std::uint32_t kNumShards = 1u << kShardBits;

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

  /// Batched insert — the apply phase of the parallel chase engine.
  /// Processes `tuples` (whose terms live in the caller's `buffer`)
  /// exactly as the equivalent InsertTuple loop would, in six stages:
  ///
  ///   1. hash every tuple (parallel over tuples);
  ///   2. create the segment of every predicate the batch touches
  ///      (serial — the parallel stages never resize the directory);
  ///   3. probe the dedup shards (parallel: each (segment, shard) pair
  ///      is hash-assigned to one worker, which walks the batch in
  ///      order, claiming slots for first occurrences with placeholder
  ///      marks and growing its own shards locally — no two workers
  ///      ever touch the same shard);
  ///   4. assign global AtomIndexes to the fresh tuples, serially in
  ///      batch order — the canonical cross-predicate merge order, the
  ///      exact numbering the sequential InsertTuple loop would have
  ///      produced;
  ///   5. commit per predicate (parallel: each segment is hash-assigned
  ///      to one worker, which appends its predicate's fresh tuples to
  ///      the segment arena in batch order, patches the claimed slots
  ///      to their global indexes, and extends the segment's atom list
  ///      and position index — disjoint segments, no shared writes);
  ///   6. merge serially in batch order: extend the global AtomRef
  ///      directory and run the caller's callback.
  ///
  /// `on_merged(pos, index, fresh)` is called once per tuple, in batch
  /// order, after that tuple's global index is final; returning false
  /// stops the merge — the not-yet-reported tuples are rolled back
  /// (segment arenas truncated, indexes popped, claimed slots scrubbed)
  /// so the instance is exactly as if the batch had ended there. While
  /// the callback runs, size()/atom() expose exactly the merged prefix;
  /// the per-predicate and position indexes may transiently include
  /// later tuples of the same batch (they are committed segment-side
  /// before the serial walk) — callers that need the pure prefix read
  /// through size(), as the chase engine does. Returns the number of
  /// tuples merged.
  ///
  /// Stages 1, 3 and 5 run on `pool` when it has more than one worker,
  /// inline otherwise; the result — indexes, arena bytes, dedup
  /// verdicts, callback sequence — is byte-identical either way, and
  /// identical to the sequential InsertTuple loop.
  std::size_t InsertTupleBatch(
      const Term* buffer, const std::vector<BatchTuple>& tuples,
      util::ThreadPool* pool,
      const std::function<bool(std::size_t, AtomIndex, bool)>& on_merged);

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
  /// table: it stays valid until the next insert (or batch rollback) —
  /// the join kernel reads it while the instance is frozen.
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
  /// During InsertTupleBatch's probe stage, a claimed-but-not-merged
  /// slot holds kPendingBit | batch position; the commit patches it to
  /// the real AtomIndex (or the rollback scrubs it on early stop).
  static constexpr AtomIndex kPendingBit = 0x80000000u;
  // Arity sentinel for segments that exist but have no tuples yet.
  static constexpr std::uint32_t kUnknownArity = 0xffffffffu;

  /// One dedup shard: an open-addressing table of AtomIndexes whose
  /// slot is taken from the LOW bits of the tuple hash (the shard id
  /// uses the high bits, so the two are independent).
  struct Shard {
    std::vector<AtomIndex> slots;
    std::size_t mask = 0;    // slots.size() - 1 (power of two)
    std::size_t entries = 0; // arena atoms + pending placeholders
  };

  /// Everything one predicate owns. Segments are heap-allocated and
  /// never move once created, so the parallel batch stages can touch
  /// disjoint segments while the directory vector itself stays frozen.
  struct Segment {
    // Extent-sharded term arena: tuples appended back to back, local
    // offsets, padding at extent boundaries (excluded from used_terms).
    std::vector<std::unique_ptr<Term[]>> extents;
    std::uint64_t raw_next = 0;    // next raw append offset (incl. padding)
    std::uint64_t used_terms = 0;  // stored terms (excl. padding)
    // Fixed arity, learned at the first insert.
    std::uint32_t arity = kUnknownArity;
    // This predicate's dedup shard group.
    Shard shards[kNumShards];
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

  static std::uint32_t ShardOf(std::size_t hash) {
    return static_cast<std::uint32_t>(
        hash >> (sizeof(std::size_t) * 8 - kShardBits));
  }

  /// Deterministic hash the batch stages assign segment (and
  /// segment-shard) ownership with: worker w owns predicate p iff
  /// (PredOwner(p) [+ shard]) % workers == w.
  static std::uint32_t PredOwner(PredicateId pred) {
    return static_cast<std::uint32_t>(util::Mix64(pred));
  }

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

  /// Probes `shard` (of `pred`'s segment) for (pred, terms) with its
  /// precomputed hash. Returns the slot holding the matching atom's
  /// index, or the empty slot where it would be inserted. `batch`
  /// non-null enables matching pending placeholders against the batch
  /// being inserted.
  std::size_t ProbeShard(const Shard& shard, PredicateId pred,
                         TermSpan terms, std::size_t hash,
                         const Term* buffer,
                         const std::vector<BatchTuple>* batch) const;

  /// Grows `shard` (doubling) and re-seats its entries: arena atoms
  /// first, then pending placeholders in batch order (their hashes are
  /// read from batch_hashes_) — the seating order that keeps an
  /// early-stopped batch scrubbable (no kept entry's probe chain ever
  /// crosses a later placeholder's slot).
  void GrowShard(Segment* seg, Shard* shard);

  /// Appends a tuple to `seg`'s arena (padding to the next extent if
  /// the current one cannot hold it whole) and returns its local
  /// offset. The source may alias the arena: extents are immobile and
  /// the target region is fresh, so the copy is safe either way.
  std::uint64_t AppendTuple(Segment* seg, const Term* src, std::uint32_t n);

  /// Segment-side bookkeeping shared by InsertTuple and the batch
  /// commit stage: records the freshly appended tuple (already in the
  /// segment arena at `offset`, already numbered `idx`) in the
  /// segment's atom list and position index.
  void RecordTuple(Segment* seg, AtomIndex idx, std::uint64_t offset,
                   std::uint32_t n);

  /// Undoes the segment-side commits of the batch tuples after `kept`
  /// (exclusive) when the merge callback stopped early: scrubs their
  /// dedup slots, pops their index entries, truncates their segment
  /// arenas. Walks backwards so every popped entry is at its list's
  /// tail.
  void RollBackBatch(const std::vector<BatchTuple>& tuples,
                     std::size_t kept);

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
  // stable forever. This directory is the `size()` authority and the
  // only structure the serial merge stage appends to.
  std::vector<AtomRef> refs_;

  // Scratch for InsertTupleBatch (member so repeated batches reuse the
  // allocations): per-tuple hashes and probe verdicts.
  struct BatchVerdict {
    std::uint8_t kind = 0;   // 0 fresh, 1 existing, 2 dup-of-batch
    std::uint32_t ref = 0;   // existing AtomIndex / earlier batch pos
    std::uint64_t slot = 0;  // claimed slot (kind 0)
    std::uint64_t offset = 0;  // local arena offset once committed (kind 0)
  };
  std::vector<std::size_t> batch_hashes_;
  std::vector<BatchVerdict> batch_verdicts_;
  std::vector<AtomIndex> batch_indexes_;

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
