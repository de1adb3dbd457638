#include "core/instance.h"

#include <algorithm>
#include <cassert>

namespace nuchase {
namespace core {

const std::vector<AtomIndex> Instance::kEmpty;
constexpr AtomIndex Instance::kEmptySlot;
constexpr AtomIndex Instance::kPendingBit;
constexpr std::uint32_t Instance::kUnknownArity;
constexpr std::uint32_t Instance::kDefaultExtentLog2;
constexpr std::uint32_t Instance::kShardBits;
constexpr std::uint32_t Instance::kNumShards;

Instance::Segment& Instance::EnsureSegment(PredicateId pred) {
  if (pred >= segments_.size()) {
    segments_.resize(pred + 1);
  }
  if (segments_[pred] == nullptr) {
    segments_[pred].reset(new Segment());
    // A segment born under delta tracking starts with its whole (empty)
    // atom list in the "next" generation — delta_next_mark = 0 already.
  }
  return *segments_[pred];
}

std::size_t Instance::ProbeShard(const Shard& shard, PredicateId pred,
                                 TermSpan terms, std::size_t hash,
                                 const Term* buffer,
                                 const std::vector<BatchTuple>* batch)
    const {
  std::size_t slot = hash & shard.mask;
  while (true) {
    AtomIndex idx = shard.slots[slot];
    if (idx == kEmptySlot) return slot;
    if ((idx & kPendingBit) != 0) {
      // A slot claimed earlier in the current batch: compare against
      // the batch buffer (the tuple is not in the arena yet).
      // Placeholders never outlive InsertTupleBatch, so a probe without
      // batch context can only mean table corruption.
      assert(batch != nullptr && "pending placeholder outside a batch");
      const BatchTuple& t = (*batch)[idx & ~kPendingBit];
      if (t.pred == pred &&
          TermSpan(buffer + t.begin, t.arity) == terms) {
        return slot;
      }
    } else if (TupleAt(idx, pred, terms)) {
      return slot;
    }
    slot = (slot + 1) & shard.mask;
  }
}

void Instance::GrowShard(Segment* seg, Shard* shard) {
  std::vector<AtomIndex> old = std::move(shard->slots);
  std::size_t new_size = old.empty() ? 64 : old.size() * 2;
  shard->slots.assign(new_size, kEmptySlot);
  shard->mask = new_size - 1;
  // Re-seat arena atoms first, then pending placeholders in batch
  // order. This seating order is what keeps an early-stopped batch
  // scrubbable: an entry's probe chain only crosses slots occupied
  // before it was seated, so no kept entry's chain ever passes a
  // later (scrub-eligible) placeholder's slot.
  auto seat = [&](AtomIndex entry, std::size_t hash) {
    std::size_t slot = hash & shard->mask;
    while (shard->slots[slot] != kEmptySlot) {
      slot = (slot + 1) & shard->mask;
    }
    shard->slots[slot] = entry;
    return slot;
  };
  for (AtomIndex entry : old) {
    if (entry == kEmptySlot || (entry & kPendingBit) != 0) continue;
    const AtomRef& ref = refs_[entry];
    seat(entry, TupleHash(ref.predicate,
                          TermSpan(TuplePtr(*seg, ref.offset), ref.arity)));
  }
  std::vector<AtomIndex> pending;
  for (AtomIndex entry : old) {
    if (entry != kEmptySlot && (entry & kPendingBit) != 0) {
      pending.push_back(entry);
    }
  }
  std::sort(pending.begin(), pending.end());  // batch-position order
  for (AtomIndex entry : pending) {
    const AtomIndex pos = entry & ~kPendingBit;
    // The claim recorded the placeholder's slot so the commit can patch
    // (or the rollback can clear) it; moving the placeholder moves that
    // record with it. Only this shard's owner touches these verdicts,
    // so the entry is its to update.
    batch_verdicts_[pos].slot = seat(entry, batch_hashes_[pos]);
  }
}

std::uint64_t Instance::AppendTuple(Segment* seg, const Term* src,
                                    std::uint32_t n) {
  assert(n <= extent_capacity_ && "tuple arity exceeds extent capacity");
  if (n == 0) {
    // 0-ary atoms store no terms; give them a valid (never
    // dereferenced) address in the segment's extent 0.
    if (seg->extents.empty()) {
      seg->extents.emplace_back(new Term[extent_capacity_]);
    }
    return 0;
  }
  std::uint64_t within = seg->raw_next & extent_mask_;
  if (within != 0 && extent_capacity_ - within < n) {
    // The tuple would straddle the extent boundary: pad the tail (the
    // padding terms are garbage and are never scanned — every reader
    // walks the directory, not raw offsets) and start the next extent.
    seg->raw_next += extent_capacity_ - within;
  }
  const std::uint64_t offset = seg->raw_next;
  const std::uint64_t extent = offset >> extent_log2_;
  if (extent == seg->extents.size()) {
    seg->extents.emplace_back(new Term[extent_capacity_]);
  }
  std::copy(src, src + n,
            seg->extents[extent].get() + (offset & extent_mask_));
  seg->raw_next = offset + n;
  seg->used_terms += n;
  return offset;
}

void Instance::RecordTuple(Segment* seg, AtomIndex idx,
                           std::uint64_t offset, std::uint32_t n) {
  seg->atoms.push_back(idx);
  if (seg->by_position.size() < n) seg->by_position.resize(n);
  const Term* tuple = TuplePtr(*seg, offset);
  for (std::uint32_t i = 0; i < n; ++i) {
    seg->by_position[i].Append(tuple[i], idx);
  }
}

bool Instance::FindTuple(PredicateId pred, TermSpan terms,
                         AtomIndex* index) const {
  if (pred >= segments_.size() || segments_[pred] == nullptr) return false;
  const Segment& seg = *segments_[pred];
  std::size_t hash = TupleHash(pred, terms);
  const Shard& shard = seg.shards[ShardOf(hash)];
  if (shard.slots.empty()) return false;
  std::size_t slot =
      ProbeShard(shard, pred, terms, hash, nullptr, nullptr);
  if (shard.slots[slot] == kEmptySlot) return false;
  *index = shard.slots[slot];
  return true;
}

std::pair<AtomIndex, bool> Instance::InsertTuple(PredicateId pred,
                                                 TermSpan terms) {
  std::size_t hash = TupleHash(pred, terms);
  Segment& seg = EnsureSegment(pred);
  Shard& shard = seg.shards[ShardOf(hash)];
  // Keep the shard's load factor below ~0.75 (counting the insert to
  // come).
  if ((shard.entries + 1) * 4 >= shard.slots.size() * 3) {
    GrowShard(&seg, &shard);
  }
  std::size_t slot = ProbeShard(shard, pred, terms, hash, nullptr, nullptr);
  if (shard.slots[slot] != kEmptySlot) return {shard.slots[slot], false};

  LearnArity(&seg, terms.size());
  const std::uint64_t offset = AppendTuple(&seg, terms.data(), terms.size());
  AtomIndex idx = static_cast<AtomIndex>(refs_.size());
  refs_.emplace_back(pred, offset, terms.size());
  RecordTuple(&seg, idx, offset, terms.size());
  shard.slots[slot] = idx;
  ++shard.entries;
  return {idx, true};
}

std::size_t Instance::InsertTupleBatch(
    const Term* buffer, const std::vector<BatchTuple>& tuples,
    util::ThreadPool* pool,
    const std::function<bool(std::size_t, AtomIndex, bool)>& on_merged) {
  const std::size_t n = tuples.size();
  if (n == 0) return 0;
  batch_hashes_.resize(n);
  batch_verdicts_.resize(n);
  batch_indexes_.resize(n);

  // Stage 1: hash every tuple. Parallel over tuples; pure.
  util::ParallelChunks(
      pool, n, /*min_chunk=*/64,
      [&](unsigned, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const BatchTuple& t = tuples[i];
          batch_hashes_[i] =
              TupleHash(t.pred, TermSpan(buffer + t.begin, t.arity));
        }
      });

  // Stage 2: create every touched predicate's segment up front, so the
  // parallel stages below never resize the segment directory (segments
  // themselves are immobile once created).
  for (std::size_t i = 0; i < n; ++i) {
    EnsureSegment(tuples[i].pred);
  }

  const unsigned stride = pool != nullptr ? pool->workers() : 1u;

  // Stage 3: probe the dedup shards. Each (segment, shard) pair is
  // hash-assigned to exactly one worker, which walks the whole batch in
  // order, so every shard's slot table evolves in batch order no matter
  // how many workers run — the verdicts (and the table layout) are
  // scheduling-independent. First occurrences claim their slot with a
  // pending placeholder so later duplicates in the same batch resolve
  // against them.
  auto probe_segments = [&](unsigned w) {
    for (std::size_t i = 0; i < n; ++i) {
      const BatchTuple& t = tuples[i];
      const std::uint32_t shard_id = ShardOf(batch_hashes_[i]);
      if ((PredOwner(t.pred) + shard_id) % stride != w) continue;
      Segment& seg = *segments_[t.pred];
      Shard& shard = seg.shards[shard_id];
      TermSpan terms(buffer + t.begin, t.arity);
      if ((shard.entries + 1) * 4 >= shard.slots.size() * 3) {
        GrowShard(&seg, &shard);
      }
      std::size_t slot = ProbeShard(shard, t.pred, terms,
                                    batch_hashes_[i], buffer, &tuples);
      BatchVerdict& v = batch_verdicts_[i];
      const AtomIndex occupant = shard.slots[slot];
      if (occupant == kEmptySlot) {
        v.kind = 0;
        v.slot = slot;
        shard.slots[slot] =
            kPendingBit | static_cast<AtomIndex>(i);
        ++shard.entries;
      } else if ((occupant & kPendingBit) != 0) {
        v.kind = 2;
        v.ref = occupant & ~kPendingBit;
      } else {
        v.kind = 1;
        v.ref = occupant;
      }
    }
  };
  if (stride > 1) {
    pool->Run(probe_segments);
  } else {
    probe_segments(0);
  }

  // Stage 4: the serial canonical cross-predicate merge order — assign
  // global AtomIndexes to the fresh tuples in batch order (and learn
  // arities deterministically), the exact numbering the sequential
  // InsertTuple loop would have produced.
  AtomIndex next_index = static_cast<AtomIndex>(refs_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const BatchVerdict& v = batch_verdicts_[i];
    if (v.kind == 0) {
      LearnArity(segments_[tuples[i].pred].get(), tuples[i].arity);
      batch_indexes_[i] = next_index++;
    } else if (v.kind == 1) {
      batch_indexes_[i] = v.ref;
    } else {
      batch_indexes_[i] = batch_indexes_[v.ref];  // earlier batch pos
    }
  }

  // Stage 5: per-predicate parallel commit. Each segment is
  // hash-assigned to exactly one worker, which appends its predicate's
  // fresh tuples to the segment arena in batch order (recording each
  // local offset in the verdict), patches the claimed slots to their
  // final global indexes, and extends the segment's atom list and
  // position index. Disjoint segments — no shared writes; within a
  // segment, batch order — the layout is thread-count-invariant.
  auto commit_segments = [&](unsigned w) {
    for (std::size_t i = 0; i < n; ++i) {
      const BatchTuple& t = tuples[i];
      if (PredOwner(t.pred) % stride != w) continue;
      BatchVerdict& v = batch_verdicts_[i];
      if (v.kind != 0) continue;
      Segment& seg = *segments_[t.pred];
      v.offset = AppendTuple(&seg, buffer + t.begin, t.arity);
      seg.shards[ShardOf(batch_hashes_[i])].slots[v.slot] =
          batch_indexes_[i];
      RecordTuple(&seg, batch_indexes_[i], v.offset, t.arity);
    }
  };
  if (stride > 1) {
    pool->Run(commit_segments);
  } else {
    commit_segments(0);
  }

  // Stage 6: serial merge in batch order — extend the global directory
  // and run the caller's callback, a sequence identical to the
  // sequential InsertTuple loop's.
  std::size_t merged = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const BatchTuple& t = tuples[i];
    const BatchVerdict& v = batch_verdicts_[i];
    const AtomIndex idx = batch_indexes_[i];
    const bool fresh = v.kind == 0;
    if (fresh) {
      assert(static_cast<AtomIndex>(refs_.size()) == idx &&
             "stage-4 numbering must match the directory");
      refs_.emplace_back(t.pred, v.offset, t.arity);
    }
    ++merged;
    if (!on_merged(i, idx, fresh)) {
      RollBackBatch(tuples, i);
      break;
    }
  }
  return merged;
}

void Instance::RollBackBatch(const std::vector<BatchTuple>& tuples,
                             std::size_t kept) {
  // Walk backwards so every entry being popped is at the tail of its
  // list (commits pushed in batch order), and so each segment's
  // raw_next ends at its smallest removed offset. Scrubbing the dedup
  // slots in any order is safe by the seating-order invariant (see
  // GrowShard): no surviving entry's probe chain passes a later batch
  // tuple's slot.
  for (std::size_t j = tuples.size(); j-- > kept + 1;) {
    const BatchVerdict& v = batch_verdicts_[j];
    if (v.kind != 0) continue;
    const BatchTuple& t = tuples[j];
    Segment& seg = *segments_[t.pred];
    Shard& shard = seg.shards[ShardOf(batch_hashes_[j])];
    shard.slots[v.slot] = kEmptySlot;
    --shard.entries;
    const Term* tuple = TuplePtr(seg, v.offset);
    for (std::uint32_t p = 0; p < t.arity; ++p) {
      seg.by_position[p].PopBack(tuple[p], batch_indexes_[j]);
    }
    assert(!seg.atoms.empty());
    seg.atoms.pop_back();
    // Truncate the arena to this tuple's start. Padding inserted just
    // before it stays inside raw_next (harmless: the next append starts
    // at a valid, already-padded position; used_terms never counted
    // padding, so arena_bytes is exact either way).
    seg.raw_next = v.offset;
    seg.used_terms -= t.arity;
    if (seg.atoms.empty()) {
      // The whole segment was born in the rolled-back suffix: forget
      // the arity learned in stage 4 so PredicateArity reports the
      // predicate as unseen, exactly as if the batch had ended early.
      seg.arity = kUnknownArity;
    }
  }
}

void Instance::EnableDeltaTracking() {
  if (track_delta_) return;
  track_delta_ = true;
  // Atoms inserted before tracking began are not part of any
  // generation: start every existing segment's "next" watermark at its
  // current tail.
  for (auto& seg : segments_) {
    if (seg != nullptr) seg->delta_next_mark = seg->atoms.size();
  }
}

std::size_t Instance::AdvanceDelta() {
  delta_curr_size_ = 0;
  for (auto& seg : segments_) {
    if (seg == nullptr) continue;
    if (!track_delta_) {
      seg->delta_curr.clear();
      seg->delta_next_mark = seg->atoms.size();
      continue;
    }
    seg->delta_curr.assign(seg->atoms.begin() + seg->delta_next_mark,
                           seg->atoms.end());
    seg->delta_next_mark = seg->atoms.size();
    delta_curr_size_ += seg->delta_curr.size();
  }
  return delta_curr_size_;
}

const std::vector<AtomIndex>& Instance::DeltaAtomsWithPredicate(
    PredicateId pred) const {
  if (pred >= segments_.size() || segments_[pred] == nullptr) return kEmpty;
  return segments_[pred]->delta_curr;
}

const std::vector<AtomIndex>& Instance::AtomsWithPredicate(
    PredicateId pred) const {
  if (pred >= segments_.size() || segments_[pred] == nullptr) return kEmpty;
  return segments_[pred]->atoms;
}

const std::vector<Term>& Instance::ActiveDomain() const {
  // Catch the cache up over the atoms inserted since the last call;
  // tuples are walked in global insertion order, so first-occurrence
  // order is deterministic (and extent padding is never visited).
  for (; domain_scanned_ < refs_.size(); ++domain_scanned_) {
    const AtomRef& ref = refs_[domain_scanned_];
    const Term* tuple = TuplePtr(*segments_[ref.predicate], ref.offset);
    for (std::uint32_t i = 0; i < ref.arity; ++i) {
      if (domain_seen_.insert(tuple[i]).second) {
        domain_.push_back(tuple[i]);
      }
    }
  }
  return domain_;
}

std::string Instance::ToSortedString(const SymbolScope& symbols) const {
  std::vector<std::string> lines;
  lines.reserve(refs_.size());
  for (AtomIndex i = 0; i < refs_.size(); ++i) {
    lines.push_back(atom(i).ToString(symbols));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

}  // namespace core
}  // namespace nuchase
