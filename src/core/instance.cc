#include "core/instance.h"

#include <algorithm>
#include <cassert>

namespace nuchase {
namespace core {

const std::vector<AtomIndex> Instance::kEmpty;
constexpr AtomIndex Instance::kEmptySlot;
constexpr std::uint32_t Instance::kUnknownArity;
constexpr std::uint32_t Instance::kDefaultExtentLog2;

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

std::size_t Instance::Probe(const Segment& seg, PredicateId pred,
                            TermSpan terms, std::size_t hash) const {
  const std::size_t mask = seg.dedup.size() - 1;
  std::size_t slot = hash & mask;
  while (true) {
    const AtomIndex idx = seg.dedup[slot];
    if (idx == kEmptySlot || TupleAt(idx, pred, terms)) return slot;
    slot = (slot + 1) & mask;
  }
}

void Instance::GrowDedup(Segment* seg) {
  const std::size_t new_size =
      seg->dedup.empty() ? 64 : seg->dedup.size() * 2;
  seg->dedup.assign(new_size, kEmptySlot);
  const std::size_t mask = new_size - 1;
  for (AtomIndex idx : seg->atoms) {
    const AtomRef& ref = refs_[idx];
    std::size_t slot =
        TupleHash(ref.predicate,
                  TermSpan(TuplePtr(*seg, ref.offset), ref.arity)) &
        mask;
    while (seg->dedup[slot] != kEmptySlot) slot = (slot + 1) & mask;
    seg->dedup[slot] = idx;
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
  if (seg.dedup.empty()) return false;
  const AtomIndex idx = seg.dedup[Probe(seg, pred, terms,
                                        TupleHash(pred, terms))];
  if (idx == kEmptySlot) return false;
  *index = idx;
  return true;
}

std::pair<AtomIndex, bool> Instance::InsertTuple(PredicateId pred,
                                                 TermSpan terms) {
  const std::size_t hash = TupleHash(pred, terms);
  Segment& seg = EnsureSegment(pred);
  // Keep the table's load factor below ~0.75 (counting the insert to
  // come).
  if ((seg.atoms.size() + 1) * 4 >= seg.dedup.size() * 3) GrowDedup(&seg);
  const std::size_t slot = Probe(seg, pred, terms, hash);
  if (seg.dedup[slot] != kEmptySlot) return {seg.dedup[slot], false};

  LearnArity(&seg, terms.size());
  const std::uint64_t offset = AppendTuple(&seg, terms.data(), terms.size());
  const AtomIndex idx = static_cast<AtomIndex>(refs_.size());
  refs_.emplace_back(pred, offset, terms.size());
  RecordTuple(&seg, idx, offset, terms.size());
  seg.dedup[slot] = idx;
  return {idx, true};
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
