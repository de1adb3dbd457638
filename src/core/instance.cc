#include "core/instance.h"

#include <algorithm>
#include <cassert>

namespace nuchase {
namespace core {

const std::vector<AtomIndex> Instance::kEmpty;
constexpr std::uint32_t Instance::kEmptySlot;
constexpr std::uint32_t Instance::kUnknownArity;

Instance::Segment& Instance::EnsureSegment(PredicateId pred) {
  if (pred >= segments_.size()) {
    segments_.resize(pred + 1);
  }
  if (segments_[pred] == nullptr) segments_[pred].reset(new Segment());
  return *segments_[pred];
}

std::size_t Instance::Probe(const Segment& seg, TermSpan terms,
                            std::size_t hash) const {
  const std::size_t mask = seg.dedup.size() - 1;
  std::size_t slot = hash & mask;
  while (true) {
    const std::uint32_t row = seg.dedup[slot];
    if (row == kEmptySlot || seg.Row(row) == terms) return slot;
    slot = (slot + 1) & mask;
  }
}

void Instance::GrowDedup(Segment* seg, PredicateId pred) {
  const std::size_t new_size =
      seg->dedup.empty() ? 64 : seg->dedup.size() * 2;
  seg->dedup.assign(new_size, kEmptySlot);
  const std::size_t mask = new_size - 1;
  const std::uint32_t rows = static_cast<std::uint32_t>(seg->atoms.size());
  for (std::uint32_t row = 0; row < rows; ++row) {
    std::size_t slot = TupleHash(pred, seg->Row(row)) & mask;
    while (seg->dedup[slot] != kEmptySlot) slot = (slot + 1) & mask;
    seg->dedup[slot] = row;
  }
}

bool Instance::FindTuple(PredicateId pred, TermSpan terms,
                         AtomIndex* index) const {
  if (pred >= segments_.size() || segments_[pred] == nullptr) return false;
  const Segment& seg = *segments_[pred];
  if (seg.dedup.empty()) return false;
  const std::uint32_t row =
      seg.dedup[Probe(seg, terms, TupleHash(pred, terms))];
  if (row == kEmptySlot) return false;
  *index = seg.atoms[row];
  return true;
}

std::pair<AtomIndex, bool> Instance::InsertTuple(PredicateId pred,
                                                 TermSpan terms) {
  const std::size_t hash = TupleHash(pred, terms);
  Segment& seg = EnsureSegment(pred);
  // Keep the table's load factor below ~0.75 (counting the insert to
  // come).
  if ((seg.atoms.size() + 1) * 4 >= seg.dedup.size() * 3) {
    GrowDedup(&seg, pred);
  }
  const std::size_t slot = Probe(seg, terms, hash);
  if (seg.dedup[slot] != kEmptySlot) {
    return {seg.atoms[seg.dedup[slot]], false};
  }

  const std::uint32_t n = terms.size();
  if (seg.arity == kUnknownArity) {
    seg.arity = n;
    seg.by_position.resize(n);
  }
  assert(seg.arity == n && "predicate arity is fixed per Instance");
  const std::uint32_t row = static_cast<std::uint32_t>(seg.atoms.size());
  const AtomIndex idx = static_cast<AtomIndex>(refs_.size());
  refs_.emplace_back(pred, seg.terms.size(), n);
  seg.terms.insert(seg.terms.end(), terms.begin(), terms.end());
  seg.atoms.push_back(idx);
  for (std::uint32_t i = 0; i < n; ++i) {
    seg.by_position[i].Append(terms[i], idx);
  }
  seg.dedup[slot] = row;
  return {idx, true};
}

const std::vector<AtomIndex>& Instance::AtomsWithPredicate(
    PredicateId pred) const {
  if (pred >= segments_.size() || segments_[pred] == nullptr) return kEmpty;
  return segments_[pred]->atoms;
}

IndexSpan Instance::AtomsWithPredicateIn(PredicateId pred, AtomIndex begin,
                                         AtomIndex end) const {
  const std::vector<AtomIndex>& atoms = AtomsWithPredicate(pred);
  const auto first = std::lower_bound(atoms.begin(), atoms.end(), begin);
  const auto last = std::lower_bound(first, atoms.end(), end);
  return IndexSpan(atoms.data() + (first - atoms.begin()),
                   static_cast<std::size_t>(last - first));
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
