#include "core/instance.h"

#include <algorithm>

namespace nuchase {
namespace core {

const std::vector<AtomIndex> Instance::kEmpty;

bool Instance::FindTuple(PredicateId pred, TermSpan terms,
                         AtomIndex* index) const {
  if (pred >= segments_.size() || segments_[pred] == nullptr) return false;
  const Segment& seg = *segments_[pred];
  std::uint32_t row = 0;
  if (!seg.tuples.Find(terms, &row)) return false;
  *index = seg.atoms[row];
  return true;
}

std::pair<AtomIndex, bool> Instance::InsertTuple(PredicateId pred,
                                                 TermSpan terms) {
  if (pred >= segments_.size()) segments_.resize(pred + 1);
  if (segments_[pred] == nullptr) {
    segments_[pred].reset(new Segment(pred, terms.size()));
  }
  Segment& seg = *segments_[pred];
  const auto [row, fresh] = seg.tuples.Insert(terms);
  if (!fresh) return {seg.atoms[row], false};
  const std::uint32_t n = terms.size();
  const AtomIndex idx = static_cast<AtomIndex>(refs_.size());
  refs_.emplace_back(pred, std::uint64_t{row} * n, n);
  seg.atoms.push_back(idx);
  for (std::uint32_t i = 0; i < n; ++i) {
    seg.by_position[i].Append(terms[i], idx);
  }
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
