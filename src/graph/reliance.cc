#include "graph/reliance.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>

#include "core/atom.h"

namespace nuchase {
namespace graph {

namespace {

using core::Atom;
using core::PredicateId;
using core::Term;
using tgd::RuleIndex;
using tgd::Tgd;

/// Can an instantiation of `produced` (a head atom of rule r: frontier
/// images arbitrary pre-existing terms, existential images fresh
/// pairwise-distinct nulls) be an atom that `pattern` (a head atom of
/// rule s) matches? The check is per distinct pattern variable: the
/// produced entries at that variable's positions must be co-unifiable —
/// at most one distinct existential among them, and never an
/// existential alongside a frontier entry (a firing's frontier images
/// predate the nulls it mints, so they can never be equal; freshness
/// also makes the inequality permanent). A pattern variable that is
/// FRONTIER in s must not map to an existential entry at all: s's
/// frontier images exist before r's firing this round ever runs.
bool HeadAtomsUnify(const Tgd& r, const Atom& produced, const Tgd& s,
                    const Atom& pattern) {
  if (produced.predicate != pattern.predicate) return false;
  if (produced.args.size() != pattern.args.size()) return false;
  const auto begin = pattern.args.begin();
  for (std::size_t i = 0; i < pattern.args.size(); ++i) {
    const Term v = pattern.args[i];
    // Each variable is checked once, at its first position.
    if (std::find(begin, begin + i, v) != begin + i) continue;
    bool seen_existential = false;
    bool seen_frontier = false;
    Term existential = Term();
    for (std::size_t j = i; j < pattern.args.size(); ++j) {
      if (pattern.args[j] != v) continue;
      const Term entry = produced.args[j];
      if (r.IsExistential(entry)) {
        if (seen_frontier || s.IsFrontier(v)) return false;
        if (seen_existential && entry != existential) return false;
        seen_existential = true;
        existential = entry;
      } else {
        if (seen_existential) return false;
        seen_frontier = true;
      }
    }
  }
  return true;
}

}  // namespace

bool Restrains(const Tgd& r, const Tgd& s) {
  for (const Atom& produced : r.head()) {
    for (const Atom& pattern : s.head()) {
      if (HeadAtomsUnify(r, produced, s, pattern)) return true;
    }
  }
  return false;
}

std::vector<std::vector<RuleIndex>> RestraintEdges(const tgd::TgdSet& tgds) {
  const RuleIndex n = static_cast<RuleIndex>(tgds.size());
  // The rules writing each head predicate, ascending and unique.
  std::unordered_map<PredicateId, std::vector<RuleIndex>> writers;
  for (RuleIndex r = 0; r < n; ++r) {
    for (const Atom& atom : tgds.tgd(r).head()) {
      std::vector<RuleIndex>& rules = writers[atom.predicate];
      if (rules.empty() || rules.back() != r) rules.push_back(r);
    }
  }
  std::vector<std::vector<RuleIndex>> edges(n);
  std::vector<RuleIndex> candidates;
  for (RuleIndex r = 0; r < n; ++r) {
    candidates.clear();
    for (const Atom& atom : tgds.tgd(r).head()) {
      const std::vector<RuleIndex>& rules = writers.at(atom.predicate);
      candidates.insert(candidates.end(), rules.begin(), rules.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (RuleIndex s : candidates) {
      if (s != r && Restrains(tgds.tgd(r), tgds.tgd(s))) {
        edges[r].push_back(s);
      }
    }
  }
  return edges;
}

std::vector<RuleIndex> RestraintOrder(const tgd::TgdSet& tgds) {
  const std::vector<std::vector<RuleIndex>> restrains = RestraintEdges(tgds);
  const RuleIndex n = static_cast<RuleIndex>(restrains.size());
  // One-way edges, and per rule the number of its one-way restrainers
  // still unplaced.
  std::vector<std::vector<RuleIndex>> one_way(n);
  std::vector<std::uint32_t> restrainers(n, 0);
  for (RuleIndex r = 0; r < n; ++r) {
    for (RuleIndex s : restrains[r]) {
      if (!std::binary_search(restrains[s].begin(), restrains[s].end(), r)) {
        one_way[r].push_back(s);
        ++restrainers[s];
      }
    }
  }
  // `ready` holds the unplaced rules with no unplaced one-way
  // restrainer, smallest first.
  std::priority_queue<RuleIndex, std::vector<RuleIndex>,
                      std::greater<RuleIndex>>
      ready;
  for (RuleIndex r = 0; r < n; ++r) {
    if (restrainers[r] == 0) ready.push(r);
  }
  std::vector<bool> placed(n, false);
  std::vector<RuleIndex> order;
  order.reserve(n);
  RuleIndex smallest_unplaced = 0;
  while (order.size() < n) {
    RuleIndex pick;
    if (!ready.empty()) {
      pick = ready.top();
      ready.pop();
    } else {  // restraint cycle: fall back to Σ-order
      while (placed[smallest_unplaced]) ++smallest_unplaced;
      pick = smallest_unplaced;
    }
    placed[pick] = true;
    order.push_back(pick);
    for (RuleIndex s : one_way[pick]) {
      if (--restrainers[s] == 0 && !placed[s]) ready.push(s);
    }
  }
  return order;
}

}  // namespace graph
}  // namespace nuchase
