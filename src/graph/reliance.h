#ifndef NUCHASE_GRAPH_RELIANCE_H_
#define NUCHASE_GRAPH_RELIANCE_H_

#include <vector>

#include "tgd/tgd.h"

namespace nuchase {
namespace graph {

/// Restraint reliance between two rules (VLog's restraint reliance):
/// r's head can SATISFY s's head. Some head atom of r position-unifies
/// with some head atom of s, where r's existential variables are fresh
/// pairwise-distinct nulls (a frontier image can never equal a null
/// minted by the very firing that produced the atom) and s's frontier
/// variables must map to non-null entries (a trigger's frontier images
/// predate any null the round mints). If true, firing r before s may
/// make s's trigger restricted-inactive — the lever behind the
/// restricted variant's restraint-guided firing order. A head always
/// restrains its own rule.
bool Restrains(const tgd::Tgd& r, const tgd::Tgd& s);

/// The restraint digraph of Σ without self-loops: entry r lists, in
/// ascending order, every rule s ≠ r with Restrains(r, s). Only pairs
/// that share a head predicate are tested — the only pairs Restrains
/// can accept — so the work follows head-predicate overlap, not |Σ|².
std::vector<std::vector<tgd::RuleIndex>> RestraintEdges(
    const tgd::TgdSet& tgds);

/// The restraint-guided firing order of Σ, the one permutation the
/// restricted variant's opt-in restraint mode walks
/// (chase::ChaseOptions::restraint_order). r one-way-restrains s when
/// Restrains(r, s) holds and Restrains(s, r) does not; mutual
/// restraints cancel, since neither forces an order. Each step places
/// the smallest unplaced rule that no unplaced rule one-way-restrains,
/// or, when every unplaced rule is so restrained (a restraint cycle),
/// the smallest unplaced rule. Restrainers therefore come first, with
/// Σ-order as the tiebreak; with no one-way pair the order is Σ-order.
std::vector<tgd::RuleIndex> RestraintOrder(const tgd::TgdSet& tgds);

}  // namespace graph
}  // namespace nuchase

#endif  // NUCHASE_GRAPH_RELIANCE_H_
