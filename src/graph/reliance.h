#ifndef NUCHASE_GRAPH_RELIANCE_H_
#define NUCHASE_GRAPH_RELIANCE_H_

#include <cstdint>
#include <vector>

#include "core/atom.h"
#include "tgd/tgd.h"

namespace nuchase {
namespace graph {

/// Rule-pair reliance analysis over Σ (VLog's positive / restraint
/// reliances, computed once per program at api::Program analysis time).
/// Nodes are rules (ids = tgd::RuleIndex, TgdSet order); two edge
/// relations are exposed at two granularities:
///
///   Positive(r, s)  — r's head can FEED s's body: some head atom of r
///       position-unifies with some body atom of s, treating r's
///       existential variables as fresh pairwise-distinct nulls (a
///       frontier image can never equal a null minted by the very firing
///       that produced the atom). If false, applying r can never create
///       a new trigger of s.
///   Feeds(r, s)     — the predicate-level overapproximation of
///       Positive: head predicates of r ∩ body predicates of s ≠ ∅.
///   Restrains(r, s) — r's head can SATISFY s's head: some head atom of
///       r position-unifies with some head atom of s (r's existentials
///       fresh-distinct as above; s's frontier variables must map to
///       non-null entries, since a trigger's frontier images predate any
///       null the round mints). If true, firing r before s may make s's
///       trigger restricted-inactive — the lever behind the restricted
///       variant's restraint-guided firing order.
///
/// The restricted variant's opt-in restraint-guided mode
/// (chase::ChaseOptions::restraint_order) consumes two derived
/// artifacts. CollectGroups partitions Σ, in Σ-order, into maximal
/// contiguous groups with no FORWARD Feeds edge inside a group (r < s in
/// one group ⇒ ¬Feeds(r, s)): collecting every member against the
/// group-start instance then applying in Σ-order is indistinguishable
/// from the rule-by-rule interleaving — not just in the trigger sets
/// (Positive would suffice for that) but in the per-predicate candidate
/// lists every join probe walks, ChaseStats::join_probes included.
/// Backward edges and self-loops are harmless: under either schedule
/// rule r's collect precedes every apply of the rules ≥ r it could feed.
/// RestraintOrder orders one group's applies restrainers-first (Σ-order
/// tiebreak).
///
/// SccIds exposes the condensation of the Feeds graph (computed through
/// its rule–predicate bipartite expansion, so construction stays linear
/// in ||Σ|| even when predicates are shared by thousands of rules): a
/// multi-rule component is a mutually recursive rule cluster, the
/// structural ceiling on how finely any Σ-respecting scheduler can
/// stratify. The graph borrows the TgdSet; it must outlive this object.
class RelianceGraph {
 public:
  using NodeId = tgd::RuleIndex;

  explicit RelianceGraph(const tgd::TgdSet& tgds);

  tgd::RuleIndex num_rules() const {
    return static_cast<tgd::RuleIndex>(tgds_->size());
  }

  /// Refined positive reliance r → s (position unification).
  bool Positive(NodeId r, NodeId s) const;
  /// Predicate-level positive overapproximation r → s.
  bool Feeds(NodeId r, NodeId s) const;
  /// Restraint reliance r → s (r's head can satisfy s's head).
  bool Restrains(NodeId r, NodeId s) const;

  /// Condensation of the Feeds graph: component id per rule, densely
  /// renumbered by first appearance in Σ-order.
  const std::vector<std::uint32_t>& SccIds() const { return scc_; }
  std::uint32_t num_sccs() const { return num_sccs_; }

  /// The ordered Σ-interval partition the collect scheduler runs (see
  /// the class comment for the invariant it maintains).
  const std::vector<std::vector<tgd::RuleIndex>>& CollectGroups() const {
    return groups_;
  }

  /// Restraint-guided apply order for one collect group: a permutation
  /// of `group` placing, greedily in Σ-order, every rule none of whose
  /// unplaced peers one-way-restrains it (restrainers first; mutual or
  /// cyclic restraints fall back to Σ-order).
  std::vector<tgd::RuleIndex> RestraintOrder(
      const std::vector<tgd::RuleIndex>& group) const;

 private:
  const tgd::TgdSet* tgds_;
  /// Sorted-unique predicate summaries per rule, the currency of Feeds
  /// and the greedy grouping.
  std::vector<std::vector<core::PredicateId>> body_preds_;
  std::vector<std::vector<core::PredicateId>> head_preds_;
  std::vector<std::uint32_t> scc_;
  std::uint32_t num_sccs_ = 0;
  std::vector<std::vector<tgd::RuleIndex>> groups_;
};

}  // namespace graph
}  // namespace nuchase

#endif  // NUCHASE_GRAPH_RELIANCE_H_
