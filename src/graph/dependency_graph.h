#ifndef NUCHASE_GRAPH_DEPENDENCY_GRAPH_H_
#define NUCHASE_GRAPH_DEPENDENCY_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/schema.h"
#include "tgd/tgd.h"

namespace nuchase {
namespace graph {

/// The dependency graph dg(Σ) (Section 6): nodes are the predicate
/// positions of sch(Σ); for every TGD σ, frontier variable x and body
/// position π of x, there is a normal edge to every position of x in every
/// head atom, and a special edge to every position of every existentially
/// quantified variable in every head atom.
class DependencyGraph {
 public:
  /// Dense node handle (index into nodes()).
  using NodeId = std::uint32_t;

  struct Edge {
    NodeId from;
    NodeId to;
    bool special;
  };

  /// Builds dg(Σ).
  DependencyGraph(const tgd::TgdSet& tgds,
                  const core::SymbolTable& symbols);

  const std::vector<core::Position>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Node handle of a position; returns false if the position is not a
  /// node (predicate not in sch(Σ)).
  bool FindNode(const core::Position& pos, NodeId* id) const;

  const core::Position& position(NodeId id) const { return nodes_[id]; }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Strongly connected component id per node (Tarjan). Two nodes are on a
  /// common cycle iff they share an SCC.
  const std::vector<std::uint32_t>& SccIds() const { return scc_; }

  /// Nodes u such that some special edge (u, v) lies on a cycle, i.e. u
  /// and v are in the same SCC. These are exactly the positions through
  /// which a cycle with a special edge passes as the special edge's
  /// source.
  std::vector<NodeId> SpecialCycleSources() const;

  /// True iff dg(Σ) has any cycle containing a special edge (uniform
  /// weak-acyclicity fails iff true; Fagin et al. [14]).
  bool HasSpecialCycle() const {
    return !SpecialCycleSources().empty();
  }

 private:
  std::vector<core::Position> nodes_;
  std::unordered_map<core::Position, NodeId, core::PositionHash> node_ids_;
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> scc_;
};

/// Strongly connected components (iterative Tarjan) of the digraph in
/// which node u has the successors `successors[u]`: one component id per
/// node, numbered in the order Tarjan closes them. Two nodes lie on a
/// common cycle iff they share an id.
std::vector<std::uint32_t> StronglyConnectedComponents(
    const std::vector<std::vector<std::uint32_t>>& successors);

}  // namespace graph
}  // namespace nuchase

#endif  // NUCHASE_GRAPH_DEPENDENCY_GRAPH_H_
