#include "graph/dependency_graph.h"

#include <algorithm>

namespace nuchase {
namespace graph {

using core::Position;
using core::Term;

DependencyGraph::DependencyGraph(const tgd::TgdSet& tgds,
                                 const core::SymbolTable& symbols) {
  // Nodes: pos(sch(Σ)).
  for (core::PredicateId pred : tgds.SchemaPredicates()) {
    for (std::uint32_t i = 0; i < symbols.arity(pred); ++i) {
      Position pos(pred, i);
      node_ids_.emplace(pos, static_cast<NodeId>(nodes_.size()));
      nodes_.push_back(pos);
    }
  }
  auto add_edge = [&](const Position& from, const Position& to,
                      bool special) {
    NodeId f = node_ids_.at(from);
    NodeId t = node_ids_.at(to);
    edges_.push_back(Edge{f, t, special});
  };

  for (const tgd::Tgd& rule : tgds.tgds()) {
    for (Term x : rule.frontier()) {
      // Positions of x in the body.
      for (const core::Atom& body_atom : rule.body()) {
        for (const Position& pi : core::PositionsOfTerm(body_atom, x)) {
          for (const core::Atom& head_atom : rule.head()) {
            // Normal edges: to every position of x in the head atom.
            for (const Position& pj :
                 core::PositionsOfTerm(head_atom, x)) {
              add_edge(pi, pj, /*special=*/false);
            }
            // Special edges: to every position of every existential
            // variable in the head atom.
            for (Term z : rule.existential()) {
              for (const Position& pj :
                   core::PositionsOfTerm(head_atom, z)) {
                add_edge(pi, pj, /*special=*/true);
              }
            }
          }
        }
      }
    }
  }

  std::vector<std::vector<NodeId>> successors(nodes_.size());
  for (const Edge& e : edges_) successors[e.from].push_back(e.to);
  scc_ = StronglyConnectedComponents(successors);
}

bool DependencyGraph::FindNode(const Position& pos, NodeId* id) const {
  auto it = node_ids_.find(pos);
  if (it == node_ids_.end()) return false;
  *id = it->second;
  return true;
}

std::vector<std::uint32_t> StronglyConnectedComponents(
    const std::vector<std::vector<std::uint32_t>>& successors) {
  const std::uint32_t kUnvisited = 0xffffffffu;
  const std::size_t n = successors.size();
  std::vector<std::uint32_t> scc(n, kUnvisited);
  std::vector<std::uint32_t> index(n, kUnvisited), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::uint32_t> stack;
  std::uint32_t next_index = 0, next_scc = 0;

  struct Frame {
    std::uint32_t node;
    std::size_t edge_cursor;
  };
  std::vector<Frame> frames;

  for (std::uint32_t start = 0; start < n; ++start) {
    if (index[start] != kUnvisited) continue;
    frames.push_back({start, 0});
    index[start] = lowlink[start] = next_index++;
    stack.push_back(start);
    on_stack[start] = true;

    while (!frames.empty()) {
      Frame& frame = frames.back();
      const std::uint32_t u = frame.node;
      if (frame.edge_cursor < successors[u].size()) {
        const std::uint32_t v = successors[u][frame.edge_cursor++];
        if (index[v] == kUnvisited) {
          index[v] = lowlink[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
          frames.push_back({v, 0});
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
      } else {
        if (lowlink[u] == index[u]) {
          while (true) {
            const std::uint32_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc[w] = next_scc;
            if (w == u) break;
          }
          ++next_scc;
        }
        frames.pop_back();
        if (!frames.empty()) {
          const std::uint32_t parent = frames.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
        }
      }
    }
  }
  return scc;
}

std::vector<DependencyGraph::NodeId>
DependencyGraph::SpecialCycleSources() const {
  std::vector<NodeId> out;
  for (const Edge& e : edges_) {
    if (!e.special) continue;
    if (scc_[e.from] == scc_[e.to]) out.push_back(e.from);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace graph
}  // namespace nuchase
