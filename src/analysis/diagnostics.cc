#include "analysis/diagnostics.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/schema.h"
#include "graph/dependency_graph.h"
#include "graph/reliance.h"

namespace nuchase {
namespace analysis {

namespace {

using core::PredicateId;
using core::Term;
using tgd::RuleIndex;
using tgd::Tgd;

/// NU006 is quadratic in candidate rule pairs; past this many rules the
/// check is skipped (documented in docs/analysis.md).
constexpr std::size_t kMaxRulesForRestraintCycles = 512;

std::string RuleRef(RuleIndex r) { return "#" + std::to_string(r); }

/// Union of head predicates over Σ.
std::unordered_set<PredicateId> HeadPredicates(const tgd::TgdSet& tgds) {
  std::unordered_set<PredicateId> out;
  for (const Tgd& rule : tgds.tgds()) {
    for (const core::Atom& atom : rule.head()) out.insert(atom.predicate);
  }
  return out;
}

/// Sorted distinct body predicates of one rule.
std::vector<PredicateId> BodyPredicates(const Tgd& rule) {
  std::vector<PredicateId> out;
  for (const core::Atom& atom : rule.body()) out.push_back(atom.predicate);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// NU001: the head shares no variable with the body. A semi-oblivious
// trigger is keyed by its frontier images, so such a rule fires at most
// once per run no matter how many body matches exist.
void CheckDisconnectedHeads(const tgd::TgdSet& tgds,
                            std::vector<Diagnostic>* out) {
  for (RuleIndex r = 0; r < tgds.size(); ++r) {
    if (!tgds.tgd(r).frontier().empty()) continue;
    out->push_back(Diagnostic{
        "NU001", Severity::kWarning, static_cast<int>(r), "",
        "rule " + RuleRef(r) +
            ": head shares no variable with the body (empty frontier); "
            "the rule fires at most once per run, detached from the "
            "data it matched"});
  }
}

// NU002: a body predicate with no facts and no deriving rule — the rule
// can never fire on this database.
void CheckUnderivableBodies(
    const tgd::TgdSet& tgds, const core::SymbolTable& symbols,
    const std::unordered_set<PredicateId>& db_preds,
    const std::unordered_set<PredicateId>& head_preds,
    std::vector<Diagnostic>* out) {
  for (RuleIndex r = 0; r < tgds.size(); ++r) {
    for (PredicateId p : BodyPredicates(tgds.tgd(r))) {
      if (db_preds.count(p) != 0 || head_preds.count(p) != 0) continue;
      out->push_back(Diagnostic{
          "NU002", Severity::kWarning, static_cast<int>(r),
          symbols.predicate_name(p),
          "rule " + RuleRef(r) + ": body predicate '" +
              symbols.predicate_name(p) +
              "' has no facts and no rule derives it; the rule can "
              "never fire"});
    }
  }
}

// NU003: facts loaded for a predicate no rule body ever reads.
void CheckUnreadFacts(const tgd::TgdSet& tgds,
                      const core::SymbolTable& symbols,
                      const std::unordered_set<PredicateId>& db_preds,
                      std::vector<Diagnostic>* out) {
  if (tgds.empty()) return;  // A pure-fact program reads nothing.
  std::unordered_set<PredicateId> read;
  for (const Tgd& rule : tgds.tgds()) {
    for (const core::Atom& atom : rule.body()) read.insert(atom.predicate);
  }
  std::vector<PredicateId> unread;
  for (PredicateId p : db_preds) {
    if (read.count(p) == 0) unread.push_back(p);
  }
  std::sort(unread.begin(), unread.end());
  for (PredicateId p : unread) {
    out->push_back(Diagnostic{
        "NU003", Severity::kInfo, -1, symbols.predicate_name(p),
        "facts for '" + symbols.predicate_name(p) +
            "' are never read by any rule body"});
  }
}

// NU004: dead rules under the predicate-level fixpoint — rules whose
// body predicates can never all be populated, starting from D.
void CheckDeadRules(const tgd::TgdSet& tgds,
                    const std::unordered_set<PredicateId>& db_preds,
                    std::vector<Diagnostic>* out) {
  std::unordered_set<PredicateId> derivable = db_preds;
  std::vector<bool> alive(tgds.size(), false);
  bool grew = true;
  while (grew) {
    grew = false;
    for (RuleIndex r = 0; r < tgds.size(); ++r) {
      if (alive[r]) continue;
      const Tgd& rule = tgds.tgd(r);
      bool fed = true;
      for (const core::Atom& atom : rule.body()) {
        if (derivable.count(atom.predicate) == 0) {
          fed = false;
          break;
        }
      }
      if (!fed) continue;
      alive[r] = true;
      grew = true;
      for (const core::Atom& atom : rule.head()) {
        derivable.insert(atom.predicate);
      }
    }
  }
  for (RuleIndex r = 0; r < tgds.size(); ++r) {
    if (alive[r]) continue;
    out->push_back(Diagnostic{
        "NU004", Severity::kWarning, static_cast<int>(r), "",
        "rule " + RuleRef(r) +
            ": dead rule — no chase of this database can ever populate "
            "every body predicate"});
  }
}

// NU005: rules identical up to variable renaming (atom order respected).
void CheckDuplicateRules(const tgd::TgdSet& tgds,
                         std::vector<Diagnostic>* out) {
  // Canonical key: atoms in given order, variables densely renamed in
  // first-occurrence order (body first, then head).
  auto canonical = [](const Tgd& rule) {
    std::vector<std::uint32_t> key;
    std::unordered_map<Term, std::uint32_t> rename;
    auto add = [&](const std::vector<core::Atom>& atoms) {
      for (const core::Atom& atom : atoms) {
        key.push_back(atom.predicate);
        key.push_back(static_cast<std::uint32_t>(atom.terms().size()));
        for (Term t : atom.terms()) {
          auto it = rename
                        .emplace(t, static_cast<std::uint32_t>(
                                        rename.size()))
                        .first;
          key.push_back(it->second);
        }
      }
    };
    add(rule.body());
    key.push_back(0xffffffffu);  // body/head separator
    add(rule.head());
    return key;
  };
  std::map<std::vector<std::uint32_t>, RuleIndex> seen;
  for (RuleIndex r = 0; r < tgds.size(); ++r) {
    auto [it, fresh] = seen.emplace(canonical(tgds.tgd(r)), r);
    if (fresh) continue;
    out->push_back(Diagnostic{
        "NU005", Severity::kWarning, static_cast<int>(r), "",
        "rule " + RuleRef(r) + ": duplicate of rule " +
            RuleRef(it->second) +
            " (identical up to variable renaming); it adds nothing"});
  }
}

// NU006: mutual-restraint clusters — SCCs (≥ 2 rules) of the Restrains
// digraph, where the restricted chase's restraint-guided firing order
// has no consistent prioritization and falls back to Σ-order.
void CheckRestraintCycles(const tgd::TgdSet& tgds,
                          std::vector<Diagnostic>* out) {
  const std::size_t n = tgds.size();
  if (n < 2 || n > kMaxRulesForRestraintCycles) return;
  // Components of ≥ 2 rules are the findings, reported once each,
  // smallest member first.
  const std::vector<std::uint32_t> scc =
      graph::StronglyConnectedComponents(graph::RestraintEdges(tgds));
  std::vector<std::vector<RuleIndex>> members_of(n);
  for (RuleIndex r = 0; r < n; ++r) members_of[scc[r]].push_back(r);
  std::vector<std::vector<RuleIndex>> components;
  for (std::vector<RuleIndex>& comp : members_of) {
    if (comp.size() >= 2) components.push_back(std::move(comp));
  }
  std::sort(components.begin(), components.end());
  for (const std::vector<RuleIndex>& comp : components) {
    std::string members;
    for (RuleIndex r : comp) {
      if (!members.empty()) members += ", ";
      members += RuleRef(r);
    }
    out->push_back(Diagnostic{
        "NU006", Severity::kInfo, static_cast<int>(comp.front()), "",
        "rules " + members +
            " restrain each other in a cycle; --restraint-order falls "
            "back to Σ-order inside this cluster"});
  }
}

// NU007: the body's variable-sharing graph is disconnected — the rule
// joins a cartesian product of independent atom groups.
void CheckCartesianBodies(const tgd::TgdSet& tgds,
                          std::vector<Diagnostic>* out) {
  for (RuleIndex r = 0; r < tgds.size(); ++r) {
    const Tgd& rule = tgds.tgd(r);
    const std::size_t k = rule.body().size();
    if (k < 2) continue;
    // Union-find over body atoms, merged through shared variables.
    std::vector<std::size_t> parent(k);
    for (std::size_t i = 0; i < k; ++i) parent[i] = i;
    auto find = [&parent](std::size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    std::unordered_map<Term, std::size_t> owner;
    for (std::size_t i = 0; i < k; ++i) {
      for (Term t : core::VariablesOf(rule.body()[i])) {
        auto [it, fresh] = owner.emplace(t, i);
        if (!fresh) parent[find(i)] = find(it->second);
      }
    }
    std::set<std::size_t> roots;
    for (std::size_t i = 0; i < k; ++i) roots.insert(find(i));
    if (roots.size() < 2) continue;
    out->push_back(Diagnostic{
        "NU007", Severity::kWarning, static_cast<int>(r), "",
        "rule " + RuleRef(r) + ": body is a cartesian product of " +
            std::to_string(roots.size()) +
            " variable-disjoint atom groups; every group multiplies "
            "the trigger count"});
  }
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const std::vector<DiagnosticSpec>& DiagnosticCatalog() {
  static const std::vector<DiagnosticSpec> catalog = {
      {"NU000", Severity::kError,
       "the program text failed to parse (linter only)"},
      {"NU001", Severity::kWarning,
       "head shares no variable with the body (empty frontier)"},
      {"NU002", Severity::kWarning,
       "body predicate has no facts and no deriving rule"},
      {"NU003", Severity::kInfo,
       "facts for a predicate no rule body reads"},
      {"NU004", Severity::kWarning,
       "dead rule: body predicates can never all be populated"},
      {"NU005", Severity::kWarning,
       "duplicate rule (identical up to variable renaming)"},
      {"NU006", Severity::kInfo,
       "rules restraining each other in a cycle"},
      {"NU007", Severity::kWarning,
       "body is a cartesian product of variable-disjoint atom groups"},
  };
  return catalog;
}

std::vector<Diagnostic> LintProgram(const tgd::TgdSet& tgds,
                                    const core::Database& db,
                                    const core::SymbolTable& symbols) {
  std::vector<Diagnostic> out;
  const std::unordered_set<PredicateId> db_preds = db.Predicates();
  const std::unordered_set<PredicateId> head_preds = HeadPredicates(tgds);
  CheckDisconnectedHeads(tgds, &out);
  CheckUnderivableBodies(tgds, symbols, db_preds, head_preds, &out);
  CheckUnreadFacts(tgds, symbols, db_preds, &out);
  CheckDeadRules(tgds, db_preds, &out);
  CheckDuplicateRules(tgds, &out);
  CheckRestraintCycles(tgds, &out);
  CheckCartesianBodies(tgds, &out);
  return out;
}

}  // namespace analysis
}  // namespace nuchase
