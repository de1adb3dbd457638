#include "query/evaluator.h"

#include "chase/trigger.h"

namespace nuchase {
namespace query {

using chase::HomomorphismFinder;

bool Satisfies(const core::Instance& instance, const ConjunctiveQuery& cq) {
  const chase::SlotConjunction q = chase::CompileConjunction(cq.atoms);
  bool found = false;
  HomomorphismFinder finder(instance);
  finder.Enumerate(q, [&](const core::Term*) {
    found = true;
    return false;  // stop at the first witness
  });
  return found;
}

bool Satisfies(const core::Instance& instance,
               const UnionOfConjunctiveQueries& ucq) {
  for (const ConjunctiveQuery& cq : ucq.disjuncts) {
    if (Satisfies(instance, cq)) return true;
  }
  return false;
}

bool Satisfies(const core::Database& db,
               const UnionOfConjunctiveQueries& ucq) {
  core::Instance instance = db.ToInstance();
  return Satisfies(instance, ucq);
}

bool Satisfies(const core::Instance& instance, const tgd::Tgd& rule) {
  const chase::JoinPlan plan = chase::PlanJoin(rule);
  bool ok = true;
  HomomorphismFinder body_finder(instance);
  HomomorphismFinder head_finder(instance);
  body_finder.Enumerate(plan.body, [&](const core::Term* h) {
    // Keep only the frontier bindings; the head must be matchable with
    // some extension h' ⊇ h|fr(σ).
    head_finder.Begin(plan.head);
    for (std::uint32_t s : plan.frontier_slots) head_finder.Bind(s, h[s]);
    bool extended = false;
    head_finder.Run([&](const core::Term*) {
      extended = true;
      return false;
    });
    if (!extended) {
      ok = false;
      return false;  // found a violated trigger; stop
    }
    return true;
  });
  return ok;
}

bool Satisfies(const core::Instance& instance, const tgd::TgdSet& tgds) {
  for (const tgd::Tgd& rule : tgds.tgds()) {
    if (!Satisfies(instance, rule)) return false;
  }
  return true;
}

}  // namespace query
}  // namespace nuchase
