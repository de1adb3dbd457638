#include "query/certain.h"

#include <algorithm>
#include <set>

#include "chase/chase.h"
#include "chase/trigger.h"

namespace nuchase {
namespace query {

std::string AnswerQuery::ToString(const core::SymbolTable& symbols) const {
  std::string out = "?(";
  for (std::size_t i = 0; i < answer_variables.size(); ++i) {
    if (i > 0) out += ", ";
    out += symbols.TermToString(answer_variables[i]);
  }
  out += ") :- ";
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms[i].ToString(symbols);
  }
  return out;
}

util::StatusOr<std::vector<std::vector<core::Term>>> CertainAnswers(
    core::SymbolTable* symbols, const tgd::TgdSet& tgds,
    const core::Database& db, const AnswerQuery& query,
    const CertainAnswersOptions& options) {
  // Validate: every answer variable occurs in the query body.
  for (core::Term v : query.answer_variables) {
    bool found = false;
    for (const core::Atom& atom : query.atoms) {
      for (core::Term t : atom.args) {
        if (t == v) found = true;
      }
    }
    if (!found) {
      return util::Status::InvalidArgument(
          "answer variable does not occur in the query body");
    }
  }

  chase::ChaseOptions copt;
  copt.max_atoms = options.max_atoms;
  chase::ChaseResult result = chase::RunChase(symbols, tgds, db, copt);
  if (!result.Terminated()) {
    return util::Status::ResourceExhausted(
        "chase did not terminate within the atom budget; certain answers "
        "via materialization need Sigma in CT_D (run termination::Decide "
        "first)");
  }

  // Evaluate q over the universal model; keep null-free projections.
  const chase::SlotConjunction q = chase::CompileConjunction(query.atoms);
  std::vector<std::uint32_t> answer_slots;
  answer_slots.reserve(query.answer_variables.size());
  for (core::Term v : query.answer_variables) {
    answer_slots.push_back(q.SlotOf(v));  // validated above: present
  }
  std::set<std::vector<core::Term>> answers;
  std::vector<core::Term> tuple;
  chase::HomomorphismFinder finder(result.instance);
  finder.Enumerate(q, [&](const core::Term* h) {
    tuple.clear();
    for (std::uint32_t s : answer_slots) {
      if (!h[s].IsConstant()) return true;
      tuple.push_back(h[s]);
    }
    answers.insert(tuple);
    return true;
  });

  return std::vector<std::vector<core::Term>>(answers.begin(),
                                              answers.end());
}

}  // namespace query
}  // namespace nuchase
