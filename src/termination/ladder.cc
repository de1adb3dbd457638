#include "termination/ladder.h"

namespace nuchase {
namespace termination {

LadderResult RunLadder(const core::SymbolTable& symbols,
                       const tgd::TgdSet& tgds, const core::Database& db) {
  LadderResult out;
  out.wa = graph::CheckWeakAcyclicity(tgds, db, symbols);
  out.uniformly_weakly_acyclic = out.wa.special_cycle_positions.empty();
  if (out.wa.weakly_acyclic) {
    out.verdict = Decision::kTerminates;
    out.rung = "wa";
  }
  out.ja = graph::CheckJointAcyclicity(tgds, symbols);
  if (out.verdict == Decision::kUnknown && out.ja.jointly_acyclic) {
    out.verdict = Decision::kTerminates;
    out.rung = "ja";
  }
  if (out.verdict == Decision::kUnknown) {
    out.mfa_ran = true;
    out.mfa = CheckMfa(symbols, tgds);
    if (out.mfa.status == MfaStatus::kAcyclic) {
      out.verdict = Decision::kTerminates;
      out.rung = "mfa";
    }
  }
  return out;
}

}  // namespace termination
}  // namespace nuchase
