#include "termination/syntactic_decider.h"

#include <chrono>

#include "graph/weak_acyclicity.h"
#include "rewrite/simplify.h"

namespace nuchase {
namespace termination {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::atomic<std::uint64_t>& DeciderInvocationsForTest() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

util::StatusOr<SyntacticDecision> DecideSimpleLinear(
    core::SymbolTable* symbols, const tgd::TgdSet& tgds,
    const core::Database& db) {
  for (const tgd::Tgd& rule : tgds.tgds()) {
    if (!rule.IsSimpleLinear()) {
      return util::Status::FailedPrecondition(
          "DecideSimpleLinear requires Σ ∈ SL");
    }
  }
  auto start = Clock::now();
  DeciderInvocationsForTest().fetch_add(1, std::memory_order_relaxed);
  SyntacticDecision out;
  out.used_class = tgd::TgdClass::kSimpleLinear;
  out.method = "weak-acyclicity";
  graph::WeakAcyclicityResult wa =
      graph::CheckWeakAcyclicity(tgds, db, *symbols);
  out.decision = wa.weakly_acyclic ? Decision::kTerminates
                                   : Decision::kDoesNotTerminate;
  out.seconds = Seconds(start);
  return out;
}

util::StatusOr<SyntacticDecision> DecideLinear(core::SymbolTable* symbols,
                                               const tgd::TgdSet& tgds,
                                               const core::Database& db) {
  for (const tgd::Tgd& rule : tgds.tgds()) {
    if (!rule.IsLinear()) {
      return util::Status::FailedPrecondition(
          "DecideLinear requires Σ ∈ L");
    }
  }
  auto start = Clock::now();
  DeciderInvocationsForTest().fetch_add(1, std::memory_order_relaxed);
  rewrite::Simplifier simplifier(symbols);
  auto simple_tgds = simplifier.SimplifyTgds(tgds);
  if (!simple_tgds.ok()) return simple_tgds.status();
  core::Database simple_db = simplifier.SimplifyDatabase(db);

  SyntacticDecision out;
  out.used_class = tgd::TgdClass::kLinear;
  out.method = "simplification+WA";
  out.simple_tgds = simple_tgds->size();
  graph::WeakAcyclicityResult wa =
      graph::CheckWeakAcyclicity(*simple_tgds, simple_db, *symbols);
  out.decision = wa.weakly_acyclic ? Decision::kTerminates
                                   : Decision::kDoesNotTerminate;
  out.seconds = Seconds(start);
  return out;
}

util::StatusOr<SyntacticDecision> DecideGuarded(
    core::SymbolTable* symbols, const tgd::TgdSet& tgds,
    const core::Database& db, const rewrite::LinearizeOptions& options) {
  auto start = Clock::now();
  DeciderInvocationsForTest().fetch_add(1, std::memory_order_relaxed);
  auto gsimple = rewrite::GSimplify(db, tgds, symbols, options);
  if (!gsimple.ok()) return gsimple.status();

  SyntacticDecision out;
  out.used_class = tgd::TgdClass::kGuarded;
  out.method = "linearization+simplification+WA";
  out.simple_tgds = gsimple->tgds.size();
  out.lin_types = gsimple->num_types;
  out.lin_tgds = gsimple->num_linear_tgds;
  graph::WeakAcyclicityResult wa = graph::CheckWeakAcyclicity(
      gsimple->tgds, gsimple->database, *symbols);
  out.decision = wa.weakly_acyclic ? Decision::kTerminates
                                   : Decision::kDoesNotTerminate;
  out.seconds = Seconds(start);
  return out;
}

SyntacticDecision DecideGeneral(const LadderResult& ladder) {
  SyntacticDecision out;
  out.used_class = tgd::TgdClass::kGeneral;
  out.decision = ladder.verdict;
  if (ladder.verdict == Decision::kTerminates) {
    out.method = "ladder:" + ladder.rung;
  }
  return out;
}

util::StatusOr<SyntacticDecision> Decide(core::SymbolTable* symbols,
                                         const tgd::TgdSet& tgds,
                                         const core::Database& db) {
  switch (tgd::Classify(tgds)) {
    case tgd::TgdClass::kSimpleLinear:
      return DecideSimpleLinear(symbols, tgds, db);
    case tgd::TgdClass::kLinear:
      return DecideLinear(symbols, tgds, db);
    case tgd::TgdClass::kGuarded:
      return DecideGuarded(symbols, tgds, db);
    case tgd::TgdClass::kGeneral: {
      auto start = Clock::now();
      DeciderInvocationsForTest().fetch_add(1, std::memory_order_relaxed);
      SyntacticDecision out =
          DecideGeneral(RunLadder(*symbols, tgds, db));
      out.seconds = Seconds(start);
      return out;
    }
  }
  return util::Status::Internal("unreachable");
}

}  // namespace termination
}  // namespace nuchase
