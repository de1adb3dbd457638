#include "termination/advisor.h"

#include "termination/bounds.h"
#include "termination/syntactic_decider.h"

namespace nuchase {
namespace termination {

util::StatusOr<AdvisorReport> Advise(core::SymbolTable* symbols,
                                     const tgd::TgdSet& tgds,
                                     const core::Database& db,
                                     const AdvisorOptions& options) {
  AdvisorReport report;
  report.tgd_class = tgd::Classify(tgds);
  report.depth_bound = DepthBound(report.tgd_class, tgds, *symbols);
  report.size_bound = static_cast<double>(db.size()) *
                      SizeFactor(report.tgd_class, tgds, *symbols);

  if (report.tgd_class == tgd::TgdClass::kGeneral) {
    // Undecidable in general (Proposition 4.2). First the acyclicity
    // ladder (WA → JA → MFA): a certifying rung skips the bounded chase
    // entirely — the static-analysis fast path. Only when no rung
    // certifies does the advisor fall back to chasing D itself, where
    // only termination within budget is a certificate.
    LadderResult local_ladder;
    const LadderResult* ladder = options.ladder;
    if (ladder == nullptr) {
      local_ladder = RunLadder(*symbols, tgds, db);
      ladder = &local_ladder;
    }
    if (ladder->verdict == Decision::kTerminates) {
      report.decision = Decision::kTerminates;
      report.method = "ladder:" + ladder->rung;
    } else {
      NaiveDecision naive = DecideByChase(symbols, tgds, db,
                                          options.chase.max_atoms,
                                          options.chase);
      report.decision = naive.decision;
      report.method = "bounded-chase";
    }
  } else {
    Decision decision;
    if (options.syntactic != nullptr &&
        options.syntactic->used_class == report.tgd_class) {
      decision = options.syntactic->decision;
    } else {
      rewrite::LinearizeOptions lin_options;
      lin_options.max_types = options.max_types;
      util::StatusOr<SyntacticDecision> syn =
          report.tgd_class == tgd::TgdClass::kGuarded
              ? DecideGuarded(symbols, tgds, db, lin_options)
              : Decide(symbols, tgds, db);
      if (!syn.ok()) return syn.status();
      decision = syn->decision;
    }
    report.decision = decision;
    switch (report.tgd_class) {
      case tgd::TgdClass::kSimpleLinear:
        report.method = "weak-acyclicity";
        break;
      case tgd::TgdClass::kLinear:
        report.method = "simplification+WA";
        break;
      default:
        report.method = "linearization+simplification+WA";
        break;
    }
  }

  if (options.materialize && report.decision == Decision::kTerminates) {
    chase::ChaseResult result = chase::RunChase(
        symbols, tgds, db, DecisionChaseOptions(options.chase));
    if (result.outcome == chase::ChaseOutcome::kCancelled) {
      return util::Status::ResourceExhausted(
          "materialization cancelled (CancelToken fired or deadline "
          "elapsed) before completing");
    }
    if (!result.Terminated()) {
      return util::Status::ResourceExhausted(
          "decider certified termination but the materialization budget "
          "was exceeded; raise the max_atoms chase budget");
    }
    report.materialization = std::move(result);
  }
  return report;
}

}  // namespace termination
}  // namespace nuchase
