#include "api/session.h"

#include <utility>

#include "termination/syntactic_decider.h"
#include "termination/ucq_decider.h"

namespace nuchase {
namespace api {

chase::ChaseOptions Session::MakeChaseOptions() const {
  chase::ChaseOptions copt = options_.chase;
  copt.plans = &program_.join_plans();
  return copt;
}

termination::AdvisorOptions Session::MakeAdvisorOptions(
    bool materialize) const {
  termination::AdvisorOptions aopt;
  aopt.chase = MakeChaseOptions();
  aopt.materialize = materialize;
  // Point the advisor at the Program's memoized analysis artifacts: the
  // ladder run for general Σ, the class decision for SL/L/G.
  if (program_.tgd_class() == tgd::TgdClass::kGeneral) {
    aopt.ladder = &program_.ladder();
  } else {
    const auto& syntactic = program_.syntactic();
    if (syntactic.ok()) aopt.syntactic = &*syntactic;
  }
  return aopt;
}

util::StatusOr<ChaseRun> Session::Chase() const {
  if (options_.chase.max_atoms == 0) {
    return util::Status::InvalidArgument(
        "the max_atoms chase budget must be positive (every chase run is "
        "bounded by at least the atom budget)");
  }
  ChaseRun run(program_);
  run.result_ = chase::RunChase(&run.overlay_, program_.tgds(),
                                program_.database(), MakeChaseOptions());
  if (run.result_.outcome == chase::ChaseOutcome::kResourceExhausted) {
    // Budget outcomes (atom/depth/round/cancel) are useful prefixes and
    // not errors; exhausting Term's null id space is — propagate it.
    return util::Status::ResourceExhausted(
        "chase exhausted the labelled-null id space (2^30 nulls per "
        "run)");
  }
  return run;
}

util::StatusOr<ClassifyResult> Session::Classify() const {
  ClassifyResult out;
  out.tgd_class = program_.tgd_class();
  out.num_tgds = program_.rule_count();
  out.num_schema_predicates = program_.tgds().SchemaPredicates().size();
  out.max_arity = program_.tgds().MaxArity(program_.symbols());
  out.norm = program_.tgds().Norm(program_.symbols());
  out.num_facts = program_.fact_count();
  out.has_bounds = out.tgd_class != tgd::TgdClass::kGeneral;
  out.depth_bound = program_.depth_bound();
  out.size_factor = program_.size_factor();
  return out;
}

util::StatusOr<AnalyzeResult> Session::Analyze() const {
  AnalyzeResult out;
  out.tgd_class = program_.tgd_class();
  out.diagnostics = program_.diagnostics();
  out.ladder = program_.ladder();

  if (out.tgd_class == tgd::TgdClass::kGeneral) {
    out.decision = out.ladder.verdict;
    if (out.decision == termination::Decision::kTerminates) {
      out.method = "ladder:" + out.ladder.rung;
    }
    return out;
  }
  const auto& syntactic = program_.syntactic();
  if (!syntactic.ok()) return syntactic.status();
  out.decision = syntactic->decision;
  out.method = termination::SyntacticMethodName(out.tgd_class);
  return out;
}

util::StatusOr<DecideResult> Session::Decide(DecideMethod method) const {
  DecideResult out;
  out.tgd_class = program_.tgd_class();

  // kAuto answers from the Program's memoized analyses where the
  // advisor would: the class decision for SL/L/G, a certifying ladder
  // for general Σ. Only the branches below run a decider.
  if (method == DecideMethod::kAuto) {
    if (out.tgd_class == tgd::TgdClass::kGeneral) {
      const termination::LadderResult& ladder = program_.ladder();
      if (ladder.verdict == termination::Decision::kTerminates) {
        out.decision = ladder.verdict;
        out.method = "ladder:" + ladder.rung;
        return out;
      }
    } else {
      const auto& syntactic = program_.syntactic();
      if (syntactic.ok() && syntactic->used_class == out.tgd_class) {
        out.decision = syntactic->decision;
        out.method = termination::SyntacticMethodName(out.tgd_class);
        return out;
      }
    }
  }

  // The deciders rewrite Σ (simplification, linearization) and so intern
  // fresh symbols: give them a session-private copy of the frozen table.
  core::SymbolTable scratch = program_.symbols();

  switch (method) {
    case DecideMethod::kUcq: {
      auto decision = termination::DecideByUcq(&scratch, program_.tgds(),
                                               program_.database());
      if (!decision.ok()) return decision.status();
      out.decision = *decision;
      out.method = "ucq";
      return out;
    }
    case DecideMethod::kBoundedChase: {
      // DecideByChase overrides the decision-relevant fields of its
      // `engine` parameter, so the full chase-option set is safe to hand
      // over.
      termination::NaiveDecision naive = termination::DecideByChase(
          &scratch, program_.tgds(), program_.database(),
          options_.chase.max_atoms, MakeChaseOptions());
      out.decision = naive.decision;
      out.method = "bounded-chase";
      out.atoms = naive.atoms;
      out.max_depth = naive.max_depth;
      return out;
    }
    case DecideMethod::kAuto: {
      auto report =
          termination::Advise(&scratch, program_.tgds(), program_.database(),
                              MakeAdvisorOptions(/*materialize=*/false));
      if (!report.ok()) return report.status();
      out.decision = report->decision;
      out.method = report->method;
      return out;
    }
  }
  return util::Status::Internal("unreachable: unknown DecideMethod");
}

util::StatusOr<AdviseResult> Session::Advise() const {
  AdviseResult out;
  out.symbols_ = program_.symbols();

  auto report =
      termination::Advise(&out.symbols_, program_.tgds(), program_.database(),
                          MakeAdvisorOptions(options_.materialize));
  if (!report.ok()) return report.status();
  out.report_ = std::move(*report);
  return out;
}

}  // namespace api
}  // namespace nuchase
