#include "api/session.h"

#include <utility>

#include "termination/bounds.h"
#include "termination/syntactic_decider.h"
#include "termination/ucq_decider.h"

namespace nuchase {
namespace api {

chase::ChaseOptions Session::MakeChaseOptions() const {
  chase::ChaseOptions copt = options_.chase;
  copt.plans = &program_.join_plans();
  return copt;
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
  const auto& syntactic = program_.syntactic();
  if (!syntactic.ok()) return syntactic.status();
  AnalyzeResult out;
  out.tgd_class = program_.tgd_class();
  out.diagnostics = program_.diagnostics();
  out.ladder = program_.ladder();
  out.decision = syntactic->decision;
  out.method = syntactic->method;
  return out;
}

DecideResult Session::DecideByBoundedChase(core::SymbolTable* symbols,
                                           chase::ChaseResult* run) const {
  // DecideByChase overrides the decision-relevant fields of its `engine`
  // parameter, so the full chase-option set is safe to hand over.
  termination::NaiveDecision naive = termination::DecideByChase(
      symbols, program_.tgds(), program_.database(), MakeChaseOptions(),
      run);
  DecideResult out;
  out.tgd_class = program_.tgd_class();
  out.decision = naive.decision;
  out.method = "bounded-chase";
  out.atoms = naive.atoms;
  out.max_depth = naive.max_depth;
  return out;
}

util::StatusOr<DecideResult> Session::Decide(DecideMethod method) const {
  if (method == DecideMethod::kAuto) {
    const auto& syntactic = program_.syntactic();
    if (!syntactic.ok()) return syntactic.status();
    if (syntactic->decision != termination::Decision::kUnknown) {
      DecideResult out;
      out.tgd_class = program_.tgd_class();
      out.decision = syntactic->decision;
      out.method = syntactic->method;
      return out;
    }
    // kUnknown: a general Σ no ladder rung certifies. ChTrm(TGD) is
    // undecidable (Proposition 4.2); chase D within budget.
  }

  // The deciders rewrite Σ or chase D and so intern fresh symbols: give
  // them a session-private copy of the frozen table.
  core::SymbolTable scratch = program_.symbols();
  if (method == DecideMethod::kUcq) {
    auto decision = termination::DecideByUcq(&scratch, program_.tgds(),
                                             program_.database());
    if (!decision.ok()) return decision.status();
    DecideResult out;
    out.tgd_class = program_.tgd_class();
    out.decision = *decision;
    out.method = "ucq";
    return out;
  }
  return DecideByBoundedChase(&scratch);
}

util::StatusOr<AdviseResult> Session::Advise() const {
  const auto& syntactic = program_.syntactic();
  if (!syntactic.ok()) return syntactic.status();
  AdviseResult out;
  out.symbols_ = program_.symbols();
  AdvisorReport& report = out.report_;
  report.tgd_class = program_.tgd_class();
  report.depth_bound = program_.depth_bound();
  report.size_bound = termination::SizeBound(program_.fact_count(),
                                             program_.size_factor());
  report.decision = syntactic->decision;
  report.method = syntactic->method;

  chase::ChaseResult run;
  if (report.decision == termination::Decision::kUnknown) {
    // The bounded chase decides a general Σ no ladder rung certifies;
    // when it terminates, its run is the materialization.
    DecideResult decided = DecideByBoundedChase(&out.symbols_, &run);
    report.decision = decided.decision;
    report.method = std::move(decided.method);
  } else if (report.decision == termination::Decision::kTerminates) {
    run = chase::RunChase(&out.symbols_, program_.tgds(),
                          program_.database(),
                          termination::DecisionChaseOptions(
                              MakeChaseOptions()));
  }
  if (report.decision != termination::Decision::kTerminates) return out;

  if (run.outcome == chase::ChaseOutcome::kCancelled) {
    return util::Status::ResourceExhausted(
        "materialization cancelled (CancelToken fired or deadline "
        "elapsed) before completing");
  }
  if (!run.Terminated()) {
    return util::Status::ResourceExhausted(
        "decider certified termination but the materialization budget "
        "was exceeded; raise the max_atoms chase budget");
  }
  report.materialization = std::move(run);
  return out;
}

}  // namespace api
}  // namespace nuchase
