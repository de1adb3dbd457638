// decide-guarded: closed loop of api::Program::Parse + Session::Decide
// over two program texts with known answers.
#include <string>
#include <utility>
#include <vector>

#include "graph/weak_acyclicity.h"
#include "nuchase/nuchase.h"
#include "rewrite/linearize.h"
#include "rewrite/simplify.h"
#include "tgd/printer.h"
#include "workload/university.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace nuchase;

struct DecideInput {
  std::string text;
  termination::Decision expected;
};

/// Set-ups timed back to back before the loop; the loop adds one per
/// second (see ClosedLoop).
constexpr int kInitialSetUps = 5;

/// University with 2 departments x (5 profs, 100 students, 8 courses),
/// sized to |D| = 395, which terminates; and the same with the review
/// rule and 10 UnderReview facts, |D| = 405, which does not.
std::vector<DecideInput> MakeInputs(
    const workload::UniversityOptions& sized) {
  std::vector<DecideInput> inputs;
  for (bool review : {false, true}) {
    workload::UniversityOptions options = sized;
    options.include_review_rule = review;
    options.under_review = review ? 10 : 0;
    core::SymbolTable symbols;
    workload::Workload w = workload::MakeUniversityWorkload(&symbols, options);
    inputs.push_back({tgd::ProgramToString(w.tgds, w.database, symbols),
                      review ? termination::Decision::kDoesNotTerminate
                             : termination::Decision::kTerminates});
  }
  return inputs;
}

/// The rewriting counts and verdict of one traced DecideGuarded replay.
struct Replay {
  bool ok = false;
  bool terminates = false;
  std::size_t lin_types = 0;
  std::size_t lin_facts = 0;
  std::size_t simple_tgds = 0;
};

/// Replays DecideGuarded's pipeline — Linearize, then the Simplifier
/// over lin(Σ) and lin(D), then CheckWeakAcyclicity — with a span
/// around each layer call.
Replay ReplayGuardedDecision(const api::Program& program, Tracer* tracer,
                             std::uint64_t op) {
  Replay out;
  ScopedSpan root(tracer, "probe", -1, op);
  core::SymbolTable symbols = program.symbols();
  util::StatusOr<rewrite::Linearized> lin = util::Status::Internal("");
  {
    ScopedSpan span(tracer, "rewrite.linearize", root.id(), op);
    lin = rewrite::Linearize(program.database(), program.tgds(), &symbols,
                             rewrite::LinearizeOptions{});
  }
  if (!lin.ok()) return out;
  util::StatusOr<tgd::TgdSet> simple_tgds = util::Status::Internal("");
  core::Database simple_db;
  {
    ScopedSpan span(tracer, "rewrite.simplify", root.id(), op);
    rewrite::Simplifier simplifier(&symbols);
    simple_tgds = simplifier.SimplifyTgds(lin->tgds);
    if (simple_tgds.ok()) {
      simple_db = simplifier.SimplifyDatabase(lin->database);
    }
  }
  if (!simple_tgds.ok()) return out;
  graph::WeakAcyclicityResult wa;
  {
    ScopedSpan span(tracer, "graph.wa", root.id(), op);
    wa = graph::CheckWeakAcyclicity(*simple_tgds, simple_db, symbols);
  }
  out.ok = true;
  out.terminates = wa.weakly_acyclic;
  out.lin_types = lin->num_types;
  out.lin_facts = lin->database.size();
  out.simple_tgds = simple_tgds->size();
  return out;
}

}  // namespace

Result RunDecideGuarded(const Config& config, Tracer* tracer) {
  Result result(2);
  workload::UniversityOptions options;
  options.departments = 2;
  options.professors_per_department = 5;
  options.students_per_department = 100;
  options.courses_per_department = 8;
  options = SizedUniversity(options, config.seed, 395);
  std::vector<DecideInput> inputs;
  auto set_up = [&] {
    const std::uint64_t op = kSetupOpBase + result.setup_s.size();
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan setup(tracer, "setup", -1, op);
      ScopedSpan span(tracer, "workload.generate", setup.id(), op);
      inputs = MakeInputs(options);
    }
    result.setup_s.push_back(SecondsSince(start));
  };
  for (int rep = 0; rep < kInitialSetUps; ++rep) set_up();

  BalancedSequence order(inputs.size(), config.seed);
  std::vector<std::size_t> kind_of_op;
  std::vector<Replay> replays(inputs.size());
  std::uint64_t replay_mismatches = 0;
  ClosedLoop(
      config.seconds, inputs.size(), &result.log, tracer,
      [&](std::uint64_t i, OpLog* log, Tracer* t) {
        const std::size_t kind = order.Next();
        kind_of_op.push_back(kind);
        const DecideInput& input = inputs[kind];
        util::StatusOr<api::Program> program = util::Status::Internal("");
        util::StatusOr<api::DecideResult> decision = util::Status::Internal("");
        const Clock::time_point start = Clock::now();
        {
          ScopedSpan root(t, "op", -1, i);
          {
            ScopedSpan span(t, "api.program_parse", root.id(), i);
            program = api::Program::Parse(input.text);
          }
          if (program.ok()) {
            ScopedSpan span(t, "termination.decide", root.id(), i);
            decision = api::Session(*program).Decide();
          }
        }
        const Clock::time_point end = Clock::now();
        const bool ok = decision.ok() && decision->decision == input.expected;
        log->Record(kind, start, end, ok);
        if (t->enabled() && program.ok()) {
          const Replay& replay = replays[kind] =
              ReplayGuardedDecision(*program, t, i);
          const bool terminates =
              input.expected == termination::Decision::kTerminates;
          if (!replay.ok || replay.terminates != terminates) {
            ++replay_mismatches;
          }
        }
      },
      set_up);

  result.detail.emplace_back("text_bytes_input0",
                             static_cast<double>(inputs[0].text.size()));
  result.detail.emplace_back("text_bytes_input1",
                             static_cast<double>(inputs[1].text.size()));
  if (!tracer->enabled()) return result;

  result.probe_attempted = result.log.attempted();
  result.probe_failed = replay_mismatches;
  auto add = [&](const char* name, double value, const char* unit) {
    result.layer.push_back({name, value, unit});
  };
  auto kind_median = [&](const char* span) {
    return MeanOfKindMediansMs(*tracer, span, kind_of_op, inputs.size());
  };
  const double decide_ms = kind_median("termination.decide");
  const double linearize_ms = kind_median("rewrite.linearize");
  const double simplify_ms = kind_median("rewrite.simplify");
  const double wa_ms = kind_median("graph.wa");
  add("api.program_parse_ms", kind_median("api.program_parse"), "ms");
  add("termination.decide_ms", decide_ms, "ms");
  add("rewrite.linearize_ms", linearize_ms, "ms");
  add("rewrite.simplify_ms", simplify_ms, "ms");
  add("graph.wa_ms", wa_ms, "ms");
  add("termination.decide_coverage",
      Ratio(linearize_ms + simplify_ms + wa_ms, decide_ms), "ratio");
  add("rewrite.probe_self_ms", Median(tracer->SelfMs("probe")), "ms");
  // Rewriting sizes of the terminating input.
  const Replay& sizes = replays[0];
  add("rewrite.lin_types", static_cast<double>(sizes.lin_types), "count");
  add("rewrite.lin_facts", static_cast<double>(sizes.lin_facts), "count");
  add("rewrite.simple_tgds", static_cast<double>(sizes.simple_tgds), "count");
  add("op.self_ms", Median(tracer->SelfMs("op")), "ms");
  result.unmeasured = {"api.program_create_ms", "chase.", "core.", "pool.",
                       "server."};
  return result;
}

}  // namespace perfbench
