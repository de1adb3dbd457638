#ifndef NUCHASE_API_SESSION_H_
#define NUCHASE_API_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "api/program.h"
#include "chase/chase.h"
#include "chase/observer.h"
#include "core/symbol_table.h"
#include "termination/advisor.h"
#include "termination/ladder.h"
#include "termination/naive_decider.h"
#include "util/status.h"

namespace nuchase {
namespace api {

/// Per-session knobs, builder-style: every setter returns *this, so a
/// session is configured inline —
///
///   api::Session session(program, api::SessionOptions()
///                            .set_variant(chase::ChaseVariant::kRestricted)
///                            .set_max_rounds(100)
///                            .set_deadline_ms(5000));
///
/// The chase options are chase::ChaseOptions itself (see there for every
/// field's contract). Chase() runs them as given, with the program's
/// parse-time join plans and reliance graph filled in; Decide() and
/// Advise() hand the same struct to the deciders, which keep the engine
/// switches, budgets and hooks but own the decision-relevant fields
/// (variant, depth and round budgets, forest, restraint order).
struct SessionOptions {
  /// Every chase the session runs starts from these options.
  chase::ChaseOptions chase;
  /// Advise(): materialize chase(D,Σ) when the decision is kTerminates.
  bool materialize = true;
  /// Advise()/Decide(): budget for guarded linearization.
  std::uint64_t max_types = 100000;

  SessionOptions& set_variant(chase::ChaseVariant v) {
    chase.variant = v;
    return *this;
  }
  SessionOptions& set_max_atoms(std::uint64_t n) {
    chase.max_atoms = n;
    return *this;
  }
  SessionOptions& set_max_depth(std::uint32_t n) {
    chase.max_depth = n;
    return *this;
  }
  SessionOptions& set_max_rounds(std::uint64_t n) {
    chase.max_rounds = n;
    return *this;
  }
  SessionOptions& set_deadline_ms(std::uint64_t ms) {
    chase.deadline_ms = ms;
    return *this;
  }
  SessionOptions& set_use_delta(bool on) {
    chase.use_delta = on;
    return *this;
  }
  SessionOptions& set_use_reliances(bool on) {
    chase.use_reliances = on;
    return *this;
  }
  SessionOptions& set_restraint_order(bool on) {
    chase.restraint_order = on;
    return *this;
  }
  /// Inert: the chase has one serial code path, so a requested thread
  /// count changes nothing. Kept so that callers written against the
  /// former parallel engine (the perfbench pool probe) still compile.
  SessionOptions& set_num_threads(std::uint32_t) { return *this; }
  SessionOptions& set_build_forest(bool on) {
    chase.build_forest = on;
    return *this;
  }
  SessionOptions& set_materialize(bool on) {
    materialize = on;
    return *this;
  }
  SessionOptions& set_max_types(std::uint64_t n) {
    max_types = n;
    return *this;
  }
  SessionOptions& set_observer(chase::ChaseObserver* o) {
    chase.observer = o;
    return *this;
  }
  SessionOptions& set_cancel(const chase::CancelToken* token) {
    chase.cancel = token;
    return *this;
  }
};

/// The result of one Session::Chase() run: the chase result plus the
/// per-run symbol overlay its nulls live in, and a borrowed copy of the
/// Program keeping the shared base alive. Render through ToSortedString
/// (or pass symbols() wherever a core::SymbolScope is accepted) — the
/// program's own table does not know this run's nulls.
class ChaseRun {
 public:
  chase::ChaseOutcome outcome() const { return result_.outcome; }
  bool Terminated() const { return result_.Terminated(); }
  const chase::ChaseResult& result() const { return result_; }
  const core::Instance& instance() const { return result_.instance; }
  const chase::ChaseStats& stats() const { return result_.stats; }
  const chase::Forest& forest() const { return result_.forest; }

  /// The run's symbol scope: the program's frozen table plus this run's
  /// nulls.
  const core::SymbolScope& symbols() const { return overlay_; }

  /// Stable sorted rendering of the materialized instance —
  /// byte-identical across sessions, threads and engine ablations.
  std::string ToSortedString() const {
    return result_.instance.ToSortedString(overlay_);
  }

 private:
  friend class Session;
  explicit ChaseRun(Program program)
      : program_(std::move(program)), overlay_(program_.symbols()) {}

  Program program_;
  core::SymbolOverlay overlay_;
  chase::ChaseResult result_;
};

/// The static-analysis report of Session::Analyze(): the lint findings
/// and the acyclicity-ladder/syntactic verdict, with provenance. Fully
/// static — the only chase involved is the MFA rung's critical-instance
/// chase, never a chase of the program's database.
struct AnalyzeResult {
  tgd::TgdClass tgd_class = tgd::TgdClass::kGeneral;
  /// Parse-time lint findings (catalog-ID then rule order).
  std::vector<analysis::Diagnostic> diagnostics;
  /// The memoized ladder run (meaningful witnesses for every rung).
  termination::LadderResult ladder;
  /// The static ChTrm verdict: exact for SL/L/G (the class deciders
  /// never answer kUnknown), sufficient-only for general Σ (kUnknown
  /// when no rung certifies — never kDoesNotTerminate).
  termination::Decision decision = termination::Decision::kUnknown;
  /// "weak-acyclicity", "simplification+WA",
  /// "linearization+simplification+WA", or "ladder:wa" / "ladder:ja" /
  /// "ladder:mfa"; empty when the verdict is kUnknown.
  std::string method;
};

/// Schema- and class-level analysis of the program (no chase involved).
struct ClassifyResult {
  tgd::TgdClass tgd_class = tgd::TgdClass::kGeneral;
  std::size_t num_tgds = 0;
  std::size_t num_schema_predicates = 0;
  std::uint32_t max_arity = 0;
  std::uint64_t norm = 0;  ///< ||Σ||.
  std::size_t num_facts = 0;
  /// d_C(Σ) / f_C(Σ); meaningful only when has_bounds (Σ guarded).
  bool has_bounds = false;
  double depth_bound = 0;
  double size_factor = 0;
};

/// How Session::Decide should decide ChTrm(D, Σ).
enum class DecideMethod {
  /// Class-optimal dispatch: the syntactic decider for SL/L/G, the
  /// bounded chase for general TGDs (the advisor's policy).
  kAuto,
  /// The data-complexity UCQ Q_Σ (Theorems 6.6 / 7.7; SL/L only —
  /// FailedPrecondition otherwise).
  kUcq,
  /// The naive bounded-chase procedure of Section 3.
  kBoundedChase,
};

/// A ChTrm verdict with its provenance.
struct DecideResult {
  termination::Decision decision = termination::Decision::kUnknown;
  tgd::TgdClass tgd_class = tgd::TgdClass::kGeneral;
  /// Which procedure decided ("weak-acyclicity", "simplification+WA",
  /// "linearization+simplification+WA", "ladder:wa" / "ladder:ja" /
  /// "ladder:mfa", "bounded-chase", "ucq").
  std::string method;
  /// Bounded chase only: atoms materialized and maxdepth observed.
  std::uint64_t atoms = 0;
  std::uint32_t max_depth = 0;
};

/// The advisor's report plus the symbol scope its (optional)
/// materialization was built in.
class AdviseResult {
 public:
  const termination::AdvisorReport& report() const { return report_; }
  termination::Decision decision() const { return report_.decision; }
  bool has_materialization() const {
    return report_.materialization.has_value();
  }
  /// The session-private symbol table the advisor ran against (the
  /// program's table plus rewriting symbols and materialization nulls).
  const core::SymbolTable& symbols() const { return symbols_; }
  /// Sorted rendering of the materialization; empty when absent.
  std::string MaterializationToSortedString() const {
    if (!report_.materialization.has_value()) return std::string();
    return report_.materialization->instance.ToSortedString(symbols_);
  }

 private:
  friend class Session;
  AdviseResult() = default;

  termination::AdvisorReport report_;
  core::SymbolTable symbols_;
};

/// A cheap execution handle over a shared Program: the run-many half of
/// the facade. Sessions never mutate the Program — Chase() allocates the
/// run's nulls in a private core::SymbolOverlay, and Decide()/Advise()
/// copy the frozen table into session-private scratch for the rewriting
/// machinery — so any number of sessions over one `const Program` can
/// run concurrently, producing byte-identical results for identical
/// options.
class Session {
 public:
  explicit Session(Program program, SessionOptions options = {})
      : program_(std::move(program)), options_(options) {}

  const Program& program() const { return program_; }
  const SessionOptions& options() const { return options_; }

  /// Materializes (a budgeted prefix of) chase(D, Σ) with the session's
  /// variant, budgets, deadline, observer and cancel token. A run
  /// stopped by a budget is not an error: inspect ChaseRun::outcome().
  /// Fails with InvalidArgument on unusable options (max_atoms == 0).
  util::StatusOr<ChaseRun> Chase() const;

  /// Class, schema quantities and paper bounds — no chase involved.
  util::StatusOr<ClassifyResult> Classify() const;

  /// Static analysis only: the program's lint diagnostics plus the
  /// strongest purely static ChTrm verdict (class decider or ladder
  /// rung), without ever chasing D. Both halves are memoized in the
  /// shared Program, so repeated calls — and subsequent Decide/Advise
  /// calls — recompute nothing. Non-OK only when the guarded pipeline
  /// exhausts its linearization budget (ResourceExhausted).
  util::StatusOr<AnalyzeResult> Analyze() const;

  /// Decides ChTrm(D, Σ). kAuto never fails on valid inputs; kUcq fails
  /// (FailedPrecondition) when Σ is not linear; budget exhaustion inside
  /// the guarded pipeline surfaces as ResourceExhausted.
  util::StatusOr<DecideResult> Decide(
      DecideMethod method = DecideMethod::kAuto) const;

  /// The Section 1 materialization advisor: decide, and (when
  /// options().materialize and the chase terminates) materialize.
  util::StatusOr<AdviseResult> Advise() const;

 private:
  chase::ChaseOptions MakeChaseOptions() const;
  termination::AdvisorOptions MakeAdvisorOptions(bool materialize) const;

  Program program_;
  SessionOptions options_;
};

}  // namespace api
}  // namespace nuchase

#endif  // NUCHASE_API_SESSION_H_
