#ifndef NUCHASE_API_PROGRAM_H_
#define NUCHASE_API_PROGRAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "chase/chase.h"
#include "core/database.h"
#include "core/symbol_table.h"
#include "termination/ladder.h"
#include "termination/syntactic_decider.h"
#include "tgd/classify.h"
#include "tgd/tgd.h"
#include "util/status.h"

namespace nuchase {
namespace api {

/// The content hash Program::Parse stamps on its artifact: FNV-1a over
/// the exact text bytes, finalized through util::Mix64. Exposed so a
/// cache can hash a submission before deciding whether to parse it —
/// ContentHash(text) == Program::Parse(text)->content_hash() always.
std::uint64_t ContentHash(const std::string& text);

/// An immutable, analyzed program artifact — the parse-once half of the
/// facade's parse-once / run-many split.
///
/// Program::Parse runs the whole front half of the pipeline exactly
/// once: parse the rule text, validate the TGDs, classify Σ (SL/L/G/TGD),
/// compute the paper's d_C / f_C bounds, and plan the semi-naive join
/// orders for every rule. The result is a value-semantic handle over a
/// shared, frozen analysis: copying a Program is a pointer copy, and a
/// `const Program` is safe to share across any number of threads — every
/// chase run allocates its fresh nulls in a private core::SymbolOverlay
/// instead of mutating the program's symbol table.
///
/// Execution happens through api::Session, which borrows a Program and
/// adds the per-run knobs (variant, budgets, deadline, observer).
class Program {
 public:
  /// Parses, validates, classifies and join-plans a program in the rule
  /// language of tgd::ParseProgram ("R(a, b).  R(x, y) -> S(y, z)...").
  /// Facts mention constants only; rules mention variables only.
  /// Fails with InvalidArgument on malformed input or inconsistent
  /// predicate arities.
  static util::StatusOr<Program> Parse(const std::string& text);

  /// Builds a Program from already-constructed parts (e.g. a workload
  /// generator's output), taking ownership. `symbols` must be the table
  /// the TGDs and facts were interned against. Fails with
  /// InvalidArgument when the parts are inconsistent (a predicate id out
  /// of range of the table).
  static util::StatusOr<Program> Create(core::SymbolTable symbols,
                                        tgd::TgdSet tgds,
                                        core::Database database);

  /// The frozen symbol table the program was analyzed against. Shared —
  /// never mutate it; take a copy (SymbolTable is value-semantic) for
  /// machinery that interns new symbols, or layer a core::SymbolOverlay
  /// over it for chase runs.
  const core::SymbolTable& symbols() const { return a_->symbols; }

  const tgd::TgdSet& tgds() const { return a_->tgds; }
  const core::Database& database() const { return a_->database; }

  /// The most specific paper class containing Σ (computed at parse).
  tgd::TgdClass tgd_class() const { return a_->tgd_class; }

  /// Semi-naive join plans for every TGD (computed at parse; shared by
  /// all sessions).
  const chase::JoinPlanSet& join_plans() const { return a_->plans; }

  /// d_C(Σ) (Section 5); +inf when Σ is not guarded.
  double depth_bound() const { return a_->depth_bound; }
  /// f_C(Σ), so |chase(D,Σ)| ≤ |D|·f_C(Σ); +inf when unusable.
  double size_factor() const { return a_->size_factor; }

  /// Parse-time lint findings over (D, Σ) (analysis::LintProgram):
  /// deterministic, catalog-ID then rule order, shared by all sessions.
  const std::vector<analysis::Diagnostic>& diagnostics() const {
    return a_->diagnostics;
  }

  /// The acyclicity ladder (WA → JA → MFA) over the program, run with
  /// default budgets on first request and memoized in the frozen
  /// analysis — every Session and every copy of this Program shares the
  /// one run. Thread-safe; the MFA rung chases the critical instance
  /// D_Σ, never the program's own database.
  const termination::LadderResult& ladder() const;

  /// The class-optimal syntactic ChTrm decision with its method string
  /// (SL/L/G: the paper's exact procedures with default budgets;
  /// general: DecideGeneral over ladder()'s memoized run), likewise
  /// computed at most once per Program. The one source of every static
  /// verdict: Session::Analyze, Decide(kAuto) and Advise all read it.
  /// Non-OK when the guarded pipeline exhausts its default
  /// linearization budget.
  const util::StatusOr<termination::SyntacticDecision>& syntactic() const;

  std::size_t rule_count() const { return a_->tgds.size(); }
  std::size_t fact_count() const { return a_->database.size(); }

  /// 64-bit content hash of the program text: for Parse, FNV-1a over
  /// the exact input bytes (finalized through util::Mix64); for Create,
  /// over the canonical tgd::ProgramToString rendering. Two Programs
  /// parsed from byte-identical text always agree, which is what lets a
  /// serving cache (server::ProgramCache) key parsed artifacts by hash
  /// and share one frozen Program across every request that submitted
  /// the same rules — hash equality is a fast-path filter, not an
  /// identity proof, so cache lookups must still compare the text.
  std::uint64_t content_hash() const { return a_->content_hash; }

  /// How many live handles (Programs, Sessions via their Program copy,
  /// ChaseRuns, cache entries) share this frozen analysis right now —
  /// the reuse-audit counter: a parse-once cache is working when
  /// repeated submissions raise this instead of the parse count.
  long shared_use_count() const { return a_.use_count(); }

  /// Looks up a predicate by name (NotFound when absent) — the read-only
  /// lookup callers need to build queries against the program's schema.
  util::StatusOr<core::PredicateId> FindPredicate(
      const std::string& name) const {
    return a_->symbols.FindPredicate(name);
  }

 private:
  struct Analysis {
    core::SymbolTable symbols;
    tgd::TgdSet tgds;
    core::Database database;
    tgd::TgdClass tgd_class = tgd::TgdClass::kGeneral;
    chase::JoinPlanSet plans;
    double depth_bound = 0;
    double size_factor = 0;
    std::uint64_t content_hash = 0;
    std::vector<analysis::Diagnostic> diagnostics;

    // Memoized heavy artifacts: computed at most once per Program, on
    // first request, under call_once — mutation through the const
    // handle is confined to these fields and is thread-safe.
    mutable std::once_flag ladder_once;
    mutable termination::LadderResult ladder;
    mutable std::once_flag syntactic_once;
    mutable std::unique_ptr<
        const util::StatusOr<termination::SyntacticDecision>>
        syntactic;
  };

  explicit Program(std::shared_ptr<const Analysis> analysis)
      : a_(std::move(analysis)) {}

  static util::StatusOr<Program> Analyze(std::shared_ptr<Analysis> a);

  std::shared_ptr<const Analysis> a_;
};

}  // namespace api
}  // namespace nuchase

#endif  // NUCHASE_API_PROGRAM_H_
