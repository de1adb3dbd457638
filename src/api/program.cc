#include "api/program.h"

#include <memory>
#include <utility>

#include "termination/bounds.h"
#include "tgd/parser.h"
#include "tgd/printer.h"
#include "util/hash.h"

namespace nuchase {
namespace api {

// FNV-1a over the program bytes, finalized through Mix64 so the low
// bits (a power-of-two cache indexes by them) carry the whole text.
std::uint64_t ContentHash(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return util::Mix64(h);
}

util::StatusOr<Program> Program::Parse(const std::string& text) {
  auto analysis = std::make_shared<Analysis>();
  auto parsed = tgd::ParseProgram(&analysis->symbols, text);
  if (!parsed.ok()) return parsed.status();
  analysis->tgds = std::move(parsed->tgds);
  analysis->database = std::move(parsed->database);
  analysis->content_hash = ContentHash(text);
  return Analyze(std::move(analysis));
}

util::StatusOr<Program> Program::Create(core::SymbolTable symbols,
                                        tgd::TgdSet tgds,
                                        core::Database database) {
  auto analysis = std::make_shared<Analysis>();
  analysis->symbols = std::move(symbols);
  analysis->tgds = std::move(tgds);
  analysis->database = std::move(database);

  // The parts were built elsewhere: check every predicate id resolves in
  // the table before freezing the artifact.
  const std::uint32_t num_predicates = analysis->symbols.num_predicates();
  auto check_atoms = [&](const std::vector<core::Atom>& atoms) {
    for (const core::Atom& atom : atoms) {
      if (atom.predicate >= num_predicates) return false;
    }
    return true;
  };
  if (!check_atoms(analysis->database.facts())) {
    return util::Status::InvalidArgument(
        "database fact references a predicate missing from the symbol "
        "table");
  }
  for (const tgd::Tgd& rule : analysis->tgds.tgds()) {
    if (!check_atoms(rule.body()) || !check_atoms(rule.head())) {
      return util::Status::InvalidArgument(
          "TGD references a predicate missing from the symbol table");
    }
  }
  // No source text exists for assembled parts: hash the canonical
  // rendering, so two Creates of equal programs still agree.
  analysis->content_hash = ContentHash(tgd::ProgramToString(
      analysis->tgds, analysis->database, analysis->symbols));
  return Analyze(std::move(analysis));
}

util::StatusOr<Program> Program::Analyze(std::shared_ptr<Analysis> a) {
  // The rule cap keeps every downstream rule index (join plans, the
  // restraint order, the chase's rule walk) inside tgd::RuleIndex.
  // Rejecting here, before any analysis runs, is the facade half of the
  // contract documented on tgd::kMaxRules; the standalone chase entry
  // point enforces its own half with kResourceExhausted.
  if (a->tgds.size() > tgd::kMaxRules) {
    return util::Status::InvalidArgument(
        "program exceeds the rule cap (" +
        std::to_string(a->tgds.size()) + " rules > tgd::kMaxRules = " +
        std::to_string(tgd::kMaxRules) + ")");
  }
  a->tgd_class = tgd::Classify(a->tgds);
  a->depth_bound =
      termination::DepthBound(a->tgd_class, a->tgds, a->symbols);
  a->size_factor =
      termination::SizeFactor(a->tgd_class, a->tgds, a->symbols);
  a->plans = chase::PlanJoins(a->tgds);
  a->diagnostics = analysis::LintProgram(a->tgds, a->database, a->symbols);
  return Program(std::move(a));
}

const termination::LadderResult& Program::ladder() const {
  const Analysis* a = a_.get();
  std::call_once(a->ladder_once, [a] {
    a->ladder = termination::RunLadder(a->symbols, a->tgds, a->database);
  });
  return a->ladder;
}

const util::StatusOr<termination::SyntacticDecision>& Program::syntactic()
    const {
  const Analysis* a = a_.get();
  std::call_once(a->syntactic_once, [this, a] {
    using Memo = const util::StatusOr<termination::SyntacticDecision>;
    // For general Σ the decision IS the ladder: read the memoized run
    // instead of chasing the critical instance a second time.
    if (a->tgd_class == tgd::TgdClass::kGeneral) {
      a->syntactic =
          std::make_unique<Memo>(termination::DecideGeneral(ladder()));
      return;
    }
    // The class deciders intern rewriting symbols: hand them scratch.
    core::SymbolTable scratch = a->symbols;
    a->syntactic = std::make_unique<Memo>(
        termination::Decide(&scratch, a->tgds, a->database));
  });
  return *a->syntactic;
}

}  // namespace api
}  // namespace nuchase
