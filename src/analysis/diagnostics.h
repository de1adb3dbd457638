#ifndef NUCHASE_ANALYSIS_DIAGNOSTICS_H_
#define NUCHASE_ANALYSIS_DIAGNOSTICS_H_

#include <string>
#include <vector>

#include "core/database.h"
#include "core/symbol_table.h"
#include "tgd/tgd.h"

namespace nuchase {
namespace analysis {

enum class Severity {
  kInfo,     ///< Worth knowing; never dirties nuchase_lint's exit code.
  kWarning,  ///< Probable authoring mistake; exit code 1 in the linter.
  kError,    ///< The program is unusable (parse failure).
};

const char* SeverityName(Severity severity);

/// One lint finding with a stable machine-readable identity. IDs are
/// append-only and never reused; docs/analysis.md catalogs every ID and
/// a ctest cross-checks the two lists.
struct Diagnostic {
  std::string id;  ///< "NU001", ...
  Severity severity = Severity::kWarning;
  /// 0-based rule index in Σ the finding anchors to, or -1 for
  /// program-level findings.
  int rule = -1;
  /// Predicate the finding is about, when one exists ("" otherwise).
  std::string predicate;
  /// Human-readable, deterministic explanation.
  std::string message;
};

/// Catalog entry for one diagnostic ID — the linter's --list-ids output
/// and the docs cross-check are generated from this table.
struct DiagnosticSpec {
  const char* id;
  Severity severity;
  const char* summary;
};

/// Every diagnostic ID the analysis can emit, in ID order. NU000 is
/// reserved for the linter's parse-failure report; LintProgram itself
/// only emits NU001 and up (it requires a parsed program).
const std::vector<DiagnosticSpec>& DiagnosticCatalog();

/// Static rule-set lint over a parsed (D, Σ). Pure and deterministic:
/// findings are emitted in catalog-ID order, then rule order, so equal
/// inputs render byte-identical reports. All findings are relative to
/// the program's own database D where data matters (documented per
/// check in docs/analysis.md).
std::vector<Diagnostic> LintProgram(const tgd::TgdSet& tgds,
                                    const core::Database& db,
                                    const core::SymbolTable& symbols);

}  // namespace analysis
}  // namespace nuchase

#endif  // NUCHASE_ANALYSIS_DIAGNOSTICS_H_
