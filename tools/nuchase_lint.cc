// nuchase_lint — static rule-set analysis without running a chase of D.
//
//   nuchase_lint [options] <file|->
//
// Parses the program, reports every analysis::Diagnostic finding, and
// prints the strongest purely static termination verdict (the class
// decider for SL/L/G, the WA → JA → MFA acyclicity ladder for general
// TGDs). FILE holds a program in the rule language of tgd::ParseProgram;
// "-" reads stdin.
//
// Exit code contract (golden-tested):
//   0  the program parsed and no warning- or error-severity finding
//      (info findings never dirty the exit code)
//   1  findings at warning/error severity, including NU000 (parse
//      failure), or the analysis itself failed
//   2  usage errors: unknown option, malformed flag value, missing file
//
// Output is byte-deterministic for a given input: findings come out in
// catalog-ID then rule order.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "nuchase/nuchase.h"
#include "tgd/classify.h"

namespace nuchase {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] <file|->\n"
               "\n"
               "options:\n"
               "  --format=human|json  report format (default human)\n"
               "  --list-ids           print the diagnostic catalog and "
               "exit\n"
               "\n"
               "exit codes: 0 clean, 1 findings (warning/error) or "
               "parse\n"
               "failure, 2 usage error\n",
               argv0);
  return 2;
}

struct LintOptions {
  std::string file;
  bool json = false;
  bool list_ids = false;
};

bool ParseArgs(int argc, char** argv, LintOptions* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-ids") {
      out->list_ids = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      std::string v = arg.substr(9);
      if (v == "json") {
        out->json = true;
      } else if (v == "human") {
        out->json = false;
      } else {
        std::fprintf(stderr, "unknown format '%s'\n", v.c_str());
        return false;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      out->file = arg;
    }
  }
  return out->list_ids || !out->file.empty();
}

bool ReadProgramText(const std::string& file, std::string* text) {
  if (file == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    *text = ss.str();
    return true;
  }
  std::ifstream in(file);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *text = ss.str();
  return true;
}

int ListIds() {
  for (const analysis::DiagnosticSpec& spec :
       analysis::DiagnosticCatalog()) {
    std::printf("%s %s %s\n", spec.id,
                analysis::SeverityName(spec.severity), spec.summary);
  }
  return 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void CountBySeverity(const std::vector<analysis::Diagnostic>& diagnostics,
                     std::size_t* errors, std::size_t* warnings,
                     std::size_t* infos) {
  for (const analysis::Diagnostic& d : diagnostics) {
    switch (d.severity) {
      case analysis::Severity::kError: ++*errors; break;
      case analysis::Severity::kWarning: ++*warnings; break;
      case analysis::Severity::kInfo: ++*infos; break;
    }
  }
}

void PrintJson(const std::string& file, const char* tgd_class,
               const std::vector<analysis::Diagnostic>& diagnostics,
               const char* decision, const std::string& method) {
  std::printf("{\n");
  std::printf("  \"file\": \"%s\",\n", JsonEscape(file).c_str());
  if (tgd_class != nullptr) {
    std::printf("  \"class\": \"%s\",\n", tgd_class);
  }
  if (decision != nullptr) {
    std::printf("  \"termination\": {\"decision\": \"%s\", \"method\": "
                "\"%s\"},\n",
                decision, JsonEscape(method).c_str());
  }
  std::printf("  \"diagnostics\": [");
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const analysis::Diagnostic& d = diagnostics[i];
    std::printf("%s\n    {\"id\": \"%s\", \"severity\": \"%s\", "
                "\"rule\": %d, \"predicate\": \"%s\", \"message\": "
                "\"%s\"}",
                i == 0 ? "" : ",", d.id.c_str(),
                analysis::SeverityName(d.severity), d.rule,
                JsonEscape(d.predicate).c_str(),
                JsonEscape(d.message).c_str());
  }
  std::printf("%s],\n", diagnostics.empty() ? "" : "\n  ");
  std::size_t errors = 0, warnings = 0, infos = 0;
  CountBySeverity(diagnostics, &errors, &warnings, &infos);
  std::printf("  \"summary\": {\"errors\": %zu, \"warnings\": %zu, "
              "\"infos\": %zu}\n",
              errors, warnings, infos);
  std::printf("}\n");
}

void PrintHuman(const std::string& file,
                const std::vector<analysis::Diagnostic>& diagnostics,
                const char* tgd_class, const char* decision,
                const std::string& method) {
  for (const analysis::Diagnostic& d : diagnostics) {
    std::printf("%s: %s %s: %s\n", file.c_str(),
                analysis::SeverityName(d.severity), d.id.c_str(),
                d.message.c_str());
  }
  if (tgd_class != nullptr) {
    std::printf("class:       %s\n", tgd_class);
  }
  if (decision != nullptr) {
    if (method.empty()) {
      std::printf("termination: %s (no static procedure certifies; try "
                  "'nuchase decide')\n",
                  decision);
    } else {
      std::printf("termination: %s (via %s)\n", decision, method.c_str());
    }
  }
  std::size_t errors = 0, warnings = 0, infos = 0;
  CountBySeverity(diagnostics, &errors, &warnings, &infos);
  std::printf("summary:     %zu error(s), %zu warning(s), %zu info(s)\n",
              errors, warnings, infos);
}

bool Dirty(const std::vector<analysis::Diagnostic>& diagnostics) {
  for (const analysis::Diagnostic& d : diagnostics) {
    if (d.severity != analysis::Severity::kInfo) return true;
  }
  return false;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      Usage(argv[0]);
      return 0;
    }
  }
  LintOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage(argv[0]);
  if (options.list_ids) return ListIds();

  std::string text;
  if (!ReadProgramText(options.file, &text)) {
    std::fprintf(stderr, "cannot open '%s'\n", options.file.c_str());
    return 2;
  }

  auto program = api::Program::Parse(text);
  if (!program.ok()) {
    // A parse failure is itself a finding (NU000), so the JSON report
    // stays machine-readable end to end.
    std::vector<analysis::Diagnostic> diagnostics = {analysis::Diagnostic{
        "NU000", analysis::Severity::kError, -1, "",
        program.status().ToString()}};
    if (options.json) {
      PrintJson(options.file, nullptr, diagnostics, nullptr, "");
    } else {
      PrintHuman(options.file, diagnostics, nullptr, nullptr, "");
    }
    return 1;
  }

  api::Session session(*program);
  auto analyzed = session.Analyze();
  if (!analyzed.ok()) {
    std::fprintf(stderr, "analyze: %s\n",
                 analyzed.status().ToString().c_str());
    return 1;
  }

  const char* tgd_class = tgd::TgdClassName(analyzed->tgd_class);
  const char* decision = termination::DecisionName(analyzed->decision);
  if (options.json) {
    PrintJson(options.file, tgd_class, analyzed->diagnostics, decision,
              analyzed->method);
  } else {
    PrintHuman(options.file, analyzed->diagnostics, tgd_class, decision,
               analyzed->method);
  }
  return Dirty(analyzed->diagnostics) ? 1 : 0;
}

}  // namespace
}  // namespace nuchase

int main(int argc, char** argv) { return nuchase::Main(argc, argv); }
