// nuchase — command-line front end to the library.
//
//   nuchase classify  FILE      class, schema quantities, paper bounds
//   nuchase decide    FILE      ChTrm(D, Σ): terminates / does not
//   nuchase chase     FILE      run the chase, print stats (and atoms)
//   nuchase rewrite   FILE      print simple(Σ) / lin(Σ) / gsimple(Σ)
//   nuchase explain   FILE      weak-acyclicity analysis with witnesses
//
// FILE holds a program in the rule language of tgd::ParseProgram
// ("R(a, b).  R(x, y) -> S(y, z)."); "-" reads stdin. Options are
// documented under --help.
//
// The CLI is a thin client of the api facade: one api::Program is
// parsed/analyzed per invocation and every command runs through an
// api::Session. Only the rewrite/explain commands reach below the
// facade, against a session-private copy of the program's symbol table.
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/weak_acyclicity.h"
#include "nuchase/nuchase.h"
#include "rewrite/linearize.h"
#include "rewrite/simplify.h"
#include "tgd/printer.h"
#include "util/parse.h"

namespace nuchase {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <command> [options] <file|->\n"
               "\n"
               "commands:\n"
               "  classify   class (SL/L/G/TGD), |sch|, ar, ||Sigma||, "
               "d_C, f_C\n"
               "  decide     non-uniform chase termination for (D, Sigma)\n"
               "  chase      materialize the chase and print statistics\n"
               "  rewrite    print a rewriting of the program\n"
               "  explain    weak-acyclicity analysis with witnesses\n"
               "\n"
               "options:\n"
               "  --variant=semi-oblivious|oblivious|restricted  (chase)\n"
               "  --max-atoms=N     chase atom budget (default %llu)\n"
               "  --max-depth=N     stop once a null exceeds depth N "
               "(default off)\n"
               "  --max-rounds=N    stop after N breadth-first rounds "
               "(default off)\n"
               "  --deadline-ms=N   stop (outcome cancelled) after N ms "
               "of wall clock\n"
               "  --print           also print the materialized atoms\n"
               "  --restraint-order fire rules restrainers first, in one "
               "order\n"
               "                    over all of Sigma (restricted variant "
               "only;\n"
               "                    picks a different, often smaller, "
               "valid result)\n"
               "  --ucq             decide via the data-complexity UCQ\n"
               "  --naive           decide via the bounded chase\n"
               "  --mode=simplify|linearize|gsimple   (rewrite)\n",
               argv0,
               static_cast<unsigned long long>(
                   chase::ChaseOptions{}.max_atoms));
  return 2;
}

struct CliOptions {
  std::string command;
  std::string file;
  // Run options forwarded to the session; defaults (including the atom
  // budget) come from the library via SessionOptions.
  api::SessionOptions session;
  bool print_atoms = false;
  bool use_ucq = false;
  bool use_naive = false;
  std::string mode = "simplify";
};

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  if (argc < 3) return false;
  out->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--print") {
      out->print_atoms = true;
    } else if (arg == "--ucq") {
      out->use_ucq = true;
    } else if (arg == "--naive") {
      out->use_naive = true;
    } else if (arg == "--restraint-order") {
      out->session.set_restraint_order(true);
    } else if (arg.rfind("--variant=", 0) == 0) {
      std::string v = arg.substr(10);
      if (v == "semi-oblivious") {
        out->session.set_variant(chase::ChaseVariant::kSemiOblivious);
      } else if (v == "oblivious") {
        out->session.set_variant(chase::ChaseVariant::kOblivious);
      } else if (v == "restricted") {
        out->session.set_variant(chase::ChaseVariant::kRestricted);
      } else {
        std::fprintf(stderr, "unknown variant '%s'\n", v.c_str());
        return false;
      }
    } else if (arg.rfind("--max-atoms=", 0) == 0) {
      unsigned long long n = 0;
      if (!util::ParseCountFlag("--max-atoms", arg.c_str() + 12, 0,
                                0xffffffffffffffffull, &n)) {
        return false;
      }
      out->session.set_max_atoms(n);
    } else if (arg.rfind("--max-depth=", 0) == 0) {
      unsigned long long n = 0;
      if (!util::ParseCountFlag("--max-depth", arg.c_str() + 12, 0,
                                0xffffffffull, &n)) {
        return false;
      }
      out->session.set_max_depth(static_cast<std::uint32_t>(n));
    } else if (arg.rfind("--max-rounds=", 0) == 0) {
      unsigned long long n = 0;
      if (!util::ParseCountFlag("--max-rounds", arg.c_str() + 13, 0,
                                0xffffffffffffffffull, &n)) {
        return false;
      }
      out->session.set_max_rounds(n);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      unsigned long long n = 0;
      if (!util::ParseCountFlag("--deadline-ms", arg.c_str() + 14, 0,
                                0xffffffffffffffffull, &n)) {
        return false;
      }
      out->session.set_deadline_ms(n);
    } else if (arg.rfind("--mode=", 0) == 0) {
      out->mode = arg.substr(7);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      out->file = arg;
    }
  }
  return !out->file.empty();
}

bool ReadProgramText(const std::string& file, std::string* text) {
  if (file == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    *text = ss.str();
    return true;
  }
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", file.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *text = ss.str();
  return true;
}

int Classify(const api::Session& session) {
  auto c = session.Classify();
  if (!c.ok()) {
    std::fprintf(stderr, "classify: %s\n", c.status().ToString().c_str());
    return 1;
  }
  std::printf("class:        %s\n", tgd::TgdClassName(c->tgd_class));
  std::printf("|Sigma|:      %zu TGDs\n", c->num_tgds);
  std::printf("|sch(Sigma)|: %zu predicates\n", c->num_schema_predicates);
  std::printf("ar(Sigma):    %u\n", c->max_arity);
  std::printf("||Sigma||:    %llu\n",
              static_cast<unsigned long long>(c->norm));
  std::printf("|D|:          %zu facts\n", c->num_facts);
  if (c->has_bounds) {
    std::printf("d_C(Sigma):   %.6g   (depth bound, Section 5)\n",
                c->depth_bound);
    std::printf("f_C(Sigma):   %.6g   (|chase| <= |D| * f_C)\n",
                c->size_factor);
  } else {
    std::printf("d_C/f_C:      n/a (not guarded; ChTrm undecidable, "
                "Prop 4.2)\n");
  }
  return 0;
}

int Decide(const api::Session& session, const CliOptions& options) {
  if (options.use_ucq) {
    auto d = session.Decide(api::DecideMethod::kUcq);
    if (!d.ok()) {
      std::fprintf(stderr, "ucq decider: %s\n",
                   d.status().ToString().c_str());
      return 1;
    }
    std::printf("%s (via UCQ Q_Sigma, Theorems 6.6 / 7.7)\n",
                termination::DecisionName(d->decision));
    return d->decision == termination::Decision::kTerminates ? 0 : 1;
  }
  if (options.use_naive) {
    auto d = session.Decide(api::DecideMethod::kBoundedChase);
    if (!d.ok()) {
      std::fprintf(stderr, "decider: %s\n",
                   d.status().ToString().c_str());
      return 1;
    }
    std::printf("%s (via bounded chase: %llu atoms, maxdepth %u)\n",
                termination::DecisionName(d->decision),
                static_cast<unsigned long long>(d->atoms), d->max_depth);
    return d->decision == termination::Decision::kTerminates ? 0 : 1;
  }
  auto d = session.Decide();
  if (!d.ok()) {
    std::fprintf(stderr, "decider: %s\n", d.status().ToString().c_str());
    return 1;
  }
  std::printf("%s (class %s, via %s)\n",
              termination::DecisionName(d->decision),
              tgd::TgdClassName(d->tgd_class), d->method.c_str());
  return d->decision == termination::Decision::kTerminates ? 0 : 1;
}

int Chase(const api::Session& session, const CliOptions& options) {
  auto run = session.Chase();
  if (!run.ok()) {
    std::fprintf(stderr, "chase: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const chase::ChaseStats& stats = run->stats();
  const chase::ChaseOptions& copt = session.options().chase;
  std::printf("variant:    %s\n", chase::ChaseVariantName(copt.variant));
  // One engine: delta-seeded trigger search through the position index.
  std::printf("engine:     delta (semi-naive), position-indexed\n");
  // The walk each round takes through Σ: a pure function of the flags.
  const bool restraint_walk = copt.restraint_order &&
                              copt.variant == chase::ChaseVariant::kRestricted;
  std::printf("schedule:   %s\n",
              restraint_walk ? "restraint order" : "sigma order");
  std::printf("outcome:    %s\n", chase::ChaseOutcomeName(run->outcome()));
  std::printf("atoms:      %zu (|D| = %zu)\n", run->instance().size(),
              session.program().fact_count());
  std::printf("maxdepth:   %u\n", stats.max_depth);
  std::printf("triggers:   %llu fired, %llu satisfied-skipped\n",
              static_cast<unsigned long long>(stats.triggers_fired),
              static_cast<unsigned long long>(stats.triggers_satisfied));
  std::printf("rounds:     %llu\n",
              static_cast<unsigned long long>(stats.rounds));
  std::printf("joins:      %llu probes, %llu delta seeds\n",
              static_cast<unsigned long long>(stats.join_probes),
              static_cast<unsigned long long>(stats.delta_atoms_scanned));
  std::printf("memory:     %llu arena bytes, %llu peak atoms\n",
              static_cast<unsigned long long>(stats.arena_bytes),
              static_cast<unsigned long long>(stats.peak_atoms));
  if (options.print_atoms) {
    std::printf("%s", run->ToSortedString().c_str());
  }
  return run->Terminated() ? 0 : 1;
}

int Rewrite(const api::Program& program, const CliOptions& options) {
  // The rewritings intern fresh predicates/variables: run them against a
  // session-private copy of the program's frozen table.
  core::SymbolTable symbols = program.symbols();
  if (options.mode == "simplify") {
    rewrite::Simplifier simplifier(&symbols);
    auto simple = simplifier.SimplifyTgds(program.tgds());
    if (!simple.ok()) {
      std::fprintf(stderr, "simplify: %s\n",
                   simple.status().ToString().c_str());
      return 1;
    }
    core::Database simple_db =
        simplifier.SimplifyDatabase(program.database());
    std::printf("%s", tgd::ProgramToString(*simple, simple_db,
                                           symbols).c_str());
    return 0;
  }
  rewrite::LinearizeOptions lopt;
  if (options.mode == "linearize") {
    auto lin = rewrite::Linearize(program.database(), program.tgds(),
                                  &symbols, lopt);
    if (!lin.ok()) {
      std::fprintf(stderr, "linearize: %s\n",
                   lin.status().ToString().c_str());
      return 1;
    }
    std::printf("%% %zu Sigma-types reachable from lin(D)\n",
                lin->num_types);
    std::printf("%s", tgd::ProgramToString(lin->tgds, lin->database,
                                           symbols).c_str());
    return 0;
  }
  if (options.mode == "gsimple") {
    auto gs = rewrite::GSimplify(program.database(), program.tgds(),
                                 &symbols, lopt);
    if (!gs.ok()) {
      std::fprintf(stderr, "gsimple: %s\n",
                   gs.status().ToString().c_str());
      return 1;
    }
    std::printf("%% %zu Sigma-types, %zu linear TGDs before "
                "simplification\n",
                gs->num_types, gs->num_linear_tgds);
    std::printf("%s", tgd::ProgramToString(gs->tgds, gs->database,
                                           symbols).c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown rewrite mode '%s'\n",
               options.mode.c_str());
  return 2;
}

int Explain(const api::Program& program) {
  const core::SymbolTable& symbols = program.symbols();
  graph::WeakAcyclicityResult wa = graph::CheckWeakAcyclicity(
      program.tgds(), program.database(), symbols);
  bool uniform =
      graph::IsUniformlyWeaklyAcyclic(program.tgds(), symbols);
  std::printf("uniformly weakly-acyclic:     %s\n",
              uniform ? "yes" : "no");
  std::printf("weakly-acyclic w.r.t. D:      %s\n",
              wa.weakly_acyclic ? "yes" : "no");
  if (!wa.special_cycle_positions.empty()) {
    std::printf("positions on special cycles:  ");
    for (const core::Position& pos : wa.special_cycle_positions) {
      std::printf("(%s,%u) ", symbols.predicate_name(pos.predicate).c_str(),
                  pos.index + 1);
    }
    std::printf("\n");
  }
  if (!wa.supported_witnesses.empty()) {
    std::printf("D-supported witnesses:        ");
    for (const core::Position& pos : wa.supported_witnesses) {
      std::printf("(%s,%u) ", symbols.predicate_name(pos.predicate).c_str(),
                  pos.index + 1);
    }
    std::printf("\n");
  }
  tgd::TgdClass clazz = program.tgd_class();
  if (clazz == tgd::TgdClass::kSimpleLinear) {
    std::printf("=> Sigma in SL: WA w.r.t. D is exact (Theorem 6.4): "
                "chase is %s\n",
                wa.weakly_acyclic ? "FINITE" : "INFINITE");
  } else if (wa.weakly_acyclic) {
    std::printf("=> WA w.r.t. D is sufficient for any TGDs (Lemma 6.2): "
                "chase is FINITE\n");
  } else {
    std::printf("=> not conclusive for class %s; run 'decide' for the "
                "class-exact procedure\n",
                tgd::TgdClassName(clazz));
  }
  return 0;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      Usage(argv[0]);
      return 0;
    }
  }
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage(argv[0]);

  std::string text;
  if (!ReadProgramText(options.file, &text)) return 1;

  // Parse + validate + classify + join-plan exactly once; every command
  // below is a cheap session over the frozen artifact.
  auto program = api::Program::Parse(text);
  if (!program.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }
  api::Session session(*program, options.session);

  if (options.command == "classify") return Classify(session);
  if (options.command == "decide") return Decide(session, options);
  if (options.command == "chase") return Chase(session, options);
  if (options.command == "rewrite") return Rewrite(*program, options);
  if (options.command == "explain") return Explain(*program);
  return Usage(argv[0]);
}

}  // namespace
}  // namespace nuchase

int main(int argc, char** argv) { return nuchase::Main(argc, argv); }
