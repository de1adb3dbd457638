// Differential tests for the compiled join kernel (chase::
// HomomorphismFinder over a SlotConjunction): on random conjunctions
// and instances it must report exactly the homomorphisms a brute-force
// enumerator finds — with repeated variables, constants and nulls in
// patterns, 0-ary atoms, pre-bound slots, seeded runs under the
// old-only restriction, and early stop — with the position index on
// and off. A chase of a rule wider than 64 atoms and 64 variables pins
// that no width cap exists anywhere on the path, and a hub term with a
// long (predicate, position, term) list pins that joins read the whole
// list, in the kernel and in the chase. Both chases are checked against
// the brute-force reference chase as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/trigger.h"
#include "core/instance.h"
#include "reference_chase.h"
#include "tgd/parser.h"

namespace nuchase {
namespace chase {
namespace {

using core::Atom;
using core::AtomIndex;
using core::Term;

std::uint64_t Next(std::uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

/// One random (instance, conjunction) case.
struct Case {
  core::SymbolTable symbols;
  core::Instance instance;
  std::vector<Atom> instance_atoms;  // insertion order, deduplicated
  std::vector<Term> domain;
  std::vector<Atom> query;
};

void MakeCase(std::uint64_t seed, Case* c) {
  std::uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 1;
  // Arities 0..3; the 0-ary predicate is present in the instance only
  // on some seeds, so both outcomes of a 0-ary query atom occur.
  std::vector<core::PredicateId> preds;
  for (std::uint32_t arity = 0; arity <= 3; ++arity) {
    preds.push_back(*c->symbols.InternPredicate(
        "P" + std::to_string(arity), arity));
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    c->domain.push_back(
        *c->symbols.InternConstant("c" + std::to_string(i)));
  }
  for (std::uint32_t i = 0; i < 2; ++i) {
    c->domain.push_back(*c->symbols.MakeNull(1));
  }
  const std::uint32_t num_atoms = 20 + Next(&rng) % 40;
  for (std::uint32_t i = 0; i < num_atoms; ++i) {
    const std::uint32_t arity = Next(&rng) % 4;
    if (arity == 0 && seed % 2 == 0) continue;
    std::vector<Term> args;
    for (std::uint32_t k = 0; k < arity; ++k) {
      args.push_back(c->domain[Next(&rng) % c->domain.size()]);
    }
    Atom atom(preds[arity], std::move(args));
    if (c->instance.Insert(atom).second) {
      c->instance_atoms.push_back(std::move(atom));
    }
  }
  // The query: 1-5 atoms over 4 variables (so repeats are common), with
  // the occasional constant or null.
  std::vector<Term> vars;
  for (std::uint32_t i = 0; i < 4; ++i) {
    vars.push_back(c->symbols.InternVariable("x" + std::to_string(i)));
  }
  const std::uint32_t query_atoms = 1 + Next(&rng) % 5;
  for (std::uint32_t i = 0; i < query_atoms; ++i) {
    const std::uint32_t arity = Next(&rng) % 4;
    std::vector<Term> args;
    for (std::uint32_t k = 0; k < arity; ++k) {
      args.push_back(Next(&rng) % 6 == 0
                         ? c->domain[Next(&rng) % c->domain.size()]
                         : vars[Next(&rng) % vars.size()]);
    }
    c->query.emplace_back(preds[arity], std::move(args));
  }
}

using Hom = std::vector<Term>;  // slot images

/// Brute force: tries every instance atom for every query atom, in
/// query order. `seed` >= 0 pins query atom 0 to that instance atom;
/// query atom i > 0 with old_only[i] set may only use atoms below
/// `old_limit`.
std::vector<Hom> BruteForce(const Case& c, const SlotConjunction& q,
                            const Hom& prebound, int seed,
                            AtomIndex old_limit) {
  std::vector<Hom> out;
  Hom h = prebound;
  std::function<void(std::size_t)> go = [&](std::size_t i) {
    if (i == q.atoms.size()) {
      out.push_back(h);
      return;
    }
    for (AtomIndex idx = 0; idx < c.instance_atoms.size(); ++idx) {
      if (i == 0 && seed >= 0 && idx != static_cast<AtomIndex>(seed)) {
        continue;
      }
      if (i > 0 && seed >= 0 && !q.old_only.empty() && q.old_only[i] &&
          idx >= old_limit) {
        continue;
      }
      const Atom& fact = c.instance_atoms[idx];
      if (fact.predicate != q.atoms[i].predicate) continue;
      const Hom saved = h;
      bool ok = true;
      const Term* pattern = q.ArgsOf(i);
      for (std::uint32_t k = 0; k < q.atoms[i].arity && ok; ++k) {
        const Term p = pattern[k];
        if (!p.IsVariable()) {
          ok = p == fact.args[k];
        } else if (h[p.index()] == kUnbound) {
          h[p.index()] = fact.args[k];
        } else {
          ok = h[p.index()] == fact.args[k];
        }
      }
      if (ok) go(i + 1);
      h = saved;
    }
  };
  go(0);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Hom> Kernel(const Case& c, const SlotConjunction& q,
                        const Hom& prebound, int seed, AtomIndex old_limit,
                        bool use_index, std::size_t stop_after,
                        std::uint64_t* probes) {
  std::vector<Hom> out;
  HomomorphismFinder finder(c.instance, use_index);
  finder.set_probe_counter(probes);
  finder.Begin(q);
  for (std::uint32_t s = 0; s < prebound.size(); ++s) {
    if (prebound[s] != kUnbound) finder.Bind(s, prebound[s]);
  }
  auto collect = [&](const Term* h) {
    out.emplace_back(h, h + q.num_slots());
    return out.size() < stop_after;
  };
  if (seed >= 0) {
    finder.RunSeeded(static_cast<AtomIndex>(seed), old_limit, collect);
  } else {
    finder.Run(collect);
  }
  return out;
}

TEST(KernelDifferentialTest, MatchesBruteForceOnRandomConjunctions) {
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Case c;
    MakeCase(seed, &c);
    SlotConjunction q = CompileConjunction(c.query);
    std::uint64_t rng = seed * 31 + 7;
    // Pre-bind a random subset of the slots (often none).
    Hom prebound(q.num_slots(), kUnbound);
    for (Term& t : prebound) {
      if (Next(&rng) % 4 == 0) t = c.domain[Next(&rng) % c.domain.size()];
    }
    std::vector<Hom> want = BruteForce(c, q, prebound, -1, 0);
    if (!want.empty()) ++nonempty;
    for (bool use_index : {true, false}) {
      std::uint64_t probes = 0;
      std::vector<Hom> got =
          Kernel(c, q, prebound, -1, 0, use_index, SIZE_MAX, &probes);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << "seed " << seed << " index " << use_index;
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(nonempty, 50u);
  EXPECT_LT(nonempty, 300u);
}

TEST(KernelDifferentialTest, SeededRunsHonourTheOldRestriction) {
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    Case c;
    MakeCase(seed, &c);
    SlotConjunction q = CompileConjunction(c.query);
    std::uint64_t rng = seed * 17 + 3;
    q.old_only.assign(q.atoms.size(), 0);
    for (std::size_t i = 1; i < q.atoms.size(); ++i) {
      q.old_only[i] = Next(&rng) % 2;
    }
    const AtomIndex old_limit =
        static_cast<AtomIndex>(Next(&rng) % (c.instance.size() + 1));
    const Hom none(q.num_slots(), kUnbound);
    for (AtomIndex s = 0; s < c.instance.size(); ++s) {
      std::vector<Hom> want =
          BruteForce(c, q, none, static_cast<int>(s), old_limit);
      std::uint64_t probes = 0;
      std::vector<Hom> got = Kernel(c, q, none, static_cast<int>(s),
                                    old_limit, true, SIZE_MAX, &probes);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << "seed " << seed << " atom " << s;
    }
  }
}

TEST(KernelDifferentialTest, EarlyStopReportsExactlyThePrefixAsked) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Case c;
    MakeCase(seed, &c);
    const SlotConjunction q = CompileConjunction(c.query);
    const Hom none(q.num_slots(), kUnbound);
    const std::vector<Hom> all = BruteForce(c, q, none, -1, 0);
    for (std::size_t stop : {std::size_t{1}, std::size_t{2},
                             std::size_t{5}}) {
      std::uint64_t probes = 0;
      std::vector<Hom> got =
          Kernel(c, q, none, -1, 0, true, stop, &probes);
      ASSERT_EQ(got.size(), std::min(stop, all.size())) << seed;
      for (const Hom& h : got) {
        EXPECT_TRUE(std::binary_search(all.begin(), all.end(), h));
      }
      // A stopped run reports a prefix of the full run's order.
      std::uint64_t full_probes = 0;
      const std::vector<Hom> full =
          Kernel(c, q, none, -1, 0, true, SIZE_MAX, &full_probes);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), full.begin()));
      EXPECT_LE(probes, full_probes);
    }
  }
}

TEST(KernelDifferentialTest, ZeroAryAtomsAndEmptyConjunction) {
  core::SymbolTable symbols;
  const core::PredicateId flag = *symbols.InternPredicate("Flag", 0);
  const core::PredicateId other = *symbols.InternPredicate("Other", 0);
  const core::PredicateId r = *symbols.InternPredicate("R", 1);
  const Term a = *symbols.InternConstant("a");
  const Term x = symbols.InternVariable("x");
  core::Instance inst;
  inst.Insert(Atom(flag, {}));
  inst.Insert(Atom(r, {a}));
  auto count = [&](const std::vector<Atom>& atoms) {
    const SlotConjunction q = CompileConjunction(atoms);
    HomomorphismFinder finder(inst);
    std::size_t n = 0;
    finder.Enumerate(q, [&](const Term*) {
      ++n;
      return true;
    });
    return n;
  };
  EXPECT_EQ(count({}), 1u);  // the empty homomorphism
  EXPECT_EQ(count({Atom(flag, {})}), 1u);
  EXPECT_EQ(count({Atom(other, {})}), 0u);
  EXPECT_EQ(count({Atom(flag, {}), Atom(r, {x})}), 1u);
  EXPECT_EQ(count({Atom(other, {}), Atom(r, {x})}), 0u);
}

/// `text` chased by the engine and by the brute-force reference chase,
/// each over its own parse, must agree (reference::ExpectSameRun).
void ExpectEngineMatchesReference(const std::string& text,
                                  const ChaseOptions& options) {
  reference::RenderedRun runs[2];
  for (int side = 0; side < 2; ++side) {
    core::SymbolTable symbols;
    auto program = tgd::ParseProgram(&symbols, text);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    runs[side] = side == 0
                     ? reference::RenderEngineRun(&symbols, program->tgds,
                                                  program->database, options)
                     : reference::RenderReferenceRun(
                           &symbols, program->tgds, program->database,
                           options);
  }
  reference::ExpectSameRun(runs[0], runs[1],
                           ChaseVariantName(options.variant));
}

/// A rule of 70 body atoms over 71 variables: E(x0, x1), ...,
/// E(x69, x70) -> P(x0, x70, z). On the path v0 -> ... -> v75 the body
/// matches the 6 windows of 70 consecutive edges, so the chase adds
/// exactly P(v_i, v_{i+70}, null_i) for i = 0..5 — in every variant,
/// as the reference chase does.
TEST(KernelWidthTest, RuleWiderThanSixtyFourAtomsAndVariables) {
  constexpr int kBody = 70;
  constexpr int kPath = 75;
  std::string text;
  for (int i = 0; i < kPath; ++i) {
    text += "E(v" + std::to_string(i) + ", v" + std::to_string(i + 1) +
            ").\n";
  }
  for (int i = 0; i < kBody; ++i) {
    text += (i ? ", " : "") + std::string("E(x") + std::to_string(i) +
            ", x" + std::to_string(i + 1) + ")";
  }
  text += " -> P(x0, x" + std::to_string(kBody) + ", z).\n";

  for (ChaseVariant variant : {ChaseVariant::kSemiOblivious,
                               ChaseVariant::kOblivious,
                               ChaseVariant::kRestricted}) {
    core::SymbolTable symbols;
    auto program = tgd::ParseProgram(&symbols, text);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    ASSERT_EQ(program->tgds.tgd(0).body().size(),
              static_cast<std::size_t>(kBody));
    ASSERT_EQ(program->tgds.tgd(0).body_variables().size(),
              static_cast<std::size_t>(kBody + 1));
    ChaseOptions options;
    options.variant = variant;
    ChaseResult result =
        RunChase(&symbols, program->tgds, program->database, options);
    ASSERT_TRUE(result.Terminated());
    ExpectEngineMatchesReference(text, options);
    EXPECT_EQ(result.instance.size(),
              static_cast<std::size_t>(kPath + kPath - kBody + 1));
    EXPECT_EQ(result.stats.triggers_fired,
              static_cast<std::uint64_t>(kPath - kBody + 1));
    const core::PredicateId p = *symbols.FindPredicate("P");
    std::vector<std::string> got;
    std::vector<Term> nulls;
    for (AtomIndex i : result.instance.AtomsWithPredicate(p)) {
      const core::AtomView atom = result.instance.atom(i);
      got.push_back(symbols.TermToString(atom.arg(0)) + "," +
                    symbols.TermToString(atom.arg(1)));
      nulls.push_back(atom.arg(2));
      EXPECT_TRUE(atom.arg(2).IsNull());
    }
    std::sort(got.begin(), got.end());
    std::vector<std::string> want;
    for (int i = 0; i + kBody <= kPath; ++i) {
      want.push_back("v" + std::to_string(i) + ",v" +
                     std::to_string(i + kBody));
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
    std::sort(nulls.begin(), nulls.end());
    EXPECT_EQ(std::unique(nulls.begin(), nulls.end()), nulls.end());
  }
}

/// Atoms E(h, v_i) and E(o, w_j) — the hub h's list at position 0 holds
/// kHubEdges atoms, past the position table's 4 inline slots and its 8,
/// 16 and 32-atom spill capacities — plus F(v_i) for every i. The other
/// source o makes E's per-predicate list longer than h's position list,
/// so a join that has bound x = h takes its candidates from the list.
constexpr std::uint32_t kHubEdges = 44;
constexpr std::uint32_t kOtherEdges = 20;

std::string HubFacts() {
  std::string text;
  for (std::uint32_t i = 0; i < kHubEdges; ++i) {
    const std::string v = "v" + std::to_string(i);
    text += "E(h, " + v + "). F(" + v + ").\n";
  }
  for (std::uint32_t j = 0; j < kOtherEdges; ++j) {
    text += "E(o, w" + std::to_string(j) + ").\n";
  }
  return text;
}

TEST(KernelLongListTest, IndexedJoinReadsTheWholePositionList) {
  Case c;
  auto program = tgd::ParseProgram(&c.symbols, HubFacts());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  for (const Atom& fact : program->database.facts()) {
    if (c.instance.Insert(fact).second) c.instance_atoms.push_back(fact);
  }
  const core::PredicateId e = *c.symbols.FindPredicate("E");
  const core::PredicateId f = *c.symbols.FindPredicate("F");
  const Term h = *c.symbols.InternConstant("h");
  EXPECT_EQ(c.instance.AtomsWithTermAt(e, 0, h).size(), kHubEdges);
  const Term x = c.symbols.InternVariable("x");
  const Term y = c.symbols.InternVariable("y");

  // E(h, y), F(y) through the constant, and E(x, y), F(y) with x
  // pre-bound to h: both must find all kHubEdges homomorphisms.
  const std::vector<std::vector<Atom>> queries = {
      {Atom(e, {h, y}), Atom(f, {y})},
      {Atom(e, {x, y}), Atom(f, {y})},
  };
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const SlotConjunction q = CompileConjunction(queries[qi]);
    Hom prebound(q.num_slots(), kUnbound);
    if (qi == 1) prebound[q.SlotOf(x)] = h;
    const std::vector<Hom> want = BruteForce(c, q, prebound, -1, 0);
    ASSERT_EQ(want.size(), kHubEdges) << "query " << qi;
    for (bool use_index : {true, false}) {
      std::uint64_t probes = 0;
      std::vector<Hom> got =
          Kernel(c, q, prebound, -1, 0, use_index, SIZE_MAX, &probes);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "query " << qi << " index " << use_index;
    }
  }
}

/// The chase of S(x), E(x, y), F(y) -> T(y) over S(h) and the hub
/// facts: in round one only the S(h) seed may join (every later body
/// position is restricted to pre-delta atoms for the E and F seeds), so
/// every T atom comes from reading h's whole E list. The reference
/// chase, which reads no position list, agrees.
TEST(KernelLongListTest, ChaseReadsTheWholePositionList) {
  const std::string text =
      HubFacts() + "S(h).\nS(x), E(x, y), F(y) -> T(y).\n";
  for (ChaseVariant variant : {ChaseVariant::kSemiOblivious,
                               ChaseVariant::kOblivious,
                               ChaseVariant::kRestricted}) {
    core::SymbolTable symbols;
    auto program = tgd::ParseProgram(&symbols, text);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    ChaseOptions options;
    options.variant = variant;
    const ChaseResult result =
        RunChase(&symbols, program->tgds, program->database, options);
    ASSERT_TRUE(result.Terminated());
    const core::PredicateId t = *symbols.FindPredicate("T");
    EXPECT_EQ(result.instance.AtomsWithPredicate(t).size(), kHubEdges)
        << ChaseVariantName(variant);
    EXPECT_EQ(result.stats.triggers_fired, kHubEdges)
        << ChaseVariantName(variant);
    ExpectEngineMatchesReference(text, options);
  }
}

}  // namespace
}  // namespace chase
}  // namespace nuchase
