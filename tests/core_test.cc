#include <gtest/gtest.h>

#include "core/atom.h"
#include "core/database.h"
#include "core/instance.h"
#include "core/schema.h"
#include "core/symbol_table.h"
#include "core/term.h"

namespace nuchase {
namespace core {
namespace {

TEST(TermTest, EncodesKindAndIndex) {
  Term t(TermKind::kNull, 12345);
  EXPECT_TRUE(t.IsNull());
  EXPECT_FALSE(t.IsConstant());
  EXPECT_EQ(t.index(), 12345u);
  EXPECT_EQ(Term::FromBits(t.bits()), t);
}

TEST(TermTest, DistinctKindsCompareUnequal) {
  EXPECT_NE(Term(TermKind::kConstant, 0), Term(TermKind::kNull, 0));
  EXPECT_NE(Term(TermKind::kConstant, 0), Term(TermKind::kVariable, 0));
}

TEST(SymbolTableTest, InternPredicateIsIdempotent) {
  SymbolTable symbols;
  auto p1 = symbols.InternPredicate("R", 2);
  auto p2 = symbols.InternPredicate("R", 2);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p1, *p2);
  EXPECT_EQ(symbols.arity(*p1), 2u);
  EXPECT_EQ(symbols.predicate_name(*p1), "R");
}

TEST(SymbolTableTest, ArityMismatchIsRejected) {
  SymbolTable symbols;
  ASSERT_TRUE(symbols.InternPredicate("R", 2).ok());
  auto bad = symbols.InternPredicate("R", 3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SymbolTableTest, FindPredicate) {
  SymbolTable symbols;
  ASSERT_TRUE(symbols.InternPredicate("R", 1).ok());
  EXPECT_TRUE(symbols.FindPredicate("R").ok());
  EXPECT_FALSE(symbols.FindPredicate("S").ok());
}

TEST(SymbolTableTest, ConstantsAndVariablesAreInterned) {
  SymbolTable symbols;
  Term a1 = *symbols.InternConstant("a");
  Term a2 = *symbols.InternConstant("a");
  Term x = symbols.InternVariable("a");  // same text, different sort
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, x);
  EXPECT_EQ(symbols.constant_name(a1), "a");
  EXPECT_EQ(symbols.variable_name(x), "a");
}

TEST(SymbolTableTest, NullDepths) {
  SymbolTable symbols;
  Term n0 = *symbols.MakeNull(0);
  Term n3 = *symbols.MakeNull(3);
  Term c = *symbols.InternConstant("c");
  EXPECT_EQ(symbols.depth(n0), 0u);
  EXPECT_EQ(symbols.depth(n3), 3u);
  EXPECT_EQ(symbols.depth(c), 0u);
  EXPECT_NE(n0, n3);
}

TEST(AtomTest, EqualityAndIsFact) {
  SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 2);
  Term a = *symbols.InternConstant("a");
  Term n = *symbols.MakeNull(1);
  Atom fact(*r, {a, a});
  Atom with_null(*r, {a, n});
  EXPECT_TRUE(fact.IsFact());
  EXPECT_FALSE(with_null.IsFact());
  EXPECT_NE(fact, with_null);
  EXPECT_EQ(fact.ToString(symbols), "R(a, a)");
}

TEST(SchemaTest, PositionsOfTerm) {
  SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 3);
  Term x = symbols.InternVariable("x");
  Term y = symbols.InternVariable("y");
  Atom atom(*r, {x, y, x});
  auto pos = PositionsOfTerm(atom, x);
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], Position(*r, 0));
  EXPECT_EQ(pos[1], Position(*r, 2));
  EXPECT_EQ(VariablesOf(atom).size(), 2u);
}

TEST(SchemaTest, AllPositions) {
  SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 2);
  auto s = symbols.InternPredicate("S", 1);
  auto all = AllPositions({*r, *s}, symbols);
  EXPECT_EQ(all.size(), 3u);
}

TEST(InstanceTest, InsertDeduplicates) {
  SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 2);
  Term a = *symbols.InternConstant("a");
  Term b = *symbols.InternConstant("b");
  Instance inst;
  auto [i1, fresh1] = inst.Insert(Atom(*r, {a, b}));
  auto [i2, fresh2] = inst.Insert(Atom(*r, {a, b}));
  EXPECT_TRUE(fresh1);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(i1, i2);
  EXPECT_EQ(inst.size(), 1u);
  EXPECT_TRUE(inst.Contains(Atom(*r, {a, b})));
  EXPECT_FALSE(inst.Contains(Atom(*r, {b, a})));
}

TEST(InstanceTest, PositionIndex) {
  SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 2);
  Term a = *symbols.InternConstant("a");
  Term b = *symbols.InternConstant("b");
  Term c = *symbols.InternConstant("c");
  Instance inst;
  inst.Insert(Atom(*r, {a, b}));
  inst.Insert(Atom(*r, {a, c}));
  inst.Insert(Atom(*r, {b, c}));
  EXPECT_EQ(inst.AtomsWithPredicate(*r).size(), 3u);
  EXPECT_EQ(inst.AtomsWithTermAt(*r, 0, a).size(), 2u);
  EXPECT_EQ(inst.AtomsWithTermAt(*r, 1, c).size(), 2u);
  EXPECT_EQ(inst.AtomsWithTermAt(*r, 1, a).size(), 0u);
}

TEST(InstanceTest, FindReturnsIndex) {
  SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 1);
  Term a = *symbols.InternConstant("a");
  Instance inst;
  auto [idx, fresh] = inst.Insert(Atom(*r, {a}));
  ASSERT_TRUE(fresh);
  AtomIndex found = 999;
  EXPECT_TRUE(inst.Find(Atom(*r, {a}), &found));
  EXPECT_EQ(found, idx);
  Term b = *symbols.InternConstant("b");
  EXPECT_FALSE(inst.Find(Atom(*r, {b}), &found));
}

TEST(DatabaseTest, RejectsNonGroundFacts) {
  SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 1);
  Term x = symbols.InternVariable("x");
  Database db;
  EXPECT_FALSE(db.AddFact(Atom(*r, {x})).ok());
  Term n = *symbols.MakeNull(0);
  EXPECT_FALSE(db.AddFact(Atom(*r, {n})).ok());
}

TEST(DatabaseTest, AddFactByNameAndDedup) {
  SymbolTable symbols;
  Database db;
  ASSERT_TRUE(db.AddFact(&symbols, "R", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact(&symbols, "R", {"a", "b"}).ok());
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.Predicates().size(), 1u);
  EXPECT_EQ(db.ActiveDomain().size(), 2u);
}

TEST(DatabaseTest, ToInstanceRoundTrip) {
  SymbolTable symbols;
  Database db;
  ASSERT_TRUE(db.AddFact(&symbols, "R", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact(&symbols, "S", {"a"}).ok());
  Instance inst = db.ToInstance();
  EXPECT_EQ(inst.size(), 2u);
  for (const Atom& f : db.facts()) EXPECT_TRUE(inst.Contains(f));
}

TEST(DatabaseTest, SortedStringIsStable) {
  SymbolTable symbols;
  Database db;
  ASSERT_TRUE(db.AddFact(&symbols, "B", {"b"}).ok());
  ASSERT_TRUE(db.AddFact(&symbols, "A", {"a"}).ok());
  EXPECT_EQ(db.ToSortedString(symbols), "A(a)\nB(b)\n");
}

TEST(InstanceTest, InsertTupleFastPathMatchesAtomWrapper) {
  SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 2);
  Term a = *symbols.InternConstant("a");
  Term b = *symbols.InternConstant("b");
  Instance inst;
  std::vector<Term> tuple{a, b};
  auto [i1, fresh1] = inst.InsertTuple(*r, TermSpan(tuple));
  EXPECT_TRUE(fresh1);
  // The wrapper and the fast path dedup against each other.
  auto [i2, fresh2] = inst.Insert(Atom(*r, {a, b}));
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(i1, i2);
  AtomIndex found = 0;
  EXPECT_TRUE(inst.FindTuple(*r, TermSpan(tuple), &found));
  EXPECT_EQ(found, i1);
  EXPECT_EQ(inst.PredicateArity(*r), 2u);
}

TEST(InstanceTest, AtomViewReadsTheArena) {
  SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 2);
  auto s = symbols.InternPredicate("S", 1);
  Term a = *symbols.InternConstant("a");
  Term b = *symbols.InternConstant("b");
  Instance inst;
  inst.Insert(Atom(*r, {a, b}));
  inst.Insert(Atom(*s, {b}));
  AtomView v0 = inst.atom(0);
  AtomView v1 = inst.atom(1);
  EXPECT_EQ(v0.predicate(), *r);
  EXPECT_EQ(v0.arity(), 2u);
  EXPECT_EQ(v0.arg(0), a);
  EXPECT_EQ(v0.arg(1), b);
  EXPECT_EQ(v0.ToString(symbols), "R(a, b)");
  EXPECT_EQ(v0.ToAtom(), Atom(*r, {a, b}));
  EXPECT_TRUE(v0.IsFact());
  EXPECT_EQ(v1.predicate(), *s);
  EXPECT_EQ(v1.arity(), 1u);
  EXPECT_EQ(v1.arg(0), b);
}

TEST(InstanceTest, PredicateArityIsZeroForUnseenPredicates) {
  SymbolTable symbols;
  auto low = symbols.InternPredicate("Low", 2);
  auto high = symbols.InternPredicate("High", 3);
  Term a = *symbols.InternConstant("a");
  Instance inst;
  // Only the higher predicate id gets atoms: the arity table now spans
  // the lower id without having recorded it.
  inst.Insert(Atom(*high, {a, a, a}));
  EXPECT_EQ(inst.PredicateArity(*high), 3u);
  EXPECT_EQ(inst.PredicateArity(*low), 0u);
  EXPECT_EQ(inst.PredicateArity(*high + 1000), 0u);
}

TEST(InstanceTest, ZeroAryPredicates) {
  SymbolTable symbols;
  auto p = symbols.InternPredicate("Alarm", 0);
  Instance inst;
  auto [idx, fresh] = inst.Insert(Atom(*p, {}));
  EXPECT_TRUE(fresh);
  EXPECT_FALSE(inst.Insert(Atom(*p, {})).second);
  EXPECT_TRUE(inst.Contains(Atom(*p, {})));
  EXPECT_EQ(inst.atom(idx).arity(), 0u);
  EXPECT_EQ(inst.arena_terms(), 0u);
}

TEST(InstanceTest, ArenaAccountingIsExact) {
  SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 3);
  Term a = *symbols.InternConstant("a");
  Instance inst;
  EXPECT_EQ(inst.arena_bytes(), 0u);
  inst.Insert(Atom(*r, {a, a, a}));
  EXPECT_EQ(inst.arena_terms(), 3u);
  EXPECT_EQ(inst.arena_bytes(), 3 * sizeof(Term));
  inst.Insert(Atom(*r, {a, a, a}));  // duplicate: arena unchanged
  EXPECT_EQ(inst.arena_terms(), 3u);
}

TEST(InstanceTest, DedupSurvivesSlotTableGrowth) {
  SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 1);
  Instance inst;
  std::vector<Term> constants;
  for (int i = 0; i < 500; ++i) {
    Term c = *symbols.InternConstant("c" + std::to_string(i));
    constants.push_back(c);
    auto [idx, fresh] = inst.Insert(Atom(*r, {c}));
    EXPECT_TRUE(fresh);
    EXPECT_EQ(idx, static_cast<AtomIndex>(i));
  }
  // After many rehashes every atom is still found at its original index.
  for (int i = 0; i < 500; ++i) {
    AtomIndex found = 0;
    ASSERT_TRUE(inst.Find(Atom(*r, {constants[i]}), &found));
    EXPECT_EQ(found, static_cast<AtomIndex>(i));
    EXPECT_FALSE(inst.Insert(Atom(*r, {constants[i]})).second);
  }
  EXPECT_EQ(inst.size(), 500u);
}

}  // namespace
}  // namespace core
}  // namespace nuchase
