// Allocation regression tests for the chase hot path. This binary
// replaces the global operator new with a counting one, so it runs on
// its own (the other suites keep the default allocator):
//
//   - a warmed-up HomomorphismFinder enumerates without allocating;
//   - a Session::Chase of the University workload makes
//     fewer than 0.5 heap allocations per stored atom.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "api/program.h"
#include "api/session.h"
#include "chase/trigger.h"
#include "core/instance.h"
#include "workload/university.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Every other allocating form of operator new (array, nothrow) forwards
// to this one in libstdc++.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace nuchase {
namespace {

std::uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// A two-predicate instance with a real join: E(i, i+1 mod n) edges
/// and L(i) labels on every third node.
core::Instance JoinInstance(core::SymbolTable* symbols, core::Atom* e_xy,
                            core::Atom* e_yz, core::Atom* l_z) {
  const core::PredicateId e = *symbols->InternPredicate("E", 2);
  const core::PredicateId l = *symbols->InternPredicate("L", 1);
  const std::uint32_t n = 300;
  core::Instance inst;
  std::vector<core::Term> nodes;
  for (std::uint32_t i = 0; i < n; ++i) {
    nodes.push_back(*symbols->InternConstant("v" + std::to_string(i)));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    inst.Insert(core::Atom(e, {nodes[i], nodes[(i + 1) % n]}));
    inst.Insert(core::Atom(e, {nodes[i], nodes[(i * 7 + 3) % n]}));
    if (i % 3 == 0) inst.Insert(core::Atom(l, {nodes[i]}));
  }
  const core::Term x = symbols->InternVariable("x");
  const core::Term y = symbols->InternVariable("y");
  const core::Term z = symbols->InternVariable("z");
  *e_xy = core::Atom(e, {x, y});
  *e_yz = core::Atom(e, {y, z});
  *l_z = core::Atom(l, {z});
  return inst;
}

TEST(AllocationTest, WarmEnumerateAllocatesNothingPerMatch) {
  core::SymbolTable symbols;
  core::Atom e_xy, e_yz, l_z;
  const core::Instance inst = JoinInstance(&symbols, &e_xy, &e_yz, &l_z);
  const chase::SlotConjunction q =
      chase::CompileConjunction({e_xy, e_yz, l_z});
  std::uint64_t probes = 0;
  chase::HomomorphismFinder finder(inst);
  finder.set_probe_counter(&probes);
  std::uint64_t matches = 0;
  auto count = [&](const core::Term*) {
    ++matches;
    return true;
  };
  finder.Enumerate(q, count);  // warm-up: sizes the finder's buffers
  const std::uint64_t warm_matches = matches;
  ASSERT_GT(warm_matches, 100u);

  matches = 0;
  const std::uint64_t before = Allocations();
  finder.Enumerate(q, count);
  // Seeded runs (the semi-naive collect's shape) reuse the same buffers.
  for (core::AtomIndex seed = 0; seed < inst.size(); ++seed) {
    finder.Begin(q);
    finder.RunSeeded(seed, static_cast<core::AtomIndex>(inst.size() / 2),
                     count);
  }
  const std::uint64_t allocations = Allocations() - before;
  EXPECT_GT(matches, warm_matches);
  EXPECT_EQ(allocations, 0u) << "over " << matches << " matches";
}

TEST(AllocationTest, UniversityChaseStaysUnderHalfAnAllocationPerAtom) {
  core::SymbolTable symbols;
  workload::UniversityOptions options;
  options.departments = 8;
  options.professors_per_department = 20;
  options.students_per_department = 400;
  options.courses_per_department = 30;
  workload::Workload w = workload::MakeUniversityWorkload(&symbols, options);
  auto program = api::Program::Create(std::move(symbols), std::move(w.tgds),
                                      std::move(w.database));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const api::Session session(*program);

  const std::uint64_t before = Allocations();
  auto run = session.Chase();
  const std::uint64_t allocations = Allocations() - before;
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->Terminated());
  const std::uint64_t atoms = run->instance().size();
  ASSERT_GT(atoms, 30000u);
  const double per_atom =
      static_cast<double>(allocations) / static_cast<double>(atoms);
  RecordProperty("allocations", std::to_string(allocations));
  RecordProperty("atoms", std::to_string(atoms));
  EXPECT_LT(per_atom, 0.5) << allocations << " allocations for " << atoms
                           << " atoms";
}

}  // namespace
}  // namespace nuchase
