// Tests for the nuchase/nuchase.h facade: Program::Parse error paths,
// parse-once/run-many equivalence with the legacy free functions,
// observer and cancellation semantics, and the concurrency contract —
// N sessions chasing one shared `const api::Program` produce
// byte-identical results (this is the test the TSan CI job runs).
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nuchase/nuchase.h"
#include "tgd/parser.h"

namespace nuchase {
namespace {

constexpr const char* kQuickstart =
    "Emp(alice, sales).\n"
    "Emp(bob, eng).\n"
    "Emp(x, d) -> Dept(d).\n"
    "Dept(d) -> Mgr(d, m).\n"
    "Mgr(d, m) -> Emp(m, d).\n";

// R(x,y) -> ∃z R(y,z) over {R(a,b)}: the Section 3 diverging pair.
constexpr const char* kDiverging = "R(a, b). R(x, y) -> R(y, z).";

// A mid-size program whose chase invents one null per department chain,
// big enough that concurrent runs genuinely overlap.
std::string ConcurrencyProgramText() {
  std::string text =
      "Emp(x, d) -> Dept(d).\n"
      "Dept(d) -> Mgr(d, m).\n"
      "Mgr(d, m) -> Emp(m, d).\n"
      "Emp(x, d), Mgr(d, m) -> Reports(x, m).\n";
  for (int i = 0; i < 400; ++i) {
    text += "Emp(e" + std::to_string(i) + ", d" +
            std::to_string(i % 40) + ").\n";
  }
  return text;
}

// ---------------------------------------------------------------------
// Program::Parse and the facade's Status surface.

TEST(ProgramTest, ParseAnalyzesOnce) {
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->rule_count(), 3u);
  EXPECT_EQ(program->fact_count(), 2u);
  EXPECT_EQ(program->tgd_class(), tgd::TgdClass::kSimpleLinear);
  // Join plans are precomputed for every rule.
  EXPECT_EQ(program->join_plans().size(), 3u);
  // SL bounds are finite and precomputed.
  EXPECT_TRUE(std::isfinite(program->depth_bound()));
  EXPECT_GT(program->depth_bound(), 0);
}

TEST(ProgramTest, ProgramsAreCheaplyCopyableHandles) {
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  api::Program copy = *program;  // pointer copy, same frozen analysis
  EXPECT_EQ(&copy.symbols(), &program->symbols());
  EXPECT_EQ(&copy.tgds(), &program->tgds());
}

TEST(ProgramTest, ParseSyntaxErrorIsInvalidArgument) {
  for (const char* bad : {
           "R(x",                  // unterminated atom
           "R(x, y) -> ",          // missing head
           "-> S(x).",             // missing body
           "R(a). R(a, b).",       // arity clash
           "R(x, y) R(y, z).",     // missing separator
       }) {
    auto program = api::Program::Parse(bad);
    ASSERT_FALSE(program.ok()) << "accepted: " << bad;
    EXPECT_EQ(program.status().code(), util::StatusCode::kInvalidArgument)
        << bad << " -> " << program.status().ToString();
  }
}

TEST(ProgramTest, FindPredicateMissingIsNotFound) {
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->FindPredicate("Emp").ok());
  auto missing = program->FindPredicate("NoSuchPredicate");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

TEST(ProgramTest, CreateRejectsForeignParts) {
  // A database built against one table handed in with an empty table:
  // the predicate ids cannot resolve.
  core::SymbolTable symbols;
  core::Database db;
  ASSERT_TRUE(db.AddFact(&symbols, "R", {"a", "b"}).ok());
  auto program =
      api::Program::Create(core::SymbolTable(), tgd::TgdSet(), db);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SessionTest, ChaseWithZeroAtomBudgetIsInvalidArgument) {
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  api::Session session(*program, api::SessionOptions().set_max_atoms(0));
  auto run = session.Chase();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SessionTest, UcqDecideOnGuardedIsFailedPrecondition) {
  // The UCQ of Theorems 6.6 / 7.7 exists for SL and L only; this set is
  // guarded but not linear.
  auto program = api::Program::Parse(
      "E(a, b).\n"
      "E(x, y), E(y, x) -> E(y, z).\n");
  ASSERT_TRUE(program.ok());
  ASSERT_EQ(program->tgd_class(), tgd::TgdClass::kGuarded);
  auto decision = api::Session(*program).Decide(api::DecideMethod::kUcq);
  ASSERT_FALSE(decision.ok());
  EXPECT_EQ(decision.status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(SessionTest, AdviseBeyondBudgetIsResourceExhausted) {
  // The decider certifies termination, but a 1-atom materialization
  // budget cannot hold the 8-atom chase.
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  api::Session session(*program, api::SessionOptions().set_max_atoms(1));
  auto advice = session.Advise();
  ASSERT_FALSE(advice.ok());
  EXPECT_EQ(advice.status().code(),
            util::StatusCode::kResourceExhausted);
}

TEST(StatusSurfaceTest, EveryStatusCodeIsConstructibleAndNamed) {
  // The facade returns util::Status end to end; pin the full code
  // vocabulary (including kInternal, which no healthy run produces).
  EXPECT_STREQ(util::StatusCodeName(util::StatusCode::kOk), "OK");
  EXPECT_EQ(util::Status::InvalidArgument("x").code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(util::Status::NotFound("x").code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(util::Status::ResourceExhausted("x").code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_EQ(util::Status::FailedPrecondition("x").code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(util::Status::Internal("x").code(),
            util::StatusCode::kInternal);
}

// ---------------------------------------------------------------------
// Session results match the legacy per-layer path byte for byte.

TEST(SessionTest, ChaseMatchesLegacyFreeFunction) {
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());

  // Legacy path: a private mutable table threaded through RunChase.
  core::SymbolTable legacy_symbols = program->symbols();
  chase::ChaseResult legacy = chase::RunChase(
      &legacy_symbols, program->tgds(), program->database());

  auto run = api::Session(*program).Chase();
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->Terminated());
  EXPECT_EQ(run->ToSortedString(),
            legacy.instance.ToSortedString(legacy_symbols));
  EXPECT_EQ(run->stats().triggers_fired, legacy.stats.triggers_fired);
  // The shared program's frozen table gained no nulls.
  EXPECT_EQ(program->symbols().num_nulls(), 0u);
}

TEST(SessionTest, StatsSurfaceStorageCounters) {
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  auto run = api::Session(*program).Chase();
  ASSERT_TRUE(run.ok());
  // The memory counters describe the materialized instance exactly:
  // peak_atoms is its size, arena_bytes its term storage.
  EXPECT_EQ(run->stats().peak_atoms, run->instance().size());
  EXPECT_EQ(run->stats().arena_bytes,
            run->instance().arena_terms() * sizeof(core::Term));
  EXPECT_GT(run->stats().arena_bytes, 0u);
}

TEST(SessionTest, ClassifyReportsPaperQuantities) {
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  auto c = api::Session(*program).Classify();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->tgd_class, tgd::TgdClass::kSimpleLinear);
  EXPECT_EQ(c->num_tgds, 3u);
  EXPECT_EQ(c->num_schema_predicates, 3u);
  EXPECT_EQ(c->max_arity, 2u);
  EXPECT_EQ(c->num_facts, 2u);
  EXPECT_TRUE(c->has_bounds);
}

TEST(SessionTest, DecideAutoUcqAndBoundedChaseAgree) {
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  api::Session session(*program);

  auto by_auto = session.Decide();
  ASSERT_TRUE(by_auto.ok());
  EXPECT_EQ(by_auto->decision, termination::Decision::kTerminates);
  EXPECT_EQ(by_auto->method, "weak-acyclicity");

  auto by_ucq = session.Decide(api::DecideMethod::kUcq);
  ASSERT_TRUE(by_ucq.ok());
  EXPECT_EQ(by_ucq->decision, termination::Decision::kTerminates);

  auto by_chase = session.Decide(api::DecideMethod::kBoundedChase);
  ASSERT_TRUE(by_chase.ok());
  EXPECT_EQ(by_chase->decision, termination::Decision::kTerminates);
  EXPECT_GT(by_chase->atoms, 0u);
}

TEST(SessionTest, DecideRejectsDivergingPair) {
  auto program = api::Program::Parse(kDiverging);
  ASSERT_TRUE(program.ok());
  auto d = api::Session(*program).Decide();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->decision, termination::Decision::kDoesNotTerminate);
}

// The deciders own the variant, the depth and round budgets, the forest
// and the firing order of every chase they run: a session that sets all
// of them for Chase() must get the same decisions, bounded-chase atoms
// and materialization as a default session.
TEST(SessionTest, DecisionsIgnoreTheSessionsChaseShape) {
  for (const char* text : {kQuickstart, kDiverging}) {
    auto program = api::Program::Parse(text);
    ASSERT_TRUE(program.ok());
    api::Session plain(*program);
    api::Session shaped(*program,
                        api::SessionOptions()
                            .set_variant(chase::ChaseVariant::kRestricted)
                            .set_max_rounds(1)
                            .set_max_depth(1)
                            .set_build_forest(true)
                            .set_restraint_order(true));

    auto plain_chase = plain.Decide(api::DecideMethod::kBoundedChase);
    auto shaped_chase = shaped.Decide(api::DecideMethod::kBoundedChase);
    ASSERT_TRUE(plain_chase.ok());
    ASSERT_TRUE(shaped_chase.ok());
    EXPECT_NE(plain_chase->decision, termination::Decision::kUnknown)
        << text;
    EXPECT_EQ(shaped_chase->decision, plain_chase->decision) << text;
    EXPECT_EQ(shaped_chase->method, plain_chase->method) << text;
    EXPECT_EQ(shaped_chase->atoms, plain_chase->atoms) << text;
    EXPECT_EQ(shaped_chase->max_depth, plain_chase->max_depth) << text;

    auto plain_advice = plain.Advise();
    auto shaped_advice = shaped.Advise();
    ASSERT_TRUE(plain_advice.ok()) << text;
    ASSERT_TRUE(shaped_advice.ok()) << shaped_advice.status().ToString();
    EXPECT_EQ(shaped_advice->decision(), plain_advice->decision()) << text;
    EXPECT_EQ(shaped_advice->report().method,
              plain_advice->report().method)
        << text;
    EXPECT_EQ(shaped_advice->has_materialization(),
              plain_advice->has_materialization())
        << text;
    EXPECT_EQ(shaped_advice->MaterializationToSortedString(),
              plain_advice->MaterializationToSortedString())
        << text;
    if (plain_advice->has_materialization()) {
      const chase::ChaseResult& plain_m =
          *plain_advice->report().materialization;
      const chase::ChaseResult& shaped_m =
          *shaped_advice->report().materialization;
      EXPECT_EQ(shaped_m.stats.arena_bytes, plain_m.stats.arena_bytes);
      EXPECT_EQ(shaped_m.stats.rounds, plain_m.stats.rounds);
      EXPECT_TRUE(shaped_m.forest.empty());
    }
  }
}

// The committed JA showcase (examples/programs/ja_ladder.tgd): general
// class, not WA w.r.t. D, jointly acyclic.
constexpr const char* kJaShowcase =
    "P(a). R(a, b).\n"
    "P(x) -> Q(x, y).\n"
    "Q(x, y), R(y, w) -> P(y).\n";

TEST(SessionTest, AnalyzeReportsDiagnosticsAndLadder) {
  auto program = api::Program::Parse(
      "Start(a). Orphan(b).\n"
      "Start(x) -> Log(y).\n");
  ASSERT_TRUE(program.ok());
  // Diagnostics are computed at parse and frozen into the Program.
  ASSERT_EQ(program->diagnostics().size(), 2u);
  EXPECT_EQ(program->diagnostics()[0].id, "NU001");
  EXPECT_EQ(program->diagnostics()[1].id, "NU003");

  auto analyzed = api::Session(*program).Analyze();
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed->diagnostics.size(), 2u);
  EXPECT_EQ(analyzed->decision, termination::Decision::kTerminates);
  EXPECT_EQ(analyzed->method, "weak-acyclicity");
  EXPECT_TRUE(analyzed->ladder.wa.weakly_acyclic);
}

TEST(SessionTest, DecideAutoUpgradesGeneralViaLadder) {
  auto program = api::Program::Parse(kJaShowcase);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->tgd_class(), tgd::TgdClass::kGeneral);
  // A starved bounded chase cannot certify ...
  api::Session starved(*program, api::SessionOptions().set_max_atoms(2));
  auto naive = starved.Decide(api::DecideMethod::kBoundedChase);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->decision, termination::Decision::kUnknown);
  // ... but kAuto decides statically, without chasing D at all.
  auto by_auto = starved.Decide();
  ASSERT_TRUE(by_auto.ok());
  EXPECT_EQ(by_auto->decision, termination::Decision::kTerminates);
  EXPECT_EQ(by_auto->method, "ladder:ja");
}

TEST(SessionTest, StaticAnalysisIsComputedOncePerProgram) {
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  api::Session session(*program);
  const std::uint64_t before =
      termination::DeciderInvocationsForTest().load();
  // Analyze, repeated Decides and an Advise over one frozen Program:
  // exactly one syntactic-decider computation in total.
  ASSERT_TRUE(session.Analyze().ok());
  ASSERT_TRUE(session.Decide().ok());
  ASSERT_TRUE(session.Decide().ok());
  api::Session second(*program);  // caches live on the Program, not the
  ASSERT_TRUE(second.Advise().ok());  // Session
  EXPECT_EQ(termination::DeciderInvocationsForTest().load(), before + 1);

  // A session with a non-default linearization budget must bypass the
  // default-budget cache (quickstart is SL, so the class decider runs
  // again rather than serving a budget-mismatched memo).
  api::Session custom(*program,
                      api::SessionOptions().set_max_types(7));
  ASSERT_TRUE(custom.Decide().ok());
  EXPECT_EQ(termination::DeciderInvocationsForTest().load(), before + 2);
}

TEST(SessionTest, LadderIsComputedOncePerProgram) {
  auto program = api::Program::Parse(kJaShowcase);
  ASSERT_TRUE(program.ok());
  const termination::LadderResult* first = &program->ladder();
  EXPECT_EQ(first, &program->ladder());
  const std::uint64_t before =
      termination::DeciderInvocationsForTest().load();
  api::Session session(*program);
  // The advisor borrows the memoized ladder: repeated kAuto decisions
  // run no decider and no fresh ladder.
  ASSERT_TRUE(session.Decide().ok());
  ASSERT_TRUE(session.Decide().ok());
  ASSERT_TRUE(session.Analyze().ok());
  EXPECT_EQ(termination::DeciderInvocationsForTest().load(), before);
}

TEST(SessionTest, RoundBudgetStopsWithRoundLimit) {
  auto program = api::Program::Parse(
      "E(v1, v2). E(v2, v3). E(v3, v4).\n"
      "E(x, y) -> T(x, y).\n"
      "T(x, y), E(y, z) -> T(x, z).\n");
  ASSERT_TRUE(program.ok());
  api::Session session(*program,
                       api::SessionOptions().set_max_rounds(2));
  auto run = session.Chase();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->outcome(), api::ChaseOutcome::kRoundLimit);
  EXPECT_EQ(run->stats().rounds, 2u);
}

// ---------------------------------------------------------------------
// Observer semantics.

class RecordingObserver : public api::ChaseObserver {
 public:
  void OnRound(const api::RoundProgress& p) override {
    rounds.push_back(p);
  }
  void OnFire(std::uint32_t tgd_index, std::size_t atoms) override {
    ++fires;
    last_fire_tgd = tgd_index;
    last_fire_atoms = atoms;
  }
  void OnDone(api::ChaseOutcome outcome,
              const api::ChaseStats& stats) override {
    ++done_calls;
    final_outcome = outcome;
    final_fired = stats.triggers_fired;
  }

  std::vector<api::RoundProgress> rounds;
  std::uint64_t fires = 0;
  std::uint32_t last_fire_tgd = 0;
  std::size_t last_fire_atoms = 0;
  int done_calls = 0;
  api::ChaseOutcome final_outcome = api::ChaseOutcome::kTerminated;
  std::uint64_t final_fired = 0;
};

TEST(ObserverTest, RoundFireAndDoneHooksAreConsistent) {
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  RecordingObserver observer;
  api::Session session(*program,
                       api::SessionOptions().set_observer(&observer));
  auto run = session.Chase();
  ASSERT_TRUE(run.ok());

  // One OnRound per executed round, with 1-based increasing numbering
  // and monotone atom counts.
  ASSERT_EQ(observer.rounds.size(), run->stats().rounds);
  for (std::size_t i = 0; i < observer.rounds.size(); ++i) {
    EXPECT_EQ(observer.rounds[i].round, i + 1);
    EXPECT_GT(observer.rounds[i].delta_atoms, 0u);
    if (i > 0) {
      EXPECT_GE(observer.rounds[i].atoms, observer.rounds[i - 1].atoms);
    }
  }
  // One OnFire per fired trigger; the last one saw the final atom count.
  EXPECT_EQ(observer.fires, run->stats().triggers_fired);
  EXPECT_EQ(observer.last_fire_atoms, run->instance().size());
  // Exactly one OnDone, after the stats were final.
  EXPECT_EQ(observer.done_calls, 1);
  EXPECT_EQ(observer.final_outcome, api::ChaseOutcome::kTerminated);
  EXPECT_EQ(observer.final_fired, run->stats().triggers_fired);
}

TEST(ObserverTest, ObserverRunsOnAdvisorChases) {
  // The observer threads through Advise()'s materialization chase too.
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  RecordingObserver observer;
  api::Session session(*program,
                       api::SessionOptions().set_observer(&observer));
  auto advice = session.Advise();
  ASSERT_TRUE(advice.ok());
  ASSERT_TRUE(advice->has_materialization());
  EXPECT_EQ(observer.done_calls, 1);
  EXPECT_GT(observer.fires, 0u);
}

// ---------------------------------------------------------------------
// Cancellation: token and deadline.

class CancellingObserver : public api::ChaseObserver {
 public:
  CancellingObserver(api::CancelToken* token, std::uint64_t after_fires)
      : token_(token), after_fires_(after_fires) {}
  void OnFire(std::uint32_t, std::size_t) override {
    if (++fires_ >= after_fires_) token_->Cancel();
  }

 private:
  api::CancelToken* token_;
  std::uint64_t after_fires_;
  std::uint64_t fires_ = 0;
};

TEST(CancelTest, TokenStopsDivergingChaseMidRun) {
  auto program = api::Program::Parse(kDiverging);
  ASSERT_TRUE(program.ok());
  api::CancelToken token;
  CancellingObserver observer(&token, 100);
  api::Session session(*program, api::SessionOptions()
                                     .set_observer(&observer)
                                     .set_cancel(&token));
  auto run = session.Chase();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->outcome(), api::ChaseOutcome::kCancelled);
  // Stopped promptly: within a couple of rounds of the cancel point,
  // far below any budget.
  EXPECT_LT(run->instance().size(), 1000u);
}

TEST(CancelTest, CrossThreadCancelStopsNonTerminatingProgram) {
  // The acceptance scenario: a chase that would run forever, cancelled
  // from another thread, stops with kCancelled in bounded time.
  auto program = api::Program::Parse(kDiverging);
  ASSERT_TRUE(program.ok());
  api::CancelToken token;
  api::Session session(*program,
                       api::SessionOptions().set_cancel(&token));

  util::StatusOr<api::ChaseRun> run = util::Status::Internal("unset");
  std::thread chaser([&]() { run = session.Chase(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token.Cancel();
  chaser.join();

  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->outcome(), api::ChaseOutcome::kCancelled);
}

TEST(CancelTest, DeadlineStopsNonTerminatingProgram) {
  auto program = api::Program::Parse(kDiverging);
  ASSERT_TRUE(program.ok());
  api::Session session(*program,
                       api::SessionOptions().set_deadline_ms(100));
  auto start = std::chrono::steady_clock::now();
  auto run = session.Chase();
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->outcome(), api::ChaseOutcome::kCancelled);
  // 100 ms deadline, generous slack for sanitizer/CI jitter.
  EXPECT_LT(seconds, 10.0);
}

TEST(CancelTest, DeadlineInterruptsMatchFreeJoinEnumeration) {
  // A join that produces zero homomorphisms never reaches the
  // per-homomorphism poll: no B fact repeats its argument, so the body
  // A(x), B(y, y) fails on every one of the ~10^8 probe pairs. y is
  // unbound when B is probed, so the position index cannot narrow the
  // scan. The probe-level interrupt in HomomorphismFinder must stop it
  // at the deadline — without it the run would grind through the whole
  // join and finish with kTerminated.
  core::SymbolTable symbols;
  core::Database db;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(db.AddFact(&symbols, "A", {"a" + std::to_string(i)}).ok());
    ASSERT_TRUE(db.AddFact(&symbols, "B",
                           {"b" + std::to_string(i), "c" + std::to_string(i)})
                    .ok());
  }
  tgd::TgdSet tgds;
  auto rule = tgd::ParseTgd(&symbols, "A(x), B(y, y) -> C(x, y)");
  ASSERT_TRUE(rule.ok());
  tgds.Add(std::move(*rule));
  auto program = api::Program::Create(std::move(symbols), std::move(tgds),
                                      std::move(db));
  ASSERT_TRUE(program.ok());

  api::Session session(*program,
                       api::SessionOptions().set_deadline_ms(100));
  auto start = std::chrono::steady_clock::now();
  auto run = session.Chase();
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->outcome(), api::ChaseOutcome::kCancelled);
  EXPECT_LT(seconds, 10.0);
}

// ---------------------------------------------------------------------
// SessionOptions::set_num_threads is inert (the chase has one serial code
// path), and a sequential chase stays cancellable from other threads.

TEST(ParallelTest, EightWorkerChaseIsByteIdenticalToSequential) {
  // What callers that still request threads (the perfbench pool probe)
  // rely on: every requested count gives the default run's bytes and
  // counters, and the parallel_* counters all read 0.
  auto program = api::Program::Parse(ConcurrencyProgramText());
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  auto sequential = api::Session(*program).Chase();
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(sequential->Terminated());

  for (std::uint32_t threads : {0u, 2u, 8u}) {
    api::Session session(*program,
                         api::SessionOptions().set_num_threads(threads));
    auto run = session.Chase();
    ASSERT_TRUE(run.ok()) << threads;
    ASSERT_TRUE(run->Terminated()) << threads;
    const chase::ChaseStats& stats = run->stats();
    const chase::ChaseStats& want = sequential->stats();
    EXPECT_EQ(run->ToSortedString(), sequential->ToSortedString())
        << threads;
    EXPECT_EQ(stats.triggers_fired, want.triggers_fired) << threads;
    EXPECT_EQ(stats.triggers_satisfied, want.triggers_satisfied)
        << threads;
    EXPECT_EQ(stats.join_probes, want.join_probes) << threads;
    EXPECT_EQ(stats.delta_atoms_scanned, want.delta_atoms_scanned)
        << threads;
    EXPECT_EQ(stats.rounds, want.rounds) << threads;
    EXPECT_EQ(stats.arena_bytes, want.arena_bytes) << threads;
    EXPECT_EQ(stats.parallel_rounds, 0u) << threads;
    EXPECT_EQ(stats.parallel_apply_batches, 0u) << threads;
    EXPECT_EQ(stats.parallel_commit_batches, 0u) << threads;
  }
}

TEST(ParallelTest, HardwareThreadsZeroResolvesAndMatches) {
  // 0 once meant "one worker per hardware thread"; it is accepted and
  // gives the same bytes as every other count.
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  auto sequential = api::Session(*program).Chase();
  ASSERT_TRUE(sequential.ok());
  api::Session session(*program,
                       api::SessionOptions().set_num_threads(0));
  auto run = session.Chase();
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->Terminated());
  EXPECT_EQ(run->ToSortedString(), sequential->ToSortedString());
}

// A diverging program with wide rounds: both recursive rules double the
// frontier every round.
constexpr const char* kWideDiverging =
    "R(a, b).\n"
    "R(x, y) -> R(y, z).\n"
    "R(x, y) -> R(x, w).\n";

TEST(ParallelTest, CrossThreadCancelStopsAllWorkersPromptly) {
  // A token fired from another thread stops a diverging chase with
  // kCancelled and a consistent prefix in bounded time.
  auto program = api::Program::Parse(kWideDiverging);
  ASSERT_TRUE(program.ok());
  api::CancelToken token;
  api::Session session(*program, api::SessionOptions().set_cancel(&token));

  util::StatusOr<api::ChaseRun> run = util::Status::Internal("unset");
  auto start = std::chrono::steady_clock::now();
  std::thread chaser([&]() { run = session.Chase(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token.Cancel();
  chaser.join();
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->outcome(), api::ChaseOutcome::kCancelled);
  // Generous slack for TSan/CI, but far below what ignoring the token
  // until the atom budget would take.
  EXPECT_LT(seconds, 10.0);
}

TEST(ParallelTest, DeadlineStopsParallelDivergingChase) {
  auto program = api::Program::Parse(kWideDiverging);
  ASSERT_TRUE(program.ok());
  api::Session session(*program,
                       api::SessionOptions().set_deadline_ms(100));
  auto start = std::chrono::steady_clock::now();
  auto run = session.Chase();
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->outcome(), api::ChaseOutcome::kCancelled);
  EXPECT_LT(seconds, 10.0);
}

TEST(ParallelTest, ConcurrentParallelSessionsShareOneProgram) {
  // 4 sessions chasing at once over one shared frozen Program, each
  // requesting threads the chase ignores.
  auto parsed = api::Program::Parse(ConcurrencyProgramText());
  ASSERT_TRUE(parsed.ok());
  const api::Program program = *parsed;

  auto reference = api::Session(program).Chase();
  ASSERT_TRUE(reference.ok());
  const std::string expected = reference->ToSortedString();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      api::Session session(program,
                           api::SessionOptions().set_num_threads(4));
      auto run = session.Chase();
      if (!run.ok() || !run->Terminated() ||
          run->ToSortedString() != expected) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(CancelTest, DeadlineLeavesTerminatingRunsAlone) {
  auto program = api::Program::Parse(kQuickstart);
  ASSERT_TRUE(program.ok());
  api::Session session(*program,
                       api::SessionOptions().set_deadline_ms(60'000));
  auto run = session.Chase();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->outcome(), api::ChaseOutcome::kTerminated);
}

TEST(CancelTest, HugeDeadlinesBehaveAsNoDeadline) {
  // Budgets beyond the steady clock's nanosecond range used to wrap to a
  // deadline in the past, so a diverging chase reported kCancelled after
  // 22 atoms. Saturated, they must leave the atom budget to stop it.
  auto program = api::Program::Parse(kDiverging);
  ASSERT_TRUE(program.ok());
  for (std::uint64_t ms :
       {std::uint64_t{1} << 53, std::uint64_t{0x7fffffffffffffff},
        std::uint64_t{0xffffffffffffffff}}) {
    api::Session session(
        *program,
        api::SessionOptions().set_deadline_ms(ms).set_max_atoms(2000));
    auto run = session.Chase();
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->outcome(), api::ChaseOutcome::kAtomLimit) << ms;
    EXPECT_GT(run->instance().size(), 2000u) << ms;
  }
}

// ---------------------------------------------------------------------
// Concurrency: N sessions over one shared `const Program`.

TEST(ConcurrencyTest, EightSessionsOneProgramByteIdentical) {
  auto parsed = api::Program::Parse(ConcurrencyProgramText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const api::Program program = *parsed;  // shared, frozen

  // Single-threaded reference through the legacy path.
  core::SymbolTable reference_symbols = program.symbols();
  chase::ChaseResult reference = chase::RunChase(
      &reference_symbols, program.tgds(), program.database());
  ASSERT_TRUE(reference.Terminated());
  const std::string expected =
      reference.instance.ToSortedString(reference_symbols);

  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 3;
  std::vector<std::string> results(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Each thread builds its own sessions against the shared program;
      // repeated runs must be self-consistent too.
      std::string mine;
      for (int i = 0; i < kRunsPerThread; ++i) {
        api::Session session(program);
        auto run = session.Chase();
        if (!run.ok() || !run->Terminated()) {
          failures.fetch_add(1);
          return;
        }
        std::string sorted = run->ToSortedString();
        if (i == 0) {
          mine = std::move(sorted);
        } else if (sorted != mine) {
          failures.fetch_add(1);
          return;
        }
      }
      results[t] = std::move(mine);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], expected) << "thread " << t << " diverged";
  }
  // The shared table was never touched: still no nulls in the base.
  EXPECT_EQ(program.symbols().num_nulls(), 0u);
}

TEST(ConcurrencyTest, ConcurrentVariantsAndDecidersShareOneProgram) {
  // Mixed traffic on one frozen artifact: chases of all three variants
  // plus syntactic decisions, concurrently.
  auto parsed = api::Program::Parse(ConcurrencyProgramText());
  ASSERT_TRUE(parsed.ok());
  const api::Program program = *parsed;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  const chase::ChaseVariant variants[3] = {
      chase::ChaseVariant::kSemiOblivious,
      chase::ChaseVariant::kOblivious,
      chase::ChaseVariant::kRestricted,
  };
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t]() {
      if (t % 2 == 0) {
        api::Session session(
            program,
            api::SessionOptions().set_variant(variants[(t / 2) % 3]));
        auto run = session.Chase();
        if (!run.ok() || !run->Terminated()) failures.fetch_add(1);
      } else {
        auto decision = api::Session(program).Decide();
        if (!decision.ok() ||
            decision->decision != termination::Decision::kTerminates) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace nuchase
