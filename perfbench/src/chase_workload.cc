// materialize-guarded: a closed loop of api::Session::Chase over one
// Program built at set-up. Its traced run also probes the worker pool.
#include <string>
#include <utility>
#include <vector>

#include "nuchase/nuchase.h"
#include "workload/depth_family.h"
#include "workload/university.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace nuchase;

/// Set-ups timed back to back before the loop; the loop adds one per
/// second (see ClosedLoop).
constexpr int kInitialSetUps = 5;

/// A Program with its sequential (threads=1) reference output.
struct ChaseInput {
  api::Program program;
  std::uint64_t atoms = 0;
  std::uint64_t hash = 0;
  chase::ChaseStats stats;
};

api::Program Create(workload::Workload w, core::SymbolTable symbols) {
  auto program = api::Program::Create(std::move(symbols), std::move(w.tgds),
                                      std::move(w.database));
  if (!program.ok()) Fatal("Program::Create: " + program.status().ToString());
  return std::move(*program);
}

ChaseInput WithReference(api::Program program) {
  ChaseInput input{std::move(program), 0, 0, {}};
  auto run =
      api::Session(input.program, api::SessionOptions().set_num_threads(1))
          .Chase();
  if (!run.ok() || !run->Terminated()) Fatal("reference chase failed");
  input.atoms = run->instance().size();
  input.hash = Fnv64(run->ToSortedString());
  input.stats = run->stats();
  return input;
}

/// One timed set-up: generate the University input and Program::Create
/// it.
api::Program SetUpOnce(const workload::UniversityOptions& options,
                       Tracer* tracer, Result* result) {
  const std::uint64_t op = kSetupOpBase + result->setup_s.size();
  const Clock::time_point start = Clock::now();
  ScopedSpan setup(tracer, "setup", -1, op);
  core::SymbolTable symbols;
  workload::Workload w;
  {
    ScopedSpan span(tracer, "workload.generate", setup.id(), op);
    w = workload::MakeUniversityWorkload(&symbols, options);
  }
  api::Program program = [&] {
    ScopedSpan span(tracer, "api.program_create", setup.id(), op);
    return Create(std::move(w), std::move(symbols));
  }();
  result->setup_s.push_back(SecondsSince(start));
  return program;
}

/// Start-of-round timestamps of one chase, closed by OnDone.
class RoundClock : public chase::ChaseObserver {
 public:
  void OnRound(const chase::RoundProgress& progress) override {
    (void)progress;
    marks.push_back(Clock::now());
  }
  void OnDone(chase::ChaseOutcome outcome,
              const chase::ChaseStats& stats) override {
    (void)outcome;
    (void)stats;
    marks.push_back(Clock::now());
  }
  std::vector<Clock::time_point> marks;
};

struct ChaseOp {
  bool ok = false;
  Clock::time_point start, end;
  chase::ChaseStats stats;
};

/// One timed Session::Chase of `input` at `threads` workers, checked
/// against its reference outside the timed interval. `span_name` names
/// the chase span under the operation's root span.
ChaseOp RunChaseOp(const ChaseInput& input, std::uint32_t threads,
                   Tracer* tracer, const std::string& span_name,
                   std::uint64_t op, chase::ChaseObserver* observer) {
  api::SessionOptions options;
  options.set_num_threads(threads).set_observer(observer);
  ChaseOp out;
  util::StatusOr<api::ChaseRun> run = util::Status::Internal("not run");
  {
    ScopedSpan root(tracer, "op", -1, op);
    out.start = Clock::now();
    ScopedSpan span(tracer, span_name, root.id(), op);
    run = api::Session(input.program, options).Chase();
    out.end = Clock::now();
  }
  if (!run.ok() || !run->Terminated()) return out;
  out.stats = run->stats();
  out.ok = run->instance().size() == input.atoms &&
           Fnv64(run->ToSortedString()) == input.hash;
  return out;
}

/// The worker-pool probe of the traced run. Two depth families, each
/// chased at one and at two workers, interleaved, 9 times:
///  - Proposition 4.5's narrow D_400: 400 rounds of one delta atom, so
///    at two workers the per-round fork/join is the whole cost;
///  - the wide family, 16 layers x 64 width x 8 payloads x 8 noise:
///    16 rounds of 512 independent delta seeds, regions with real work.
void ProbePool(Tracer* tracer, Result* result) {
  constexpr int kReps = 9;
  std::vector<ChaseInput> inputs;
  {
    core::SymbolTable symbols;
    workload::Workload w = workload::MakeDepthFamily(&symbols, 400);
    inputs.push_back(WithReference(Create(std::move(w), std::move(symbols))));
  }
  {
    core::SymbolTable symbols;
    workload::Workload w =
        workload::MakeWideDepthFamily(&symbols, 16, 64, 8, 8);
    inputs.push_back(WithReference(Create(std::move(w), std::move(symbols))));
  }
  const char* names[2][2] = {{"pool.narrow_t1", "pool.narrow_t2"},
                             {"pool.wide_t1", "pool.wide_t2"}};
  chase::ChaseStats engaged;  // one two-worker chase of each input
  std::uint64_t op = kSetupOpBase / 2;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      for (std::uint32_t threads : {1u, 2u}) {
        ChaseOp probe = RunChaseOp(inputs[k], threads, tracer,
                                   names[k][threads - 1], op++, nullptr);
        ++result->probe_attempted;
        if (!probe.ok) ++result->probe_failed;
        if (threads == 2 && rep == 0) {
          engaged.parallel_rounds += probe.stats.parallel_rounds;
          engaged.parallel_apply_batches +=
              probe.stats.parallel_apply_batches;
          engaged.parallel_commit_batches +=
              probe.stats.parallel_commit_batches;
        }
      }
    }
  }
  auto median_ms = [&](const char* name) { return MedianMs(*tracer, name); };
  auto add = [&](const char* name, double value, const char* unit) {
    result->layer.push_back({name, value, unit});
  };
  add("pool.overhead_ms",
      median_ms("pool.narrow_t2") - median_ms("pool.narrow_t1"), "ms");
  add("pool.wide_speedup",
      Ratio(median_ms("pool.wide_t1"), median_ms("pool.wide_t2")), "x");
  add("pool.parallel_rounds", static_cast<double>(engaged.parallel_rounds),
      "count");
  add("pool.parallel_apply_batches",
      static_cast<double>(engaged.parallel_apply_batches), "count");
  add("pool.parallel_commit_batches",
      static_cast<double>(engaged.parallel_commit_batches), "count");
}

}  // namespace

workload::UniversityOptions SizedUniversity(workload::UniversityOptions options,
                                            std::uint32_t seed,
                                            std::uint64_t facts) {
  // The generator draws 1-3 registrations per student from its seed
  // (duplicates collapse), so |D| moves with the seed — by ~7% across
  // seeds at the decide size — and the rewriting's cost grows faster
  // than |D|.
  const std::uint64_t slack = facts / 1000;
  Rng rng(seed);
  while (true) {
    options.seed = static_cast<std::uint32_t>(rng.Next() | 1);
    core::SymbolTable symbols;
    const std::uint64_t size =
        workload::MakeUniversityWorkload(&symbols, options).database.size();
    if (size + slack >= facts && size <= facts + slack) return options;
  }
}

Result RunMaterializeGuarded(const Config& config, Tracer* tracer) {
  // |D| = 6,666 +- 6, 9 guarded TGDs; chase(D, Σ) has ~36,000 atoms
  // after 5 rounds — a 30-50 ms operation in a ~16 MB working set.
  workload::UniversityOptions options;
  options.departments = 8;
  options.professors_per_department = 20;
  options.students_per_department = 400;
  options.courses_per_department = 30;
  options = SizedUniversity(options, config.seed, 6666);

  Result result(1);
  api::Program program = SetUpOnce(options, tracer, &result);
  for (int rep = 1; rep < kInitialSetUps; ++rep) {
    program = SetUpOnce(options, tracer, &result);
  }
  const ChaseInput input = WithReference(std::move(program));

  std::vector<double> round_us;
  chase::ChaseStats op_stats;
  ClosedLoop(
      config.seconds, 1, &result.log, tracer,
      [&](std::uint64_t i, OpLog* log, Tracer* t) {
        RoundClock clock;
        ChaseOp op = RunChaseOp(input, /*threads=*/1, t, "chase.chase", i,
                                t->enabled() ? &clock : nullptr);
        log->Record(0, op.start, op.end, op.ok);
        op_stats = op.stats;
        for (std::size_t r = 1; r < clock.marks.size(); ++r) {
          round_us.push_back(Ms(clock.marks[r - 1], clock.marks[r]) * 1e3);
        }
      },
      [&] { SetUpOnce(options, tracer, &result); });

  const std::uint64_t db_atoms = input.program.fact_count();
  result.detail.emplace_back("database_atoms", static_cast<double>(db_atoms));
  result.detail.emplace_back("atoms", static_cast<double>(input.atoms));
  if (!tracer->enabled()) return result;

  const chase::ChaseStats& ref = input.stats;
  const double derived = static_cast<double>(input.atoms - db_atoms);
  auto add = [&](const char* name, double value, const char* unit) {
    result.layer.push_back({name, value, unit});
  };
  auto count = [&](const char* name, std::uint64_t value) {
    add(name, static_cast<double>(value), "count");
  };
  add("api.program_create_ms", MedianMs(*tracer, "api.program_create"), "ms");
  add("chase.chase_ms", MedianMs(*tracer, "chase.chase"), "ms");
  add("chase.round_us", Median(std::move(round_us)), "us");
  count("chase.rounds", ref.rounds);
  count("chase.triggers_fired", ref.triggers_fired);
  count("chase.join_probes", ref.join_probes);
  count("chase.delta_atoms_scanned", ref.delta_atoms_scanned);
  add("chase.atoms_per_trigger",
      Ratio(derived, static_cast<double>(ref.triggers_fired)), "ratio");
  add("chase.probes_per_atom",
      Ratio(static_cast<double>(ref.join_probes), derived), "ratio");
  // The loop's own chases run at threads=1: the pool must stay idle.
  count("chase.parallel_rounds", op_stats.parallel_rounds);
  count("chase.parallel_apply_batches", op_stats.parallel_apply_batches);
  count("chase.parallel_commit_batches", op_stats.parallel_commit_batches);
  count("core.database_atoms", db_atoms);
  count("core.atoms", input.atoms);
  add("core.arena_bytes_per_atom",
      Ratio(static_cast<double>(ref.arena_bytes),
            static_cast<double>(input.atoms)),
      "B/atom");
  add("op.self_ms", Median(tracer->SelfMs("op")), "ms");
  ProbePool(tracer, &result);
  result.unmeasured = {"api.program_parse_ms", "rewrite.", "graph.",
                       "termination.", "server."};
  return result;
}

}  // namespace perfbench
