#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "measure.h"
#include "workload/university.h"
#include "trace.h"

namespace perfbench {

/// Span operation ids at or above this mark belong to set-ups, not to
/// the timed loop's operations.
inline constexpr std::uint64_t kSetupOpBase = 1ull << 40;

/// Each workload sets itself up several times (timing every set-up),
/// computes its reference outputs, runs the closed loop for
/// `config.seconds` with every operation's output checked, and — on a
/// traced run — records spans into `tracer` and derives its per-layer
/// metrics. A failure to set up at all is fatal (the caller prints no
/// result); a wrong output is a failed operation.
Result RunMaterializeGuarded(const Config& config, Tracer* tracer);
Result RunDecideGuarded(const Config& config, Tracer* tracer);
Result RunServeMixed(const Config& config, Tracer* tracer);

/// `options` with the generator seed replaced by the first seed derived
/// from `seed` whose database holds `facts` facts to within a
/// thousandth, so that every benchmark seed gives an input of the same
/// size and only its contents differ. `facts` is the median size over
/// generator seeds.
nuchase::workload::UniversityOptions SizedUniversity(
    nuchase::workload::UniversityOptions options, std::uint32_t seed,
    std::uint64_t facts);

/// Prints `what` to stderr and exits with status 1.
[[noreturn]] void Fatal(const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
