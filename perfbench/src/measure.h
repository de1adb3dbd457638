#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line settings of one benchmark run.
struct Config {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< Where a traced run writes its spans.
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Thread-safe log of the timed phase's operations. Only checked,
/// successful operations contribute latency samples; every logged
/// operation counts as attempted.
class OpLog {
 public:
  explicit OpLog(std::size_t kinds)
      : mu_(std::make_unique<std::mutex>()), latencies_ms_(kinds) {}

  void Record(std::size_t kind, Clock::time_point start,
              Clock::time_point end, bool ok);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t completed() const { return attempted_ - failed_; }
  /// Latencies (ms) of the completed operations, per input kind.
  const std::vector<std::vector<double>>& latencies_ms() const {
    return latencies_ms_;
  }
  /// Seconds during which at least one operation was in flight.
  double BusySeconds() const;

 private:
  // Held by pointer so that a Result can be returned by value.
  std::unique_ptr<std::mutex> mu_;
  std::uint64_t attempted_ = 0;  // guarded by mu_
  std::uint64_t failed_ = 0;     // guarded by mu_
  std::vector<std::vector<double>> latencies_ms_;  // guarded by mu_
  std::vector<std::pair<Clock::time_point, Clock::time_point>>
      intervals_;  // guarded by mu_
};

/// What one workload run measured.
struct Result {
  explicit Result(std::size_t kinds) : log(kinds) {}

  OpLog log;
  /// Seconds per repeated set-up.
  std::vector<double> setup_s;
  /// Per-layer metrics (traced runs only).
  std::vector<Metric> layer;
  /// Names, or name prefixes ending in '.', of the per-layer metrics
  /// this workload does not measure. run.py reports each as 0 and fails
  /// a traced run that neither measures nor lists a metric.
  std::vector<std::string> unmeasured;
  /// Input sizes and other facts printed on the detail line.
  std::vector<std::pair<std::string, double>> detail;
  /// Operations of the traced run's probes (outside the timed loop),
  /// checked like the loop's own and counted against attempts.
  std::uint64_t probe_attempted = 0;
  std::uint64_t probe_failed = 0;
};

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// The mean, over input kinds, of each kind's q-quantile (kinds without
/// samples are skipped). A workload alternating two inputs of different
/// cost has a two-humped latency distribution whose plain median falls
/// in the gap between the humps and jumps between them run to run; the
/// mean of per-input quantiles stays inside the humps.
double MeanOfKindQuantiles(const std::vector<std::vector<double>>& per_kind,
                           double q);

/// Seconds elapsed since `start`.
double SecondsSince(Clock::time_point start);
inline double Ms(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// FNV-1a 64 over the bytes of `text`.
std::uint64_t Fnv64(const std::string& text);

/// A fixed CPU loop, in milliseconds: the host-drift reference timed at
/// the start and end of every run.
double SpinMs();

/// Cumulative jiffies of all CPUs, and the part of them the hypervisor
/// stole for other guests (the `steal` column of /proc/stat's "cpu"
/// line); zero when unreadable.
struct CpuTicks {
  double total = 0;
  double steal = 0;
};
CpuTicks ReadCpuTicks();

/// Percent of all CPU time stolen between two readings.
inline double StealPercent(const CpuTicks& from, const CpuTicks& to) {
  const double total = to.total - from.total;
  return total > 0 ? 100.0 * (to.steal - from.steal) / total : 0;
}

/// The process's peak resident set in MiB.
double PeakRssMb();

/// Deterministic seeded generator (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, bound).
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

 private:
  std::uint64_t state_;
};

/// A seeded, endless order over `kinds` inputs that uses each input
/// equally often: every block of `kinds` consecutive draws is a shuffled
/// permutation of the inputs.
class BalancedSequence {
 public:
  BalancedSequence(std::size_t kinds, std::uint64_t seed);
  std::size_t Next();

 private:
  Rng rng_;
  std::vector<std::size_t> block_;
  std::size_t pos_;
};

/// Warm-up length for a run measuring `seconds`.
double WarmupSeconds(double seconds);

/// Moves the calling thread to the next CPU of its original affinity
/// set on every Next(), round robin, and restores the set when
/// destroyed. On a shared VM each CPU is slowed by its own neighbours,
/// in bursts of a fraction of a second, largely independently of the
/// other CPUs. A thread left where the scheduler puts it samples one
/// CPU's bursts for seconds at a time, so its run's median depends on
/// which CPU it landed on; rotating samples every CPU alike.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// A tracer that records nothing, for the warm-up's operations.
Tracer* NoTracer();

/// Runs `op(i, log, tracer)` in a closed loop: a warm-up whose
/// operations go to a discarded OpLog and to NoTracer(), then the timed
/// phase logging into `log` and `tracer` until `seconds` have elapsed.
/// Operation ids `i` count from 0 over both phases. Each operation runs
/// on the next CPU (see CpuRotation). Between operations,
/// once per second of the timed phase, it calls `set_up_again()`: a
/// timed repeat of the workload's set-up. Set-up samples spread over the
/// run take in the host's drift the way the operations do, where
/// back-to-back samples at start-up all land in one moment of it.
/// Returns the operation count.
template <typename Op, typename SetUp>
std::uint64_t ClosedLoop(double seconds, std::size_t kinds, OpLog* log,
                         Tracer* tracer, Op&& op, SetUp&& set_up_again) {
  CpuRotation rotation;
  OpLog warm(kinds);
  std::uint64_t i = 0;
  const Clock::time_point warm_start = Clock::now();
  const double warmup = WarmupSeconds(seconds);
  while (i < 2 * kinds || SecondsSince(warm_start) < warmup) {
    rotation.Next();
    op(i++, &warm, NoTracer());
  }
  const Clock::time_point start = Clock::now();
  double next_set_up = 0.5;
  while (SecondsSince(start) < seconds) {
    rotation.Next();
    op(i++, log, tracer);
    if (SecondsSince(start) >= next_set_up) {
      set_up_again();
      next_set_up += 1.0;
    }
  }
  return i;
}

/// Median duration of the spans named `name`; 0 when there is none.
double MedianMs(const Tracer& tracer, const std::string& name);

/// Mean, over the kinds in `kind_of_op` (indexed by operation id), of
/// the median duration of spans named `name`; 0 when there is none.
double MeanOfKindMediansMs(const Tracer& tracer, const std::string& name,
                           const std::vector<std::size_t>& kind_of_op,
                           std::size_t kinds);

/// `num / den`, or 0 when `den` is 0 (a layer the workload never calls).
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
