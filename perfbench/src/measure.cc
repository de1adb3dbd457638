#include "measure.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace perfbench {

void OpLog::Record(std::size_t kind, Clock::time_point start,
                   Clock::time_point end, bool ok) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    return;
  }
  latencies_ms_[kind].push_back(Ms(start, end));
  intervals_.emplace_back(start, end);
}

double OpLog::BusySeconds() const {
  std::lock_guard<std::mutex> lock(*mu_);
  auto sorted = intervals_;
  std::sort(sorted.begin(), sorted.end());
  double busy = 0;
  Clock::time_point reach{};
  for (const auto& [start, end] : sorted) {
    const Clock::time_point lo = std::max(start, reach);
    if (end > lo) {
      busy += std::chrono::duration<double>(end - lo).count();
      reach = end;
    }
  }
  return busy;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(one), &one);
}

Tracer* NoTracer() {
  static Tracer off(false);
  return &off;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double MeanOfKindQuantiles(const std::vector<std::vector<double>>& per_kind,
                           double q) {
  double sum = 0;
  int kinds = 0;
  for (const auto& values : per_kind) {
    if (values.empty()) continue;
    sum += Quantile(values, q);
    ++kinds;
  }
  return kinds == 0 ? 0 : sum / kinds;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t Fnv64(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double SpinMs() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < (1 << 22); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  // Keep the loop observable so it is not folded away.
  volatile std::uint64_t sink = x;
  (void)sink;
  return Ms(start, Clock::now());
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  // cpu user nice system idle iowait irq softirq steal ...
  double v[8] = {};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (double x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter is inherited from the
  // parent across fork + exec, so a small workload launched from a
  // larger process would report the parent's peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

BalancedSequence::BalancedSequence(std::size_t kinds, std::uint64_t seed)
    : rng_(seed), block_(kinds), pos_(kinds) {}

std::size_t BalancedSequence::Next() {
  if (pos_ == block_.size()) {
    std::iota(block_.begin(), block_.end(), std::size_t{0});
    for (std::size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.Below(i)]);
    }
    pos_ = 0;
  }
  return block_[pos_++];
}

double WarmupSeconds(double seconds) {
  return std::clamp(seconds * 0.1, 0.3, 2.0);
}

double MedianMs(const Tracer& tracer, const std::string& name) {
  std::vector<double> ms;
  for (const Span& s : tracer.Named(name)) ms.push_back(s.Ms());
  return Median(std::move(ms));
}

double MeanOfKindMediansMs(const Tracer& tracer, const std::string& name,
                           const std::vector<std::size_t>& kind_of_op,
                           std::size_t kinds) {
  std::vector<std::vector<double>> per_kind(kinds);
  for (const Span& s : tracer.Named(name)) {
    if (s.op < kind_of_op.size()) per_kind[kind_of_op[s.op]].push_back(s.Ms());
  }
  return MeanOfKindQuantiles(per_kind, 0.5);
}

}  // namespace perfbench
