#ifndef NUCHASE_UTIL_DEADLINE_H_
#define NUCHASE_UTIL_DEADLINE_H_

#include <chrono>
#include <cstdint>

namespace nuchase {
namespace util {

/// The steady-clock instant `ms` milliseconds after `start`, saturated at
/// time_point::max(). A millisecond budget is an unsigned 64-bit count,
/// but the clock counts signed nanoseconds: a plain
/// `start + milliseconds(ms)` wraps for budgets beyond ~292 years (or
/// beyond 2^63 - 1 ms, which turns negative) and yields a deadline in the
/// past. Saturating makes every such budget behave as no deadline.
inline std::chrono::steady_clock::time_point DeadlineAfter(
    std::chrono::steady_clock::time_point start, std::uint64_t ms) {
  using Clock = std::chrono::steady_clock;
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - start);
  if (ms >= static_cast<std::uint64_t>(headroom.count())) {
    return Clock::time_point::max();
  }
  return start + std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

}  // namespace util
}  // namespace nuchase

#endif  // NUCHASE_UTIL_DEADLINE_H_
