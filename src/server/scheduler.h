#ifndef NUCHASE_SERVER_SCHEDULER_H_
#define NUCHASE_SERVER_SCHEDULER_H_

#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nuchase {
namespace server {

/// Multiplexes M queued requests over `max_inflight` worker threads
/// with admission control — the serving layer's backpressure valve.
///
/// The workers are plain threads started in the constructor; each loops
/// pulling whole requests off one shared queue until shutdown and owns
/// each request end to end. Request-level concurrency is exactly
/// `max_inflight`.
///
/// Admission is synchronous and happens on the caller's (reader)
/// thread: Submit() either enqueues and returns true, or — when
/// `max_queue` requests are already waiting — refuses and returns
/// false, which the server answers with a typed `overloaded` frame.
/// Running requests do not count against the queue bound, so at most
/// max_inflight + max_queue requests are admitted at once.
///
/// Telemetry: `max_overlap` records the peak number of requests
/// executing simultaneously — the clock-free engagement proof that
/// concurrent requests actually overlapped on the workers rather than
/// degrading to a serial queue; bench_server's gate in tools/check_bench_regression reads it
/// through the stats frame and is never skipped.
class RequestScheduler {
 public:
  struct Options {
    unsigned max_inflight = 4;    ///< Workers = concurrent requests.
    std::size_t max_queue = 64;   ///< Waiting requests before overload.
  };

  explicit RequestScheduler(const Options& options);

  /// Drains and joins (Shutdown).
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Queues `task` for execution on some worker. False when the
  /// queue is full (or the scheduler is shutting down) — the caller
  /// owns the overload rejection. The task runs exactly once, with its
  /// worker index; it must not throw.
  bool Submit(std::function<void(unsigned)> task);

  /// Stops admission, runs every already-queued task to completion,
  /// and joins the workers. Idempotent. Queued tasks are executed, not
  /// dropped: every admitted request was promised a terminal frame.
  void Shutdown();

  struct Stats {
    std::uint64_t submitted = 0;   ///< Admitted tasks.
    std::uint64_t rejected = 0;    ///< Refused at admission (queue full).
    std::uint64_t completed = 0;
    std::uint64_t max_overlap = 0; ///< Peak concurrently-running tasks.
    std::uint64_t inflight = 0;    ///< Currently running.
    std::uint64_t queued = 0;      ///< Currently waiting.
  };

  Stats stats() const;

 private:
  void WorkerLoop(unsigned worker);

  std::size_t max_queue_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void(unsigned)>> queue_;
  bool shutdown_ = false;
  Stats stats_;

  /// Joined by Shutdown; spawned last in the constructor so the worker
  /// loop only ever sees fully-constructed state.
  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace nuchase

#endif  // NUCHASE_SERVER_SCHEDULER_H_
