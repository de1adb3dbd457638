#include "server/scheduler.h"

#include <algorithm>
#include <utility>

namespace nuchase {
namespace server {

RequestScheduler::RequestScheduler(const Options& options)
    : max_queue_(options.max_queue) {
  const unsigned n = std::max(1u, options.max_inflight);
  workers_.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

RequestScheduler::~RequestScheduler() { Shutdown(); }

bool RequestScheduler::Submit(std::function<void(unsigned)> task) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_ || queue_.size() >= max_queue_) {
    ++stats_.rejected;
    return false;
  }
  queue_.push_back(std::move(task));
  ++stats_.submitted;
  stats_.queued = queue_.size();
  lock.unlock();
  work_cv_.notify_one();
  return true;
}

void RequestScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void RequestScheduler::WorkerLoop(unsigned worker) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) break;  // shutdown_ and nothing left to honor
    std::function<void(unsigned)> task = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.inflight;
    stats_.queued = queue_.size();
    stats_.max_overlap = std::max(stats_.max_overlap, stats_.inflight);
    lock.unlock();
    task(worker);
    lock.lock();
    --stats_.inflight;
    ++stats_.completed;
  }
}

RequestScheduler::Stats RequestScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace server
}  // namespace nuchase
