#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval around a call into a layer of the program.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< Since the tracer was created.
  std::int64_t end_ns = 0;
  int parent = -1;            ///< Index of the enclosing span, or -1.
  std::uint64_t op = 0;       ///< Shared by every span of one operation.

  double Ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span recorder. A disabled tracer records nothing and every
/// call returns at once, so the untraced run pays one branch per span.
/// Thread-safe: the serve workload records from two client threads.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const std::string& name, int parent, std::uint64_t op);
  void End(int span);

  /// Records an already-measured interval (e.g. send -> ack, whose
  /// endpoints are observed on the wire rather than around one call).
  int Add(const std::string& name, std::chrono::steady_clock::time_point start,
          std::chrono::steady_clock::time_point end, int parent,
          std::uint64_t op);

  /// Copies of every span named `name`, in recording order.
  std::vector<Span> Named(const std::string& name) const;

  /// Self time in milliseconds of every span named `name`: its duration
  /// minus the part of it that its child spans cover.
  std::vector<double> SelfMs(const std::string& name) const;

  /// Writes every span as one JSON document. False on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::int64_t Now() const;
  std::int64_t Since(std::chrono::steady_clock::time_point t) const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent,
             std::uint64_t op)
      : tracer_(tracer), id_(tracer->Begin(name, parent, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
