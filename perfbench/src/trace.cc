#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::Since(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::int64_t Tracer::Now() const {
  return Since(std::chrono::steady_clock::now());
}

int Tracer::Begin(const std::string& name, int parent, std::uint64_t op) {
  if (!enabled_) return -1;
  const std::int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  if (!enabled_ || span < 0) return;
  const std::int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = now;
}

int Tracer::Add(const std::string& name,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end, int parent,
                std::uint64_t op) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, Since(start), Since(end), parent, op});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> Tracer::Named(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

std::vector<double> Tracer::SelfMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, reach);
      const std::int64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) /
                  1e6);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"op\": %llu}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.op),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
