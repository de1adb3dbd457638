// bench_server — chase-as-a-service throughput and latency.
//
// Two experiments against an in-process nuchase_server on an ephemeral
// loopback port:
//
//   * "server load": closed-loop sweep over client counts. Each row
//     runs a fresh server (so cache and overlap counters are per-row),
//     N client threads each issuing the same transitive-closure program
//     with payloads on, and reports req/s, p50/p99 latency, the
//     server-side cache-hit count and the peak number of concurrently
//     executing chases (max_overlap). The "same result" column is the
//     wire-level determinism check: every payload across every client
//     must be byte-identical.
//
//   * "server overlap proof": the clock-free engagement gate. One
//     non-terminating chase is parked on the scheduler, a quick chase
//     is completed while it runs, then the parked one is cancelled —
//     max_overlap >= 2 is forced by construction, on any machine,
//     including a single-core CI container where throughput scaling
//     would prove nothing. tools/check_bench_regression requires this
//     row to say engaged=yes, so the bench cannot silently degrade
//     into serialized request handling.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/table.h"

namespace nuchase {
namespace {

constexpr unsigned kRequestsPerClient = 16;

std::string SweepProgram() {
  std::string text;
  for (int i = 0; i < 24; ++i) {
    text += "E(a" + std::to_string(i) + ", a" + std::to_string(i + 1) +
            ").\n";
  }
  text += "E(x, y) -> T(x, y).\n";
  text += "T(x, y), E(y, z) -> T(x, z).\n";
  return text;
}

/// One running server on an ephemeral port; torn down by Stop + join.
struct LiveServer {
  explicit LiveServer(const server::ServerOptions& options)
      : server(options) {
    auto bound = server::TcpListener::Bind(0);
    if (!bound.ok()) {
      std::fprintf(stderr, "bind: %s\n",
                   bound.status().ToString().c_str());
      std::abort();
    }
    listener.emplace(std::move(*bound));
    port = listener->port();
    thread = std::thread([this] { listener->Run(&server); });
  }

  ~LiveServer() {
    listener->Stop();
    thread.join();
  }

  server::Server server;
  std::optional<server::TcpListener> listener;
  int port = 0;
  std::thread thread;
};

struct ClientRun {
  std::vector<double> latencies_ms;
  std::uint64_t errors = 0;
  std::string payload;
};

void RunClient(int port, unsigned client, const std::string& rules,
               ClientRun* out) {
  auto connected = server::Client::Connect(port);
  if (!connected.ok()) {
    out->errors += kRequestsPerClient;
    return;
  }
  for (unsigned r = 0; r < kRequestsPerClient; ++r) {
    server::ChaseRequest request;
    request.id = "c" + std::to_string(client) + "-r" + std::to_string(r);
    request.rules = rules;
    request.payload = true;
    bench::Stopwatch latency;
    auto outcome = connected->RunChase(request);
    const double ms = latency.Seconds() * 1e3;
    if (!outcome.ok() || !outcome->ok) {
      ++out->errors;
      continue;
    }
    out->latencies_ms.push_back(ms);
    if (out->payload.empty()) out->payload = outcome->result.payload;
  }
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t index = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[index];
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ms);
  return buf;
}

void RunSweep() {
  bench::PrintHeader(
      "server load",
      "one shared scheduler multiplexes concurrent chase requests with "
      "a parse cache; results stay byte-identical under load");
  util::Table table("server load",
                    {"clients", "requests", "errors", "elapsed(s)",
                     "req/s", "p50(ms)", "p99(ms)", "cache_hits",
                     "max_overlap", "same result"});
  const std::string rules = SweepProgram();
  std::string reference_payload;
  for (unsigned clients : {1u, 2u, 4u, 8u}) {
    server::ServerOptions options;
    options.max_inflight = 4;
    LiveServer live(options);
    std::vector<ClientRun> runs(clients);
    std::vector<std::thread> threads;
    bench::Stopwatch elapsed;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back(RunClient, live.port, c, std::cref(rules),
                           &runs[c]);
    }
    for (std::thread& t : threads) t.join();
    const double seconds = elapsed.Seconds();

    std::vector<double> latencies;
    std::uint64_t errors = 0;
    bool identical = true;
    for (const ClientRun& run : runs) {
      errors += run.errors;
      latencies.insert(latencies.end(), run.latencies_ms.begin(),
                       run.latencies_ms.end());
      if (!run.payload.empty()) {
        if (reference_payload.empty()) reference_payload = run.payload;
        if (run.payload != reference_payload) identical = false;
      }
    }
    std::sort(latencies.begin(), latencies.end());
    const server::StatsFrame stats = live.server.stats();
    const double rate =
        seconds > 0 ? static_cast<double>(latencies.size()) / seconds : 0;
    table.AddRow({std::to_string(clients),
                  std::to_string(clients * kRequestsPerClient),
                  std::to_string(errors), bench::FormatSeconds(seconds),
                  FormatMs(rate), FormatMs(Percentile(latencies, 0.50)),
                  FormatMs(Percentile(latencies, 0.99)),
                  std::to_string(stats.cache_hits),
                  std::to_string(stats.max_overlap),
                  identical ? "yes" : "NO"});
  }
  bench::PrintTable(table);
}

void RunOverlapProof() {
  bench::PrintHeader(
      "server overlap proof",
      "a quick request completes while a parked request is live, so "
      "admission genuinely overlaps chases (clock-free, any core "
      "count)");
  util::Table table("server overlap proof",
                    {"phase", "quick outcome", "parked terminal",
                     "max_overlap", "engaged"});

  server::ServerOptions options;
  options.max_inflight = 2;
  LiveServer live(options);

  auto parked_conn = server::Client::Connect(live.port);
  auto quick_conn = server::Client::Connect(live.port);
  if (!parked_conn.ok() || !quick_conn.ok()) {
    std::fprintf(stderr, "connect failed\n");
    std::abort();
  }

  // Park: an infinite null chain, one cheap atom per round, held live
  // until cancelled.
  server::ChaseRequest parked;
  parked.id = "parked";
  parked.rules = "E(a, b).\nE(x, y) -> E(y, z).\n";
  std::string quick_outcome = "send failed";
  std::string parked_terminal = "send failed";
  if (parked_conn->Send(server::SerializeRequest(parked)).ok()) {
    auto ack = parked_conn->ReadFrame();
    if (ack.ok() && ack->type == server::ResponseFrame::Type::kAck) {
      // While parked is chasing: complete a quick request end to end.
      server::ChaseRequest quick;
      quick.id = "quick";
      quick.rules = "P(a).\nP(x) -> Q(x).\n";
      auto outcome = quick_conn->RunChase(quick);
      quick_outcome = outcome.ok() && outcome->ok
                          ? outcome->result.outcome
                          : "error";
      // Unpark and read the typed terminal frame.
      parked_terminal = "no frame";
      if (parked_conn->Send(server::SerializeCancel(parked.id)).ok()) {
        auto terminal = parked_conn->ReadFrame();
        if (terminal.ok() &&
            terminal->type == server::ResponseFrame::Type::kError) {
          parked_terminal =
              server::ErrorCodeName(terminal->error.code);
        }
      }
    }
  }

  const server::StatsFrame stats = live.server.stats();
  const bool engaged = stats.max_overlap >= 2 &&
                       quick_outcome == "terminated" &&
                       parked_terminal == std::string("cancelled");
  table.AddRow({"parked+quick", quick_outcome, parked_terminal,
                std::to_string(stats.max_overlap),
                engaged ? "yes" : "NO"});
  bench::PrintTable(table);
}

}  // namespace
}  // namespace nuchase

int main() {
  nuchase::RunSweep();
  nuchase::RunOverlapProof();
  return 0;
}
