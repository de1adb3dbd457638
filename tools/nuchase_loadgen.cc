// nuchase_loadgen — closed-loop load generator for nuchase_server.
//
//   nuchase_loadgen --port=N                  drive an already-running server
//   nuchase_loadgen --spawn-server=PATH       spawn PATH --port=0, parse the
//                                             ephemeral port, drive it, then
//                                             SIGTERM + reap it (the hermetic
//                                             smoke-test mode: no fixed port,
//                                             no prior daemon, one command)
//
// Sweeps client counts (1, 2, 4, ... up to --clients), each client a
// thread running --requests closed-loop chases of the same program with
// payloads on, and prints req/s and p50/p99 latency per client count.
// Three gates make it a test harness rather than a demo:
//
//   * zero protocol errors — every frame must parse, belong to the
//     request that is in flight, and terminate with a result;
//   * byte-identity — every result payload across every client and
//     client count must be byte-identical (the server-side
//     determinism contract, observed from the wire);
//   * --require-overlap=N — server-reported max_overlap (the peak
//     number of concurrently-executing chases) must reach N. The proof
//     is engineered, not hoped for: before the sweep the harness parks
//     one non-terminating chase on the scheduler and cancels it after,
//     so any completed sweep request overlapped with it by
//     construction — a clock-free engagement proof.
//
// --min-rate=R additionally demands the best sweep row achieve R req/s.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "util/parse.h"
#include "util/table.h"

namespace nuchase {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--port=N | --spawn-server=PATH) [options]\n"
               "\n"
               "options:\n"
               "  --clients=N         max client count of the sweep "
               "(default 4)\n"
               "  --requests=N        closed-loop requests per client "
               "(default 25)\n"
               "  --program=FILE      rule text to submit (default: a "
               "built-in\n"
               "                      transitive-closure program)\n"
               "  --min-rate=R        fail unless the best row reaches R "
               "req/s\n"
               "  --require-overlap=N fail unless server max_overlap "
               "reaches N\n"
               "                      (parks a cancellable chase to force "
               "it)\n"
               "  --max-inflight=N    forwarded to a spawned server "
               "(default 4)\n"
               "  --max-queue=N       forwarded to a spawned server "
               "(default 64)\n",
               argv0);
  return 2;
}

/// The default workload: transitive closure over a 24-edge chain —
/// deterministic, a couple dozen rounds deep (so cancellation and
/// events have rounds to bite on) and a few hundred atoms of payload.
std::string DefaultProgram() {
  std::string text;
  for (int i = 0; i < 24; ++i) {
    text += "E(a" + std::to_string(i) + ", a" + std::to_string(i + 1) +
            ").\n";
  }
  text += "E(x, y) -> T(x, y).\n";
  text += "T(x, y), E(y, z) -> T(x, z).\n";
  return text;
}

/// The parked program: an infinite null chain, one cheap atom per
/// round, run only to be cancelled — it exists to hold one scheduler
/// slot so max_overlap is forced over 1 by construction.
const char kParkedProgram[] = "E(a, b).\nE(x, y) -> E(y, z).\n";

struct LoadgenOptions {
  int port = -1;
  std::string spawn_server;
  unsigned clients = 4;
  unsigned requests = 25;
  std::string program_file;
  unsigned min_rate = 0;
  unsigned require_overlap = 0;
  unsigned max_inflight = 4;
  unsigned max_queue = 64;
};

/// A server child spawned with --port=0; the port is parsed from its
/// "listening on 127.0.0.1:PORT" startup line.
struct SpawnedServer {
  pid_t pid = -1;
  int port = -1;
};

bool SpawnServer(const LoadgenOptions& options, SpawnedServer* out) {
  int fds[2];
  if (::pipe(fds) < 0) {
    std::perror("pipe");
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::dup2(fds[1], 1);
    ::close(fds[0]);
    ::close(fds[1]);
    const std::string inflight =
        "--max-inflight=" + std::to_string(options.max_inflight);
    const std::string queue =
        "--max-queue=" + std::to_string(options.max_queue);
    ::execl(options.spawn_server.c_str(), options.spawn_server.c_str(),
            "--port=0", inflight.c_str(), queue.c_str(),
            static_cast<char*>(nullptr));
    std::perror("exec nuchase_server");
    ::_exit(127);
  }
  ::close(fds[1]);
  // Read the startup line; anything else (exec failure, early exit)
  // shows up as EOF before a port was announced.
  std::string line;
  char c;
  while (line.find('\n') == std::string::npos) {
    const ssize_t n = ::read(fds[0], &c, 1);
    if (n <= 0) break;
    line.push_back(c);
  }
  ::close(fds[0]);
  const std::string prefix = "listening on 127.0.0.1:";
  const std::size_t at = line.find(prefix);
  if (at == std::string::npos) {
    std::fprintf(stderr, "spawned server printed no port: '%s'\n",
                 line.c_str());
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return false;
  }
  out->pid = pid;
  out->port = std::atoi(line.c_str() + at + prefix.size());
  return true;
}

void ReapServer(const SpawnedServer& spawned) {
  if (spawned.pid < 0) return;
  ::kill(spawned.pid, SIGTERM);
  ::waitpid(spawned.pid, nullptr, 0);
}

struct ClientRun {
  std::vector<double> latencies_ms;
  std::uint64_t errors = 0;
  std::string payload;  ///< First result payload seen (identity probe).
  std::string detail;   ///< First error detail, for the failure report.
};

void RunClient(int port, unsigned client, unsigned requests,
               const std::string& rules, ClientRun* out) {
  auto connected = server::Client::Connect(port);
  if (!connected.ok()) {
    out->errors += requests;
    out->detail = connected.status().ToString();
    return;
  }
  server::Client& client_conn = *connected;
  for (unsigned r = 0; r < requests; ++r) {
    server::ChaseRequest request;
    request.id = "c" + std::to_string(client) + "-r" + std::to_string(r);
    request.rules = rules;
    request.payload = true;
    const auto start = std::chrono::steady_clock::now();
    auto outcome = client_conn.RunChase(request);
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (!outcome.ok() || !outcome->ok || !outcome->acked) {
      ++out->errors;
      if (out->detail.empty()) {
        out->detail = !outcome.ok()
                          ? outcome.status().ToString()
                          : "error frame: " + outcome->error.message;
      }
      continue;
    }
    out->latencies_ms.push_back(ms);
    if (out->payload.empty()) out->payload = outcome->result.payload;
  }
}

double Percentile(std::vector<double> sorted, double p) {
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

int Main(int argc, char** argv) {
  LoadgenOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    unsigned long long n = 0;
    if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!util::ParseCountFlag("--port", arg.c_str() + 7, 1, 65535, &n)) {
        return 2;
      }
      options.port = static_cast<int>(n);
    } else if (arg.rfind("--spawn-server=", 0) == 0) {
      options.spawn_server = arg.substr(15);
    } else if (arg.rfind("--clients=", 0) == 0) {
      if (!util::ParseCountFlag("--clients", arg.c_str() + 10, 1, 64,
                                &n)) {
        return 2;
      }
      options.clients = static_cast<unsigned>(n);
    } else if (arg.rfind("--requests=", 0) == 0) {
      if (!util::ParseCountFlag("--requests", arg.c_str() + 11, 1, 100000,
                                &n)) {
        return 2;
      }
      options.requests = static_cast<unsigned>(n);
    } else if (arg.rfind("--program=", 0) == 0) {
      options.program_file = arg.substr(10);
    } else if (arg.rfind("--min-rate=", 0) == 0) {
      if (!util::ParseCountFlag("--min-rate", arg.c_str() + 11, 0,
                                100000000, &n)) {
        return 2;
      }
      options.min_rate = static_cast<unsigned>(n);
    } else if (arg.rfind("--require-overlap=", 0) == 0) {
      if (!util::ParseCountFlag("--require-overlap", arg.c_str() + 18, 0,
                                256, &n)) {
        return 2;
      }
      options.require_overlap = static_cast<unsigned>(n);
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      if (!util::ParseCountFlag("--max-inflight", arg.c_str() + 15, 1, 256,
                                &n)) {
        return 2;
      }
      options.max_inflight = static_cast<unsigned>(n);
    } else if (arg.rfind("--max-queue=", 0) == 0) {
      if (!util::ParseCountFlag("--max-queue", arg.c_str() + 12, 0,
                                1000000, &n)) {
        return 2;
      }
      options.max_queue = static_cast<unsigned>(n);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if ((options.port > 0) == !options.spawn_server.empty()) {
    std::fprintf(stderr, "pick one target: --port=N or "
                         "--spawn-server=PATH\n");
    return Usage(argv[0]);
  }

  std::string rules;
  if (options.program_file.empty()) {
    rules = DefaultProgram();
  } else {
    std::ifstream in(options.program_file);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n",
                   options.program_file.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    rules = ss.str();
  }

  SpawnedServer spawned;
  int port = options.port;
  if (!options.spawn_server.empty()) {
    if (!SpawnServer(options, &spawned)) return 1;
    port = spawned.port;
    std::printf("spawned %s (pid %d) on 127.0.0.1:%d\n",
                options.spawn_server.c_str(),
                static_cast<int>(spawned.pid), port);
  }

  int exit_code = 0;
  std::string reference_payload;
  double best_rate = 0;
  std::uint64_t total_errors = 0;

  {
    // Overlap proof: park one non-terminating chase for the whole
    // sweep. Holding the Client open keeps its connection (and so the
    // request) alive; cancelled and drained after the sweep.
    server::Client* parked = nullptr;
    server::ChaseRequest parked_request;
    auto parked_conn = options.require_overlap >= 2
                           ? server::Client::Connect(port)
                           : util::StatusOr<server::Client>(
                                 util::Status::NotFound("unused"));
    if (options.require_overlap >= 2) {
      if (!parked_conn.ok()) {
        std::fprintf(stderr, "parked connection: %s\n",
                     parked_conn.status().ToString().c_str());
        ReapServer(spawned);
        return 1;
      }
      parked = &parked_conn.value();
      parked_request.id = "parked";
      parked_request.rules = kParkedProgram;
      if (!parked->Send(server::SerializeRequest(parked_request)).ok()) {
        std::fprintf(stderr, "parked request failed to send\n");
        ReapServer(spawned);
        return 1;
      }
      // Absorb the ack now so the later terminal read sees one frame.
      auto ack = parked->ReadFrame();
      if (!ack.ok() || ack->type != server::ResponseFrame::Type::kAck) {
        std::fprintf(stderr, "parked request was not admitted\n");
        ReapServer(spawned);
        return 1;
      }
    }

    util::Table table("server load",
                      {"clients", "requests", "errors", "req/s",
                       "p50(ms)", "p99(ms)", "same result"});
    std::vector<unsigned> sweep;
    for (unsigned c = 1; c < options.clients; c *= 2) sweep.push_back(c);
    sweep.push_back(options.clients);

    for (unsigned clients : sweep) {
      std::vector<ClientRun> runs(clients);
      std::vector<std::thread> threads;
      const auto start = std::chrono::steady_clock::now();
      for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back(RunClient, port, c, options.requests,
                             std::cref(rules), &runs[c]);
      }
      for (std::thread& t : threads) t.join();
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();

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
        if (run.errors > 0 && !run.detail.empty()) {
          std::fprintf(stderr, "client error (%u clients): %s\n", clients,
                       run.detail.c_str());
        }
      }
      std::sort(latencies.begin(), latencies.end());
      const double rate =
          elapsed > 0 ? static_cast<double>(latencies.size()) / elapsed
                      : 0;
      best_rate = std::max(best_rate, rate);
      total_errors += errors;
      if (!identical) exit_code = 1;
      table.AddRow({std::to_string(clients),
                    std::to_string(options.requests),
                    std::to_string(errors), FormatMs(rate),
                    FormatMs(Percentile(latencies, 0.50)),
                    FormatMs(Percentile(latencies, 0.99)),
                    identical ? "yes" : "NO"});
    }
    std::printf("%s\n", table.ToString().c_str());

    if (parked != nullptr) {
      // Unpark: cancel, then read the terminal frame — it must be the
      // typed cancelled error, promptly.
      if (!parked->Send(server::SerializeCancel(parked_request.id)).ok()) {
        std::fprintf(stderr, "cancel of parked request failed to send\n");
        exit_code = 1;
      } else {
        auto terminal = parked->ReadFrame();
        if (!terminal.ok() ||
            terminal->type != server::ResponseFrame::Type::kError ||
            terminal->error.code != server::ErrorCode::kCancelled) {
          std::fprintf(stderr,
                       "parked request did not end in a cancelled "
                       "error frame\n");
          exit_code = 1;
        }
      }
    }
  }

  // Server-side counters: the cache and overlap verdicts come from the
  // daemon, not from the harness's clocks. The connection must be
  // closed (scope exit) before ReapServer: the daemon drains live
  // connections on SIGTERM, so reaping with a connection still open
  // would deadlock waitpid against the server's recv.
  server::StatsFrame stats;
  {
    auto stats_conn = server::Client::Connect(port);
    if (!stats_conn.ok()) {
      std::fprintf(stderr, "stats connection: %s\n",
                   stats_conn.status().ToString().c_str());
      ReapServer(spawned);
      return 1;
    }
    auto snapshot = stats_conn->Stats();
    if (!snapshot.ok()) {
      std::fprintf(stderr, "stats: %s\n",
                   snapshot.status().ToString().c_str());
      exit_code = 1;
    } else {
      stats = *snapshot;
    }
  }
  std::printf("server: parsed=%llu cache_hits=%llu cache_misses=%llu "
              "accepted=%llu completed=%llu overload=%llu "
              "cancelled=%llu deadline=%llu max_overlap=%llu\n",
              static_cast<unsigned long long>(stats.programs_parsed),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejected_overload),
              static_cast<unsigned long long>(stats.cancelled),
              static_cast<unsigned long long>(stats.deadline_exceeded),
              static_cast<unsigned long long>(stats.max_overlap));

  ReapServer(spawned);

  if (total_errors > 0) {
    std::fprintf(stderr, "FAIL: %llu protocol error(s)\n",
                 static_cast<unsigned long long>(total_errors));
    exit_code = 1;
  }
  if (options.min_rate > 0 && best_rate < options.min_rate) {
    std::fprintf(stderr, "FAIL: best rate %.2f req/s below --min-rate=%u\n",
                 best_rate, options.min_rate);
    exit_code = 1;
  }
  if (options.require_overlap > 0 &&
      stats.max_overlap < options.require_overlap) {
    std::fprintf(stderr,
                 "FAIL: max_overlap %llu below --require-overlap=%u — "
                 "concurrent requests never overlapped on the pool\n",
                 static_cast<unsigned long long>(stats.max_overlap),
                 options.require_overlap);
    exit_code = 1;
  }
  if (exit_code == 0) std::printf("loadgen: all gates passed\n");
  return exit_code;
}

}  // namespace
}  // namespace nuchase

int main(int argc, char** argv) { return nuchase::Main(argc, argv); }
