// nuchase_server — chase-as-a-service daemon over the api facade.
//
//   nuchase_server --stdio                 serve one session on stdin/stdout
//   nuchase_server --port=0                serve TCP on 127.0.0.1 (0 picks an
//                                          ephemeral port; the chosen one is
//                                          printed as "listening on ...")
//   nuchase_server --list-frames           print the wire-protocol catalog
//
// The protocol is newline-delimited JSON, one frame per line; see
// docs/server.md for the frame catalog and admission-control semantics.
// The daemon is a thin shell around server::Server: one shared parse
// cache (--cache-size) and one admission-controlled scheduler
// (--max-inflight running, --max-queue waiting, typed `overloaded`
// rejections past that) serve every connection. SIGINT/SIGTERM shut the
// TCP mode down cleanly: stop accepting, drain live connections, exit 0.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "server/server.h"
#include "util/parse.h"

namespace nuchase {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--stdio | --port=N] [options]\n"
               "\n"
               "modes (exactly one):\n"
               "  --stdio           serve newline-delimited JSON frames on\n"
               "                    stdin/stdout, exit once input drains\n"
               "  --port=N          listen on 127.0.0.1:N (N=0 picks an\n"
               "                    ephemeral port, printed on stdout)\n"
               "  --list-frames     print the wire catalog (requests,\n"
               "                    responses, error codes) and exit\n"
               "\n"
               "options:\n"
               "  --max-inflight=N  requests chasing concurrently "
               "(default 4,\n"
               "                    N in [1, 256])\n"
               "  --max-queue=N     requests waiting beyond that before\n"
               "                    admission rejects (default 64)\n"
               "  --cache-size=N    parsed programs the LRU cache holds\n"
               "                    (default 64, N >= 1)\n"
               "  --max-line-bytes=N  longest accepted frame line "
               "(default\n"
               "                    1048576, N in [1024, 1073741824])\n",
               argv0);
  return 2;
}

int ListFrames() {
  // One line per catalog entry, aligned like nuchase_lint --list-ids;
  // tests/server_frames_in_docs.cmake greps these names against
  // docs/server.md, so the catalog cannot outgrow its documentation.
  for (const server::FrameSpec& spec : server::FrameCatalog()) {
    std::printf("%-11s %-18s %s\n", spec.kind, spec.name, spec.summary);
  }
  return 0;
}

server::TcpListener* g_listener = nullptr;

void HandleSignal(int) {
  // Async-signal-safe: Stop() only calls shutdown(2) on the listening
  // fd, which wakes the accept loop; the main thread then drains.
  if (g_listener != nullptr) g_listener->Stop();
}

int Main(int argc, char** argv) {
  bool stdio = false;
  bool have_port = false;
  int port = 0;
  server::ServerOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    unsigned long long n = 0;
    if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (arg == "--list-frames") {
      return ListFrames();
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!util::ParseCountFlag("--port", arg.c_str() + 7, 0, 65535, &n)) {
        return 2;
      }
      have_port = true;
      port = static_cast<int>(n);
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
      options.max_queue = static_cast<std::size_t>(n);
    } else if (arg.rfind("--cache-size=", 0) == 0) {
      if (!util::ParseCountFlag("--cache-size", arg.c_str() + 13, 1,
                                1000000, &n)) {
        return 2;
      }
      options.cache_size = static_cast<std::size_t>(n);
    } else if (arg.rfind("--max-line-bytes=", 0) == 0) {
      if (!util::ParseCountFlag("--max-line-bytes", arg.c_str() + 17, 1024,
                                1073741824, &n)) {
        return 2;
      }
      options.max_line_bytes = static_cast<std::size_t>(n);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (stdio == have_port) {
    std::fprintf(stderr, stdio ? "--stdio and --port are exclusive\n"
                               : "pick a mode: --stdio or --port=N\n");
    return Usage(argv[0]);
  }

  server::Server server(options);
  if (stdio) {
    server.ServeStream(std::cin, std::cout);
    return 0;
  }

  auto listener = server::TcpListener::Bind(port);
  if (!listener.ok()) {
    std::fprintf(stderr, "%s\n", listener.status().ToString().c_str());
    return 1;
  }
  // The one startup line a spawning harness (nuchase_loadgen
  // --spawn-server) parses: flushed before serving so the port is
  // readable the moment the socket accepts.
  std::printf("listening on 127.0.0.1:%d\n", listener->port());
  std::fflush(stdout);

  g_listener = &listener.value();
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  listener->Run(&server);
  g_listener = nullptr;
  return 0;
}

}  // namespace
}  // namespace nuchase

int main(int argc, char** argv) { return nuchase::Main(argc, argv); }
