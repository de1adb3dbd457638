#ifndef NUCHASE_SERVER_SERVER_H_
#define NUCHASE_SERVER_SERVER_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "server/program_cache.h"
#include "server/protocol.h"
#include "server/scheduler.h"
#include "util/status.h"

namespace nuchase {
namespace server {

/// Server-wide knobs, mapped 1:1 from nuchase_server's flags.
struct ServerOptions {
  /// Requests chasing concurrently (= the scheduler's worker threads).
  unsigned max_inflight = 4;
  /// Requests waiting beyond that before admission rejects (overloaded).
  std::size_t max_queue = 64;
  /// Parsed programs the LRU cache retains.
  std::size_t cache_size = 64;
  /// Inert: the chase has one serial code path. Kept so that embedders
  /// written against the former parallel engine (perfbench) compile.
  std::uint32_t default_threads = 1;
  /// Longest accepted request line in bytes; longer lines are answered
  /// with an `oversized-frame` error and skipped (connection survives).
  std::size_t max_line_bytes = 1 << 20;
};

/// One client connection's framing: newline-delimited lines in, lines
/// out. ReadLine is called from the connection's reader thread only;
/// WriteLine must be thread-safe (the reader answers rejections while
/// scheduler workers stream events and results for earlier requests)
/// and must swallow transport failure — once the peer is gone the
/// remaining frames of an in-flight chase have nowhere to go, and
/// dropping them is the contract.
class FrameTransport {
 public:
  enum class ReadResult {
    kOk,         ///< `*line` holds the next line (newline stripped).
    kEof,        ///< Orderly end of input; no line.
    kOversized,  ///< Line exceeded the cap and was skipped; no line.
  };

  virtual ~FrameTransport() = default;
  virtual ReadResult ReadLine(std::string* line) = 0;
  /// False when the peer is unreachable (the frame was dropped).
  virtual bool WriteLine(const std::string& line) = 0;
};

/// FrameTransport over std::istream/std::ostream — the `--stdio` mode
/// and the hermetic harness the integration tests drive ServeStream
/// through (a stringstream in, a stringstream out, no sockets).
class StreamTransport : public FrameTransport {
 public:
  StreamTransport(std::istream* in, std::ostream* out,
                  std::size_t max_line_bytes);

  ReadResult ReadLine(std::string* line) override;
  bool WriteLine(const std::string& line) override;

 private:
  std::istream* in_;
  std::ostream* out_;
  std::size_t max_line_bytes_;
  std::mutex write_mu_;
};

/// The chase-as-a-service daemon core: one shared parse cache and one
/// admission-controlled scheduler, serving any number of connections.
///
/// Each connection gets a reader loop (Serve) that parses frames,
/// answers rejections, admits chase requests into the scheduler and
/// returns once the input reaches EOF *and* every chase the connection
/// admitted has written its terminal frame — an orderly shutdown drains
/// rather than cancels, so a client that closes its write half still
/// collects every result it was promised (and the `--stdio` test
/// harness can feed a whole script and read a complete transcript).
///
/// Wire contract per chase request: exactly one terminal frame (result
/// or error), preceded by an ack when admitted, with event frames in
/// between when requested. Rejected lines get an error frame and never
/// kill the connection.
class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves one connection to drain (see class comment). Blocking; call
  /// from the connection's own thread. Safe to call from many threads
  /// at once — connections share the cache and scheduler.
  void Serve(FrameTransport* transport);

  /// Serve() over a StreamTransport — the `--stdio` entry point.
  void ServeStream(std::istream& in, std::ostream& out);

  /// The counter snapshot a `stats` request answers with.
  StatsFrame stats() const;

  const ServerOptions& options() const { return options_; }

 private:
  struct Connection;
  struct LiveRequest;

  void HandleChase(Connection* conn, const ChaseRequest& request);
  void RunChaseTask(Connection* conn, std::shared_ptr<LiveRequest> live);
  void FinishRequest(Connection* conn, const std::string& id);

  ServerOptions options_;
  ProgramCache cache_;
  RequestScheduler scheduler_;

  mutable std::mutex mu_;
  std::uint64_t accepted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
};

/// A listening TCP socket on 127.0.0.1 and its accept loop — the
/// daemon's front door. Bind(0) picks an ephemeral port (the smoke
/// test's hermetic mode: nuchase_server prints the chosen port and
/// nuchase_loadgen parses it). Run() serves until Stop(), spawning one
/// reader thread per accepted connection; Stop() is callable from a
/// signal handler (it only calls shutdown(2) on the listening fd).
class TcpListener {
 public:
  /// Binds and listens on 127.0.0.1:port (port 0 = ephemeral).
  static util::StatusOr<TcpListener> Bind(int port);

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&&) = delete;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  /// The bound port (the chosen one when Bind was given 0).
  int port() const { return port_; }

  /// Accepts and serves connections until Stop(); joins every
  /// connection thread before returning.
  void Run(Server* server);

  /// Wakes Run()'s accept loop; async-signal-safe.
  void Stop();

 private:
  TcpListener() = default;

  int fd_ = -1;
  int port_ = 0;
};

}  // namespace server
}  // namespace nuchase

#endif  // NUCHASE_SERVER_SERVER_H_
