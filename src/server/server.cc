#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "api/session.h"
#include "chase/observer.h"
#include "util/deadline.h"

namespace nuchase {
namespace server {

// --- StreamTransport ---

StreamTransport::StreamTransport(std::istream* in, std::ostream* out,
                                 std::size_t max_line_bytes)
    : in_(in), out_(out), max_line_bytes_(max_line_bytes) {}

FrameTransport::ReadResult StreamTransport::ReadLine(std::string* line) {
  line->clear();
  // Byte-at-a-time with the cap enforced as we go, so an adversarial
  // line costs max_line_bytes of memory, not its own length.
  while (true) {
    const int c = in_->get();
    if (c == std::char_traits<char>::eof()) {
      return line->empty() ? ReadResult::kEof : ReadResult::kOk;
    }
    if (c == '\n') return ReadResult::kOk;
    if (line->size() >= max_line_bytes_) {
      while (true) {
        const int skipped = in_->get();
        if (skipped == std::char_traits<char>::eof() || skipped == '\n') {
          return ReadResult::kOversized;
        }
      }
    }
    line->push_back(static_cast<char>(c));
  }
}

bool StreamTransport::WriteLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mu_);
  (*out_) << line << '\n';
  out_->flush();
  return out_->good();
}

namespace {

// FrameTransport over a connected socket. Reads are buffered on the
// (single) reader thread; writes hold a mutex and ride MSG_NOSIGNAL so
// a vanished client surfaces as a dropped frame, never a SIGPIPE.
class FdTransport : public FrameTransport {
 public:
  FdTransport(int fd, std::size_t max_line_bytes)
      : fd_(fd), max_line_bytes_(max_line_bytes) {}

  ReadResult ReadLine(std::string* line) override {
    line->clear();
    bool skipping = false;
    while (true) {
      while (pos_ < buffer_.size()) {
        const char c = buffer_[pos_++];
        if (c == '\n') {
          if (skipping) return ReadResult::kOversized;
          return ReadResult::kOk;
        }
        if (skipping) continue;
        if (line->size() >= max_line_bytes_) {
          skipping = true;
          line->clear();
          continue;
        }
        line->push_back(c);
      }
      buffer_.clear();
      pos_ = 0;
      char chunk[4096];
      ssize_t n;
      do {
        n = ::recv(fd_, chunk, sizeof(chunk), 0);
      } while (n < 0 && errno == EINTR);
      if (n <= 0) {
        if (skipping) return ReadResult::kOversized;
        return line->empty() ? ReadResult::kEof : ReadResult::kOk;
      }
      buffer_.assign(chunk, static_cast<std::size_t>(n));
    }
  }

  bool WriteLine(const std::string& line) override {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (dead_) return false;
    std::string framed = line;
    framed += '\n';
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        // Peer is gone: later frames of in-flight chases are dropped by
        // contract (their results have no reader).
        dead_ = true;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  int fd_;
  std::size_t max_line_bytes_;
  std::string buffer_;
  std::size_t pos_ = 0;
  std::mutex write_mu_;
  bool dead_ = false;
};

}  // namespace

// --- Server ---

using Clock = std::chrono::steady_clock;

/// A chase request between admission and its terminal frame. Shared by
/// the reader thread (cancel frames, the drain loop) and the scheduler
/// worker running the chase.
struct Server::LiveRequest {
  ChaseRequest request;
  chase::CancelToken token;
  std::atomic<bool> client_cancelled{false};
  Clock::time_point deadline{};  ///< Meaningful iff request.deadline_ms.
  /// Set (under Connection::mu) once the ack frame is on the wire; the
  /// worker waits for it so a request's ack always precedes its events.
  bool admitted = false;
};

/// Per-connection state: the transport plus the registry of live
/// requests, which doubles as the drain barrier Serve() waits on.
struct Server::Connection {
  FrameTransport* transport = nullptr;
  std::mutex mu;
  std::condition_variable cv;  ///< Signals admission and completion.
  std::unordered_map<std::string, std::shared_ptr<LiveRequest>> live;
};

namespace {

/// Streams round-progress event frames for one chase. OnRound runs
/// synchronously on the chasing worker; WriteLine is thread-safe and
/// drops frames once the peer is gone, so no extra guarding is needed.
class EventStreamer : public chase::ChaseObserver {
 public:
  EventStreamer(FrameTransport* transport, std::string id)
      : transport_(transport), id_(std::move(id)) {}

  void OnRound(const chase::RoundProgress& progress) override {
    EventFrame frame;
    frame.id = id_;
    frame.round = progress.round;
    frame.atoms = progress.atoms;
    frame.delta_atoms = progress.delta_atoms;
    frame.triggers_fired = progress.triggers_fired;
    transport_->WriteLine(Serialize(frame));
  }

 private:
  FrameTransport* transport_;
  std::string id_;
};

void WriteError(FrameTransport* transport, const std::string& id,
                ErrorCode code, const std::string& message) {
  ErrorFrame frame;
  frame.id = id;
  frame.code = code;
  frame.message = message;
  transport->WriteLine(Serialize(frame));
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(options.cache_size),
      scheduler_([&options] {
        RequestScheduler::Options s;
        s.max_inflight = options.max_inflight;
        s.max_queue = options.max_queue;
        return s;
      }()) {}

Server::~Server() { scheduler_.Shutdown(); }

void Server::Serve(FrameTransport* transport) {
  Connection conn;
  conn.transport = transport;

  std::string line;
  while (true) {
    const FrameTransport::ReadResult read = transport->ReadLine(&line);
    if (read == FrameTransport::ReadResult::kEof) break;
    if (read == FrameTransport::ReadResult::kOversized) {
      WriteError(transport, "", ErrorCode::kOversizedFrame,
                 "line exceeds " + std::to_string(options_.max_line_bytes) +
                     " bytes");
      continue;
    }
    if (line.empty()) continue;  // Blank lines between frames are fine.

    RequestParse parsed = ParseRequest(line);
    if (!parsed.ok) {
      WriteError(transport, parsed.id, parsed.code, parsed.message);
      continue;
    }
    switch (parsed.frame.type) {
      case RequestFrame::Type::kPing:
        transport->WriteLine(Serialize(PongFrame{}));
        break;
      case RequestFrame::Type::kStats:
        transport->WriteLine(Serialize(stats()));
        break;
      case RequestFrame::Type::kCancel: {
        std::shared_ptr<LiveRequest> live;
        {
          std::lock_guard<std::mutex> lock(conn.mu);
          auto it = conn.live.find(parsed.frame.cancel.id);
          if (it != conn.live.end()) live = it->second;
        }
        if (live == nullptr) {
          WriteError(transport, parsed.frame.cancel.id,
                     ErrorCode::kUnknownId,
                     "no live request with this id");
          break;
        }
        // No frame of its own: the chase answers with its terminal
        // `cancelled` error.
        live->client_cancelled.store(true, std::memory_order_relaxed);
        live->token.Cancel();
        break;
      }
      case RequestFrame::Type::kChase:
        HandleChase(&conn, parsed.frame.chase);
        break;
    }
  }

  // Orderly drain: every admitted request still owes its terminal
  // frame; wait for the registry (the drain barrier) to empty.
  std::unique_lock<std::mutex> lock(conn.mu);
  conn.cv.wait(lock, [&conn] { return conn.live.empty(); });
}

void Server::ServeStream(std::istream& in, std::ostream& out) {
  StreamTransport transport(&in, &out, options_.max_line_bytes);
  Serve(&transport);
}

void Server::HandleChase(Connection* conn, const ChaseRequest& request) {
  auto live = std::make_shared<LiveRequest>();
  live->request = request;
  if (request.deadline_ms > 0) {
    live->deadline = util::DeadlineAfter(Clock::now(), request.deadline_ms);
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->live.emplace(request.id, live).second) {
      WriteError(conn->transport, request.id, ErrorCode::kDuplicateId,
                 "a live request with this id already exists");
      return;
    }
  }

  const bool admitted = scheduler_.Submit(
      [this, conn, live] { RunChaseTask(conn, live); });
  if (!admitted) {
    {
      // Notify under the lock: the moment the registry empties, Serve()
      // may return and destroy the Connection, so the cv must not be
      // touched after the lock is dropped.
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->live.erase(request.id);
      conn->cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++rejected_overload_;
    }
    WriteError(conn->transport, request.id, ErrorCode::kOverloaded,
               "request queue is full (max-queue = " +
                   std::to_string(options_.max_queue) + ")");
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++accepted_;
  }
  conn->transport->WriteLine(Serialize(AckFrame{request.id}));
  {
    // Notify under the lock (see the overload path above): once the
    // worker proceeds it may finish and empty the registry at any time.
    std::lock_guard<std::mutex> lock(conn->mu);
    live->admitted = true;
    conn->cv.notify_all();
  }
}

void Server::RunChaseTask(Connection* conn,
                          std::shared_ptr<LiveRequest> live) {
  const ChaseRequest& request = live->request;
  FrameTransport* transport = conn->transport;

  // The ack is written by the reader right after admission; hold the
  // worker here until it is on the wire so this request's frames are
  // ordered ack -> events -> terminal even when the queue was empty.
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    conn->cv.wait(lock, [&live] { return live->admitted; });
  }

  // Queue time counts against the deadline: a request that waited its
  // whole budget out is answered without chasing at all.
  std::uint64_t remaining_ms = 0;
  if (request.deadline_ms > 0) {
    const auto now = Clock::now();
    if (now >= live->deadline) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++deadline_exceeded_;
      }
      WriteError(transport, request.id, ErrorCode::kDeadlineExceeded,
                 "deadline elapsed while queued");
      FinishRequest(conn, request.id);
      return;
    }
    remaining_ms = static_cast<std::uint64_t>(std::max<std::int64_t>(
        1, std::chrono::duration_cast<std::chrono::milliseconds>(
               live->deadline - now)
               .count()));
  }
  if (live->client_cancelled.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++cancelled_;
    }
    WriteError(transport, request.id, ErrorCode::kCancelled,
               "cancelled while queued");
    FinishRequest(conn, request.id);
    return;
  }

  auto lookup = cache_.GetOrParse(request.rules);
  if (!lookup.ok()) {
    WriteError(transport, request.id, ErrorCode::kInvalidProgram,
               lookup.status().message());
    FinishRequest(conn, request.id);
    return;
  }

  api::SessionOptions options;
  options.set_variant(request.variant)
      .set_max_depth(request.max_depth)
      .set_max_rounds(request.max_rounds)
      .set_deadline_ms(remaining_ms)
      .set_cancel(&live->token);
  if (request.max_atoms > 0) options.set_max_atoms(request.max_atoms);
  EventStreamer streamer(transport, request.id);
  if (request.events) options.set_observer(&streamer);

  api::Session session(lookup->program, options);
  auto run = session.Chase();
  if (!run.ok()) {
    ErrorCode code = ErrorCode::kInternal;
    if (run.status().code() == util::StatusCode::kResourceExhausted) {
      code = ErrorCode::kResourceExhausted;
    } else if (run.status().code() == util::StatusCode::kInvalidArgument) {
      code = ErrorCode::kInvalidOptions;
    }
    WriteError(transport, request.id, code, run.status().message());
    FinishRequest(conn, request.id);
    return;
  }

  if (run->outcome() == chase::ChaseOutcome::kCancelled) {
    // The engine reports one outcome for both abort sources; the server
    // knows which applied — a cancel frame arrived, or it set the
    // deadline itself.
    const bool by_client =
        live->client_cancelled.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (by_client) {
        ++cancelled_;
      } else {
        ++deadline_exceeded_;
      }
    }
    WriteError(transport, request.id,
               by_client ? ErrorCode::kCancelled
                         : ErrorCode::kDeadlineExceeded,
               by_client ? "cancelled mid-chase" : "deadline exceeded");
    FinishRequest(conn, request.id);
    return;
  }

  ResultFrame result;
  result.id = request.id;
  result.outcome = chase::ChaseOutcomeName(run->outcome());
  result.cached = lookup->hit;
  result.atoms = run->instance().size();
  result.rounds = run->stats().rounds;
  result.triggers_fired = run->stats().triggers_fired;
  result.max_depth = run->stats().max_depth;
  result.arena_bytes = run->stats().arena_bytes;
  if (request.payload) {
    result.has_payload = true;
    result.payload = run->ToSortedString();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_;
  }
  transport->WriteLine(Serialize(result));
  FinishRequest(conn, request.id);
}

void Server::FinishRequest(Connection* conn, const std::string& id) {
  // Notify under the lock: erasing the last entry releases Serve()'s
  // drain wait, after which the Connection (cv included) is gone.
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->live.erase(id);
  conn->cv.notify_all();
}

StatsFrame Server::stats() const {
  StatsFrame out;
  const ProgramCache::Stats cache = cache_.stats();
  out.programs_parsed = cache.parses;
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_evictions = cache.evictions;
  out.cache_entries = cache.entries;
  const RequestScheduler::Stats sched = scheduler_.stats();
  out.max_overlap = sched.max_overlap;
  out.inflight = sched.inflight;
  out.queued = sched.queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.accepted = accepted_;
    out.completed = completed_;
    out.rejected_overload = rejected_overload_;
    out.cancelled = cancelled_;
    out.deadline_exceeded = deadline_exceeded_;
  }
  return out;
}

// --- TcpListener ---

util::StatusOr<TcpListener> TcpListener::Bind(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Status::Internal(std::string("socket: ") +
                                  std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    return util::Status::InvalidArgument("bind 127.0.0.1:" +
                                         std::to_string(port) + ": " +
                                         message);
  }
  if (::listen(fd, 128) < 0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    return util::Status::Internal("listen: " + message);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    return util::Status::Internal("getsockname: " + message);
  }
  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpListener::Run(Server* server) {
  std::vector<std::thread> connections;
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Stop() shut the listening socket down.
    }
    // Without TCP_NODELAY the ack/result (or event/result) write pairs
    // trip over Nagle + delayed ACK and every request eats a ~40ms
    // stall.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections.emplace_back([server, fd] {
      FdTransport transport(fd, server->options().max_line_bytes);
      server->Serve(&transport);
      ::close(fd);
    });
  }
  for (std::thread& connection : connections) connection.join();
}

void TcpListener::Stop() { ::shutdown(fd_, SHUT_RDWR); }

}  // namespace server
}  // namespace nuchase
