// Integration tests for the chase daemon core (server::Server), driven
// hermetically: most cases feed a whole frame script through
// ServeStream (the --stdio path — no sockets, no clocks except where a
// deadline is the thing under test) and assert on the complete
// transcript; the admission-control cases use a gated transport whose
// script advances only once the server has observably reached the
// state the next line is meant to poke (a queued request stays queued
// because the worker is provably busy — not because the test got
// lucky); and the determinism matrix drives real TCP connections
// concurrently, requiring byte-identical payloads across client
// threads and scheduler widths, pinned to the answer a direct
// api::Session run produces.
#include <gtest/gtest.h>

#include <condition_variable>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/program.h"
#include "api/session.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace nuchase {
namespace server {
namespace {

/// An infinite null chain: one fresh atom per round, never terminates —
/// the workload for everything that must be aborted (cancel, deadline)
/// or must provably occupy a scheduler slot.
const char kInfiniteProgram[] = "E(a, b).\nE(x, y) -> E(y, z).\n";

std::string ChainProgram(int edges) {
  std::string text;
  for (int i = 0; i < edges; ++i) {
    text += "E(a" + std::to_string(i) + ", a" + std::to_string(i + 1) +
            ").\n";
  }
  text += "E(x, y) -> T(x, y).\n";
  text += "T(x, y), E(y, z) -> T(x, z).\n";
  return text;
}

/// Runs a frame script through ServeStream and parses the transcript.
/// ServeStream drains every live request before returning, so the
/// counters copied into `final_stats` are the run's final tallies —
/// unlike an in-script stats request, which the reader answers while
/// earlier chases may still be mid-flight.
std::vector<ResponseFrame> RunScript(const ServerOptions& options,
                                     const std::vector<std::string>& lines,
                                     StatsFrame* final_stats = nullptr) {
  std::string input;
  for (const std::string& line : lines) {
    input += line;
    input += '\n';
  }
  std::istringstream in(input);
  std::ostringstream out;
  Server server(options);
  server.ServeStream(in, out);
  if (final_stats != nullptr) *final_stats = server.stats();
  std::vector<ResponseFrame> frames;
  std::istringstream transcript(out.str());
  std::string line;
  while (std::getline(transcript, line)) {
    auto frame = ParseResponse(line);
    EXPECT_TRUE(frame.ok()) << "unparseable response line: " << line;
    if (frame.ok()) frames.push_back(*frame);
  }
  return frames;
}

/// The frames of one request id, in transcript order. Error frames with
/// an empty id match the empty id only.
std::vector<ResponseFrame> FramesFor(const std::vector<ResponseFrame>& all,
                                     const std::string& id) {
  std::vector<ResponseFrame> out;
  for (const ResponseFrame& frame : all) {
    std::string frame_id;
    switch (frame.type) {
      case ResponseFrame::Type::kAck: frame_id = frame.ack.id; break;
      case ResponseFrame::Type::kEvent: frame_id = frame.event.id; break;
      case ResponseFrame::Type::kResult: frame_id = frame.result.id; break;
      case ResponseFrame::Type::kError: frame_id = frame.error.id; break;
      default: continue;
    }
    if (frame_id == id) out.push_back(frame);
  }
  return out;
}

ChaseRequest MakeChase(const std::string& id, const std::string& rules) {
  ChaseRequest request;
  request.id = id;
  request.rules = rules;
  return request;
}

TEST(ServerStreamTest, PingChaseStatsTranscript) {
  ChaseRequest chase = MakeChase("r1", "P(a).\nP(x) -> Q(x).\n");
  chase.payload = true;
  auto frames = RunScript({}, {SerializePing(), SerializeRequest(chase),
                               SerializeStatsRequest()});
  ASSERT_GE(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, ResponseFrame::Type::kPong);

  auto r1 = FramesFor(frames, "r1");
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_EQ(r1[0].type, ResponseFrame::Type::kAck);
  ASSERT_EQ(r1[1].type, ResponseFrame::Type::kResult);
  EXPECT_EQ(r1[1].result.outcome, "terminated");
  EXPECT_FALSE(r1[1].result.cached);
  EXPECT_EQ(r1[1].result.atoms, 2u);
  ASSERT_TRUE(r1[1].result.has_payload);
  EXPECT_EQ(r1[1].result.payload, "P(a)\nQ(a)\n");
}

TEST(ServerStreamTest, PayloadMatchesADirectSessionRun) {
  const std::string rules = ChainProgram(8);
  ChaseRequest chase = MakeChase("r1", rules);
  chase.payload = true;
  auto frames = RunScript({}, {SerializeRequest(chase)});
  auto r1 = FramesFor(frames, "r1");
  ASSERT_EQ(r1.size(), 2u);
  ASSERT_EQ(r1[1].type, ResponseFrame::Type::kResult);

  auto program = api::Program::Parse(rules);
  ASSERT_TRUE(program.ok());
  auto run = api::Session(*program).Chase();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(r1[1].result.payload, run->ToSortedString());
  EXPECT_EQ(r1[1].result.atoms, run->instance().size());
}

TEST(ServerStreamTest, SecondIdenticalProgramHitsTheCache) {
  // One worker, so `a` finishes before `b` starts and the hit is
  // certain rather than racing a concurrent parse of the same text.
  ServerOptions options;
  options.max_inflight = 1;
  const std::string rules = ChainProgram(4);
  StatsFrame stats;
  auto frames = RunScript(options,
                          {SerializeRequest(MakeChase("a", rules)),
                           SerializeRequest(MakeChase("b", rules))},
                          &stats);
  auto a = FramesFor(frames, "a");
  auto b = FramesFor(frames, "b");
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  ASSERT_EQ(a[1].type, ResponseFrame::Type::kResult);
  ASSERT_EQ(b[1].type, ResponseFrame::Type::kResult);
  EXPECT_FALSE(a[1].result.cached);
  EXPECT_TRUE(b[1].result.cached);
  EXPECT_EQ(b[1].result.payload, a[1].result.payload);

  EXPECT_EQ(stats.programs_parsed, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServerStreamTest, MalformedLinesGetTypedErrorsAndConnectionSurvives) {
  ServerOptions options;
  options.max_line_bytes = 2048;
  ChaseRequest good = MakeChase("ok", "P(a).\n");
  std::string oversized = "{\"type\":\"chase\",\"id\":\"big\",\"rules\":\"";
  oversized.append(4096, 'x');
  oversized += "\"}";
  auto frames = RunScript(
      options,
      {
          "this is not json",
          "{\"type\":\"warp\",\"id\":\"w\"}",
          "{\"type\":\"chase\",\"id\":\"t\",\"rules\":\"P(a).\","
          "\"turbo\":true}",
          oversized,
          SerializeRequest(MakeChase("bad", "this is not a program")),
          "",  // blank lines are skipped, not errors
          SerializeRequest(good),
      });

  // One typed error per bad line, in input order, then the good chase.
  std::vector<std::pair<std::string, ErrorCode>> expected = {
      {"", ErrorCode::kMalformedFrame},
      {"w", ErrorCode::kUnknownType},
      {"t", ErrorCode::kUnknownField},
      {"", ErrorCode::kOversizedFrame},
  };
  std::size_t at = 0;
  for (const auto& [id, code] : expected) {
    ASSERT_LT(at, frames.size());
    ASSERT_EQ(frames[at].type, ResponseFrame::Type::kError)
        << "frame " << at;
    EXPECT_EQ(frames[at].error.id, id);
    EXPECT_EQ(frames[at].error.code, code);
    ++at;
  }
  auto bad = FramesFor(frames, "bad");
  ASSERT_EQ(bad.size(), 2u);  // ack, then the parse failure
  ASSERT_EQ(bad[1].type, ResponseFrame::Type::kError);
  EXPECT_EQ(bad[1].error.code, ErrorCode::kInvalidProgram);

  auto ok = FramesFor(frames, "ok");
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_EQ(ok[0].type, ResponseFrame::Type::kAck);
  ASSERT_EQ(ok[1].type, ResponseFrame::Type::kResult);
  EXPECT_EQ(ok[1].result.outcome, "terminated");
}

TEST(ServerStreamTest, CancelAbortsALiveChase) {
  ChaseRequest chase = MakeChase("victim", kInfiniteProgram);
  auto frames = RunScript({}, {SerializeRequest(chase),
                               SerializeCancel("victim"),
                               SerializeCancel("nobody")});
  auto victim = FramesFor(frames, "victim");
  ASSERT_EQ(victim.size(), 2u);
  EXPECT_EQ(victim[0].type, ResponseFrame::Type::kAck);
  ASSERT_EQ(victim[1].type, ResponseFrame::Type::kError);
  EXPECT_EQ(victim[1].error.code, ErrorCode::kCancelled);

  auto nobody = FramesFor(frames, "nobody");
  ASSERT_EQ(nobody.size(), 1u);
  ASSERT_EQ(nobody[0].type, ResponseFrame::Type::kError);
  EXPECT_EQ(nobody[0].error.code, ErrorCode::kUnknownId);
}

TEST(ServerStreamTest, DeadlineExpiresMidChase) {
  // The program never terminates, so the only way this test ends is the
  // deadline firing mid-chase — and the server must report it as
  // deadline-exceeded, not as a plain cancellation.
  ChaseRequest chase = MakeChase("slow", kInfiniteProgram);
  chase.deadline_ms = 50;
  StatsFrame stats;
  auto frames = RunScript({}, {SerializeRequest(chase)}, &stats);
  auto slow = FramesFor(frames, "slow");
  ASSERT_EQ(slow.size(), 2u);
  ASSERT_EQ(slow[1].type, ResponseFrame::Type::kError);
  EXPECT_EQ(slow[1].error.code, ErrorCode::kDeadlineExceeded);

  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(ServerStreamTest, HugeDeadlinesBehaveAsNoDeadline) {
  // Budgets beyond the steady clock's range used to wrap to a deadline
  // in the past ("deadline elapsed while queued"). Saturated, the atom
  // budget is what stops the diverging chase.
  const std::uint64_t budgets[] = {std::uint64_t{1} << 53,
                                   std::uint64_t{0x7fffffffffffffff},
                                   std::uint64_t{0xffffffffffffffff}};
  std::vector<std::string> script;
  for (std::size_t i = 0; i < 3; ++i) {
    ChaseRequest chase = MakeChase("huge" + std::to_string(i),
                                   kInfiniteProgram);
    chase.deadline_ms = budgets[i];
    chase.max_atoms = 2000;
    script.push_back(SerializeRequest(chase));
  }
  StatsFrame stats;
  auto frames = RunScript({}, script, &stats);
  for (std::size_t i = 0; i < 3; ++i) {
    auto huge = FramesFor(frames, "huge" + std::to_string(i));
    ASSERT_EQ(huge.size(), 2u) << budgets[i];
    ASSERT_EQ(huge[1].type, ResponseFrame::Type::kResult) << budgets[i];
    EXPECT_EQ(huge[1].result.outcome, "atom-limit") << budgets[i];
    EXPECT_GT(huge[1].result.atoms, 2000u) << budgets[i];
  }
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(ServerStreamTest, DuplicateLiveIdIsRejected) {
  auto frames = RunScript(
      {}, {SerializeRequest(MakeChase("dup", kInfiniteProgram)),
           SerializeRequest(MakeChase("dup", "P(a).\n")),
           SerializeCancel("dup")});
  auto dup = FramesFor(frames, "dup");
  // ack (first), duplicate-id error (second), cancelled (first).
  ASSERT_EQ(dup.size(), 3u);
  EXPECT_EQ(dup[0].type, ResponseFrame::Type::kAck);
  ASSERT_EQ(dup[1].type, ResponseFrame::Type::kError);
  EXPECT_EQ(dup[1].error.code, ErrorCode::kDuplicateId);
  ASSERT_EQ(dup[2].type, ResponseFrame::Type::kError);
  EXPECT_EQ(dup[2].error.code, ErrorCode::kCancelled);
}

TEST(ServerStreamTest, EventsStreamRoundProgress) {
  ChaseRequest chase = MakeChase("ev", ChainProgram(6));
  chase.events = true;
  auto frames = RunScript({}, {SerializeRequest(chase)});
  auto ev = FramesFor(frames, "ev");
  ASSERT_GE(ev.size(), 3u);
  EXPECT_EQ(ev.front().type, ResponseFrame::Type::kAck);
  ASSERT_EQ(ev.back().type, ResponseFrame::Type::kResult);
  const ResultFrame& result = ev.back().result;
  // One event per round, rounds numbered 1..n in order, the last one
  // agreeing with the result's round count.
  const std::size_t events = ev.size() - 2;
  EXPECT_EQ(events, result.rounds);
  for (std::size_t i = 0; i < events; ++i) {
    ASSERT_EQ(ev[i + 1].type, ResponseFrame::Type::kEvent);
    EXPECT_EQ(ev[i + 1].event.round, i + 1);
  }
  EXPECT_EQ(ev[events].event.atoms, result.atoms);
}

/// A FrameTransport whose script advances through explicit gates: each
/// step can wait until the transcript satisfies a predicate before its
/// line is released to the reader. This is what makes the admission
/// tests deterministic — "the next line is sent once request A has
/// streamed an event" proves A occupies a worker; no sleeps, no races.
class GatedTransport : public FrameTransport {
 public:
  using Gate = std::function<bool(const std::vector<ResponseFrame>&)>;

  void Push(std::string line, Gate gate = nullptr) {
    steps_.push_back({std::move(gate), std::move(line)});
  }

  ReadResult ReadLine(std::string* line) override {
    if (index_ >= steps_.size()) return ReadResult::kEof;
    Step& step = steps_[index_++];
    if (step.gate) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return step.gate(frames_); });
    }
    *line = step.line;
    return ReadResult::kOk;
  }

  bool WriteLine(const std::string& line) override {
    auto frame = ParseResponse(line);
    EXPECT_TRUE(frame.ok()) << "unparseable response line: " << line;
    std::lock_guard<std::mutex> lock(mu_);
    if (frame.ok()) frames_.push_back(*frame);
    cv_.notify_all();
    return true;
  }

  std::vector<ResponseFrame> frames() {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_;
  }

 private:
  struct Step {
    Gate gate;
    std::string line;
  };
  std::vector<Step> steps_;
  std::size_t index_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ResponseFrame> frames_;
};

GatedTransport::Gate SawEvent(const std::string& id) {
  return [id](const std::vector<ResponseFrame>& frames) {
    for (const ResponseFrame& f : frames) {
      if (f.type == ResponseFrame::Type::kEvent && f.event.id == id) {
        return true;
      }
    }
    return false;
  };
}

GatedTransport::Gate SawAck(const std::string& id) {
  return [id](const std::vector<ResponseFrame>& frames) {
    for (const ResponseFrame& f : frames) {
      if (f.type == ResponseFrame::Type::kAck && f.ack.id == id) {
        return true;
      }
    }
    return false;
  };
}

GatedTransport::Gate SawError(const std::string& id) {
  return [id](const std::vector<ResponseFrame>& frames) {
    for (const ResponseFrame& f : frames) {
      if (f.type == ResponseFrame::Type::kError && f.error.id == id) {
        return true;
      }
    }
    return false;
  };
}

TEST(ServerAdmissionTest, QueueFullRejectsAndQueuedCancelAborts) {
  // One worker, one queue slot. The script is gated so each admission
  // state is proven before the next line lands:
  //   A admitted and chasing (its first event arrived) — worker busy;
  //   B admitted (acked) — the single queue slot is now provably held;
  //   C submitted — must bounce with `overloaded`;
  //   cancel B — B is still queued (A never finished), so B must abort
  //     without ever chasing ("cancelled while queued");
  //   cancel A — drains the connection.
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queue = 1;

  ChaseRequest a = MakeChase("a", kInfiniteProgram);
  a.events = true;
  GatedTransport transport;
  transport.Push(SerializeRequest(a));
  transport.Push(SerializeRequest(MakeChase("b", kInfiniteProgram)),
                 SawEvent("a"));
  transport.Push(SerializeRequest(MakeChase("c", kInfiniteProgram)),
                 SawAck("b"));
  transport.Push(SerializeCancel("b"), SawError("c"));
  transport.Push(SerializeCancel("a"));

  Server server(options);
  server.Serve(&transport);
  auto frames = transport.frames();

  auto c = FramesFor(frames, "c");
  ASSERT_EQ(c.size(), 1u);
  ASSERT_EQ(c[0].type, ResponseFrame::Type::kError);
  EXPECT_EQ(c[0].error.code, ErrorCode::kOverloaded);

  auto b = FramesFor(frames, "b");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0].type, ResponseFrame::Type::kAck);
  ASSERT_EQ(b[1].type, ResponseFrame::Type::kError);
  EXPECT_EQ(b[1].error.code, ErrorCode::kCancelled);
  EXPECT_NE(b[1].error.message.find("queued"), std::string::npos)
      << "B should have been aborted before ever chasing, got: "
      << b[1].error.message;

  auto a_frames = FramesFor(frames, "a");
  ASSERT_GE(a_frames.size(), 2u);
  ASSERT_EQ(a_frames.back().type, ResponseFrame::Type::kError);
  EXPECT_EQ(a_frames.back().error.code, ErrorCode::kCancelled);

  const StatsFrame stats = server.stats();
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.accepted, 2u);
}

TEST(ServerAdmissionTest, QueuedRequestRunsOnceAWorkerFrees) {
  // Same single-worker setup, but the queued request is allowed to run:
  // once A is cancelled the worker must pick B up and finish it
  // normally — admission defers work, it must not lose it.
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;

  ChaseRequest a = MakeChase("a", kInfiniteProgram);
  a.events = true;
  ChaseRequest b = MakeChase("b", "P(a).\nP(x) -> Q(x).\n");
  b.payload = true;
  GatedTransport transport;
  transport.Push(SerializeRequest(a));
  transport.Push(SerializeRequest(b), SawEvent("a"));
  transport.Push(SerializeCancel("a"), SawAck("b"));

  Server server(options);
  server.Serve(&transport);
  auto frames = transport.frames();

  auto b_frames = FramesFor(frames, "b");
  ASSERT_EQ(b_frames.size(), 2u);
  ASSERT_EQ(b_frames[1].type, ResponseFrame::Type::kResult);
  EXPECT_EQ(b_frames[1].result.outcome, "terminated");
  EXPECT_EQ(b_frames[1].result.payload, "P(a)\nQ(a)\n");
  EXPECT_EQ(server.stats().completed, 1u);
}

/// One live TCP server for the concurrency matrix.
struct LiveServer {
  explicit LiveServer(const ServerOptions& options) : server(options) {
    auto bound = TcpListener::Bind(0);
    EXPECT_TRUE(bound.ok());
    listener = std::make_unique<TcpListener>(std::move(*bound));
    thread = std::thread([this] { listener->Run(&server); });
  }
  ~LiveServer() {
    listener->Stop();
    thread.join();
  }
  Server server;
  std::unique_ptr<TcpListener> listener;
  std::thread thread;
};

TEST(ServerTcpTest, DeterministicPayloadsAcrossTheConcurrencyMatrix) {
  const std::string rules = ChainProgram(12);
  auto program = api::Program::Parse(rules);
  ASSERT_TRUE(program.ok());
  auto reference = api::Session(*program).Chase();
  ASSERT_TRUE(reference.ok());
  const std::string expected = reference->ToSortedString();
  ASSERT_FALSE(expected.empty());

  // Every scheduler width: every payload from every client must equal
  // the direct api::Session answer, byte for byte.
  for (unsigned workers : {1u, 4u}) {
    ServerOptions options;
    options.max_inflight = workers;
    LiveServer live(options);
    constexpr int kClients = 4;
    constexpr int kRequests = 3;
    std::vector<std::string> mismatches(kClients);
    std::vector<std::thread> pool;
    for (int c = 0; c < kClients; ++c) {
      pool.emplace_back([&, c] {
        auto client = Client::Connect(live.listener->port());
        if (!client.ok()) {
          mismatches[c] = client.status().ToString();
          return;
        }
        for (int r = 0; r < kRequests; ++r) {
          ChaseRequest request = MakeChase(
              "c" + std::to_string(c) + "-" + std::to_string(r), rules);
          request.payload = true;
          auto outcome = client->RunChase(request);
          if (!outcome.ok() || !outcome->ok) {
            mismatches[c] = "request failed";
            return;
          }
          if (outcome->result.payload != expected) {
            mismatches[c] = "payload diverged";
            return;
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(mismatches[c], "")
          << "client " << c << " at workers=" << workers;
    }
  }
}

TEST(ServerTcpTest, PingStatsAndCancelOverTcp) {
  ServerOptions options;
  LiveServer live(options);
  auto client = Client::Connect(live.listener->port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client->Send(SerializePing()).ok());
  auto pong = client->ReadFrame();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, ResponseFrame::Type::kPong);

  // Park an infinite chase, cancel it from the same connection.
  ChaseRequest chase = MakeChase("park", kInfiniteProgram);
  ASSERT_TRUE(client->Send(SerializeRequest(chase)).ok());
  auto ack = client->ReadFrame();
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->type, ResponseFrame::Type::kAck);
  ASSERT_TRUE(client->Send(SerializeCancel("park")).ok());
  auto terminal = client->ReadFrame();
  ASSERT_TRUE(terminal.ok());
  ASSERT_EQ(terminal->type, ResponseFrame::Type::kError);
  EXPECT_EQ(terminal->error.code, ErrorCode::kCancelled);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cancelled, 1u);
  EXPECT_EQ(stats->accepted, 1u);
}

}  // namespace
}  // namespace server
}  // namespace nuchase
