// serve-mixed: two closed-loop server::Client threads against an
// in-process server::Server on a loopback TcpListener.
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nuchase/nuchase.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace nuchase;

/// Timed set-ups before the loop and again after it (a second server
/// would compete with the one under load, so none run during it).
constexpr int kSetUpsEachSide = 40;
constexpr unsigned kClients = 2;
constexpr std::size_t kFixedTexts = 4;
/// Distinct cold texts, cycled in order. Far more than the cache's 64
/// entries, so a cold text has always been evicted before it returns:
/// every cold request misses.
constexpr std::size_t kColdTexts = 256;
/// Share of requests sent with a cold text, in percent.
constexpr std::uint64_t kColdPercent = 25;

/// A transitive-closure program over a chain of `edges` edges whose
/// constants carry `tag`.
std::string ChainProgram(const std::string& tag, std::uint64_t edges) {
  std::string text;
  for (std::uint64_t i = 0; i < edges; ++i) {
    text += "E(" + tag + std::to_string(i) + ", " + tag +
            std::to_string(i + 1) + ").\n";
  }
  text += "E(x, y) -> T(x, y).\n";
  text += "T(x, y), E(y, z) -> T(x, z).\n";
  return text;
}

/// A program text with the payload the direct api::Session answers.
struct Request {
  std::string text;
  std::string payload;
  std::optional<api::Program> program;  ///< Kept for the overhead probe.
};

/// Parses and chases `text` directly; a traced run spans the parse (the
/// work a cache miss costs the server).
Request WithReference(std::string text, Tracer* tracer, std::uint64_t op) {
  Request request;
  request.text = std::move(text);
  util::StatusOr<api::Program> program = util::Status::Internal("");
  {
    ScopedSpan span(tracer, "api.program_parse", -1, op);
    program = api::Program::Parse(request.text);
  }
  if (!program.ok()) Fatal("Program::Parse: " + program.status().ToString());
  auto run = api::Session(*program, api::SessionOptions().set_num_threads(1))
                 .Chase();
  if (!run.ok() || !run->Terminated()) Fatal("reference chase failed");
  request.payload = run->ToSortedString();
  request.program = std::move(*program);
  return request;
}

/// A running server on an ephemeral loopback port. Destroying it stops
/// the accept loop and joins it; connected clients must be gone first.
class LiveServer {
 public:
  explicit LiveServer(const server::ServerOptions& options)
      : server_(options) {
    auto bound = server::TcpListener::Bind(0);
    if (!bound.ok()) Fatal("bind: " + bound.status().ToString());
    listener_.emplace(std::move(*bound));
    thread_ = std::thread([this] { listener_->Run(&server_); });
  }
  ~LiveServer() {
    listener_->Stop();
    thread_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  int port() const { return listener_->port(); }
  server::Server& server() { return server_; }

 private:
  server::Server server_;
  std::optional<server::TcpListener> listener_;
  std::thread thread_;
};

server::Client Connect(int port) {
  auto client = server::Client::Connect(port);
  if (!client.ok()) Fatal("connect: " + client.status().ToString());
  return std::move(*client);
}

void Ping(server::Client* client) {
  if (!client->Send(server::SerializePing()).ok()) Fatal("ping: send failed");
  auto frame = client->ReadFrame();
  if (!frame.ok() || frame->type != server::ResponseFrame::Type::kPong) {
    Fatal("ping: no pong");
  }
}

/// What one request saw on the wire.
struct Exchange {
  bool ok = false;
  bool broken = false;  ///< The connection is unusable afterwards.
  Clock::time_point send, ack, end;
  std::size_t response_bytes = 0;
};

Exchange RunRequest(server::Client* client, const std::string& id,
                    const Request& request) {
  server::ChaseRequest chase;
  chase.id = id;
  chase.rules = request.text;
  chase.payload = true;
  const std::string line = server::SerializeRequest(chase);
  Exchange out;
  out.send = Clock::now();
  out.ack = out.send;
  if (!client->Send(line).ok()) {
    out.broken = true;
    out.end = Clock::now();
    return out;
  }
  while (true) {
    auto frame = client->ReadFrame();
    if (!frame.ok()) {
      out.broken = true;
      out.end = Clock::now();
      return out;
    }
    switch (frame->type) {
      case server::ResponseFrame::Type::kAck:
        out.ack = Clock::now();
        continue;
      case server::ResponseFrame::Type::kEvent:
        continue;
      case server::ResponseFrame::Type::kResult:
        out.end = Clock::now();
        out.ok = frame->result.id == id && frame->result.has_payload &&
                 frame->result.payload == request.payload;
        out.response_bytes = server::Serialize(frame->result).size() + 1;
        return out;
      default:  // error (overloaded included) or a stray frame
        out.end = Clock::now();
        return out;
    }
  }
}

}  // namespace

Result RunServeMixed(const Config& config, Tracer* tracer) {
  Result result(1);
  server::ServerOptions options;
  options.max_inflight = 2;
  options.default_threads = 1;
  options.cache_size = 64;

  // Set-up: server construction, bind, accept loop, first ping.
  std::unique_ptr<LiveServer> live;
  std::optional<server::Client> first;
  auto set_up = [&] {
    first.reset();
    live.reset();
    const std::uint64_t op = kSetupOpBase + result.setup_s.size();
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan setup(tracer, "setup", -1, op);
      live = std::make_unique<LiveServer>(options);
      first.emplace(Connect(live->port()));
      Ping(&*first);
    }
    result.setup_s.push_back(SecondsSince(start));
  };
  for (int rep = 0; rep < kSetUpsEachSide; ++rep) set_up();

  // Fixed-width tags, so the texts have the same length for every seed.
  char seed_tag[16];
  std::snprintf(seed_tag, sizeof(seed_tag), "%08x", config.seed);
  // Reference answers, outside the timed set-up.
  std::uint64_t ref_op = kSetupOpBase / 2;
  std::vector<Request> fixed;
  for (std::size_t k = 0; k < kFixedTexts; ++k) {
    const std::string tag =
        "f" + std::string(seed_tag) + "_" + std::to_string(k) + "_";
    fixed.push_back(
        WithReference(ChainProgram(tag, 40 + k), NoTracer(), ref_op++));
  }
  std::vector<Request> cold;
  for (std::size_t n = 0; n < kColdTexts; ++n) {
    char tag[32];
    std::snprintf(tag, sizeof(tag), "u%s_%03zu_", seed_tag, n);
    cold.push_back(
        WithReference(ChainProgram(tag, 40 + n % 4), tracer, ref_op++));
    cold.back().program.reset();
  }

  std::vector<server::Client> clients;
  clients.push_back(std::move(*first));
  first.reset();
  while (clients.size() < kClients) clients.push_back(Connect(live->port()));

  // Both clients share the phase boundaries.
  const double warmup = WarmupSeconds(config.seconds);
  const Clock::time_point warm_start = Clock::now();
  const Clock::time_point timed_start =
      warm_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(warmup));
  const Clock::time_point timed_end =
      timed_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(config.seconds));

  std::atomic<std::uint64_t> next_op{0};
  std::atomic<std::uint64_t> next_cold{0};
  std::atomic<bool> broken{false};
  // Per client: (op id, 0 = hit text / 1 = cold text) and response sizes.
  std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> kinds(
      kClients);
  std::vector<std::vector<double>> response_bytes(kClients);
  OpLog warm_log(1);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(config.seed * 1000003ull + c);
      while (true) {
        const Clock::time_point now = Clock::now();
        if (now >= timed_end || broken.load()) return;
        const bool timed = now >= timed_start;
        Tracer* t = timed ? tracer : NoTracer();
        const std::uint64_t op = next_op.fetch_add(1);
        const bool is_cold = rng.Below(100) < kColdPercent;
        const Request& request =
            is_cold ? cold[next_cold.fetch_add(1) % kColdTexts]
                    : fixed[rng.Below(kFixedTexts)];
        Exchange ex =
            RunRequest(&clients[c], "r" + std::to_string(op), request);
        (timed ? &result.log : &warm_log)->Record(0, ex.send, ex.end, ex.ok);
        if (ex.broken) broken.store(true);
        if (!t->enabled()) continue;
        kinds[c].emplace_back(op, is_cold ? 1 : 0);
        response_bytes[c].push_back(static_cast<double>(ex.response_bytes));
        const int root = t->Add("op", ex.send, ex.end, -1, op);
        t->Add("server.admit", ex.send, ex.ack, root, op);
        t->Add("server.ack_to_result", ex.ack, ex.end, root, op);
        if (!is_cold) {
          // The same chase, called directly: what the server adds.
          ScopedSpan span(t, "direct.chase", -1, op);
          auto run = api::Session(*request.program,
                                  api::SessionOptions().set_num_threads(1))
                         .Chase();
          if (!run.ok()) broken.store(true);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const server::StatsFrame stats = live->server().stats();
  clients.clear();
  for (int rep = 0; rep < kSetUpsEachSide; ++rep) set_up();
  first.reset();
  live.reset();

  result.detail.emplace_back("fixed_texts", kFixedTexts);
  result.detail.emplace_back("cold_texts", kColdTexts);
  result.detail.emplace_back("fixed_payload_bytes", fixed[0].payload.size());
  if (!tracer->enabled()) return result;

  std::vector<std::size_t> kind_of_op(next_op.load(), 0);
  for (const auto& client_kinds : kinds) {
    for (const auto& [op, kind] : client_kinds) kind_of_op[op] = kind;
  }
  std::vector<double> all_bytes;
  for (const auto& bytes : response_bytes) {
    all_bytes.insert(all_bytes.end(), bytes.begin(), bytes.end());
  }
  std::vector<double> hit_ack_to_result;
  for (const Span& s : tracer->Named("server.ack_to_result")) {
    if (kind_of_op[s.op] == 0) hit_ack_to_result.push_back(s.Ms());
  }

  auto add = [&](const char* name, double value, const char* unit) {
    result.layer.push_back({name, value, unit});
  };
  auto median_ms = [&](const char* span) { return MedianMs(*tracer, span); };
  const double hits = static_cast<double>(stats.cache_hits);
  const double misses = static_cast<double>(stats.cache_misses);
  add("api.program_parse_ms", median_ms("api.program_parse"), "ms");
  add("server.admit_ms", median_ms("server.admit"), "ms");
  add("server.ack_to_result_ms", median_ms("server.ack_to_result"), "ms");
  add("server.overhead_ms",
      Median(std::move(hit_ack_to_result)) - median_ms("direct.chase"), "ms");
  add("server.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  add("server.cache_evictions", static_cast<double>(stats.cache_evictions),
      "count");
  add("server.programs_parsed", static_cast<double>(stats.programs_parsed),
      "count");
  add("server.rejected_overload",
      static_cast<double>(stats.rejected_overload), "count");
  add("server.max_overlap", static_cast<double>(stats.max_overlap), "count");
  add("server.response_bytes", Median(std::move(all_bytes)), "B");
  std::vector<double> latencies;
  for (const Span& s : tracer->Named("op")) latencies.push_back(s.Ms());
  add("server.latency_p99_ms", Quantile(std::move(latencies), 0.99), "ms");
  add("op.self_ms", Median(tracer->SelfMs("op")), "ms");
  // The server chases, but inside its own threads: no chase span here.
  result.unmeasured = {"api.program_create_ms", "chase.", "core.", "pool.",
                       "rewrite.", "graph.", "termination."};
  return result;
}

}  // namespace perfbench
