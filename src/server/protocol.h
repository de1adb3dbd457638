#ifndef NUCHASE_SERVER_PROTOCOL_H_
#define NUCHASE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "util/status.h"

namespace nuchase {
namespace server {

/// The nuchase_server wire protocol: newline-delimited JSON, one frame
/// per line, every frame an object whose `type` member names its kind.
/// Requests flow client -> server, responses server -> client; the
/// server may interleave responses of different requests (frames carry
/// the request `id` they belong to). The full frame and error-code
/// catalog below is mirrored section for section by docs/server.md —
/// tests/server_frames_in_docs.cmake fails the suite when they drift —
/// and is append-only, like the analysis diagnostic catalog.

/// Typed rejection/abort codes carried by error frames. Order is the
/// catalog order `--list-frames` prints; append only.
enum class ErrorCode {
  kMalformedFrame,     ///< Not valid frame JSON / missing required field.
  kUnknownType,        ///< `type` names no request frame.
  kUnknownField,       ///< A member no frame of this type defines.
  kOversizedFrame,     ///< Line longer than the server's line cap.
  kInvalidProgram,     ///< Rule text failed api::Program::Parse.
  kInvalidOptions,     ///< Option field with an unusable value.
  kOverloaded,         ///< Admission control: the request queue is full.
  kDuplicateId,        ///< A live request with this id already exists.
  kUnknownId,          ///< cancel names no live request.
  kCancelled,          ///< Aborted by a cancel frame.
  kDeadlineExceeded,   ///< The per-request deadline elapsed.
  kResourceExhausted,  ///< The chase exhausted a hard id space.
  kInternal,           ///< Server bug; never expected on the wire.
};

/// Stable wire name ("malformed-frame", "overloaded", ...).
const char* ErrorCodeName(ErrorCode code);

/// --- Request frames (client -> server) ---

/// `chase`: run a chase of the submitted program. Budget fields left at
/// 0 mean "server default". The wire member `threads` (0-256) is still
/// accepted, so that older clients keep working, and has no effect: the
/// chase has one serial code path.
struct ChaseRequest {
  std::string id;     ///< Client-chosen correlation id; required.
  std::string rules;  ///< Program text (rules + facts); required.
  chase::ChaseVariant variant = chase::ChaseVariant::kSemiOblivious;
  std::uint64_t max_atoms = 0;
  std::uint32_t max_depth = 0;
  std::uint64_t max_rounds = 0;
  std::uint64_t deadline_ms = 0;
  bool payload = false;  ///< Include the sorted instance in the result.
  bool events = false;   ///< Stream per-round event frames.
};

/// `cancel`: abort a live (queued or running) request by id.
struct CancelRequest {
  std::string id;
};

/// `stats`: snapshot the server counters. `ping`: liveness probe.
struct RequestFrame {
  enum class Type { kChase, kCancel, kStats, kPing };
  Type type = Type::kPing;
  ChaseRequest chase;
  CancelRequest cancel;
};

/// The outcome of parsing one request line: either a frame, or the
/// typed error frame the server must answer with (the connection always
/// survives a rejected line). `id` is recovered from the line when
/// possible so the error can be correlated.
struct RequestParse {
  bool ok = false;
  RequestFrame frame;
  ErrorCode code = ErrorCode::kMalformedFrame;
  std::string message;
  std::string id;
};

RequestParse ParseRequest(const std::string& line);

std::string SerializeRequest(const ChaseRequest& request);
std::string SerializeCancel(const std::string& id);
std::string SerializeStatsRequest();
std::string SerializePing();

/// --- Response frames (server -> client) ---

/// `ack`: the chase request was admitted (queued or started).
struct AckFrame {
  std::string id;
};

/// `event`: round progress of a running chase (mirrors
/// chase::RoundProgress), streamed before the result when the request
/// set `events`.
struct EventFrame {
  std::string id;
  std::uint64_t round = 0;
  std::uint64_t atoms = 0;
  std::uint64_t delta_atoms = 0;
  std::uint64_t triggers_fired = 0;
};

/// `result`: terminal success frame of a chase request. Every field is
/// engine-deterministic (byte-identical across thread counts and
/// concurrent load); timing lives client-side on purpose.
struct ResultFrame {
  std::string id;
  std::string outcome;  ///< chase::ChaseOutcomeName of the run.
  bool cached = false;  ///< Program came from the parse cache.
  std::uint64_t atoms = 0;
  std::uint64_t rounds = 0;
  std::uint64_t triggers_fired = 0;
  std::uint32_t max_depth = 0;
  std::uint64_t arena_bytes = 0;
  bool has_payload = false;
  std::string payload;  ///< Sorted instance rendering when requested.
};

/// `error`: terminal failure frame (or rejection of an unparseable
/// line, with an empty id when none could be recovered).
struct ErrorFrame {
  std::string id;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// `stats`: server counter snapshot.
struct StatsFrame {
  std::uint64_t programs_parsed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t max_overlap = 0;  ///< Peak concurrently-running chases.
  std::uint64_t inflight = 0;
  std::uint64_t queued = 0;
};

/// `pong`: answer to ping.
struct PongFrame {};

std::string Serialize(const AckFrame& frame);
std::string Serialize(const EventFrame& frame);
std::string Serialize(const ResultFrame& frame);
std::string Serialize(const ErrorFrame& frame);
std::string Serialize(const StatsFrame& frame);
std::string Serialize(const PongFrame& frame);

/// A parsed response frame (the client half of the protocol:
/// nuchase_loadgen and the test suites consume these).
struct ResponseFrame {
  enum class Type { kAck, kEvent, kResult, kError, kStats, kPong };
  Type type = Type::kPong;
  AckFrame ack;
  EventFrame event;
  ResultFrame result;
  ErrorFrame error;
  StatsFrame stats;
};

util::StatusOr<ResponseFrame> ParseResponse(const std::string& line);

/// One catalog row of `--list-frames`: kind is "request", "response" or
/// "error-code"; name the stable wire name.
struct FrameSpec {
  const char* kind;
  const char* name;
  const char* summary;
};

/// The full wire catalog, in documentation order (requests, responses,
/// error codes). Append-only; docs/server.md mirrors it one section or
/// table row per entry.
const std::vector<FrameSpec>& FrameCatalog();

}  // namespace server
}  // namespace nuchase

#endif  // NUCHASE_SERVER_PROTOCOL_H_
