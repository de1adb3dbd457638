#include "server/protocol.h"

#include <initializer_list>

#include "server/json.h"

namespace nuchase {
namespace server {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kUnknownType: return "unknown-type";
    case ErrorCode::kUnknownField: return "unknown-field";
    case ErrorCode::kOversizedFrame: return "oversized-frame";
    case ErrorCode::kInvalidProgram: return "invalid-program";
    case ErrorCode::kInvalidOptions: return "invalid-options";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDuplicateId: return "duplicate-id";
    case ErrorCode::kUnknownId: return "unknown-id";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kResourceExhausted: return "resource-exhausted";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

namespace {

RequestParse Reject(ErrorCode code, std::string message, std::string id) {
  RequestParse out;
  out.ok = false;
  out.code = code;
  out.message = std::move(message);
  out.id = std::move(id);
  return out;
}

/// Reads a string member into `*out`; false (with a rejection filled
/// into `*reject`) when present with a non-string value.
bool ReadString(const JsonValue& frame, const char* key, std::string* out,
                const std::string& id, RequestParse* reject) {
  const JsonValue* v = frame.Find(key);
  if (v == nullptr) return true;
  if (!v->is_string()) {
    *reject = Reject(ErrorCode::kMalformedFrame,
                     std::string("'") + key + "' must be a string", id);
    return false;
  }
  *out = v->string();
  return true;
}

bool ReadNumber(const JsonValue& frame, const char* key,
                std::uint64_t max, std::uint64_t* out,
                const std::string& id, RequestParse* reject) {
  const JsonValue* v = frame.Find(key);
  if (v == nullptr) return true;
  if (!v->is_number() || v->number() > max) {
    *reject = Reject(ErrorCode::kInvalidOptions,
                     std::string("'") + key +
                         "' must be an unsigned integer at most " +
                         std::to_string(max),
                     id);
    return false;
  }
  *out = v->number();
  return true;
}

bool ReadBool(const JsonValue& frame, const char* key, bool* out,
              const std::string& id, RequestParse* reject) {
  const JsonValue* v = frame.Find(key);
  if (v == nullptr) return true;
  if (!v->is_bool()) {
    *reject = Reject(ErrorCode::kInvalidOptions,
                     std::string("'") + key + "' must be a boolean", id);
    return false;
  }
  *out = v->bool_value();
  return true;
}

/// Every member must be in `allowed` (unknown fields are a typed
/// rejection, so a typo'd option can never be silently ignored).
bool CheckFields(const JsonValue& frame,
                 std::initializer_list<const char*> allowed,
                 const std::string& id, RequestParse* reject) {
  for (const auto& member : frame.object()) {
    bool known = false;
    for (const char* name : allowed) {
      if (member.first == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      *reject = Reject(ErrorCode::kUnknownField,
                       "unknown field '" + member.first + "'", id);
      return false;
    }
  }
  return true;
}

}  // namespace

RequestParse ParseRequest(const std::string& line) {
  auto parsed = ParseJson(line);
  if (!parsed.ok()) {
    return Reject(ErrorCode::kMalformedFrame, parsed.status().message(),
                  "");
  }
  if (!parsed->is_object()) {
    return Reject(ErrorCode::kMalformedFrame, "frame must be an object",
                  "");
  }
  // Recover the id first so every later rejection can carry it.
  std::string id;
  const JsonValue* id_value = parsed->Find("id");
  if (id_value != nullptr && id_value->is_string()) id = id_value->string();

  const JsonValue* type = parsed->Find("type");
  if (type == nullptr || !type->is_string()) {
    return Reject(ErrorCode::kMalformedFrame,
                  "frame needs a string 'type'", id);
  }

  RequestParse out;
  RequestFrame& frame = out.frame;
  if (type->string() == "chase") {
    frame.type = RequestFrame::Type::kChase;
    ChaseRequest& req = frame.chase;
    if (!CheckFields(*parsed,
                     {"type", "id", "rules", "variant", "max_atoms",
                      "max_depth", "max_rounds", "deadline_ms", "threads",
                      "payload", "events"},
                     id, &out)) {
      return out;
    }
    if (!ReadString(*parsed, "id", &req.id, id, &out) ||
        !ReadString(*parsed, "rules", &req.rules, id, &out)) {
      return out;
    }
    if (req.id.empty()) {
      return Reject(ErrorCode::kMalformedFrame,
                    "chase needs a non-empty string 'id'", id);
    }
    if (req.rules.empty()) {
      return Reject(ErrorCode::kMalformedFrame,
                    "chase needs a non-empty string 'rules'", id);
    }
    std::string variant;
    if (!ReadString(*parsed, "variant", &variant, id, &out)) return out;
    if (variant == "" || variant == "semi-oblivious") {
      req.variant = chase::ChaseVariant::kSemiOblivious;
    } else if (variant == "oblivious") {
      req.variant = chase::ChaseVariant::kOblivious;
    } else if (variant == "restricted") {
      req.variant = chase::ChaseVariant::kRestricted;
    } else {
      return Reject(ErrorCode::kInvalidOptions,
                    "unknown variant '" + variant + "'", id);
    }
    std::uint64_t n = 0;
    if (!ReadNumber(*parsed, "max_atoms", 0xffffffffffffffffULL,
                    &req.max_atoms, id, &out)) {
      return out;
    }
    n = 0;
    if (!ReadNumber(*parsed, "max_depth", 0xffffffffULL, &n, id, &out)) {
      return out;
    }
    req.max_depth = static_cast<std::uint32_t>(n);
    if (!ReadNumber(*parsed, "max_rounds", 0xffffffffffffffffULL,
                    &req.max_rounds, id, &out) ||
        !ReadNumber(*parsed, "deadline_ms", 0xffffffffffffffffULL,
                    &req.deadline_ms, id, &out)) {
      return out;
    }
    // Accepted for older clients and ignored; still range-checked.
    if (!ReadNumber(*parsed, "threads", 256, &n, id, &out)) return out;
    if (!ReadBool(*parsed, "payload", &req.payload, id, &out) ||
        !ReadBool(*parsed, "events", &req.events, id, &out)) {
      return out;
    }
    out.ok = true;
    out.id = req.id;
    return out;
  }
  if (type->string() == "cancel") {
    frame.type = RequestFrame::Type::kCancel;
    if (!CheckFields(*parsed, {"type", "id"}, id, &out)) return out;
    if (!ReadString(*parsed, "id", &frame.cancel.id, id, &out)) return out;
    if (frame.cancel.id.empty()) {
      return Reject(ErrorCode::kMalformedFrame,
                    "cancel needs a non-empty string 'id'", id);
    }
    out.ok = true;
    out.id = frame.cancel.id;
    return out;
  }
  if (type->string() == "stats") {
    frame.type = RequestFrame::Type::kStats;
    if (!CheckFields(*parsed, {"type"}, id, &out)) return out;
    out.ok = true;
    return out;
  }
  if (type->string() == "ping") {
    frame.type = RequestFrame::Type::kPing;
    if (!CheckFields(*parsed, {"type"}, id, &out)) return out;
    out.ok = true;
    return out;
  }
  return Reject(ErrorCode::kUnknownType,
                "unknown frame type '" + type->string() + "'", id);
}

namespace {

void AppendMember(std::string* out, const char* key,
                  const std::string& value, bool* first) {
  *out += *first ? "{" : ",";
  *first = false;
  AppendJsonString(out, key);
  *out += ":";
  AppendJsonString(out, value);
}

void AppendMember(std::string* out, const char* key, std::uint64_t value,
                  bool* first) {
  *out += *first ? "{" : ",";
  *first = false;
  AppendJsonString(out, key);
  *out += ":";
  *out += std::to_string(value);
}

void AppendMember(std::string* out, const char* key, bool value,
                  bool* first) {
  *out += *first ? "{" : ",";
  *first = false;
  AppendJsonString(out, key);
  *out += value ? ":true" : ":false";
}

}  // namespace

std::string SerializeRequest(const ChaseRequest& request) {
  std::string out;
  bool first = true;
  AppendMember(&out, "type", std::string("chase"), &first);
  AppendMember(&out, "id", request.id, &first);
  AppendMember(&out, "rules", request.rules, &first);
  if (request.variant != chase::ChaseVariant::kSemiOblivious) {
    AppendMember(&out, "variant",
                 std::string(chase::ChaseVariantName(request.variant)),
                 &first);
  }
  if (request.max_atoms) {
    AppendMember(&out, "max_atoms", request.max_atoms, &first);
  }
  if (request.max_depth) {
    AppendMember(&out, "max_depth",
                 static_cast<std::uint64_t>(request.max_depth), &first);
  }
  if (request.max_rounds) {
    AppendMember(&out, "max_rounds", request.max_rounds, &first);
  }
  if (request.deadline_ms) {
    AppendMember(&out, "deadline_ms", request.deadline_ms, &first);
  }
  if (request.payload) AppendMember(&out, "payload", true, &first);
  if (request.events) AppendMember(&out, "events", true, &first);
  out += "}";
  return out;
}

std::string SerializeCancel(const std::string& id) {
  std::string out;
  bool first = true;
  AppendMember(&out, "type", std::string("cancel"), &first);
  AppendMember(&out, "id", id, &first);
  out += "}";
  return out;
}

std::string SerializeStatsRequest() { return "{\"type\":\"stats\"}"; }

std::string SerializePing() { return "{\"type\":\"ping\"}"; }

std::string Serialize(const AckFrame& frame) {
  std::string out;
  bool first = true;
  AppendMember(&out, "type", std::string("ack"), &first);
  AppendMember(&out, "id", frame.id, &first);
  out += "}";
  return out;
}

std::string Serialize(const EventFrame& frame) {
  std::string out;
  bool first = true;
  AppendMember(&out, "type", std::string("event"), &first);
  AppendMember(&out, "id", frame.id, &first);
  AppendMember(&out, "round", frame.round, &first);
  AppendMember(&out, "atoms", frame.atoms, &first);
  AppendMember(&out, "delta_atoms", frame.delta_atoms, &first);
  AppendMember(&out, "triggers_fired", frame.triggers_fired, &first);
  out += "}";
  return out;
}

std::string Serialize(const ResultFrame& frame) {
  std::string out;
  bool first = true;
  AppendMember(&out, "type", std::string("result"), &first);
  AppendMember(&out, "id", frame.id, &first);
  AppendMember(&out, "outcome", frame.outcome, &first);
  AppendMember(&out, "cached", frame.cached, &first);
  AppendMember(&out, "atoms", frame.atoms, &first);
  AppendMember(&out, "rounds", frame.rounds, &first);
  AppendMember(&out, "triggers_fired", frame.triggers_fired, &first);
  AppendMember(&out, "max_depth",
               static_cast<std::uint64_t>(frame.max_depth), &first);
  AppendMember(&out, "arena_bytes", frame.arena_bytes, &first);
  if (frame.has_payload) {
    AppendMember(&out, "payload", frame.payload, &first);
  }
  out += "}";
  return out;
}

std::string Serialize(const ErrorFrame& frame) {
  std::string out;
  bool first = true;
  AppendMember(&out, "type", std::string("error"), &first);
  if (!frame.id.empty()) AppendMember(&out, "id", frame.id, &first);
  AppendMember(&out, "code", std::string(ErrorCodeName(frame.code)),
               &first);
  if (!frame.message.empty()) {
    AppendMember(&out, "message", frame.message, &first);
  }
  out += "}";
  return out;
}

std::string Serialize(const StatsFrame& frame) {
  std::string out;
  bool first = true;
  AppendMember(&out, "type", std::string("stats"), &first);
  AppendMember(&out, "programs_parsed", frame.programs_parsed, &first);
  AppendMember(&out, "cache_hits", frame.cache_hits, &first);
  AppendMember(&out, "cache_misses", frame.cache_misses, &first);
  AppendMember(&out, "cache_evictions", frame.cache_evictions, &first);
  AppendMember(&out, "cache_entries", frame.cache_entries, &first);
  AppendMember(&out, "accepted", frame.accepted, &first);
  AppendMember(&out, "completed", frame.completed, &first);
  AppendMember(&out, "rejected_overload", frame.rejected_overload,
               &first);
  AppendMember(&out, "cancelled", frame.cancelled, &first);
  AppendMember(&out, "deadline_exceeded", frame.deadline_exceeded,
               &first);
  AppendMember(&out, "max_overlap", frame.max_overlap, &first);
  AppendMember(&out, "inflight", frame.inflight, &first);
  AppendMember(&out, "queued", frame.queued, &first);
  out += "}";
  return out;
}

std::string Serialize(const PongFrame&) { return "{\"type\":\"pong\"}"; }

namespace {

util::Status ResponseError(const std::string& what) {
  return util::Status::InvalidArgument("response frame: " + what);
}

std::uint64_t NumberOr(const JsonValue& frame, const char* key,
                       std::uint64_t fallback) {
  const JsonValue* v = frame.Find(key);
  return v != nullptr && v->is_number() ? v->number() : fallback;
}

std::string StringOr(const JsonValue& frame, const char* key) {
  const JsonValue* v = frame.Find(key);
  return v != nullptr && v->is_string() ? v->string() : std::string();
}

bool BoolOr(const JsonValue& frame, const char* key, bool fallback) {
  const JsonValue* v = frame.Find(key);
  return v != nullptr && v->is_bool() ? v->bool_value() : fallback;
}

}  // namespace

util::StatusOr<ResponseFrame> ParseResponse(const std::string& line) {
  auto parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) return ResponseError("not an object");
  const JsonValue* type = parsed->Find("type");
  if (type == nullptr || !type->is_string()) {
    return ResponseError("missing string 'type'");
  }

  ResponseFrame out;
  if (type->string() == "ack") {
    out.type = ResponseFrame::Type::kAck;
    out.ack.id = StringOr(*parsed, "id");
    return out;
  }
  if (type->string() == "event") {
    out.type = ResponseFrame::Type::kEvent;
    out.event.id = StringOr(*parsed, "id");
    out.event.round = NumberOr(*parsed, "round", 0);
    out.event.atoms = NumberOr(*parsed, "atoms", 0);
    out.event.delta_atoms = NumberOr(*parsed, "delta_atoms", 0);
    out.event.triggers_fired = NumberOr(*parsed, "triggers_fired", 0);
    return out;
  }
  if (type->string() == "result") {
    out.type = ResponseFrame::Type::kResult;
    out.result.id = StringOr(*parsed, "id");
    out.result.outcome = StringOr(*parsed, "outcome");
    out.result.cached = BoolOr(*parsed, "cached", false);
    out.result.atoms = NumberOr(*parsed, "atoms", 0);
    out.result.rounds = NumberOr(*parsed, "rounds", 0);
    out.result.triggers_fired = NumberOr(*parsed, "triggers_fired", 0);
    out.result.max_depth = static_cast<std::uint32_t>(
        NumberOr(*parsed, "max_depth", 0));
    out.result.arena_bytes = NumberOr(*parsed, "arena_bytes", 0);
    const JsonValue* payload = parsed->Find("payload");
    if (payload != nullptr && payload->is_string()) {
      out.result.has_payload = true;
      out.result.payload = payload->string();
    }
    return out;
  }
  if (type->string() == "error") {
    out.type = ResponseFrame::Type::kError;
    out.error.id = StringOr(*parsed, "id");
    out.error.message = StringOr(*parsed, "message");
    std::string code = StringOr(*parsed, "code");
    bool known = false;
    for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
      if (code == ErrorCodeName(static_cast<ErrorCode>(c))) {
        out.error.code = static_cast<ErrorCode>(c);
        known = true;
        break;
      }
    }
    if (!known) return ResponseError("unknown error code '" + code + "'");
    return out;
  }
  if (type->string() == "pong") {
    out.type = ResponseFrame::Type::kPong;
    return out;
  }
  if (type->string() == "stats") {
    out.type = ResponseFrame::Type::kStats;
    StatsFrame& s = out.stats;
    s.programs_parsed = NumberOr(*parsed, "programs_parsed", 0);
    s.cache_hits = NumberOr(*parsed, "cache_hits", 0);
    s.cache_misses = NumberOr(*parsed, "cache_misses", 0);
    s.cache_evictions = NumberOr(*parsed, "cache_evictions", 0);
    s.cache_entries = NumberOr(*parsed, "cache_entries", 0);
    s.accepted = NumberOr(*parsed, "accepted", 0);
    s.completed = NumberOr(*parsed, "completed", 0);
    s.rejected_overload = NumberOr(*parsed, "rejected_overload", 0);
    s.cancelled = NumberOr(*parsed, "cancelled", 0);
    s.deadline_exceeded = NumberOr(*parsed, "deadline_exceeded", 0);
    s.max_overlap = NumberOr(*parsed, "max_overlap", 0);
    s.inflight = NumberOr(*parsed, "inflight", 0);
    s.queued = NumberOr(*parsed, "queued", 0);
    return out;
  }
  return ResponseError("unknown type '" + type->string() + "'");
}

const std::vector<FrameSpec>& FrameCatalog() {
  static const std::vector<FrameSpec>* catalog = new std::vector<FrameSpec>{
      {"request", "chase", "run a chase of the submitted program"},
      {"request", "cancel", "abort a live request by id"},
      {"request", "stats", "snapshot the server counters"},
      {"request", "ping", "liveness probe"},
      {"response", "ack", "chase request admitted"},
      {"response", "event", "round progress of a running chase"},
      {"response", "result", "terminal success frame of a chase"},
      {"response", "error", "typed rejection or abort"},
      {"response", "stats", "server counter snapshot"},
      {"response", "pong", "answer to ping"},
      {"error-code", "malformed-frame",
       "not valid frame JSON / missing required field"},
      {"error-code", "unknown-type", "type names no request frame"},
      {"error-code", "unknown-field",
       "a member no frame of this type defines"},
      {"error-code", "oversized-frame",
       "line longer than the server's line cap"},
      {"error-code", "invalid-program",
       "rule text failed api::Program::Parse"},
      {"error-code", "invalid-options",
       "option field with an unusable value"},
      {"error-code", "overloaded", "admission control: queue full"},
      {"error-code", "duplicate-id", "a live request reuses this id"},
      {"error-code", "unknown-id", "cancel names no live request"},
      {"error-code", "cancelled", "aborted by a cancel frame"},
      {"error-code", "deadline-exceeded",
       "the per-request deadline elapsed"},
      {"error-code", "resource-exhausted",
       "the chase exhausted a hard id space"},
      {"error-code", "internal", "server bug; never expected"},
  };
  return *catalog;
}

}  // namespace server
}  // namespace nuchase
