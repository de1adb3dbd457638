// Wire-protocol serde tests for the chase daemon: every frame type
// round-trips byte-for-byte through its serializer and parser, the
// strict JSON subset rejects what it promises to reject, and a
// malformed line always maps to the right typed error code with the
// request id recovered whenever the line carried one — the property
// that lets a client correlate a rejection with the request it sent.
#include <gtest/gtest.h>

#include <string>

#include "server/json.h"
#include "server/protocol.h"

namespace nuchase {
namespace server {
namespace {

// --- the strict JSON subset ---

TEST(JsonTest, RoundTripsObjectsInOrder) {
  const std::string line =
      "{\"b\":1,\"a\":\"x\",\"flag\":true,\"list\":[1,2,3],\"nil\":null}";
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), line);
}

TEST(JsonTest, RoundTripsStringEscapes) {
  const std::string line =
      "{\"s\":\"line\\nbreak \\\"quoted\\\" back\\\\slash \\u0007\"}";
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto reparsed = ParseJson(parsed->Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Find("s")->string(),
            parsed->Find("s")->string());
}

TEST(JsonTest, RejectsWhatTheProtocolNeverCarries) {
  // Floats, signs, exponents: every protocol number is a count.
  EXPECT_FALSE(ParseJson("{\"n\":1.5}").ok());
  EXPECT_FALSE(ParseJson("{\"n\":-3}").ok());
  EXPECT_FALSE(ParseJson("{\"n\":1e9}").ok());
  // Duplicate keys, trailing garbage, truncation.
  EXPECT_FALSE(ParseJson("{\"a\":1,\"a\":2}").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("{\"a\":").ok());
  EXPECT_FALSE(ParseJson("").ok());
}

TEST(JsonTest, EnforcesTheDepthCap) {
  std::string deep, close;
  for (int i = 0; i < 100; ++i) {
    deep += "[";
    close += "]";
  }
  EXPECT_FALSE(ParseJson(deep + close).ok());
  // Well under the cap parses fine.
  EXPECT_TRUE(ParseJson("[[[[[[[[1]]]]]]]]").ok());
}

// --- request frames: serialize -> parse equality ---

TEST(ProtocolTest, ChaseRequestRoundTripsEveryField) {
  ChaseRequest request;
  request.id = "req-7";
  request.rules = "E(x, y) -> T(x, y).\nE(a, b).\n";
  request.variant = chase::ChaseVariant::kRestricted;
  request.max_atoms = 123456;
  request.max_depth = 9;
  request.max_rounds = 77;
  request.deadline_ms = 2500;
  request.payload = true;
  request.events = true;

  RequestParse parsed = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok) << parsed.message;
  ASSERT_EQ(parsed.frame.type, RequestFrame::Type::kChase);
  const ChaseRequest& got = parsed.frame.chase;
  EXPECT_EQ(got.id, request.id);
  EXPECT_EQ(got.rules, request.rules);
  EXPECT_EQ(got.variant, request.variant);
  EXPECT_EQ(got.max_atoms, request.max_atoms);
  EXPECT_EQ(got.max_depth, request.max_depth);
  EXPECT_EQ(got.max_rounds, request.max_rounds);
  EXPECT_EQ(got.deadline_ms, request.deadline_ms);
  EXPECT_EQ(got.payload, request.payload);
  EXPECT_EQ(got.events, request.events);
}

TEST(ProtocolTest, ChaseRequestDefaultsSurviveTheWire) {
  ChaseRequest request;
  request.id = "minimal";
  request.rules = "P(a).\n";
  RequestParse parsed = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok) << parsed.message;
  const ChaseRequest& got = parsed.frame.chase;
  EXPECT_EQ(got.variant, chase::ChaseVariant::kSemiOblivious);
  EXPECT_EQ(got.max_atoms, 0u);
  EXPECT_EQ(got.deadline_ms, 0u);
  EXPECT_FALSE(got.payload);
  EXPECT_FALSE(got.events);
}

TEST(ProtocolTest, ChaseRequestAcceptsAndIgnoresThreads) {
  // Older clients send `threads`; any value in 0-256 parses (257 is an
  // invalid-options error, below) and changes nothing.
  for (const char* threads : {"0", "1", "8", "256"}) {
    RequestParse parsed = ParseRequest(
        std::string("{\"type\":\"chase\",\"id\":\"t\",\"rules\":\"P(a).\","
                    "\"threads\":") +
        threads + "}");
    ASSERT_TRUE(parsed.ok) << threads << ": " << parsed.message;
    EXPECT_EQ(parsed.frame.chase.id, "t");
    EXPECT_EQ(parsed.frame.chase.rules, "P(a).");
  }
}

TEST(ProtocolTest, ControlFramesRoundTrip) {
  RequestParse cancel = ParseRequest(SerializeCancel("job-3"));
  ASSERT_TRUE(cancel.ok);
  ASSERT_EQ(cancel.frame.type, RequestFrame::Type::kCancel);
  EXPECT_EQ(cancel.frame.cancel.id, "job-3");
  EXPECT_EQ(cancel.id, "job-3");

  RequestParse stats = ParseRequest(SerializeStatsRequest());
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.frame.type, RequestFrame::Type::kStats);

  RequestParse ping = ParseRequest(SerializePing());
  ASSERT_TRUE(ping.ok);
  EXPECT_EQ(ping.frame.type, RequestFrame::Type::kPing);
}

// --- malformed lines -> the right typed rejection ---

TEST(ProtocolTest, MalformedLinesRejectWithTypedCodes) {
  struct Case {
    const char* line;
    ErrorCode code;
  };
  const Case cases[] = {
      {"not json at all", ErrorCode::kMalformedFrame},
      {"{\"type\":\"chase\",\"id\":\"x\"", ErrorCode::kMalformedFrame},
      {"[1,2,3]", ErrorCode::kMalformedFrame},
      {"{\"id\":\"x\"}", ErrorCode::kMalformedFrame},
      {"{\"type\":\"chase\",\"id\":\"x\"}", ErrorCode::kMalformedFrame},
      {"{\"type\":\"chase\",\"rules\":\"P(a).\"}",
       ErrorCode::kMalformedFrame},
      {"{\"type\":\"warp\",\"id\":\"x\"}", ErrorCode::kUnknownType},
      {"{\"type\":\"chase\",\"id\":\"x\",\"rules\":\"P(a).\","
       "\"ruels\":\"typo\"}",
       ErrorCode::kUnknownField},
      {"{\"type\":\"chase\",\"id\":\"x\",\"rules\":\"P(a).\","
       "\"threads\":257}",
       ErrorCode::kInvalidOptions},
      {"{\"type\":\"chase\",\"id\":\"x\",\"rules\":\"P(a).\","
       "\"variant\":\"lazy\"}",
       ErrorCode::kInvalidOptions},
      {"{\"type\":\"chase\",\"id\":\"x\",\"rules\":\"P(a).\","
       "\"payload\":\"yes\"}",
       ErrorCode::kInvalidOptions},
      {"{\"type\":\"cancel\"}", ErrorCode::kMalformedFrame},
      {"{\"type\":\"stats\",\"extra\":1}", ErrorCode::kUnknownField},
  };
  for (const Case& c : cases) {
    RequestParse parsed = ParseRequest(c.line);
    EXPECT_FALSE(parsed.ok) << c.line;
    EXPECT_EQ(parsed.code, c.code) << c.line;
    EXPECT_FALSE(parsed.message.empty()) << c.line;
  }
}

TEST(ProtocolTest, RejectionsRecoverTheIdWhenTheLineCarriesOne) {
  RequestParse parsed = ParseRequest(
      "{\"type\":\"chase\",\"id\":\"job-9\",\"rules\":\"P(a).\","
      "\"bogus\":1}");
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.code, ErrorCode::kUnknownField);
  EXPECT_EQ(parsed.id, "job-9");

  // No id on the line -> empty id in the rejection, not garbage.
  parsed = ParseRequest("{\"type\":\"warp\"}");
  EXPECT_FALSE(parsed.ok);
  EXPECT_TRUE(parsed.id.empty());
}

// --- response frames: serialize -> parse equality ---

TEST(ProtocolTest, ResponseFramesRoundTrip) {
  auto ack = ParseResponse(Serialize(AckFrame{"r1"}));
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->type, ResponseFrame::Type::kAck);
  EXPECT_EQ(ack->ack.id, "r1");

  EventFrame event{"r1", 3, 100, 10, 42};
  auto parsed_event = ParseResponse(Serialize(event));
  ASSERT_TRUE(parsed_event.ok());
  ASSERT_EQ(parsed_event->type, ResponseFrame::Type::kEvent);
  EXPECT_EQ(parsed_event->event.id, "r1");
  EXPECT_EQ(parsed_event->event.round, 3u);
  EXPECT_EQ(parsed_event->event.atoms, 100u);
  EXPECT_EQ(parsed_event->event.delta_atoms, 10u);
  EXPECT_EQ(parsed_event->event.triggers_fired, 42u);

  ResultFrame result;
  result.id = "r1";
  result.outcome = "terminated";
  result.cached = true;
  result.atoms = 512;
  result.rounds = 7;
  result.triggers_fired = 99;
  result.max_depth = 4;
  result.arena_bytes = 4096;
  result.has_payload = true;
  result.payload = "P(a)\nQ(a)\n";
  auto parsed_result = ParseResponse(Serialize(result));
  ASSERT_TRUE(parsed_result.ok());
  ASSERT_EQ(parsed_result->type, ResponseFrame::Type::kResult);
  EXPECT_EQ(parsed_result->result.id, result.id);
  EXPECT_EQ(parsed_result->result.outcome, result.outcome);
  EXPECT_EQ(parsed_result->result.cached, result.cached);
  EXPECT_EQ(parsed_result->result.atoms, result.atoms);
  EXPECT_EQ(parsed_result->result.rounds, result.rounds);
  EXPECT_EQ(parsed_result->result.triggers_fired, result.triggers_fired);
  EXPECT_EQ(parsed_result->result.max_depth, result.max_depth);
  EXPECT_EQ(parsed_result->result.arena_bytes, result.arena_bytes);
  ASSERT_TRUE(parsed_result->result.has_payload);
  EXPECT_EQ(parsed_result->result.payload, result.payload);

  // A result without payload stays payload-less through the wire.
  result.has_payload = false;
  result.payload.clear();
  parsed_result = ParseResponse(Serialize(result));
  ASSERT_TRUE(parsed_result.ok());
  EXPECT_FALSE(parsed_result->result.has_payload);

  auto pong = ParseResponse(Serialize(PongFrame{}));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, ResponseFrame::Type::kPong);
}

TEST(ProtocolTest, ErrorFramesRoundTripEveryCode) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    ErrorFrame frame;
    frame.id = "r1";
    frame.code = static_cast<ErrorCode>(c);
    frame.message = "details";
    auto parsed = ParseResponse(Serialize(frame));
    ASSERT_TRUE(parsed.ok()) << ErrorCodeName(frame.code);
    ASSERT_EQ(parsed->type, ResponseFrame::Type::kError);
    EXPECT_EQ(parsed->error.code, frame.code);
    EXPECT_EQ(parsed->error.id, "r1");
    EXPECT_EQ(parsed->error.message, "details");
  }
  // The id-less rejection form (unparseable line, no id recovered).
  ErrorFrame anonymous;
  anonymous.code = ErrorCode::kOversizedFrame;
  auto parsed = ParseResponse(Serialize(anonymous));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->error.id.empty());
}

TEST(ProtocolTest, StatsFrameRoundTripsEveryCounter) {
  StatsFrame stats;
  stats.programs_parsed = 1;
  stats.cache_hits = 2;
  stats.cache_misses = 3;
  stats.cache_evictions = 4;
  stats.cache_entries = 5;
  stats.accepted = 6;
  stats.completed = 7;
  stats.rejected_overload = 8;
  stats.cancelled = 9;
  stats.deadline_exceeded = 10;
  stats.max_overlap = 11;
  stats.inflight = 12;
  stats.queued = 13;
  auto parsed = ParseResponse(Serialize(stats));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->type, ResponseFrame::Type::kStats);
  const StatsFrame& got = parsed->stats;
  EXPECT_EQ(got.programs_parsed, 1u);
  EXPECT_EQ(got.cache_hits, 2u);
  EXPECT_EQ(got.cache_misses, 3u);
  EXPECT_EQ(got.cache_evictions, 4u);
  EXPECT_EQ(got.cache_entries, 5u);
  EXPECT_EQ(got.accepted, 6u);
  EXPECT_EQ(got.completed, 7u);
  EXPECT_EQ(got.rejected_overload, 8u);
  EXPECT_EQ(got.cancelled, 9u);
  EXPECT_EQ(got.deadline_exceeded, 10u);
  EXPECT_EQ(got.max_overlap, 11u);
  EXPECT_EQ(got.inflight, 12u);
  EXPECT_EQ(got.queued, 13u);
}

TEST(ProtocolTest, ParseResponseRejectsNonFrames) {
  EXPECT_FALSE(ParseResponse("garbage").ok());
  EXPECT_FALSE(ParseResponse("{\"no_type\":1}").ok());
  EXPECT_FALSE(ParseResponse("{\"type\":\"novel\"}").ok());
  EXPECT_FALSE(
      ParseResponse("{\"type\":\"error\",\"code\":\"made-up\"}").ok());
}

// --- the catalog mirror ---

TEST(ProtocolTest, FrameCatalogCoversEveryFrameAndCode) {
  int requests = 0, responses = 0, codes = 0;
  for (const FrameSpec& spec : FrameCatalog()) {
    const std::string kind = spec.kind;
    if (kind == "request") ++requests;
    if (kind == "response") ++responses;
    if (kind == "error-code") ++codes;
  }
  EXPECT_EQ(requests, 4);
  EXPECT_EQ(responses, 6);
  // Every ErrorCode value must appear in the catalog by its wire name.
  EXPECT_EQ(codes, static_cast<int>(ErrorCode::kInternal) + 1);
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    const std::string name = ErrorCodeName(static_cast<ErrorCode>(c));
    bool found = false;
    for (const FrameSpec& spec : FrameCatalog()) {
      if (spec.kind == std::string("error-code") && name == spec.name) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "catalog is missing error code " << name;
  }
}

}  // namespace
}  // namespace server
}  // namespace nuchase
