// Wire-format tests for the dqr_serve framed protocol (serve/protocol.h):
// encode/decode identity for every frame type, precise rejection of
// malformed frames, and decoder resilience to arbitrary read
// fragmentation — every split point of a multi-frame stream must produce
// the same frame sequence.

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"

namespace dqr::serve {
namespace {

// Decodes a whole wire string fed in one chunk; fails the test on any
// decoder error.
std::vector<Frame> DecodeAll(const std::string& wire) {
  FrameReader reader;
  EXPECT_TRUE(reader.Feed(wire).ok());
  std::vector<Frame> out;
  for (;;) {
    std::optional<Frame> frame;
    const Status st = reader.Poll(&frame);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok() || !frame.has_value()) break;
    out.push_back(std::move(*frame));
  }
  EXPECT_TRUE(reader.Finish().ok()) << reader.Finish().ToString();
  return out;
}

TEST(ServeProtocol, RoundTripsEveryFrameType) {
  const char* kTypes[] = {
      frame::kHello,  frame::kWelcome, frame::kQuery,   frame::kAccepted,
      frame::kPhase,  frame::kBound,   frame::kResult,  frame::kFinal,
      frame::kError,  frame::kMetrics, frame::kTrace,   frame::kProfile,
      frame::kBye,
  };
  for (const char* type : kTypes) {
    Frame f;
    f.type = type;
    f.Set("id", std::string("q1"));
    f.Set("n", static_cast<int64_t>(-42));
    f.Set("x", 0.1);
    f.body = std::string("line one\nline two with spaces\n\x01\x02 binary");
    Result<std::string> wire = EncodeFrame(f);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    const std::vector<Frame> decoded = DecodeAll(wire.value());
    ASSERT_EQ(decoded.size(), 1u) << type;
    EXPECT_TRUE(decoded[0] == f) << type;
  }
}

TEST(ServeProtocol, RoundTripsEmptyBodyAndNoAttrs) {
  Frame f;
  f.type = frame::kBye;
  Result<std::string> wire = EncodeFrame(f);
  ASSERT_TRUE(wire.ok());
  const std::vector<Frame> decoded = DecodeAll(wire.value());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_TRUE(decoded[0] == f);
}

TEST(ServeProtocol, AttributeOrderAndDuplicatesRoundTrip) {
  Frame f;
  f.type = frame::kPhase;
  f.Set("id", std::string("a"));
  f.Set("phase", std::string("collecting"));
  f.Set("id", std::string("b"));  // duplicate key, preserved
  Result<std::string> wire = EncodeFrame(f);
  ASSERT_TRUE(wire.ok());
  const std::vector<Frame> decoded = DecodeAll(wire.value());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_TRUE(decoded[0] == f);
  // Get returns the first occurrence.
  ASSERT_NE(decoded[0].Get("id"), nullptr);
  EXPECT_EQ(*decoded[0].Get("id"), "a");
}

TEST(ServeProtocol, DoublesRoundTripAtFullPrecision) {
  const double kValues[] = {0.1, 1.0 / 3.0, -2.5e-17, 1e300,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  for (double v : kValues) {
    Frame f;
    f.type = frame::kBound;
    f.Set("value", v);
    Result<std::string> wire = EncodeFrame(f);
    ASSERT_TRUE(wire.ok());
    const std::vector<Frame> decoded = DecodeAll(wire.value());
    ASSERT_EQ(decoded.size(), 1u);
    Result<double> back = decoded[0].GetDouble("value", 0.0);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), v);
  }
}

TEST(ServeProtocol, TypedGettersFallBackAndReject) {
  Frame f;
  f.type = frame::kFinal;
  f.Set("n", std::string("12x"));
  f.Set("x", std::string("wide"));
  EXPECT_EQ(f.GetInt("absent", 7).value(), 7);
  EXPECT_EQ(f.GetDouble("absent", 0.5).value(), 0.5);
  Result<int64_t> bad_int = f.GetInt("n", 0);
  ASSERT_FALSE(bad_int.ok());
  EXPECT_EQ(bad_int.status().message(),
            "frame attribute 'n' is not an integer: '12x'");
  Result<double> bad_double = f.GetDouble("x", 0);
  ASSERT_FALSE(bad_double.ok());
  EXPECT_EQ(bad_double.status().message(),
            "frame attribute 'x' is not a number: 'wide'");
}

TEST(ServeProtocol, EncodeRejectsMalformedHeaders) {
  Frame empty_type;
  Result<std::string> r = EncodeFrame(empty_type);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "frame type must be non-empty");

  Frame spacey;
  spacey.type = "QUE RY";
  r = EncodeFrame(spacey);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "frame type 'QUE RY' contains whitespace");

  Frame eq_key;
  eq_key.type = frame::kQuery;
  eq_key.Set("a=b", std::string("v"));
  r = EncodeFrame(eq_key);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "frame attribute key 'a=b' contains '='");

  Frame empty_value;
  empty_value.type = frame::kQuery;
  empty_value.Set("k", std::string(""));
  r = EncodeFrame(empty_value);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "frame attribute value must be non-empty");

  Frame newline_value;
  newline_value.type = frame::kQuery;
  newline_value.Set("k", std::string("a\nb"));
  r = EncodeFrame(newline_value);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "frame attribute value 'a\nb' contains whitespace");
}

TEST(ServeProtocol, EncodeRejectsOversizedPayload) {
  Frame f;
  f.type = frame::kResult;
  f.body.assign(kMaxFramePayload, 'x');  // + header line pushes it over
  Result<std::string> r = EncodeFrame(f);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "frame length " + std::to_string(f.body.size() + 7) +
                " exceeds limit " + std::to_string(kMaxFramePayload));
}

TEST(ServeProtocol, ReaderRejectsZeroLengthFrame) {
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(std::string(4, '\0')).ok());
  std::optional<Frame> frame;
  Status st = reader.Poll(&frame);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "frame length 0: a frame must carry a header line");
  // Sticky: the same error again, and Feed refuses more input.
  EXPECT_EQ(reader.Poll(&frame).message(), st.message());
  EXPECT_EQ(reader.Feed("more").message(), st.message());
  EXPECT_EQ(reader.Finish().message(), st.message());
}

TEST(ServeProtocol, ReaderRejectsOversizedLengthPrefix) {
  // 0x7fffffff far exceeds the 8 MiB cap; the reader must reject the
  // prefix without waiting for (or buffering) the bytes it promises.
  std::string wire;
  wire.push_back(0x7f);
  wire.push_back(static_cast<char>(0xff));
  wire.push_back(static_cast<char>(0xff));
  wire.push_back(static_cast<char>(0xff));
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(wire).ok());
  std::optional<Frame> frame;
  Status st = reader.Poll(&frame);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "frame length 2147483647 exceeds limit " +
                              std::to_string(kMaxFramePayload));
}

TEST(ServeProtocol, ReaderRejectsMalformedPayloads) {
  struct Case {
    std::string payload;
    std::string message;
  };
  const Case kCases[] = {
      {"QUERY id=1", "frame header: missing terminating newline"},
      {"QUERY  id=1\n", "frame header: empty token (doubled or leading space)"},
      {" QUERY\n", "frame header: empty token (doubled or leading space)"},
      {"QUERY id\n", "frame header: attribute 'id' missing '='"},
      {"QUERY =v\n", "frame header: attribute '=v' missing '='"},
      {"QUERY id=\n", "frame header: attribute 'id=' missing '='"},
  };
  for (const Case& c : kCases) {
    std::string wire;
    const uint32_t n = static_cast<uint32_t>(c.payload.size());
    wire.push_back(static_cast<char>((n >> 24) & 0xff));
    wire.push_back(static_cast<char>((n >> 16) & 0xff));
    wire.push_back(static_cast<char>((n >> 8) & 0xff));
    wire.push_back(static_cast<char>(n & 0xff));
    wire += c.payload;
    FrameReader reader;
    ASSERT_TRUE(reader.Feed(wire).ok());
    std::optional<Frame> frame;
    Status st = reader.Poll(&frame);
    ASSERT_FALSE(st.ok()) << c.payload;
    EXPECT_EQ(st.message(), c.message) << c.payload;
  }
}

TEST(ServeProtocol, FinishReportsTruncatedStream) {
  Frame f;
  f.type = frame::kResult;
  f.Set("id", std::string("q"));
  f.body = "0 1 2\n";
  Result<std::string> wire = EncodeFrame(f);
  ASSERT_TRUE(wire.ok());
  // Drop the last 3 bytes: the reader has an incomplete frame buffered.
  const std::string cut = wire.value().substr(0, wire.value().size() - 3);
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(cut).ok());
  std::optional<Frame> frame;
  ASSERT_TRUE(reader.Poll(&frame).ok());
  EXPECT_FALSE(frame.has_value());
  const Status st = reader.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "frame truncated: stream ended with " +
                              std::to_string(cut.size()) +
                              " unconsumed bytes inside a frame");
}

// Codec symmetry: the decoder accepts exactly the header tokens the
// encoder accepts. A '\r' inside a type, key or value (a CRLF-terminated
// header, say) is rejected by both with the same message; every accepted
// payload survives decode -> encode -> decode unchanged, byte for byte.
TEST(ServeProtocol, DecoderRejectsExactlyWhatEncoderRejects) {
  const std::string kHeaders[] = {
      "QU\rEY id=1", "QUERY i\rd=1",  "QUERY id=1\r",     "\rQUERY",
      "QUERY id=a=b", "QUERY id=\t1", "RESULT id=q seq=7", "TRACE id=\xff",
  };
  for (const std::string& header : kHeaders) {
    const std::string payload = header + "\nbody\r\n";
    // The frame the header spells, split the way the grammar reads it.
    Frame spelled;
    spelled.body = "body\r\n";
    size_t pos = 0;
    while (pos <= header.size()) {
      size_t sp = header.find(' ', pos);
      if (sp == std::string::npos) sp = header.size();
      const std::string token = header.substr(pos, sp - pos);
      if (spelled.type.empty()) {
        spelled.type = token;
      } else {
        const size_t eq = token.find('=');
        spelled.attrs.emplace_back(token.substr(0, eq), token.substr(eq + 1));
      }
      pos = sp + 1;
    }

    Frame decoded;
    const Status parsed = ParseFramePayload(payload, &decoded);
    const Result<std::string> encoded = EncodeFrame(spelled);
    ASSERT_EQ(parsed.ok(), encoded.ok()) << header;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.message(), encoded.status().message()) << header;
      EXPECT_NE(parsed.message().find("contains whitespace"),
                std::string::npos)
          << header;
      continue;
    }
    EXPECT_TRUE(decoded == spelled) << header;
    const Result<std::string> reencoded = EncodeFrame(decoded);
    ASSERT_TRUE(reencoded.ok()) << header;
    EXPECT_EQ(reencoded.value().substr(4), payload) << header;
    Frame again;
    ASSERT_TRUE(ParseFramePayload(reencoded.value().substr(4), &again).ok());
    EXPECT_TRUE(again == decoded) << header;
  }
}

// The fragmentation sweep: a three-frame stream split at every byte
// boundary into two feeds must decode identically to the one-shot feed.
// This is the property that makes the reader safe over real sockets,
// where recv() returns arbitrary prefixes.
TEST(ServeProtocol, EverySplitPointDecodesIdentically) {
  std::vector<Frame> frames;
  {
    Frame hello;
    hello.type = frame::kHello;
    hello.Set("tenant", std::string("t0"));
    frames.push_back(hello);
    Frame query;
    query.type = frame::kQuery;
    query.Set("id", std::string("q1"));
    query.Set("alpha", 0.25);
    query.body = "k=5\nvars x len\n";
    frames.push_back(query);
    Frame fin;
    fin.type = frame::kFinal;
    fin.Set("id", std::string("q1"));
    fin.Set("results", static_cast<int64_t>(3));
    fin.body = "1 2 3\n4 5 6\n";
    frames.push_back(fin);
  }
  std::string wire;
  for (const Frame& f : frames) {
    Result<std::string> one = EncodeFrame(f);
    ASSERT_TRUE(one.ok());
    wire += one.value();
  }

  for (size_t split = 0; split <= wire.size(); ++split) {
    FrameReader reader;
    ASSERT_TRUE(reader.Feed(wire.substr(0, split)).ok());
    std::vector<Frame> decoded;
    std::optional<Frame> frame;
    for (;;) {
      ASSERT_TRUE(reader.Poll(&frame).ok());
      if (!frame.has_value()) break;
      decoded.push_back(std::move(*frame));
    }
    ASSERT_TRUE(reader.Feed(wire.substr(split)).ok());
    for (;;) {
      ASSERT_TRUE(reader.Poll(&frame).ok());
      if (!frame.has_value()) break;
      decoded.push_back(std::move(*frame));
    }
    ASSERT_TRUE(reader.Finish().ok()) << "split=" << split;
    ASSERT_EQ(decoded.size(), frames.size()) << "split=" << split;
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_TRUE(decoded[i] == frames[i])
          << "split=" << split << " frame=" << i;
    }
  }
}

// One-byte-at-a-time feeding, plus buffer-compaction coverage: enough
// frames that pos_ crosses the compaction threshold mid-stream.
TEST(ServeProtocol, ByteAtATimeFeedingAndCompaction) {
  std::string wire;
  std::vector<Frame> frames;
  for (int i = 0; i < 64; ++i) {
    Frame f;
    f.type = frame::kResult;
    f.Set("id", std::string("q"));
    f.Set("seq", static_cast<int64_t>(i));
    f.body.assign(128, static_cast<char>('a' + (i % 26)));
    frames.push_back(f);
    Result<std::string> one = EncodeFrame(f);
    ASSERT_TRUE(one.ok());
    wire += one.value();
  }
  FrameReader reader;
  std::vector<Frame> decoded;
  for (char c : wire) {
    ASSERT_TRUE(reader.Feed(&c, 1).ok());
    std::optional<Frame> frame;
    ASSERT_TRUE(reader.Poll(&frame).ok());
    if (frame.has_value()) decoded.push_back(std::move(*frame));
  }
  ASSERT_TRUE(reader.Finish().ok());
  EXPECT_EQ(reader.pending_bytes(), 0u);
  ASSERT_EQ(decoded.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(decoded[i] == frames[i]) << i;
  }
}

}  // namespace
}  // namespace dqr::serve
