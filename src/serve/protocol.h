#ifndef DQR_SERVE_PROTOCOL_H_
#define DQR_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dqr::serve {

// The dqr_serve wire format (DESIGN.md §11): length-prefixed text
// frames over a byte stream.
//
//   +--------------------+-----------------------------------------+
//   | 4-byte big-endian  |  payload (exactly `length` bytes):      |
//   | payload length     |    TYPE key=value key=value ...\n       |
//   |                    |    <body: arbitrary bytes>              |
//   +--------------------+-----------------------------------------+
//
// The payload's first line — everything up to the first '\n', which is
// mandatory — is the header: a frame type token plus space-separated
// key=value attributes. Everything after that newline is the opaque
// body (query text, canonical result lines, Prometheus text, Chrome
// JSON). Type tokens, keys and values must be non-empty and free of
// spaces, '\n' and '\r' (encoder and decoder reject the same tokens);
// the body has no character restrictions.
//
// The conversation (client frames -> server frames):
//   HELLO tenant=t             -> WELCOME tenant=t proto=1
//   QUERY id=q dataset=d ...   -> ACCEPTED, then streamed PHASE /
//     (body: text-IR query)       BOUND / RESULT frames, terminated by
//                                 FINAL (or ERROR); with profile=1 a
//                                 PROFILE frame follows the FINAL
//   METRICS [id=q]             -> METRICS (body: Prometheus text)
//   TRACE id=q                 -> TRACE (body: Chrome trace JSON)
//   PROFILE id=q               -> PROFILE (body: profile JSON, see
//                                 obs/profile.h)
//   BYE                        -> BYE, connection closes
// A reply whose payload would exceed kMaxFramePayload (a large TRACE
// export, say) is answered with ERROR code=too_large instead; the
// connection stays usable.
// Every server frame about a query carries its id= attribute, so a
// client may pipeline queries on one connection.

// Frame type tokens. The codec itself is type-agnostic (any token
// round-trips); the server validates types at dispatch.
namespace frame {
inline constexpr char kHello[] = "HELLO";
inline constexpr char kWelcome[] = "WELCOME";
inline constexpr char kQuery[] = "QUERY";
inline constexpr char kAccepted[] = "ACCEPTED";
inline constexpr char kPhase[] = "PHASE";
inline constexpr char kBound[] = "BOUND";
inline constexpr char kResult[] = "RESULT";
inline constexpr char kFinal[] = "FINAL";
inline constexpr char kError[] = "ERROR";
inline constexpr char kMetrics[] = "METRICS";
inline constexpr char kTrace[] = "TRACE";
inline constexpr char kProfile[] = "PROFILE";
inline constexpr char kBye[] = "BYE";
}  // namespace frame

// Upper bound on one frame's payload. Large enough for any canonical
// result set or Chrome trace the engine produces, small enough that a
// corrupt length prefix cannot make the reader buffer gigabytes.
inline constexpr uint64_t kMaxFramePayload = 8ull << 20;  // 8 MiB

struct Frame {
  std::string type;
  // Insertion-ordered; duplicate keys are preserved (Get returns the
  // first). Order round-trips exactly through encode/decode.
  std::vector<std::pair<std::string, std::string>> attrs;
  std::string body;

  void Set(const std::string& key, const std::string& value);
  void Set(const std::string& key, int64_t value);
  // %.17g: doubles round-trip exactly (inf/-inf spelled out).
  void Set(const std::string& key, double value);

  // First value of `key`, or nullptr.
  const std::string* Get(const std::string& key) const;
  // Typed reads: `fallback` when the key is absent, an error when the
  // value does not parse.
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const;
  Result<double> GetDouble(const std::string& key, double fallback) const;

  bool operator==(const Frame& other) const {
    return type == other.type && attrs == other.attrs &&
           body == other.body;
  }
};

// Encodes one frame (length prefix included). Rejects — with the same
// precise messages the decoder produces — frames that could not be
// decoded back: empty or whitespace-carrying type tokens, malformed
// attributes, oversized payloads.
Result<std::string> EncodeFrame(const Frame& frame);

// Incremental frame decoder, resilient to arbitrary read fragmentation:
// feed whatever chunk the socket produced (down to one byte), then poll
// complete frames out. Any framing error (oversized or zero length,
// missing header newline, malformed header) is sticky: once poisoned,
// every later call reports the same error, because a byte stream cannot
// be resynchronized after a framing violation.
class FrameReader {
 public:
  // Appends raw bytes to the internal buffer.
  Status Feed(const char* data, size_t n);
  Status Feed(const std::string& chunk) {
    return Feed(chunk.data(), chunk.size());
  }

  // Pops the next complete frame into *out; nullopt when more bytes are
  // needed. Errors on malformed input.
  Status Poll(std::optional<Frame>* out);

  // End-of-stream check: an error when the stream ended mid-frame.
  Status Finish() const;

  // Bytes buffered but not yet consumed by a complete frame.
  size_t pending_bytes() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;
  Status error_;
};

// Splits a decoded payload (header line + body) into a frame — the
// decoder's parsing stage, exposed for tests. Rejects exactly the header
// tokens EncodeFrame rejects, with its messages, so every frame it
// accepts re-encodes to the same payload.
Status ParseFramePayload(const std::string& payload, Frame* out);

}  // namespace dqr::serve

#endif  // DQR_SERVE_PROTOCOL_H_
