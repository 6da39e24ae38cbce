#include "serve/protocol.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace dqr::serve {
namespace {

// A header token (frame type, attribute key or value) must survive the
// space-separated single-line header format.
Status CheckToken(const std::string& token, const char* what) {
  if (token.empty()) {
    return InvalidArgumentError(std::string("frame ") + what +
                                " must be non-empty");
  }
  for (char c : token) {
    if (c == ' ' || c == '\n' || c == '\r') {
      return InvalidArgumentError(std::string("frame ") + what + " '" +
                                  token +
                                  "' contains whitespace");
    }
  }
  return Status::Ok();
}

std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Frame::Set(const std::string& key, const std::string& value) {
  attrs.emplace_back(key, value);
}

void Frame::Set(const std::string& key, int64_t value) {
  attrs.emplace_back(key, std::to_string(value));
}

void Frame::Set(const std::string& key, double value) {
  attrs.emplace_back(key, FormatDouble(value));
}

const std::string* Frame::Get(const std::string& key) const {
  for (const auto& kv : attrs) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

Result<int64_t> Frame::GetInt(const std::string& key,
                              int64_t fallback) const {
  const std::string* raw = Get(key);
  if (raw == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(raw->c_str(), &end, 10);
  if (end == raw->c_str() || *end != '\0' || errno == ERANGE) {
    return InvalidArgumentError("frame attribute '" + key +
                                "' is not an integer: '" + *raw + "'");
  }
  return static_cast<int64_t>(v);
}

Result<double> Frame::GetDouble(const std::string& key,
                                double fallback) const {
  const std::string* raw = Get(key);
  if (raw == nullptr) return fallback;
  if (*raw == "inf") return std::numeric_limits<double>::infinity();
  if (*raw == "-inf") return -std::numeric_limits<double>::infinity();
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(raw->c_str(), &end);
  if (end == raw->c_str() || *end != '\0' || errno == ERANGE) {
    return InvalidArgumentError("frame attribute '" + key +
                                "' is not a number: '" + *raw + "'");
  }
  return v;
}

Result<std::string> EncodeFrame(const Frame& frame) {
  Status st = CheckToken(frame.type, "type");
  if (!st.ok()) return st;
  std::string payload = frame.type;
  for (const auto& kv : frame.attrs) {
    st = CheckToken(kv.first, "attribute key");
    if (!st.ok()) return st;
    if (kv.first.find('=') != std::string::npos) {
      return InvalidArgumentError("frame attribute key '" + kv.first +
                                  "' contains '='");
    }
    st = CheckToken(kv.second, "attribute value");
    if (!st.ok()) return st;
    payload += ' ';
    payload += kv.first;
    payload += '=';
    payload += kv.second;
  }
  payload += '\n';
  payload += frame.body;
  if (payload.size() > kMaxFramePayload) {
    return InvalidArgumentError(
        "frame length " + std::to_string(payload.size()) +
        " exceeds limit " + std::to_string(kMaxFramePayload));
  }
  std::string wire;
  wire.reserve(4 + payload.size());
  const uint32_t n = static_cast<uint32_t>(payload.size());
  wire.push_back(static_cast<char>((n >> 24) & 0xff));
  wire.push_back(static_cast<char>((n >> 16) & 0xff));
  wire.push_back(static_cast<char>((n >> 8) & 0xff));
  wire.push_back(static_cast<char>(n & 0xff));
  wire += payload;
  return wire;
}

Status ParseFramePayload(const std::string& payload, Frame* out) {
  const size_t nl = payload.find('\n');
  if (nl == std::string::npos) {
    return InvalidArgumentError(
        "frame header: missing terminating newline");
  }
  const std::string header = payload.substr(0, nl);
  Frame frame;
  frame.body = payload.substr(nl + 1);
  size_t pos = 0;
  // Type token first, then key=value attributes; tokens are separated
  // by single spaces (empty tokens — doubled spaces, leading space —
  // are malformed).
  bool have_type = false;
  while (pos <= header.size()) {
    size_t sp = header.find(' ', pos);
    if (sp == std::string::npos) sp = header.size();
    const std::string token = header.substr(pos, sp - pos);
    if (token.empty()) {
      return InvalidArgumentError(
          "frame header: empty token (doubled or leading space)");
    }
    // Tokens are re-checked with the encoder's rule, so every frame the
    // decoder accepts encodes again (a '\r' inside a token would not).
    if (!have_type) {
      Status st = CheckToken(token, "type");
      if (!st.ok()) return st;
      frame.type = token;
      have_type = true;
    } else {
      const size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0 ||
          eq + 1 == token.size()) {
        return InvalidArgumentError("frame header: attribute '" + token +
                                    "' missing '='");
      }
      std::string key = token.substr(0, eq);
      std::string value = token.substr(eq + 1);
      Status st = CheckToken(key, "attribute key");
      if (st.ok()) st = CheckToken(value, "attribute value");
      if (!st.ok()) return st;
      frame.attrs.emplace_back(std::move(key), std::move(value));
    }
    if (sp == header.size()) break;
    pos = sp + 1;
  }
  if (!have_type) {
    return InvalidArgumentError("frame header: missing type token");
  }
  *out = std::move(frame);
  return Status::Ok();
}

Status FrameReader::Feed(const char* data, size_t n) {
  if (!error_.ok()) return error_;
  buffer_.append(data, n);
  return Status::Ok();
}

Status FrameReader::Poll(std::optional<Frame>* out) {
  out->reset();
  if (!error_.ok()) return error_;
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  const size_t avail = buffer_.size() - pos_;
  if (avail < 4) return Status::Ok();
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data()) + pos_;
  const uint64_t len = (static_cast<uint64_t>(p[0]) << 24) |
                       (static_cast<uint64_t>(p[1]) << 16) |
                       (static_cast<uint64_t>(p[2]) << 8) |
                       static_cast<uint64_t>(p[3]);
  if (len == 0) {
    error_ = InvalidArgumentError(
        "frame length 0: a frame must carry a header line");
    return error_;
  }
  if (len > kMaxFramePayload) {
    error_ = InvalidArgumentError(
        "frame length " + std::to_string(len) + " exceeds limit " +
        std::to_string(kMaxFramePayload));
    return error_;
  }
  if (avail < 4 + len) return Status::Ok();
  const std::string payload = buffer_.substr(pos_ + 4, len);
  pos_ += 4 + len;
  Frame frame;
  Status st = ParseFramePayload(payload, &frame);
  if (!st.ok()) {
    error_ = st;
    return error_;
  }
  *out = std::move(frame);
  return Status::Ok();
}

Status FrameReader::Finish() const {
  if (!error_.ok()) return error_;
  const size_t leftover = buffer_.size() - pos_;
  if (leftover != 0) {
    return InvalidArgumentError(
        "frame truncated: stream ended with " + std::to_string(leftover) +
        " unconsumed bytes inside a frame");
  }
  return Status::Ok();
}

}  // namespace dqr::serve
