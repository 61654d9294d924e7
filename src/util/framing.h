// Newline-delimited JSON frame codec — the wire format of the fleet
// runtime (svc/).  One frame is one compact JSON document followed by
// '\n'; because the JSON encoder escapes every control character, the
// document itself never contains a raw newline, so framing is a plain
// line split.
//
// The decoder is defensive by construction: it is fed arbitrary byte
// chunks (frames split across reads, several frames per read,
// interleaved with blank keep-alive lines) and every malformed input
// maps to a TYPED FrameError — oversized frames, truncated frames cut
// off by a peer crash, non-UTF-8 bytes, and syntactically invalid JSON
// all throw instead of hanging a reader or yielding a partial parse.
// A FrameBuffer never blocks and never allocates beyond its configured
// frame cap, so a misbehaving peer cannot wedge or balloon the process.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/json.h"

namespace midas::util {

enum class FrameErrorKind {
  Oversized,  ///< frame exceeds the configured byte cap
  Truncated,  ///< stream ended mid-frame (no terminating newline)
  BadUtf8,    ///< frame bytes are not valid UTF-8
  BadJson,    ///< frame is not a single valid JSON document
};

[[nodiscard]] const char* to_string(FrameErrorKind kind);

class FrameError : public std::runtime_error {
 public:
  FrameError(FrameErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}
  [[nodiscard]] FrameErrorKind kind() const noexcept { return kind_; }

 private:
  FrameErrorKind kind_;
};

/// `frame` as one wire frame: compact single-line JSON + '\n'.
[[nodiscard]] std::string encode_frame(const Json& frame);

/// True iff `bytes` is well-formed UTF-8 (rejects overlong encodings,
/// surrogates, and code points above U+10FFFF).
[[nodiscard]] bool validate_utf8(std::string_view bytes);

/// Incremental frame decoder over an untrusted byte stream.
///
///   FrameBuffer buf;
///   buf.feed(bytes_from_socket);            // any chunking
///   while (auto frame = buf.next()) { ... } // complete frames, in order
///   buf.finish();                           // at EOF: rejects residue
///
/// feed() throws FrameError{Oversized} as soon as the unterminated
/// prefix exceeds `max_frame_bytes` — before buffering more.  next()
/// throws FrameError{BadUtf8 | BadJson} for a complete-but-malformed
/// line (the line is consumed, so a caller choosing to continue is not
/// stuck on it).  finish() throws FrameError{Truncated} when the stream
/// ends with a partial frame buffered.  Blank lines are ignored.
class FrameBuffer {
 public:
  explicit FrameBuffer(std::size_t max_frame_bytes = std::size_t{1} << 24)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(std::string_view bytes);
  [[nodiscard]] std::optional<Json> next();
  void finish() const;

  /// Bytes of an incomplete frame currently buffered.
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buf_.size() - consumed_;
  }
  [[nodiscard]] bool has_partial() const noexcept {
    return buffered_bytes() > 0;
  }

 private:
  std::size_t max_frame_bytes_;
  std::string buf_;
  std::size_t consumed_ = 0;  // prefix of buf_ already handed out
  // Scan offsets, so that a frame fed in n chunks is scanned once, not
  // n times: buf_[consumed_, scanned_) holds no newline (next() resumes
  // there), and line_start_ follows the last newline in buf_ (feed()
  // measures the unterminated tail from it).
  std::size_t scanned_ = 0;
  std::size_t line_start_ = 0;
};

}  // namespace midas::util
