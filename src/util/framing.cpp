#include "util/framing.h"

#include <algorithm>

namespace midas::util {

const char* to_string(FrameErrorKind kind) {
  switch (kind) {
    case FrameErrorKind::Oversized: return "oversized";
    case FrameErrorKind::Truncated: return "truncated";
    case FrameErrorKind::BadUtf8: return "bad-utf8";
    case FrameErrorKind::BadJson: return "bad-json";
  }
  return "unknown";
}

std::string encode_frame(const Json& frame) {
  std::string out = frame.dump_compact();
  out += '\n';
  return out;
}

bool validate_utf8(std::string_view bytes) {
  std::size_t i = 0;
  const std::size_t n = bytes.size();
  while (i < n) {
    const unsigned char b0 = static_cast<unsigned char>(bytes[i]);
    std::size_t len;
    unsigned min_code;
    unsigned code;
    if (b0 < 0x80) {
      ++i;
      continue;
    } else if ((b0 & 0xE0) == 0xC0) {
      len = 2;
      min_code = 0x80;
      code = b0 & 0x1Fu;
    } else if ((b0 & 0xF0) == 0xE0) {
      len = 3;
      min_code = 0x800;
      code = b0 & 0x0Fu;
    } else if ((b0 & 0xF8) == 0xF0) {
      len = 4;
      min_code = 0x10000;
      code = b0 & 0x07u;
    } else {
      return false;  // continuation byte or 0xFE/0xFF lead
    }
    if (i + len > n) return false;
    for (std::size_t k = 1; k < len; ++k) {
      const unsigned char bk = static_cast<unsigned char>(bytes[i + k]);
      if ((bk & 0xC0) != 0x80) return false;
      code = (code << 6) | (bk & 0x3Fu);
    }
    if (code < min_code) return false;               // overlong encoding
    if (code >= 0xD800 && code <= 0xDFFF) return false;  // surrogate
    if (code > 0x10FFFF) return false;
    i += len;
  }
  return true;
}

void FrameBuffer::feed(std::string_view bytes) {
  // Drop the consumed prefix before growing, so long sessions do not
  // accumulate dead bytes; the scan offsets move with it.
  if (consumed_ > 0) {
    buf_.erase(0, consumed_);
    scanned_ -= consumed_;
    line_start_ -= consumed_;
    consumed_ = 0;
  }
  const std::size_t old_size = buf_.size();
  buf_.append(bytes);
  // The cap bounds a single frame, terminated or not: an unterminated
  // tail beyond it can never become a valid frame, so fail now instead
  // of buffering a runaway peer.  (Complete oversized lines are caught
  // in next().)  Only the appended bytes can hold a new newline.
  const std::size_t last_newline = bytes.rfind('\n');
  if (last_newline != std::string_view::npos) {
    line_start_ = old_size + last_newline + 1;
  }
  if (buf_.size() - line_start_ > max_frame_bytes_) {
    throw FrameError(FrameErrorKind::Oversized,
                     "frame exceeds " + std::to_string(max_frame_bytes_) +
                         " bytes before its terminating newline");
  }
}

std::optional<Json> FrameBuffer::next() {
  while (true) {
    // Bytes before scanned_ hold no newline: resume the search there.
    const std::size_t newline = buf_.find('\n', scanned_);
    if (newline == std::string::npos) {
      scanned_ = buf_.size();
      return std::nullopt;
    }
    std::string_view line(buf_.data() + consumed_, newline - consumed_);
    consumed_ = newline + 1;  // the line is consumed even when malformed
    scanned_ = consumed_;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;  // blank keep-alive line
    if (line.size() > max_frame_bytes_) {
      throw FrameError(FrameErrorKind::Oversized,
                       "frame of " + std::to_string(line.size()) +
                           " bytes exceeds the " +
                           std::to_string(max_frame_bytes_) + "-byte cap");
    }
    if (!validate_utf8(line)) {
      throw FrameError(FrameErrorKind::BadUtf8,
                       "frame contains invalid UTF-8");
    }
    try {
      return Json::parse(line);
    } catch (const std::exception& e) {
      throw FrameError(FrameErrorKind::BadJson,
                       std::string("frame is not valid JSON: ") + e.what());
    }
  }
}

void FrameBuffer::finish() const {
  if (has_partial()) {
    throw FrameError(FrameErrorKind::Truncated,
                     "stream ended mid-frame (" +
                         std::to_string(buffered_bytes()) +
                         " bytes without a terminating newline)");
  }
}

}  // namespace midas::util
