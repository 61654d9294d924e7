// Frame codec robustness (util/framing.h): arbitrary chunking,
// truncation, oversized frames, interleaved garbage and non-UTF-8 all
// surface as TYPED errors — never a hang, never a partial parse.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "util/framing.h"
#include "util/json.h"

namespace {

using midas::util::FrameBuffer;
using midas::util::FrameError;
using midas::util::FrameErrorKind;
using midas::util::Json;
using midas::util::encode_frame;
using midas::util::validate_utf8;

Json sample(double v) {
  auto j = Json::object();
  j.set("type", Json("result"));
  j.set("value", Json(v));
  return j;
}

FrameErrorKind kind_of(const std::function<void()>& call) {
  try {
    call();
  } catch (const FrameError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a FrameError";
  return FrameErrorKind::BadJson;
}

TEST(Framing, EncodeIsSingleLineAndRoundTrips) {
  auto j = Json::object();
  j.set("text", Json("line1\nline2\ttab\r"));  // control chars escaped
  j.set("nested", sample(2.5));
  const std::string wire = encode_frame(j);
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire.back(), '\n');
  // The ONLY newline is the terminator — framing is a plain line split.
  EXPECT_EQ(wire.find('\n'), wire.size() - 1);

  FrameBuffer buf;
  buf.feed(wire);
  const auto back = buf.next();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), j.dump());
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_NO_THROW(buf.finish());
}

TEST(Framing, ArbitraryChunkingNeverYieldsAPartialParse) {
  const std::string wire = encode_frame(sample(1.0)) +
                           encode_frame(sample(2.0)) +
                           encode_frame(sample(3.0));
  // Feed one byte at a time: next() must return exactly three frames,
  // each only after its terminating newline arrived.
  FrameBuffer buf;
  int decoded = 0;
  for (const char c : wire) {
    buf.feed(std::string_view(&c, 1));
    while (const auto frame = buf.next()) {
      ++decoded;
      EXPECT_EQ(frame->at("value").as_number(), static_cast<double>(decoded));
      // A frame only completes on its newline.
      EXPECT_EQ(c, '\n');
    }
  }
  EXPECT_EQ(decoded, 3);
  EXPECT_NO_THROW(buf.finish());
}

TEST(Framing, BlankKeepAliveLinesAndCarriageReturnsAreTolerated) {
  FrameBuffer buf;
  buf.feed("\n\r\n" + encode_frame(sample(7.0)) + "\n");
  const auto frame = buf.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->at("value").as_number(), 7.0);
  EXPECT_FALSE(buf.next().has_value());

  FrameBuffer crlf;
  crlf.feed("{\"a\": 1}\r\n");
  ASSERT_TRUE(crlf.next().has_value());
}

TEST(Framing, TruncatedStreamIsATypedError) {
  const std::string wire = encode_frame(sample(1.0));
  FrameBuffer buf;
  buf.feed(wire.substr(0, wire.size() / 2));  // peer died mid-frame
  EXPECT_FALSE(buf.next().has_value());       // no partial parse
  EXPECT_TRUE(buf.has_partial());
  EXPECT_EQ(kind_of([&] { buf.finish(); }), FrameErrorKind::Truncated);
}

TEST(Framing, OversizedFramesAreRejectedTerminatedOrNot) {
  // Unterminated runaway: rejected at feed() time, before buffering more.
  FrameBuffer small(32);
  EXPECT_EQ(kind_of([&] { small.feed(std::string(64, 'x')); }),
            FrameErrorKind::Oversized);

  // Complete-but-huge line: rejected at next() time.
  FrameBuffer buf(32);
  buf.feed("\"" + std::string(40, 'y') + "\"\n");
  EXPECT_EQ(kind_of([&] { (void)buf.next(); }), FrameErrorKind::Oversized);
}

TEST(Framing, NonUtf8BytesAreATypedError) {
  EXPECT_TRUE(validate_utf8("plain ascii"));
  EXPECT_TRUE(validate_utf8("caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x99\x82"));
  EXPECT_FALSE(validate_utf8("\xFF\xFE"));          // invalid lead bytes
  EXPECT_FALSE(validate_utf8("\xC0\xAF"));          // overlong '/'
  EXPECT_FALSE(validate_utf8("\xED\xA0\x80"));      // UTF-16 surrogate
  EXPECT_FALSE(validate_utf8("\xF4\x90\x80\x80"));  // above U+10FFFF
  EXPECT_FALSE(validate_utf8("\xC3"));              // cut-off sequence

  FrameBuffer buf;
  buf.feed("\"\xFF\xFE\"\n");
  EXPECT_EQ(kind_of([&] { (void)buf.next(); }), FrameErrorKind::BadUtf8);
}

TEST(Framing, MalformedJsonIsConsumedAndDecodingContinues) {
  FrameBuffer buf;
  buf.feed("{\"unclosed\": \n" + encode_frame(sample(9.0)));
  EXPECT_EQ(kind_of([&] { (void)buf.next(); }), FrameErrorKind::BadJson);
  // The malformed line was consumed: the stream is NOT stuck on it.
  const auto frame = buf.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->at("value").as_number(), 9.0);
  EXPECT_NO_THROW(buf.finish());
}

TEST(Framing, DeeplyNestedFrameIsBadJsonAndDecodingContinues) {
  // ~200 KB of nesting, far under the frame cap: the parser's depth
  // limit turns it into a typed error instead of a stack overflow.
  const std::size_t depth = 100'000;
  FrameBuffer buf;
  buf.feed(std::string(depth, '[') + std::string(depth, ']') + "\n" +
           encode_frame(sample(4.0)));
  EXPECT_EQ(kind_of([&] { (void)buf.next(); }), FrameErrorKind::BadJson);
  const auto frame = buf.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->at("value").as_number(), 4.0);
  EXPECT_NO_THROW(buf.finish());
}

TEST(Framing, InterleavedFramesAcrossFeedsDecodeInOrder) {
  const std::string a = encode_frame(sample(1.0));
  const std::string b = encode_frame(sample(2.0));
  FrameBuffer buf;
  buf.feed(a.substr(0, 5));
  EXPECT_FALSE(buf.next().has_value());
  buf.feed(a.substr(5) + b.substr(0, 3));
  const auto first = buf.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->at("value").as_number(), 1.0);
  EXPECT_FALSE(buf.next().has_value());  // b is still partial
  buf.feed(b.substr(3));
  const auto second = buf.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->at("value").as_number(), 2.0);
}

}  // namespace
