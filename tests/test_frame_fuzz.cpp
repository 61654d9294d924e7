// Seeded mutation fuzz of the fleet's frame codec (util::FrameBuffer).
// Fleet-protocol frames — a worker hello, a lease carrying a spec and a
// result carrying a result payload — are truncated, duplicated, spliced,
// bit-flipped, salted with '\n', '\r', NUL and invalid UTF-8, given an
// overflowing number, nested deeply or decoded under a small frame cap,
// then fed in random chunk sizes.  Every input must yield frames that
// re-encode byte-stably or a typed FrameError: no other exception, no
// crash, no hang.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/experiment_presets.h"
#include "util/framing.h"
#include "util/json.h"

namespace {

using namespace midas;
using util::FrameBuffer;
using util::FrameError;
using util::FrameErrorKind;
using util::Json;
using util::encode_frame;

/// The three seed frames, encoded: a hello, a lease carrying the fig2_val
/// smoke spec, and a result carrying a small analytic result.
const std::vector<std::string>& seed_frames() {
  static const std::vector<std::string> frames = [] {
    Json hello = Json::object();
    hello.set("type", Json("hello"));
    hello.set("worker", Json("w0"));

    Json lease = Json::object();
    lease.set("type", Json("lease"));
    lease.set("request", Json("fuzz"));
    lease.set("shard", Json(1.0));
    lease.set("attempt", Json(2.0));
    lease.set("deadline_s", Json(30.5));
    lease.set("spec", core::experiment_preset("fig2_val", true).to_json());

    core::ExperimentSpec spec;
    spec.name = "frame-fuzz";
    spec.base = core::Params::paper_defaults();
    spec.base.n_init = 8;
    spec.base.max_groups = 1;
    core::AxisSpec t_ids;
    t_ids.param = "t_ids";
    t_ids.values = {60.0, 240.0};
    spec.axes = {std::move(t_ids)};
    spec.backends = {core::BackendKind::Analytic};
    core::ExperimentService service({.threads = 1});
    Json result = Json::object();
    result.set("type", Json("result"));
    result.set("worker", Json("w0"));
    result.set("request", Json("fuzz"));
    result.set("shard", Json(1.0));
    result.set("result", service.run(spec).to_json());

    return std::vector<std::string>{encode_frame(hello), encode_frame(lease),
                                    encode_frame(result)};
  }();
  return frames;
}

enum class Mutation {
  Truncate,
  Duplicate,
  Splice,
  FlipBits,
  InsertByte,
  Overflow,
  DeepNest,
  SmallCap,
  kCount,
};

struct Input {
  std::string bytes;
  std::size_t cap = std::size_t{1} << 24;
};

Input mutate(Mutation op, std::mt19937_64& rng) {
  const auto& seeds = seed_frames();
  const auto pick = [&]() -> const std::string& {
    return seeds[rng() % seeds.size()];
  };
  const auto pos = [&](const std::string& s) { return rng() % (s.size() + 1); };
  Input in{pick()};
  std::string& s = in.bytes;
  switch (op) {
    case Mutation::Truncate:
      s.resize(pos(s));
      break;
    case Mutation::Duplicate: {
      const std::size_t a = pos(s);
      const std::size_t b = a + rng() % (s.size() - a + 1);
      s.insert(b, s.substr(a, b - a));
      break;
    }
    case Mutation::Splice: {
      const std::string& t = pick();
      s = s.substr(0, pos(s)) + t.substr(pos(t));
      break;
    }
    case Mutation::FlipBits:
      for (std::size_t i = 0, n = 1 + rng() % 4; i < n; ++i) {
        s[rng() % s.size()] ^= static_cast<char>(1 + rng() % 255);
      }
      break;
    case Mutation::InsertByte: {
      static const std::array<std::string_view, 8> kBytes{
          "\n",         "\r",   std::string_view("\0", 1),
          "\xFF",       "\x80", "\xC0\xAF",  // lone continuation, overlong
          "\xED\xA0\x80",                    // UTF-16 surrogate
          "\xF4\x90\x80\x80",                // above U+10FFFF
      };
      s.insert(pos(s), kBytes[rng() % kBytes.size()]);
      break;
    }
    case Mutation::Overflow: {
      // A number value that overflows a double.
      std::vector<std::size_t> starts;
      for (std::size_t i = 1; i < s.size(); ++i) {
        if (s[i - 1] == ':' &&
            (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-')) {
          starts.push_back(i);
        }
      }
      if (starts.empty()) break;
      const std::size_t a = starts[rng() % starts.size()];
      std::size_t b = a;
      while (b < s.size() &&
             std::string_view("0123456789+-.eE").find(s[b]) !=
                 std::string_view::npos) {
        ++b;
      }
      s.replace(a, b - a, rng() % 2 ? "1e999" : "-1e999");
      break;
    }
    case Mutation::DeepNest: {
      // The frame wrapped in `depth` arrays: valid JSON up to the
      // parser's nesting limit, a typed error beyond it.
      const std::size_t depth = rng() % 4 == 0 ? 100'000 : 1 + rng() % 600;
      s.pop_back();  // the newline
      s = std::string(depth, '[') + s + std::string(depth, ']') + "\n";
      break;
    }
    case Mutation::SmallCap:
      in.cap = 1 + rng() % s.size();
      break;
    case Mutation::kCount:
      break;
  }
  return in;
}

struct Tally {
  std::size_t frames = 0;
  std::array<std::size_t, 4> errors{};  // by FrameErrorKind
};

/// A decoded frame must re-encode to bytes that decode to the same bytes.
void expect_stable(const Json& frame, const std::string& label) {
  const std::string once = encode_frame(frame);
  try {
    FrameBuffer again;
    again.feed(once);
    const auto back = again.next();
    ASSERT_TRUE(back.has_value()) << label;
    EXPECT_EQ(encode_frame(*back), once) << label;
    EXPECT_FALSE(again.next().has_value()) << label;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": re-encoded frame does not decode: "
                  << e.what() << "\n" << once.substr(0, 160);
  }
}

/// Feeds `in` in random chunks, draining complete frames after every
/// chunk; a malformed line is skipped (next() consumed it), an oversized
/// tail or a truncated end stops the stream.  Anything but a FrameError
/// fails the test.
void decode(const Input& in, std::mt19937_64& rng, const std::string& label,
            Tally& tally) {
  FrameBuffer buf(in.cap);
  // At least ~1/16 of the input per chunk, so a 200 KB input is not fed
  // a byte at a time.
  const std::size_t scale =
      std::max<std::size_t>(std::size_t{1} << (rng() % 13),
                            in.bytes.size() / 16);
  const auto drain = [&] {
    // Each next() consumes a line or returns nothing: a bounded loop.
    for (std::size_t guard = 0; guard <= in.bytes.size() + 1; ++guard) {
      std::optional<Json> frame;
      try {
        frame = buf.next();
      } catch (const FrameError& e) {
        ++tally.errors[static_cast<std::size_t>(e.kind())];
        continue;
      }
      if (!frame) return;
      ++tally.frames;
      expect_stable(*frame, label);
    }
    ADD_FAILURE() << label << ": next() did not run dry";
  };
  try {
    for (std::size_t at = 0; at < in.bytes.size();) {
      const std::size_t n =
          std::min<std::size_t>(in.bytes.size() - at, 1 + rng() % scale);
      buf.feed(std::string_view(in.bytes).substr(at, n));
      at += n;
      drain();
    }
    buf.finish();
  } catch (const FrameError& e) {
    ++tally.errors[static_cast<std::size_t>(e.kind())];
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": untyped error " << e.what();
  }
}

TEST(FrameFuzz, SeedFramesDecodeAndReEncodeByteStably) {
  std::string stream;
  for (const auto& frame : seed_frames()) stream += frame;
  FrameBuffer buf;
  buf.feed(stream);
  for (const auto& frame : seed_frames()) {
    const auto decoded = buf.next();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(encode_frame(*decoded), frame);
  }
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_NO_THROW(buf.finish());
}

TEST(FrameFuzz, MutatedFramesDecodeStablyOrFailTyped) {
  std::mt19937_64 rng(0xF4A3E);
  Tally tally;
  constexpr auto kOps = static_cast<std::size_t>(Mutation::kCount);
  for (std::size_t round = 0; round < 150 * kOps; ++round) {
    const auto op = static_cast<Mutation>(round % kOps);
    const Input in = mutate(op, rng);
    decode(in, rng,
           "round " + std::to_string(round) + " op " +
               std::to_string(static_cast<int>(op)),
           tally);
  }
  // The fuzz reaches every outcome.
  EXPECT_GT(tally.frames, 0u);
  for (const auto kind :
       {FrameErrorKind::Oversized, FrameErrorKind::Truncated,
        FrameErrorKind::BadUtf8, FrameErrorKind::BadJson}) {
    EXPECT_GT(tally.errors[static_cast<std::size_t>(kind)], 0u)
        << util::to_string(kind);
  }
}

}  // namespace
