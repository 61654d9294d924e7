#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "util/cli.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace midas::util;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Csv, WritesRowsAndQuotesSpecials) {
  const std::string path = "/tmp/midas_test_csv.csv";
  {
    CsvWriter csv(path);
    csv.header({"a", "b"});
    csv.row({"plain", "with,comma"});
    csv.row({"with\"quote", "with\nnewline"});
  }
  const auto text = slurp(path);
  EXPECT_NE(text.find("a,b\n"), std::string::npos);
  EXPECT_NE(text.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"with\"\"quote\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, NumRoundTripsDoubles) {
  EXPECT_EQ(std::stod(CsvWriter::num(0.125)), 0.125);
  EXPECT_NEAR(std::stod(CsvWriter::num(1.9235e+06)), 1.9235e+06, 1e-3);
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"),
               std::runtime_error);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.5"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream out;
  t.print(out);
  const auto text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, NumericFormatters) {
  EXPECT_EQ(Table::sci(4521000.0), "4.521e+06");
  EXPECT_EQ(Table::fix(3.14159, 2), "3.14");
}

TEST(Cli, ParsesBothFlagSyntaxes) {
  Cli cli("prog", "test");
  cli.flag("alpha", 1.5, "a double");
  cli.flag("count", 7, "an int");
  cli.flag("name", std::string("x"), "a string");

  const char* argv[] = {"prog", "--alpha", "2.5", "--count=9",
                        "--name", "hello"};
  ASSERT_TRUE(cli.parse(6, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 2.5);
  EXPECT_EQ(cli.get_int("count"), 9);
  EXPECT_EQ(cli.get_string("name"), "hello");
}

TEST(Cli, DefaultsSurviveWhenUnset) {
  Cli cli("prog", "test");
  cli.flag("alpha", 1.5, "a double");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 1.5);
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli("prog", "test");
  cli.flag("alpha", 1.5, "a double");
  const char* argv[] = {"prog", "--beta", "3"};
  EXPECT_THROW((void)cli.parse(3, const_cast<char**>(argv)),
               std::invalid_argument);
}

TEST(Cli, MissingValueThrows) {
  Cli cli("prog", "test");
  cli.flag("alpha", 1.5, "a double");
  const char* argv[] = {"prog", "--alpha"};
  EXPECT_THROW((void)cli.parse(2, const_cast<char**>(argv)),
               std::invalid_argument);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, WrongTypeAccessThrows) {
  Cli cli("prog", "test");
  cli.flag("alpha", 1.5, "a double");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, const_cast<char**>(argv)));
  EXPECT_THROW((void)cli.get_int("alpha"), std::invalid_argument);
}

TEST(Cli, SmallDoubleDefaultSurvives) {
  // Regression: std::to_string rendered a 1e-12 default as "0.000000",
  // silently replacing sub-micro defaults with zero (sweep_merge's
  // equality tolerance among them).
  Cli cli("prog", "test");
  cli.flag("tol", 1e-12, "tolerance");
  cli.flag("big", 2.5e+300, "huge");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_double("tol"), 1e-12);
  EXPECT_EQ(cli.get_double("big"), 2.5e+300);
}

TEST(Json, ScalarsAndContainersRoundTrip) {
  auto obj = Json::object();
  obj.set("name", Json("shard \"zero\"\n"));
  obj.set("count", Json(12.0));
  obj.set("precise", Json(0.1234567890123456789));
  obj.set("flag", Json(true));
  obj.set("nothing", Json());
  auto arr = Json::array();
  arr.push_back(Json(1.0));
  arr.push_back(Json(-2.5e-13));
  obj.set("values", std::move(arr));

  const auto parsed = Json::parse(obj.dump());
  EXPECT_EQ(parsed.at("name").as_string(), "shard \"zero\"\n");
  EXPECT_EQ(parsed.at("count").as_size(), 12u);
  // Bitwise round-trip is what the shard files rely on.
  EXPECT_EQ(parsed.at("precise").as_number(), 0.1234567890123456789);
  EXPECT_TRUE(parsed.at("flag").as_bool());
  EXPECT_TRUE(parsed.at("nothing").is_null());
  EXPECT_EQ(parsed.at("values").size(), 2u);
  EXPECT_EQ(parsed.at("values").at(1).as_number(), -2.5e-13);
}

TEST(Json, NonFiniteDoublesUseFlagStrings) {
  const double inf = std::numeric_limits<double>::infinity();
  auto obj = Json::object();
  obj.set("pos", Json::number(inf));
  obj.set("neg", Json::number(-inf));
  obj.set("nan", Json::number(std::nan("")));
  obj.set("finite", Json::number(3.5));

  const auto parsed = Json::parse(obj.dump());
  EXPECT_EQ(parsed.at("pos").to_double(), inf);
  EXPECT_EQ(parsed.at("neg").to_double(), -inf);
  EXPECT_TRUE(std::isnan(parsed.at("nan").to_double()));
  EXPECT_EQ(parsed.at("finite").to_double(), 3.5);
  // Strict JSON: the dump contains no bare inf/nan tokens.
  const auto text = obj.dump();
  EXPECT_EQ(text.find(": inf"), std::string::npos);
  EXPECT_EQ(text.find(": nan"), std::string::npos);
}

TEST(Json, ParseAcceptsHandwrittenDocuments) {
  const auto v = Json::parse(R"({
    "a": [1, 2.5, {"nested": "yés"}],
    "b": false
  })");
  EXPECT_EQ(v.at("a").at(0).as_size(), 1u);
  EXPECT_EQ(v.at("a").at(2).at("nested").as_string(), "y\xC3\xA9s");
  EXPECT_FALSE(v.at("b").as_bool());
}

TEST(Json, MalformedDocumentsThrow) {
  EXPECT_THROW((void)Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\": 1} trailing"),
               std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("12e4000x"), std::runtime_error);
  // A number beyond the double range would decode to inf and re-encode
  // as the non-JSON "inf".
  EXPECT_THROW((void)Json::parse("[1e999]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("-1e999"), std::runtime_error);
  // Nesting is bounded (512 levels), so a deep document is an error
  // instead of a stack overflow.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)Json::parse(nested(512)));
  EXPECT_THROW((void)Json::parse(nested(513)), std::runtime_error);
  EXPECT_THROW((void)Json::parse(nested(100'000)), std::runtime_error);
  // Type and key errors are descriptive.
  const auto v = Json::parse("{\"a\": 1.5}");
  EXPECT_THROW((void)v.at("missing"), std::runtime_error);
  EXPECT_THROW((void)v.at("a").as_string(), std::runtime_error);
  EXPECT_THROW((void)v.at("a").as_size(), std::runtime_error);  // fraction
}

TEST(Json, FileRoundTrip) {
  const std::string path = "/tmp/midas_test_json.json";
  auto obj = Json::object();
  obj.set("x", Json(0.5));
  write_json_file(path, obj);
  const auto back = read_json_file(path);
  EXPECT_EQ(back.at("x").as_number(), 0.5);
  std::remove(path.c_str());
  EXPECT_THROW((void)read_json_file("/nonexistent/nope.json"),
               std::runtime_error);
}

TEST(Cli, RequiredReportsEveryMissingFlagAtOnce) {
  // One round trip, not N: a user who forgot three flags learns about
  // all three in a single error.
  Cli cli("prog", "test");
  cli.flag("port", 0, "listen port")
      .flag("name", std::string("w"), "worker name")
      .flag("out", std::string(), "output path")
      .flag("timeout", 5.0, "seconds")
      .required("port")
      .required("out")
      .required("timeout");
  const char* argv[] = {"prog", "--name", "w0", "--timeout", "3"};
  try {
    (void)cli.parse(5, const_cast<char**>(argv));
    FAIL() << "expected a missing-required-flag error";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--port"), std::string::npos) << what;
    EXPECT_NE(what.find("--out"), std::string::npos) << what;
    // Provided flags are NOT in the complaint.
    EXPECT_EQ(what.find("--timeout"), std::string::npos) << what;
    EXPECT_EQ(what.find("--name"), std::string::npos) << what;
  }

  // The explicit default is a valid witness: passing --port 0 counts.
  Cli ok("prog", "test");
  ok.flag("port", 0, "listen port").required("port");
  const char* good[] = {"prog", "--port", "0"};
  EXPECT_TRUE(ok.parse(3, const_cast<char**>(good)));
  EXPECT_EQ(ok.get_int("port"), 0);

  // required() on an unregistered flag is a programmer error.
  Cli typo("prog", "test");
  EXPECT_THROW(typo.required("no-such-flag"), std::logic_error);
}

TEST(Json, DumpCompactIsOneLineAndSemanticallyIdentical) {
  auto j = Json::object();
  j.set("text", Json("line1\nline2\ttab"));
  auto arr = Json::array();
  arr.push_back(Json(1.5));
  arr.push_back(Json(true));
  auto inner = Json::object();
  inner.set("k", Json("v"));
  arr.push_back(inner);
  j.set("items", arr);

  const std::string compact = j.dump_compact();
  // No raw newline anywhere: compact dumps are frameable as-is.
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  // Same document as the pretty dump, byte-for-byte after a round trip.
  EXPECT_EQ(Json::parse(compact).dump(), j.dump());
  EXPECT_EQ(Json::parse(j.dump()).dump_compact(), compact);
}

}  // namespace
