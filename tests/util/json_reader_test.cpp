// jsonu::Reader contract: exact numbers (overflow, a sign on a u64, leading
// zeros, "-0" and trailing junk are errors), strings as views with escapes
// decoded, iterative skip under a fixed depth limit, and keyed errors that
// name the member path.  Plus the stats codec built on it: canonical "h"
// bins, canonical "raw" spellings, duplicate keys, and no bare v1 arrays.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "util/stats.hpp"

namespace ccd::jsonu {
namespace {

bool read_one_u64(const std::string& text, std::uint64_t* out,
                  std::string* error) {
  Reader r(text);
  const bool ok = r.u64(out) && r.end();
  *error = r.error();
  return ok;
}

TEST(JsonReader, UnsignedIntegersAreExactOrErrors) {
  std::uint64_t v = 0;
  std::string error;
  ASSERT_TRUE(read_one_u64("18446744073709551615", &v, &error)) << error;
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(read_one_u64(" 0 ", &v, &error)) << error;
  EXPECT_EQ(v, 0u);
  for (const char* bad : {"18446744073709551616", "99999999999999999999999",
                          "-1", "-0", "01", "1.0", "1e3", "+1", "1x", "",
                          "\"5\"", "true", "0x10"}) {
    EXPECT_FALSE(read_one_u64(bad, &v, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonReader, SignedIntegersAndDoubles) {
  Reader r("[-9223372036854775808,9223372036854775807,0.1,-2.5e-3,1E2]");
  std::int64_t lo = 0, hi = 0;
  double a = 0, b = 0, c = 0;
  ASSERT_TRUE(r.begin_array());
  ASSERT_TRUE(r.next_element() && r.i64(&lo));
  ASSERT_TRUE(r.next_element() && r.i64(&hi));
  ASSERT_TRUE(r.next_element() && r.f64(&a));
  ASSERT_TRUE(r.next_element() && r.f64(&b));
  ASSERT_TRUE(r.next_element() && r.f64(&c));
  EXPECT_FALSE(r.next_element());
  ASSERT_TRUE(r.end()) << r.error();
  EXPECT_EQ(lo, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(hi, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(a, 0.1);
  EXPECT_EQ(b, -2.5e-3);
  EXPECT_EQ(c, 100.0);

  for (const char* bad : {"-9223372036854775809", "-0", "1.5", "--1"}) {
    Reader s(bad);
    std::int64_t v = 0;
    EXPECT_FALSE(s.i64(&v) && s.end()) << bad;
  }
  for (const char* bad : {"1.", ".5", "1e", "1e400", "01.5", "-", "1.5.3",
                          "NaN", "inf"}) {
    Reader s(bad);
    double v = 0;
    EXPECT_FALSE(s.f64(&v) && s.end()) << bad;
  }
}

TEST(JsonReader, StringsAreViewsAndEscapesDecode) {
  const std::string text = R"({"plain":"abc","esc":"a\"b\\c","k\\":1})";
  Reader r(text);
  std::string_view key, value;
  ASSERT_TRUE(r.begin_object());
  ASSERT_TRUE(r.next_member(&key));
  EXPECT_EQ(key, "plain");
  ASSERT_TRUE(r.string(&value));
  EXPECT_EQ(value, "abc");
  // No escape: the view points into the input itself.
  EXPECT_GE(value.data(), text.data());
  EXPECT_LT(value.data(), text.data() + text.size());
  ASSERT_TRUE(r.next_member(&key));
  ASSERT_TRUE(r.string(&value));
  EXPECT_EQ(value, "a\"b\\c");
  ASSERT_TRUE(r.next_member(&key));
  EXPECT_EQ(key, "k\\");
  std::uint64_t one = 0;
  ASSERT_TRUE(r.u64(&one));
  EXPECT_FALSE(r.next_member(&key));
  EXPECT_TRUE(r.end()) << r.error();
  EXPECT_EQ(quote("a\"b\\c"), R"("a\"b\\c")");

  // Only quote()'s two escapes are ours; raw control bytes are not JSON.
  for (const char* bad : {"\"abc", "\"a\\x\"", "\"a\\n\"", "\"\\u0041\"",
                          "\"a\\/\"", "\"a\nb\"", "\"a\\"}) {
    Reader s(bad);
    std::string_view v;
    EXPECT_FALSE(s.string(&v) && s.end()) << bad;
    EXPECT_NE(s.error().find("byte "), std::string::npos)
        << bad << " -> " << s.error();
  }
}

TEST(JsonReader, StructuralErrorsAreKeyedWithAPath) {
  {
    Reader r(R"({"cells":[{"runs":1},{"runs":-3}]})");
    std::string_view key;
    ASSERT_TRUE(r.begin_object() && r.next_member(&key) && r.begin_array());
    std::uint64_t v = 0;
    ASSERT_TRUE(r.next_element() && r.begin_object() && r.next_member(&key));
    ASSERT_TRUE(r.u64(&v));
    EXPECT_FALSE(r.next_member(&key));
    ASSERT_TRUE(r.next_element() && r.begin_object() && r.next_member(&key));
    EXPECT_FALSE(r.u64(&v));
    EXPECT_EQ(r.error(),
              "bad value '-3' for key 'runs' in cells[1] (expected an "
              "unsigned 64-bit integer)");
    // The first error sticks.
    EXPECT_FALSE(r.next_member(&key));
    EXPECT_FALSE(r.end());
  }
  {
    Reader r(R"({"a":{"b":[1,2)");
    EXPECT_FALSE(r.skip());
    EXPECT_NE(r.error().find("unexpected end of input"), std::string::npos)
        << r.error();
    EXPECT_NE(r.error().find("key 'b' element [1] in a"), std::string::npos)
        << r.error();
  }
  for (const char* bad : {"{\"a\":1,}", "{\"a\" 1}", "[1 2]", "{1:2}", "[1,]",
                          "{} {}", "{\"a\":nul}", "[tru]"}) {
    Reader r(bad);
    EXPECT_FALSE(r.skip() && r.end()) << bad;
    EXPECT_NE(r.error().find("byte "), std::string::npos)
        << bad << " -> " << r.error();
  }
}

TEST(JsonReader, SkipValidatesEveryKindAndRawReturnsTheText) {
  const std::string text =
      R"({"a":[1,-2.5e3,"x\"y",true,false,null,{"b":{}},[]],"c":0})";
  Reader r(text);
  std::string_view key, raw;
  ASSERT_TRUE(r.begin_object() && r.next_member(&key));
  ASSERT_TRUE(r.raw(&raw)) << r.error();
  EXPECT_EQ(raw, R"([1,-2.5e3,"x\"y",true,false,null,{"b":{}},[]])");
  ASSERT_TRUE(r.next_member(&key) && r.skip());
  EXPECT_FALSE(r.next_member(&key));
  EXPECT_TRUE(r.end()) << r.error();
}

TEST(JsonReader, NestingPastTheLimitFailsWithoutRecursing) {
  // At the limit: fine.
  std::string at_limit(kMaxDepth, '[');
  at_limit += std::string(kMaxDepth, ']');
  Reader ok(at_limit);
  EXPECT_TRUE(ok.skip() && ok.end()) << ok.error();

  // Far past it -- deep enough that a recursive skip would overflow the
  // stack -- is a keyed error.
  const std::size_t deep = 200000;
  std::string hostile = "{\"x\":" + std::string(deep, '[') +
                        std::string(deep, ']') + "}";
  Reader r(hostile);
  EXPECT_FALSE(r.skip());
  EXPECT_NE(r.error().find("nesting deeper than"), std::string::npos)
      << r.error().substr(0, 200);
  EXPECT_NE(r.error().find("key 'x'"), std::string::npos)
      << r.error().substr(0, 200);
}

TEST(JsonReader, ClaimAndUnknownKeyNameTheKey) {
  Reader r(R"({"o":{"k":1,"k":2}})");
  std::string_view key;
  std::uint64_t seen = 0, v = 0;
  ASSERT_TRUE(r.begin_object() && r.next_member(&key) && r.begin_object());
  ASSERT_TRUE(r.next_member(&key) && r.claim(&seen, 0) && r.u64(&v));
  ASSERT_TRUE(r.next_member(&key));
  EXPECT_FALSE(r.claim(&seen, 0));
  EXPECT_EQ(r.error(), "duplicate key 'k' in o");

  Reader u(R"({"typo":1})");
  ASSERT_TRUE(u.begin_object() && u.next_member(&key));
  EXPECT_FALSE(u.unknown_key("a, b"));
  EXPECT_EQ(u.error(), "unknown key 'typo' (expected a, b)");
}

TEST(JsonReader, CanonicalDoublesMatchTheWriter) {
  for (double x : {0.0, -0.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 7.0 / 3.0, 1e-7,
                   12345.678, 1e25, 5e-324, 1.7976931348623157e308}) {
    const std::string token = format_double(x);
    EXPECT_TRUE(is_canonical_double(token, x)) << token;
  }
  EXPECT_FALSE(is_canonical_double("1e25", 1e25));   // writer: 1e+25
  EXPECT_FALSE(is_canonical_double("0.50", 0.5));
  EXPECT_FALSE(is_canonical_double("2.3333333333333334", 7.0 / 3.0));
}

// ---- the stats codec on the reader ----------------------------------------

TEST(StatsJson, KeyedErrorsForNonCanonicalOrHostileEncodings) {
  struct Case {
    const char* json;
    const char* expect_in_error;
  };
  const Case cases[] = {
      {R"({"h":[5,1],"h":[7,1]})", "duplicate key 'h'"},
      {R"({"h":[5,1],"raw":[0.5]})", "both 'h' and 'raw'"},
      {R"({"h":[5,1,3,1]})", "not strictly ascending"},
      {R"({"h":[5,0]})", "bad count 0"},
      {R"({"h":[5]})", "has no count"},
      {R"({"h":[5,-1]})", "bad value '-1' for key 'h' element [1]"},
      {R"({"h":[99999999999999999999,1]})", "bad value '99999999999999999999'"},
      {R"({"h":[9007199254740993,1]})", "exact-integer window"},
      {R"({"h":[1,18446744073709551615,2,1]})", "bad count"},
      {R"({"raw":[0.50]})", "shortest round-trip"},
      {R"({"raw":[2.3333333333333334]})", "shortest round-trip"},
      {R"({"hist":[]})", "unknown key 'hist'"},
      {R"({})", "no 'h' or 'raw'"},
      {"[3,1,2,2]", "expected an object"},  // the retired v1 bare array
      {R"({"h":[]} x)", "after the top-level value"},
  };
  for (const Case& c : cases) {
    Stats s;
    std::string error;
    EXPECT_FALSE(stats_from_json(c.json, &s, &error)) << c.json;
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos)
        << c.json << " -> " << error;
  }
}

TEST(StatsJson, TheEncodingPicksTheStorageMode) {
  // A raw encoding of integer samples stays raw (and in its order), an "h"
  // encoding stays a histogram: either way the bytes come back unchanged.
  for (const char* json : {R"({"raw":[4,3,1.5]})", R"({"raw":[1,2]})",
                           R"({"raw":[]})", R"({"h":[]})",
                           R"({"h":[-3,2,0,1,1000000,7]})",
                           R"({"raw":[-0,0.3333333333333333,1e-07]})"}) {
    Stats s;
    std::string error;
    ASSERT_TRUE(stats_from_json(json, &s, &error)) << json << ": " << error;
    EXPECT_EQ(stats_to_json(s), json);
  }
  Stats into{Stats::Mode::kRawSamples};
  std::string error;
  ASSERT_TRUE(stats_from_json(R"({"h":[2,3]})", &into, &error)) << error;
  EXPECT_TRUE(into.histogram_active());
  EXPECT_EQ(into.count(), 3u);
}

}  // namespace
}  // namespace ccd::jsonu
