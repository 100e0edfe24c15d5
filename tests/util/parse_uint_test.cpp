#include "util/parse_uint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace ccd {
namespace {

TEST(ParseUint, AcceptsDigitsUpToTheTypeMaximum) {
  EXPECT_EQ(parse_uint<std::uint32_t>("0"), 0u);
  EXPECT_EQ(parse_uint<std::uint32_t>("007"), 7u);
  EXPECT_EQ(parse_uint<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_EQ(parse_uint<std::uint64_t>("18446744073709551615"),
            18446744073709551615u);
  EXPECT_EQ(parse_uint<std::uint8_t>("255"), 255u);
}

TEST(ParseUint, RejectsValuesPastTheTypeMaximum) {
  std::string why;
  EXPECT_FALSE(parse_uint<std::uint32_t>("4294967296", &why));
  EXPECT_EQ(why, "out of range (max 4294967295)");
  EXPECT_FALSE(parse_uint<std::uint32_t>("4294967300"));
  EXPECT_FALSE(parse_uint<std::uint64_t>("18446744073709551616", &why));
  EXPECT_EQ(why, "out of range (max 18446744073709551615)");
  EXPECT_FALSE(parse_uint<std::uint8_t>("256", &why));
  EXPECT_EQ(why, "out of range (max 255)");
}

TEST(ParseUint, RejectsSignsSpacesAndJunk) {
  for (const char* text : {"", "-1", "-0", "+4", " 4", "4 ", "4x", "0x10",
                           "1e3", "4,5", "\t7"}) {
    std::string why;
    EXPECT_FALSE(parse_uint<std::uint64_t>(text, &why)) << "'" << text << "'";
    EXPECT_EQ(why, "not an unsigned decimal integer") << "'" << text << "'";
  }
}

}  // namespace
}  // namespace ccd
