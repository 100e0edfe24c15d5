// Exact unsigned-integer parsing for command-line values.
//
// strtoull accepts a leading sign or whitespace, saturates on overflow and
// leaves narrowing to the caller, so "-1" and "4294967300" both slip
// through a later static_cast as some other number.  parse_uint accepts
// decimal digits only and checks the value against the target type.
#pragma once

#include <charconv>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ccd {

/// All of `text` as a decimal T: one or more digits, nothing else (no
/// sign, no space), at most T's maximum.  On failure returns nullopt and,
/// when `why` is set, stores the reason.
template <typename T>
std::optional<T> parse_uint(std::string_view text, std::string* why = nullptr) {
  static_assert(std::is_unsigned_v<T>);
  auto fail = [&](std::string reason) -> std::optional<T> {
    if (why) *why = std::move(reason);
    return std::nullopt;
  };
  if (text.empty() || text.front() < '0' || text.front() > '9') {
    return fail("not an unsigned decimal integer");
  }
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc::result_out_of_range) {
    return fail("out of range (max " +
                std::to_string(std::numeric_limits<T>::max()) + ")");
  }
  if (ec != std::errc{} || ptr != last) {
    return fail("not an unsigned decimal integer");
  }
  return value;
}

}  // namespace ccd
