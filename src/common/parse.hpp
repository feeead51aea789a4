// Strict number parsing for environment knobs and command-line flags.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace cmm {

/// `text` as a T (an unsigned integer or a floating-point type) when all
/// of it parses, else nullopt: empty, a sign on an unsigned type, a
/// fraction or exponent on an integer, trailing characters and
/// out-of-range values are all rejected ("8e6" is not 8, "2x" is not 2).
template <typename T>
std::optional<T> parse_number(std::string_view text) noexcept {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return value;
}

}  // namespace cmm
