// Small string helpers shared by the parsers and report writers.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ic {

/// The one way the tree reads a number from text (CLI flags, environment
/// variables, .bench and DIMACS files). The whole of `text` must be one
/// number that T can hold: for an integer T, decimal digits with a leading
/// '-' only when T is signed; for a floating T, a finite decimal value.
/// Anything else — empty text, surrounding spaces, a '+' sign, a trailing
/// suffix ("12abc"), a fraction for an integer T, a value that over- or
/// underflows T, inf or nan — gives std::nullopt.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                "parse_number reads integers and floating-point values");
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    // from_chars spells "inf" and "nan" as numbers; a parameter never is.
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on any character in `delims`, dropping empty pieces.
std::vector<std::string> split(std::string_view s, std::string_view delims);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Lower-case an ASCII string.
std::string to_lower(std::string_view s);

/// Upper-case an ASCII string.
std::string to_upper(std::string_view s);

/// Format a double the way the paper's tables do: fixed 4 decimals for small
/// magnitudes, scientific (e.g. "2.1450e+25") for huge ones.
std::string format_mse(double v);

/// Escape `s` for use inside a JSON string literal (no surrounding quotes):
/// `"` and `\` are backslash-escaped, common control characters use their
/// short forms (\n, \t, ...), anything else below 0x20 becomes \u00XX.
/// Every JSON writer in the tree (metrics, traces, the wire protocol) goes
/// through this one helper so none of them can disagree on validity.
std::string escape_json(std::string_view s);

/// escape_json wrapped in double quotes — a complete JSON string literal.
std::string json_quote(std::string_view s);

}  // namespace ic
