// Whole-token number parsing for every number read from untrusted text:
// command-line values, environment overrides (BBLAB_CACHE_TMP_TTL_S),
// fault specs and user-records CSV fields.
// The `source_scan` test keeps it the only one: it fails on any std::sto*,
// strto* or ato* call under src/ or tools/, since those skip leading
// blanks, accept '+' and hex, and wrap negatives into unsigned results.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace bblab {

/// `text` read as a T by std::from_chars, which must consume all of it.
/// So there is no leading whitespace, no '+', no trailing suffix ("10GB",
/// "1e9" for an integer), no sign at all for an unsigned T, and no empty
/// token; a value out of T's range is rejected instead of wrapping. A
/// floating-point T also reads "inf" and "nan": callers that need a
/// finite value check for one. nullopt on any rejection.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace bblab
