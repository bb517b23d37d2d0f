// Small string utilities used throughout the parsers and log generators.
// Everything operates on std::string_view and never allocates unless it
// returns std::string / std::vector by value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail::util {

[[nodiscard]] constexpr bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] constexpr bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

[[nodiscard]] constexpr bool contains(std::string_view s, std::string_view needle) noexcept {
  return s.find(needle) != std::string_view::npos;
}

/// Strips ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Splits on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits text into non-empty line views on '\n', stripping a trailing
/// '\r' from each line (CRLF corpora parse identically to LF ones).
[[nodiscard]] std::vector<std::string_view> split_lines(std::string_view text);

/// Splits on runs of ASCII whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// Splits into at most `max_fields` pieces; the last piece keeps the rest.
[[nodiscard]] std::vector<std::string_view> split_n(std::string_view s, char sep,
                                                    std::size_t max_fields);

[[nodiscard]] std::string to_lower(std::string_view s);

[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view s) noexcept;
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept;
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;

/// Writers for the render hot path: each appends exactly the bytes printf
/// would produce for the named conversion, with no temporary string and no
/// snprintf.

/// `v` in decimal, as "%lld" prints it.
void append_int(std::string& out, std::int64_t v);

/// `v` zero-padded to at least `width` (at most 24) digits, as "%0*llu"
/// prints it; a value with more digits than `width` prints all of them.
void append_uint(std::string& out, std::uint64_t v, int width = 0);

/// `v` with `precision` (0..64) decimals, as "%.*f" prints it in the C
/// locale: correctly rounded, "-0.000" for -0.0, "nan"/"inf" spelled as
/// printf spells them (std::to_chars is specified to match printf).
void append_fixed(std::string& out, double v, int precision);

[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// If `s` starts with `prefix`, returns the remainder; otherwise nullopt.
[[nodiscard]] std::optional<std::string_view> strip_prefix(std::string_view s,
                                                           std::string_view prefix) noexcept;

/// Returns the text between the first occurrences of `open` then `close`
/// after it, e.g. extract_between("a [b] c", "[", "]") == "b".
[[nodiscard]] std::optional<std::string_view> extract_between(std::string_view s,
                                                              std::string_view open,
                                                              std::string_view close) noexcept;

/// Value of a "key=value" token in a whitespace-separated line; the value
/// ends at the next whitespace.
[[nodiscard]] std::optional<std::string_view> find_kv(std::string_view line,
                                                      std::string_view key) noexcept;

}  // namespace hpcfail::util
