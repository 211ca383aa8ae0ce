/// \file string_utils.hpp
/// Small string helpers used by the textual frontends and printers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qirkit {

/// Remove leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split \p s on \p sep; empty fields are kept.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

/// Split \p s into lines, accepting both "\n" and "\r\n" endings.
[[nodiscard]] std::vector<std::string_view> splitLines(std::string_view s);

/// Parse a signed 64-bit integer; returns nullopt on malformed input or
/// overflow. Accepts an optional leading '-'.
[[nodiscard]] std::optional<std::int64_t> parseInt(std::string_view s) noexcept;

/// Parse a double; returns nullopt on malformed input.
[[nodiscard]] std::optional<double> parseDouble(std::string_view s) noexcept;

/// True if \p c may start an LLVM identifier ([A-Za-z$._]).
[[nodiscard]] bool isIdentStart(char c) noexcept;

/// True if \p c may continue an LLVM identifier ([A-Za-z0-9$._-]).
[[nodiscard]] bool isIdentChar(char c) noexcept;

/// Format a double the way LLVM's textual IR does for human-friendly
/// values: shortest representation that round-trips.
[[nodiscard]] std::string formatDouble(double value);

/// Quote a string using LLVM's escaping rules ("\\xx" hex escapes for
/// non-printable bytes, '"' and '\\').
[[nodiscard]] std::string quoteString(std::string_view s);

/// 64-bit FNV-1a of \p s. Program ids (the serve protocol's program_id)
/// and tenant seed streams are built on it, so its values never change.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s) noexcept;

} // namespace qirkit
