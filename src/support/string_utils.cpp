#include "support/string_utils.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace qirkit {

std::string_view trim(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::vector<std::string_view> splitLines(std::string_view s) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t pos = s.find('\n', start);
    if (pos == std::string_view::npos) {
      if (start < s.size()) {
        lines.push_back(s.substr(start));
      }
      break;
    }
    std::string_view line = s.substr(start, pos - start);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    lines.push_back(line);
    start = pos + 1;
  }
  return lines;
}

std::optional<std::int64_t> parseInt(std::string_view s) noexcept {
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parseDouble(std::string_view s) noexcept {
  if (s.empty()) {
    return std::nullopt;
  }
  // std::from_chars for double is available in libstdc++ >= 11.
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  return value;
}

bool isIdentStart(char c) noexcept {
  return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '$' || c == '.' || c == '_';
}

bool isIdentChar(char c) noexcept {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '$' || c == '.' || c == '_' ||
         c == '-';
}

std::string formatDouble(double value) {
  if (std::isnan(value)) {
    return "nan";
  }
  if (std::isinf(value)) {
    return value > 0 ? "inf" : "-inf";
  }
  // Find the shortest precision that round-trips.
  for (int precision = 6; precision <= 17; ++precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == value) {
      std::string out(buf);
      // Ensure the token is recognizably a floating-point literal.
      if (out.find_first_of(".eE") == std::string::npos) {
        out += ".0";
      }
      return out;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quoteString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    const auto uc = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\' || uc < 0x20 || uc > 0x7e) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\%02X", uc);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

} // namespace qirkit
