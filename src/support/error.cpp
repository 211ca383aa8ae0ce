#include "support/error.hpp"

namespace qirkit {

std::string SourceLoc::str() const {
  if (!isValid()) {
    return "<unknown>";
  }
  return std::to_string(line) + ":" + std::to_string(col);
}

std::string Diagnostic::str() const {
  const char* sev = severity == Severity::Error     ? "error"
                    : severity == Severity::Warning ? "warning"
                                                    : "note";
  return loc.str() + ": " + sev + ": " + message;
}

namespace {
#define QIRKIT_ERROR_NAME(name, text) text,
constexpr const char* kErrorCodeNames[] = {QIRKIT_ERROR_CODES(QIRKIT_ERROR_NAME)};
#undef QIRKIT_ERROR_NAME
} // namespace

const char* errorCodeName(ErrorCode code) noexcept {
  const auto i = static_cast<std::size_t>(code);
  return i < kNumErrorCodes ? kErrorCodeNames[i] : "internal";
}

ErrorCode errorCodeFromName(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kNumErrorCodes; ++i) {
    if (name == kErrorCodeNames[i]) {
      return static_cast<ErrorCode>(i);
    }
  }
  return ErrorCode::Internal;
}

std::string Error::formatted() const {
  std::string out = "error[";
  out += errorCodeName(code_);
  out += "]: ";
  out += message_;
  if (loc_.isValid()) {
    out += " at " + loc_.str();
  }
  return out;
}

std::string ParseError::format(SourceLoc loc, const std::string& message) {
  return loc.str() + ": " + message;
}

ClassifiedError classifyException(const std::exception& e) {
  if (const auto* err = dynamic_cast<const Error*>(&e)) {
    return {err->code(), err->transient(), err->loc(), err->message()};
  }
  return {ErrorCode::Internal, false, {}, e.what()};
}

} // namespace qirkit
