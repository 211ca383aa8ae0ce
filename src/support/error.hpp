/// \file error.hpp
/// The structured error taxonomy shared by every layer of the stack:
/// frontends (parse), the verifier (verify), both execution engines
/// (trap-*), the bytecode compiler (compile-fail), and the shot executor
/// (resource limits, injected faults).
///
/// Every qirkit exception derives from Error and therefore carries a
/// machine-readable ErrorCode, a severity, a source location (when one is
/// known), and a transient/permanent flag. Callers that need to make a
/// recovery decision — retry the shot, fall back to the reference engine,
/// count the failure and move on — switch on code() and transient()
/// instead of string-matching what(). ParseError, SemanticError, and the
/// engines' TrapError are thin wrappers that pick the right code, so
/// pre-taxonomy catch sites keep compiling unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace qirkit {

/// A position in a source buffer. Lines and columns are 1-based; a value
/// of 0 means "unknown".
struct SourceLoc {
  std::uint32_t line = 0;
  std::uint32_t col = 0;

  [[nodiscard]] bool isValid() const noexcept { return line != 0; }
  [[nodiscard]] std::string str() const;

  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

/// Severity of a diagnostic message.
enum class Severity { Note, Warning, Error };

/// A single diagnostic: severity, location, and message. Frontends collect
/// these; fatal conditions are additionally thrown as ParseError.
struct Diagnostic {
  Severity severity = Severity::Error;
  SourceLoc loc;
  std::string message;

  [[nodiscard]] std::string str() const;
};

/// The error taxonomy, one row per code: X(enumerator, kebab-case name).
/// The names are stable: the CLI prints error[<name>], and serve responses
/// carry them back to `qirkit submit`.
#define QIRKIT_ERROR_CODES(X)                                                  \
  X(Parse, "parse")             /* malformed textual input (QIR, QASM) */     \
  X(Verify, "verify")           /* IR verifier rejected the module */         \
  X(Semantic, "semantic")       /* semantic invariant (profiles, targets) */  \
  X(Io, "io")                   /* file cannot be read or written */          \
  X(Usage, "usage")             /* bad command-line invocation */             \
  X(Trap, "trap")               /* generic dynamic violation */               \
  X(TrapOutOfBounds, "trap-out-of-bounds") /* memory outside the arena */     \
  X(TrapUnboundExternal, "trap-unbound-external") /* no runtime binding */    \
  X(TrapArithmetic, "trap-arithmetic") /* division by zero, big shift */      \
  X(TrapInvalidQubit, "trap-invalid-qubit") /* released or unknown qubit */   \
  X(TrapUnreachable, "trap-unreachable") /* executed 'unreachable' */         \
  X(StepBudgetExceeded, "step-budget-exceeded") /* hit the step limit */      \
  X(ResourceLimit, "resource-limit") /* stack, qubit budget or arena */       \
  X(CompileFail, "compile-fail") /* module cannot be lowered to bytecode */   \
  X(InjectedFault, "injected-fault") /* fault-injection hook fired */         \
  X(Deadline, "deadline")       /* deadline exceeded or request cancelled */  \
  X(Internal, "internal")       /* invariant broken inside qirkit itself */

/// What went wrong, as a machine-readable class. The CLI maps these to its
/// exit-code contract and prints them as error[<name>]; the shot executor
/// keys its per-shot failure histogram on them.
#define QIRKIT_ERROR_ENUMERATOR(name, text) name,
enum class ErrorCode : std::uint8_t { QIRKIT_ERROR_CODES(QIRKIT_ERROR_ENUMERATOR) };
#undef QIRKIT_ERROR_ENUMERATOR

/// The number of error codes, for tables indexed by ErrorCode.
#define QIRKIT_ERROR_ONE(name, text) +1
inline constexpr std::size_t kNumErrorCodes = 0 QIRKIT_ERROR_CODES(QIRKIT_ERROR_ONE);
#undef QIRKIT_ERROR_ONE

/// Stable kebab-case name ("trap-out-of-bounds") used in CLI output and
/// serve responses.
[[nodiscard]] const char* errorCodeName(ErrorCode code) noexcept;

/// Reverse of errorCodeName, so `qirkit submit` can map a response's code
/// back onto the exit-code contract. Unknown names classify as Internal,
/// the conservative default.
[[nodiscard]] ErrorCode errorCodeFromName(std::string_view name) noexcept;

/// Base class of every qirkit exception: a std::runtime_error whose what()
/// is the (possibly decorated) human-readable message, plus the structured
/// fields recovery logic keys on.
class Error : public std::runtime_error {
public:
  explicit Error(ErrorCode code, const std::string& message, SourceLoc loc = {},
                 bool transient = false, Severity severity = Severity::Error)
      : std::runtime_error(message), message_(message), code_(code), loc_(loc),
        transient_(transient), severity_(severity) {}

  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] SourceLoc loc() const noexcept { return loc_; }
  /// Transient failures are worth retrying (with a fresh derived seed);
  /// permanent ones will fail the same way every time.
  [[nodiscard]] bool transient() const noexcept { return transient_; }
  [[nodiscard]] Severity severity() const noexcept { return severity_; }
  /// The undecorated message (what() may prefix a location).
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  /// The CLI diagnostic form: "error[<code>]: <message> at <loc>" (the
  /// location clause is omitted when unknown).
  [[nodiscard]] std::string formatted() const;

protected:
  /// For wrappers that decorate what() differently from message() —
  /// ParseError keeps its historical "line:col: message" what().
  Error(ErrorCode code, const std::string& whatText, const std::string& message,
        SourceLoc loc, bool transient)
      : std::runtime_error(whatText), message_(message), code_(code), loc_(loc),
        transient_(transient) {}

private:
  std::string message_;
  ErrorCode code_ = ErrorCode::Internal;
  SourceLoc loc_;
  bool transient_ = false;
  Severity severity_ = Severity::Error;
};

/// Exception thrown by parsers on unrecoverable input errors. Carries the
/// location of the offending token so callers can report it.
class ParseError : public Error {
public:
  ParseError(SourceLoc loc, const std::string& message)
      : Error(ErrorCode::Parse, format(loc, message), message, loc,
              /*transient=*/false) {}

private:
  static std::string format(SourceLoc loc, const std::string& message);
};

/// Exception thrown when a semantic invariant is violated (verifier
/// failures, profile violations, infeasible programs). The verifier passes
/// ErrorCode::Verify; everything else defaults to Semantic.
class SemanticError : public Error {
public:
  explicit SemanticError(const std::string& message,
                         ErrorCode code = ErrorCode::Semantic)
      : Error(code, message) {}
};

/// The structured fields of an in-flight exception, extracted for recovery
/// decisions without rethrowing.
struct ClassifiedError {
  ErrorCode code = ErrorCode::Internal;
  bool transient = false;
  SourceLoc loc;
  std::string message;
};

/// Classify any exception: Error subclasses keep their code; foreign
/// exceptions (std::bad_alloc, std::invalid_argument, ...) are Internal.
[[nodiscard]] ClassifiedError classifyException(const std::exception& e);

} // namespace qirkit
