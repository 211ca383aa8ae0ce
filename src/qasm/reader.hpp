/// \file reader.hpp
/// The one OpenQASM reader under both frontends and the loader's
/// classifier: the lexer, the token cursor, the `OPENQASM <version>;` and
/// `include` rule, and the register table. Every QASM byte a tenant sends
/// passes through here, so this is where that input is checked and
/// bounded. Each frontend keeps only its statement grammar, its
/// expression parser and its output.
///
/// The lexer accepts the union of both dialects' tokens (`->`, `^`, `:`,
/// `=`, reals written `.5`, `//` and `/* */` comments); each grammar
/// rejects the tokens it does not use.
#pragma once

#include "support/error.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qirkit::qasm {

enum class Tok : std::uint8_t {
  Eof,
  Ident,
  Real,
  Int,
  String,
  LParen,
  RParen,
  LBracket,
  RBracket,
  LBrace,
  RBrace,
  Semi,
  Comma,
  Colon,
  Arrow, // ->
  Equal,
  EqEq,
  Plus,
  Minus,
  Star,
  Slash,
  Caret,
};

struct Token {
  Tok kind = Tok::Eof;
  std::string text; // identifier name or string contents
  double real = 0;
  long long integer = 0;
  SourceLoc loc;
};

/// A declared register: a run of the program's one qubit index space or
/// its one bit index space.
struct Register {
  std::string name;
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
  bool quantum = true;
};

/// The version number of \p source's header: nullopt unless its first
/// token, after whitespace and comments, is `OPENQASM` (a text the lexer
/// cannot start on has none); 0 when no number follows. Never throws.
[[nodiscard]] std::optional<double> headerVersion(std::string_view source) noexcept;

/// A token cursor over the whole of a source, lexed eagerly, plus the
/// register table its declarations fill. Errors are qirkit::ParseError
/// at the offending token unless noted.
class Reader {
public:
  /// Lex \p source; throws ParseError at the first character no token
  /// starts with.
  explicit Reader(std::string_view source);

  // -- cursor --------------------------------------------------------------
  [[nodiscard]] const Token& cur() const { return tokens_[pos_]; }
  [[nodiscard]] bool at(Tok kind) const { return cur().kind == kind; }
  [[nodiscard]] bool atIdent(std::string_view text) const {
    return at(Tok::Ident) && cur().text == text;
  }
  /// The current token; the cursor moves past it unless it is Eof.
  const Token& take();
  bool accept(Tok kind);
  bool acceptIdent(std::string_view text);
  void expect(Tok kind, const char* what);
  void expectIdent(std::string_view text);
  /// Throw a ParseError at the current token.
  [[noreturn]] void fail(const std::string& message) const;

  /// `OPENQASM <version>;`, whatever the version.
  void readHeader();
  /// If the cursor is at `include`, read `include "<file>";` and require
  /// \p file, the one include this dialect provides.
  bool acceptInclude(std::string_view file);

  // -- registers -------------------------------------------------------------
  /// Declare a register from its name and size tokens. Qubit and bit
  /// registers share one name space. A declaration that takes the
  /// program's qubits or bits past passes::kMaxExpandedModuleSize is an
  /// error[semantic]: every declared bit becomes an output record, used
  /// or not, so an 18-byte declaration could otherwise ask for gigabytes.
  void declare(const Token& name, bool quantum, const Token& size);
  /// The register \p name declares, or nullptr.
  [[nodiscard]] const Register* find(std::string_view name) const;
  /// The register \p name names; unknown names and the wrong kind throw.
  [[nodiscard]] const Register& lookup(const Token& name, bool quantum) const;
  /// \p index into \p reg, checked against its size and reported at \p loc.
  std::uint32_t checkIndex(const Register& reg, std::int64_t index, SourceLoc loc) const;
  [[nodiscard]] std::uint32_t numQubits() const noexcept { return numQubits_; }
  [[nodiscard]] std::uint32_t numBits() const noexcept { return numBits_; }

private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::map<std::string, Register, std::less<>> registers_;
  std::uint32_t numQubits_ = 0;
  std::uint32_t numBits_ = 0;
};

} // namespace qirkit::qasm
