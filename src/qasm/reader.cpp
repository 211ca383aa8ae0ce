#include "qasm/reader.hpp"

#include "passes/pass.hpp"
#include "support/string_utils.hpp"

#include <cctype>

namespace qirkit::qasm {
namespace {

class Lexer {
public:
  explicit Lexer(std::string_view src) : src_(src) {}

  std::vector<Token> lexAll() {
    std::vector<Token> out;
    while (true) {
      Token t = next();
      const bool end = t.kind == Tok::Eof;
      out.push_back(std::move(t));
      if (end) {
        return out;
      }
    }
  }

  Token next() {
    // Skip whitespace and // and /* */ comments.
    while (!atEnd()) {
      if (std::isspace(static_cast<unsigned char>(peek())) != 0) {
        advance();
      } else if (peek() == '/' && peek(1) == '/') {
        while (!atEnd() && peek() != '\n') {
          advance();
        }
      } else if (peek() == '/' && peek(1) == '*') {
        advance();
        advance();
        while (!atEnd() && !(peek() == '*' && peek(1) == '/')) {
          advance();
        }
        if (!atEnd()) {
          advance();
          advance();
        }
      } else {
        break;
      }
    }
    Token t;
    t.loc = {line_, col_};
    if (atEnd()) {
      return t;
    }
    const char c = peek();
    switch (c) {
    case '(': advance(); t.kind = Tok::LParen; return t;
    case ')': advance(); t.kind = Tok::RParen; return t;
    case '[': advance(); t.kind = Tok::LBracket; return t;
    case ']': advance(); t.kind = Tok::RBracket; return t;
    case '{': advance(); t.kind = Tok::LBrace; return t;
    case '}': advance(); t.kind = Tok::RBrace; return t;
    case ';': advance(); t.kind = Tok::Semi; return t;
    case ',': advance(); t.kind = Tok::Comma; return t;
    case ':': advance(); t.kind = Tok::Colon; return t;
    case '+': advance(); t.kind = Tok::Plus; return t;
    case '*': advance(); t.kind = Tok::Star; return t;
    case '/': advance(); t.kind = Tok::Slash; return t;
    case '^': advance(); t.kind = Tok::Caret; return t;
    case '-':
      advance();
      t.kind = Tok::Minus;
      if (peek() == '>') {
        advance();
        t.kind = Tok::Arrow;
      }
      return t;
    case '=':
      advance();
      t.kind = Tok::Equal;
      if (peek() == '=') {
        advance();
        t.kind = Tok::EqEq;
      }
      return t;
    case '"': {
      advance();
      while (!atEnd() && peek() != '"') {
        t.text.push_back(advance());
      }
      if (atEnd()) {
        fail("unterminated string");
      }
      advance();
      t.kind = Tok::String;
      return t;
    }
    default:
      break;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))) != 0)) {
      std::string text;
      bool isReal = false;
      while (!atEnd()) {
        const char d = peek();
        if (std::isdigit(static_cast<unsigned char>(d)) != 0) {
          text.push_back(advance());
        } else if (d == '.' || d == 'e' || d == 'E') {
          isReal = true;
          text.push_back(advance());
          if ((d == 'e' || d == 'E') && (peek() == '+' || peek() == '-')) {
            text.push_back(advance());
          }
        } else {
          break;
        }
      }
      if (isReal) {
        const auto v = parseDouble(text);
        if (!v) {
          fail("malformed real literal");
        }
        t.kind = Tok::Real;
        t.real = *v;
      } else {
        const auto v = parseInt(text);
        if (!v) {
          fail("malformed integer literal");
        }
        t.kind = Tok::Int;
        t.integer = *v;
      }
      return t;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      while (!atEnd() &&
             (std::isalnum(static_cast<unsigned char>(peek())) != 0 || peek() == '_')) {
        t.text.push_back(advance());
      }
      t.kind = Tok::Ident;
      return t;
    }
    fail(std::string("unexpected character '") + c + "'");
  }

private:
  [[nodiscard]] char peek(std::size_t k = 0) const {
    return pos_ + k < src_.size() ? src_[pos_ + k] : '\0';
  }
  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }
  [[nodiscard]] bool atEnd() const { return pos_ >= src_.size(); }
  [[noreturn]] void fail(const std::string& m) const {
    throw ParseError({line_, col_}, m);
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t col_ = 1;
};

} // namespace

std::optional<double> headerVersion(std::string_view source) noexcept {
  Lexer lexer(source);
  try {
    const Token first = lexer.next();
    if (first.kind != Tok::Ident || first.text != "OPENQASM") {
      return std::nullopt;
    }
  } catch (const ParseError&) {
    return std::nullopt;
  }
  try {
    const Token version = lexer.next();
    return version.kind == Tok::Real  ? version.real
           : version.kind == Tok::Int ? static_cast<double>(version.integer)
                                      : 0.0;
  } catch (const ParseError&) {
    return 0.0;
  }
}

Reader::Reader(std::string_view source) : tokens_(Lexer(source).lexAll()) {}

const Token& Reader::take() {
  const Token& token = tokens_[pos_];
  if (token.kind != Tok::Eof) {
    ++pos_;
  }
  return token;
}

bool Reader::accept(Tok kind) {
  if (!at(kind)) {
    return false;
  }
  take();
  return true;
}

bool Reader::acceptIdent(std::string_view text) {
  if (!atIdent(text)) {
    return false;
  }
  take();
  return true;
}

void Reader::expect(Tok kind, const char* what) {
  if (!accept(kind)) {
    fail(std::string("expected ") + what);
  }
}

void Reader::expectIdent(std::string_view text) {
  if (!acceptIdent(text)) {
    fail("expected '" + std::string(text) + "'");
  }
}

void Reader::fail(const std::string& message) const {
  throw ParseError(cur().loc, message + " (got '" + cur().text + "')");
}

void Reader::readHeader() {
  expectIdent("OPENQASM");
  if (!accept(Tok::Real) && !accept(Tok::Int)) {
    fail("expected version number");
  }
  expect(Tok::Semi, "';'");
}

bool Reader::acceptInclude(std::string_view file) {
  if (!acceptIdent("include")) {
    return false;
  }
  if (!at(Tok::String)) {
    fail("expected include file name");
  }
  if (take().text != file) {
    fail("only " + std::string(file) + " is available");
  }
  expect(Tok::Semi, "';'");
  return true;
}

void Reader::declare(const Token& name, bool quantum, const Token& size) {
  if (find(name.text) != nullptr) {
    throw ParseError(name.loc, "redeclaration of register '" + name.text + "'");
  }
  std::uint32_t& total = quantum ? numQubits_ : numBits_;
  constexpr std::size_t kBudget = passes::kMaxExpandedModuleSize;
  if (static_cast<unsigned long long>(size.integer) > kBudget - total) {
    throw Error(ErrorCode::Semantic,
                "register '" + name.text + "' takes the program past " +
                    std::to_string(kBudget) + (quantum ? " qubits" : " bits"),
                size.loc);
  }
  const auto width = static_cast<std::uint32_t>(size.integer);
  registers_.emplace(name.text, Register{name.text, total, width, quantum});
  total += width;
}

const Register* Reader::find(std::string_view name) const {
  const auto it = registers_.find(name);
  return it == registers_.end() ? nullptr : &it->second;
}

const Register& Reader::lookup(const Token& name, bool quantum) const {
  const Register* reg = find(name.text);
  if (reg == nullptr) {
    throw ParseError(name.loc, "unknown register '" + name.text + "'");
  }
  if (reg->quantum != quantum) {
    throw ParseError(name.loc, "register '" + name.text + "' is not a " +
                                   (quantum ? "qubit" : "bit") + " register");
  }
  return *reg;
}

std::uint32_t Reader::checkIndex(const Register& reg, std::int64_t index,
                                 SourceLoc loc) const {
  if (index < 0 || index >= reg.size) {
    throw ParseError(loc, "index " + std::to_string(index) + " out of range for '" +
                              reg.name + "[" + std::to_string(reg.size) + "]'");
  }
  return static_cast<std::uint32_t>(index);
}

} // namespace qirkit::qasm
