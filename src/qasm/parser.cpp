#include "qasm/parser.hpp"

#include "support/source_location.hpp"
#include "support/string_utils.hpp"
#include "support/telemetry/telemetry.hpp"

#include <cctype>
#include <cmath>
#include <functional>
#include <map>
#include <numbers>
#include <optional>
#include <vector>

namespace qirkit::qasm {
namespace {

using circuit::Circuit;
using circuit::Condition;
using circuit::OpKind;
using circuit::Operation;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind : std::uint8_t {
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
  Arrow, // ->
  EqEq,  // ==
  Plus,
  Minus,
  Star,
  Slash,
  Caret,
};

struct Token {
  TokKind kind = TokKind::Eof;
  std::string text;
  double real = 0;
  long long integer = 0;
  SourceLoc loc;
};

class Lexer {
public:
  explicit Lexer(std::string_view src) : src_(src) {}

  std::vector<Token> lexAll() {
    std::vector<Token> out;
    while (true) {
      Token t = next();
      const bool end = t.kind == TokKind::Eof;
      out.push_back(std::move(t));
      if (end) {
        return out;
      }
    }
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
  [[noreturn]] void fail(const std::string& m) {
    throw ParseError({line_, col_}, m);
  }

  Token next() {
    // Skip whitespace and // comments.
    while (!atEnd()) {
      if (std::isspace(static_cast<unsigned char>(peek())) != 0) {
        advance();
      } else if (peek() == '/' && peek(1) == '/') {
        while (!atEnd() && peek() != '\n') {
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
    case '(': advance(); t.kind = TokKind::LParen; return t;
    case ')': advance(); t.kind = TokKind::RParen; return t;
    case '[': advance(); t.kind = TokKind::LBracket; return t;
    case ']': advance(); t.kind = TokKind::RBracket; return t;
    case '{': advance(); t.kind = TokKind::LBrace; return t;
    case '}': advance(); t.kind = TokKind::RBrace; return t;
    case ';': advance(); t.kind = TokKind::Semi; return t;
    case ',': advance(); t.kind = TokKind::Comma; return t;
    case '+': advance(); t.kind = TokKind::Plus; return t;
    case '*': advance(); t.kind = TokKind::Star; return t;
    case '/': advance(); t.kind = TokKind::Slash; return t;
    case '^': advance(); t.kind = TokKind::Caret; return t;
    case '-':
      advance();
      if (peek() == '>') {
        advance();
        t.kind = TokKind::Arrow;
      } else {
        t.kind = TokKind::Minus;
      }
      return t;
    case '=':
      advance();
      if (peek() == '=') {
        advance();
        t.kind = TokKind::EqEq;
        return t;
      }
      fail("unexpected '='");
    case '"': {
      advance();
      while (!atEnd() && peek() != '"') {
        t.text.push_back(advance());
      }
      if (atEnd()) {
        fail("unterminated string");
      }
      advance();
      t.kind = TokKind::String;
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
        t.kind = TokKind::Real;
        t.real = *v;
      } else {
        const auto v = parseInt(text);
        if (!v) {
          fail("malformed integer literal");
        }
        t.kind = TokKind::Int;
        t.integer = *v;
      }
      return t;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) != 0 ||
                          peek() == '_')) {
        t.text.push_back(advance());
      }
      t.kind = TokKind::Ident;
      return t;
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t col_ = 1;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Register {
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
};

/// An argument to a gate statement: register name + optional index.
struct QArg {
  std::string reg;
  std::optional<std::uint32_t> index;
};

/// Expression AST for gate-body angles (needs deferred evaluation because
/// gate parameters are bound at application time).
struct Expr {
  enum class Kind : std::uint8_t { Num, Param, Unary, Binary, Call } kind = Kind::Num;
  double num = 0;
  std::string name; // Param / Call function name
  char op = 0;      // Unary: '-'; Binary: + - * / ^
  std::vector<Expr> children;

  [[nodiscard]] double eval(const std::map<std::string, double>& params) const {
    switch (kind) {
    case Kind::Num:
      return num;
    case Kind::Param: {
      const auto it = params.find(name);
      if (it == params.end()) {
        throw SemanticError("unbound gate parameter '" + name + "'");
      }
      return it->second;
    }
    case Kind::Unary:
      return -children[0].eval(params);
    case Kind::Binary: {
      const double l = children[0].eval(params);
      const double r = children[1].eval(params);
      switch (op) {
      case '+': return l + r;
      case '-': return l - r;
      case '*': return l * r;
      case '/': return l / r;
      case '^': return std::pow(l, r);
      default: return 0;
      }
    }
    case Kind::Call: {
      const double a = children[0].eval(params);
      if (name == "sin") return std::sin(a);
      if (name == "cos") return std::cos(a);
      if (name == "tan") return std::tan(a);
      if (name == "exp") return std::exp(a);
      if (name == "ln") return std::log(a);
      if (name == "sqrt") return std::sqrt(a);
      throw SemanticError("unknown function '" + name + "'");
    }
    }
    return 0;
  }
};

/// A statement inside a user gate body.
struct GateBodyStmt {
  std::string gateName;
  std::vector<Expr> params;
  std::vector<std::string> qubits; // formal qubit names
  bool isBarrier = false;
};

struct GateDef {
  std::vector<std::string> paramNames;
  std::vector<std::string> qubitNames;
  std::vector<GateBodyStmt> body;
};

class Parser {
public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Circuit run() {
    expectIdent("OPENQASM");
    // version number: Real (2.0) or Int
    if (at(TokKind::Real) || at(TokKind::Int)) {
      ++pos_;
    } else {
      fail("expected version number");
    }
    expect(TokKind::Semi, "';'");

    // First pass over statements to size the registers (so Circuit's add()
    // validation has the final widths).
    // Simpler: collect everything into a staging list, then build.
    while (!at(TokKind::Eof)) {
      parseStatement();
    }
    return std::move(circuit_);
  }

private:
  // -- cursor helpers ------------------------------------------------------
  [[nodiscard]] const Token& cur() const { return tokens_[pos_]; }
  [[nodiscard]] bool at(TokKind k) const { return cur().kind == k; }
  [[nodiscard]] bool atIdent(std::string_view s) const {
    return at(TokKind::Ident) && cur().text == s;
  }
  Token take() { return tokens_[pos_++]; }
  void expect(TokKind k, const char* what) {
    if (!at(k)) {
      fail(std::string("expected ") + what);
    }
    ++pos_;
  }
  void expectIdent(std::string_view s) {
    if (!atIdent(s)) {
      fail("expected '" + std::string(s) + "'");
    }
    ++pos_;
  }
  [[noreturn]] void fail(const std::string& m) const {
    throw ParseError(cur().loc, m + " (got '" + cur().text + "')");
  }

  // -- registers ---------------------------------------------------------
  void declareQReg(const std::string& name, std::uint32_t size) {
    if (qregs_.count(name) != 0 || cregs_.count(name) != 0) {
      fail("redeclaration of register '" + name + "'");
    }
    qregs_[name] = {circuit_.numQubits(), size};
    qregOrder_.push_back(name);
    circuit_.setNumQubits(circuit_.numQubits() + size);
  }
  void declareCReg(const std::string& name, std::uint32_t size) {
    if (qregs_.count(name) != 0 || cregs_.count(name) != 0) {
      fail("redeclaration of register '" + name + "'");
    }
    cregs_[name] = {circuit_.numBits(), size};
    circuit_.setNumBits(circuit_.numBits() + size);
  }

  // -- expressions ----------------------------------------------------------
  Expr parseExpr() { return parseAdditive(); }

  Expr parseAdditive() {
    Expr lhs = parseMultiplicative();
    while (at(TokKind::Plus) || at(TokKind::Minus)) {
      const char op = at(TokKind::Plus) ? '+' : '-';
      ++pos_;
      Expr rhs = parseMultiplicative();
      Expr node;
      node.kind = Expr::Kind::Binary;
      node.op = op;
      node.children = {std::move(lhs), std::move(rhs)};
      lhs = std::move(node);
    }
    return lhs;
  }

  Expr parseMultiplicative() {
    Expr lhs = parseUnary();
    while (at(TokKind::Star) || at(TokKind::Slash)) {
      const char op = at(TokKind::Star) ? '*' : '/';
      ++pos_;
      Expr rhs = parseUnary();
      Expr node;
      node.kind = Expr::Kind::Binary;
      node.op = op;
      node.children = {std::move(lhs), std::move(rhs)};
      lhs = std::move(node);
    }
    return lhs;
  }

  Expr parseUnary() {
    if (at(TokKind::Minus)) {
      ++pos_;
      Expr node;
      node.kind = Expr::Kind::Unary;
      node.op = '-';
      node.children = {parseUnary()};
      return node;
    }
    return parsePower();
  }

  Expr parsePower() {
    Expr base = parsePrimary();
    if (at(TokKind::Caret)) {
      ++pos_;
      Expr exponent = parseUnary();
      Expr node;
      node.kind = Expr::Kind::Binary;
      node.op = '^';
      node.children = {std::move(base), std::move(exponent)};
      return node;
    }
    return base;
  }

  Expr parsePrimary() {
    Expr node;
    if (at(TokKind::Real)) {
      node.num = take().real;
      return node;
    }
    if (at(TokKind::Int)) {
      node.num = static_cast<double>(take().integer);
      return node;
    }
    if (atIdent("pi")) {
      ++pos_;
      node.num = std::numbers::pi;
      return node;
    }
    if (at(TokKind::Ident)) {
      const std::string name = take().text;
      if (at(TokKind::LParen)) {
        ++pos_;
        node.kind = Expr::Kind::Call;
        node.name = name;
        node.children = {parseExpr()};
        expect(TokKind::RParen, "')'");
        return node;
      }
      node.kind = Expr::Kind::Param;
      node.name = name;
      return node;
    }
    if (at(TokKind::LParen)) {
      ++pos_;
      Expr inner = parseExpr();
      expect(TokKind::RParen, "')'");
      return inner;
    }
    fail("expected expression");
  }

  // -- statements --------------------------------------------------------
  void parseStatement() {
    if (atIdent("include")) {
      ++pos_;
      if (!at(TokKind::String)) {
        fail("expected include file name");
      }
      const std::string file = take().text;
      if (file != "qelib1.inc") {
        fail("only qelib1.inc is available in this environment");
      }
      expect(TokKind::Semi, "';'");
      return;
    }
    if (atIdent("qreg") || atIdent("creg")) {
      const bool quantum = cur().text == "qreg";
      ++pos_;
      if (!at(TokKind::Ident)) {
        fail("expected register name");
      }
      const std::string name = take().text;
      expect(TokKind::LBracket, "'['");
      if (!at(TokKind::Int)) {
        fail("expected register size");
      }
      const auto size = static_cast<std::uint32_t>(take().integer);
      expect(TokKind::RBracket, "']'");
      expect(TokKind::Semi, "';'");
      if (quantum) {
        declareQReg(name, size);
      } else {
        declareCReg(name, size);
      }
      return;
    }
    if (atIdent("gate")) {
      parseGateDef();
      return;
    }
    if (atIdent("opaque")) {
      fail("opaque gates cannot be simulated");
    }
    if (atIdent("if")) {
      ++pos_;
      expect(TokKind::LParen, "'('");
      if (!at(TokKind::Ident)) {
        fail("expected creg name in condition");
      }
      const std::string regName = take().text;
      const auto reg = cregs_.find(regName);
      if (reg == cregs_.end()) {
        fail("unknown creg '" + regName + "'");
      }
      expect(TokKind::EqEq, "'=='");
      if (!at(TokKind::Int)) {
        fail("expected integer in condition");
      }
      const auto value = static_cast<std::uint64_t>(take().integer);
      expect(TokKind::RParen, "')'");
      const Condition cond{reg->second.offset, reg->second.size, value};
      parseQuantumOp(cond);
      return;
    }
    parseQuantumOp(std::nullopt);
  }

  void parseGateDef() {
    expectIdent("gate");
    if (!at(TokKind::Ident)) {
      fail("expected gate name");
    }
    const std::string name = take().text;
    GateDef def;
    if (at(TokKind::LParen)) {
      ++pos_;
      if (!at(TokKind::RParen)) {
        do {
          if (!at(TokKind::Ident)) {
            fail("expected parameter name");
          }
          def.paramNames.push_back(take().text);
        } while (acceptComma());
      }
      expect(TokKind::RParen, "')'");
    }
    do {
      if (!at(TokKind::Ident)) {
        fail("expected qubit name");
      }
      def.qubitNames.push_back(take().text);
    } while (acceptComma());
    expect(TokKind::LBrace, "'{'");
    while (!at(TokKind::RBrace)) {
      GateBodyStmt stmt;
      if (atIdent("barrier")) {
        ++pos_;
        stmt.isBarrier = true;
        // consume qubit list
        while (!at(TokKind::Semi)) {
          ++pos_;
        }
        expect(TokKind::Semi, "';'");
        def.body.push_back(std::move(stmt));
        continue;
      }
      if (!at(TokKind::Ident)) {
        fail("expected gate application in gate body");
      }
      stmt.gateName = take().text;
      if (at(TokKind::LParen)) {
        ++pos_;
        if (!at(TokKind::RParen)) {
          do {
            stmt.params.push_back(parseExpr());
          } while (acceptComma());
        }
        expect(TokKind::RParen, "')'");
      }
      do {
        if (!at(TokKind::Ident)) {
          fail("expected qubit name");
        }
        stmt.qubits.push_back(take().text);
      } while (acceptComma());
      expect(TokKind::Semi, "';'");
      def.body.push_back(std::move(stmt));
    }
    expect(TokKind::RBrace, "'}'");
    gateDefs_[name] = std::move(def);
  }

  bool acceptComma() {
    if (at(TokKind::Comma)) {
      ++pos_;
      return true;
    }
    return false;
  }

  QArg parseQArg() {
    if (!at(TokKind::Ident)) {
      fail("expected register reference");
    }
    QArg arg;
    arg.reg = take().text;
    if (at(TokKind::LBracket)) {
      ++pos_;
      if (!at(TokKind::Int)) {
        fail("expected index");
      }
      arg.index = static_cast<std::uint32_t>(take().integer);
      expect(TokKind::RBracket, "']'");
    }
    return arg;
  }

  /// Resolve a quantum argument list possibly containing whole registers
  /// (broadcast). Returns the broadcast width and per-arg resolvers.
  std::uint32_t broadcastWidth(const std::vector<QArg>& args) {
    std::uint32_t width = 1;
    for (const QArg& arg : args) {
      const auto reg = qregs_.find(arg.reg);
      if (reg == qregs_.end()) {
        fail("unknown qreg '" + arg.reg + "'");
      }
      if (!arg.index) {
        if (width != 1 && width != reg->second.size) {
          fail("mismatched broadcast widths");
        }
        width = reg->second.size;
      } else if (*arg.index >= reg->second.size) {
        fail("qubit index out of range for '" + arg.reg + "'");
      }
    }
    return width;
  }

  std::uint32_t resolveQubit(const QArg& arg, std::uint32_t lane) {
    const Register reg = qregs_.at(arg.reg);
    return reg.offset + (arg.index ? *arg.index : lane);
  }

  void parseQuantumOp(const std::optional<Condition>& cond) {
    if (atIdent("measure")) {
      ++pos_;
      const QArg q = parseQArg();
      expect(TokKind::Arrow, "'->'");
      if (!at(TokKind::Ident)) {
        fail("expected creg reference");
      }
      QArg c;
      c.reg = take().text;
      if (at(TokKind::LBracket)) {
        ++pos_;
        if (!at(TokKind::Int)) {
          fail("expected index");
        }
        c.index = static_cast<std::uint32_t>(take().integer);
        expect(TokKind::RBracket, "']'");
      }
      expect(TokKind::Semi, "';'");
      const auto qreg = qregs_.find(q.reg);
      const auto creg = cregs_.find(c.reg);
      if (qreg == qregs_.end()) {
        fail("unknown qreg '" + q.reg + "'");
      }
      if (creg == cregs_.end()) {
        fail("unknown creg '" + c.reg + "'");
      }
      if (q.index.has_value() != c.index.has_value()) {
        fail("measure must be register->register or qubit->bit");
      }
      if (q.index) {
        circuit_.add({OpKind::Measure,
                      {qreg->second.offset + *q.index},
                      {},
                      creg->second.offset + *c.index,
                      cond});
      } else {
        if (qreg->second.size != creg->second.size) {
          fail("measure register size mismatch");
        }
        for (std::uint32_t i = 0; i < qreg->second.size; ++i) {
          circuit_.add({OpKind::Measure,
                        {qreg->second.offset + i},
                        {},
                        creg->second.offset + i,
                        cond});
        }
      }
      return;
    }
    if (atIdent("reset")) {
      ++pos_;
      const QArg q = parseQArg();
      expect(TokKind::Semi, "';'");
      const std::uint32_t width = broadcastWidth({q});
      for (std::uint32_t lane = 0; lane < width; ++lane) {
        circuit_.add({OpKind::Reset, {resolveQubit(q, lane)}, {}, 0, cond});
      }
      return;
    }
    if (atIdent("barrier")) {
      ++pos_;
      std::vector<QArg> args;
      if (!at(TokKind::Semi)) {
        do {
          args.push_back(parseQArg());
        } while (acceptComma());
      }
      expect(TokKind::Semi, "';'");
      Operation op{OpKind::Barrier, {}, {}, 0, std::nullopt};
      for (const QArg& arg : args) {
        const auto reg = qregs_.find(arg.reg);
        if (reg == qregs_.end()) {
          fail("unknown qreg '" + arg.reg + "'");
        }
        if (arg.index) {
          op.qubits.push_back(reg->second.offset + *arg.index);
        } else {
          for (std::uint32_t i = 0; i < reg->second.size; ++i) {
            op.qubits.push_back(reg->second.offset + i);
          }
        }
      }
      circuit_.add(std::move(op));
      return;
    }
    // Gate application.
    if (!at(TokKind::Ident)) {
      fail("expected statement");
    }
    const std::string name = take().text;
    std::vector<double> params;
    if (at(TokKind::LParen)) {
      ++pos_;
      if (!at(TokKind::RParen)) {
        do {
          params.push_back(parseExpr().eval({}));
        } while (acceptComma());
      }
      expect(TokKind::RParen, "')'");
    }
    std::vector<QArg> args;
    do {
      args.push_back(parseQArg());
    } while (acceptComma());
    expect(TokKind::Semi, "';'");

    const std::uint32_t width = broadcastWidth(args);
    for (std::uint32_t lane = 0; lane < width; ++lane) {
      std::vector<std::uint32_t> qubits;
      qubits.reserve(args.size());
      for (const QArg& arg : args) {
        qubits.push_back(resolveQubit(arg, lane));
      }
      applyGate(name, params, qubits, cond);
    }
  }

  void applyGate(const std::string& name, const std::vector<double>& params,
                 const std::vector<std::uint32_t>& qubits,
                 const std::optional<Condition>& cond, unsigned depth = 0) {
    if (depth > 64) {
      throw SemanticError("gate expansion too deep (recursive gate?)");
    }
    static const std::map<std::string_view, OpKind> simple = {
        {"h", OpKind::H},     {"x", OpKind::X},       {"y", OpKind::Y},
        {"z", OpKind::Z},     {"s", OpKind::S},       {"sdg", OpKind::Sdg},
        {"t", OpKind::T},     {"tdg", OpKind::Tdg},   {"rx", OpKind::RX},
        {"ry", OpKind::RY},   {"rz", OpKind::RZ},     {"cx", OpKind::CX},
        {"CX", OpKind::CX},   {"cz", OpKind::CZ},     {"swap", OpKind::Swap},
        {"ccx", OpKind::CCX}, {"u3", OpKind::U3},     {"U", OpKind::U3}};
    const auto it = simple.find(name);
    if (it != simple.end()) {
      circuit_.add({it->second, qubits, params, 0, cond});
      return;
    }
    if (name == "id") {
      return;
    }
    if (name == "u1") {
      // u1(l) == rz(l) up to global phase.
      circuit_.add({OpKind::RZ, qubits, params, 0, cond});
      return;
    }
    if (name == "u2") {
      if (params.size() != 2) {
        throw SemanticError("u2 expects 2 parameters");
      }
      circuit_.add({OpKind::U3, qubits,
                    {std::numbers::pi / 2, params[0], params[1]}, 0, cond});
      return;
    }
    const auto def = gateDefs_.find(name);
    if (def == gateDefs_.end()) {
      throw SemanticError("unknown gate '" + name + "'");
    }
    if (params.size() != def->second.paramNames.size() ||
        qubits.size() != def->second.qubitNames.size()) {
      throw SemanticError("wrong arity for gate '" + name + "'");
    }
    std::map<std::string, double> paramEnv;
    for (std::size_t i = 0; i < params.size(); ++i) {
      paramEnv[def->second.paramNames[i]] = params[i];
    }
    std::map<std::string, std::uint32_t> qubitEnv;
    for (std::size_t i = 0; i < qubits.size(); ++i) {
      qubitEnv[def->second.qubitNames[i]] = qubits[i];
    }
    for (const GateBodyStmt& stmt : def->second.body) {
      if (stmt.isBarrier) {
        continue; // barriers inside gate bodies are optimization hints only
      }
      std::vector<double> innerParams;
      innerParams.reserve(stmt.params.size());
      for (const Expr& e : stmt.params) {
        innerParams.push_back(e.eval(paramEnv));
      }
      std::vector<std::uint32_t> innerQubits;
      innerQubits.reserve(stmt.qubits.size());
      for (const std::string& qn : stmt.qubits) {
        const auto q = qubitEnv.find(qn);
        if (q == qubitEnv.end()) {
          throw SemanticError("unknown qubit '" + qn + "' in gate body");
        }
        innerQubits.push_back(q->second);
      }
      applyGate(stmt.gateName, innerParams, innerQubits, cond, depth + 1);
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  Circuit circuit_;
  std::map<std::string, Register> qregs_;
  std::map<std::string, Register> cregs_;
  std::vector<std::string> qregOrder_;
  std::map<std::string, GateDef> gateDefs_;
};

telemetry::Stage g_parseQasm2{"parse.qasm2"};

} // namespace

circuit::Circuit parse(std::string_view source) {
  const telemetry::Span span(g_parseQasm2);
  Lexer lexer(source);
  Parser parser(lexer.lexAll());
  return parser.run();
}

} // namespace qirkit::qasm
