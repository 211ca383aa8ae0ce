#include "qasm/parser.hpp"

#include "passes/pass.hpp"
#include "qasm/reader.hpp"
#include "support/telemetry/telemetry.hpp"

#include <cmath>
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

/// An argument to a gate statement: register + optional index.
struct QArg {
  const Register* reg = nullptr;
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

/// A gate application inside a user gate body. Barriers there are
/// optimization hints only and are not kept.
struct GateBodyStmt {
  std::string gateName;
  std::vector<Expr> params;
  std::vector<std::string> qubits; // formal qubit names
};

struct GateDef {
  std::vector<std::string> paramNames;
  std::vector<std::string> qubitNames;
  std::vector<GateBodyStmt> body;
};

class Parser : Reader {
public:
  using Reader::Reader;

  Circuit run() {
    readHeader();
    while (!at(Tok::Eof)) {
      parseStatement();
    }
    return std::move(circuit_);
  }

private:
  // -- expressions ----------------------------------------------------------
  Expr parseExpr() { return parseAdditive(); }

  static Expr binary(char op, Expr lhs, Expr rhs) {
    Expr node;
    node.kind = Expr::Kind::Binary;
    node.op = op;
    node.children = {std::move(lhs), std::move(rhs)};
    return node;
  }

  Expr parseAdditive() {
    Expr lhs = parseMultiplicative();
    while (at(Tok::Plus) || at(Tok::Minus)) {
      const char op = take().kind == Tok::Plus ? '+' : '-';
      lhs = binary(op, std::move(lhs), parseMultiplicative());
    }
    return lhs;
  }

  Expr parseMultiplicative() {
    Expr lhs = parseUnary();
    while (at(Tok::Star) || at(Tok::Slash)) {
      const char op = take().kind == Tok::Star ? '*' : '/';
      lhs = binary(op, std::move(lhs), parseUnary());
    }
    return lhs;
  }

  Expr parseUnary() {
    if (accept(Tok::Minus)) {
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
    if (!accept(Tok::Caret)) {
      return base;
    }
    return binary('^', std::move(base), parseUnary());
  }

  Expr parsePrimary() {
    Expr node;
    if (at(Tok::Real)) {
      node.num = take().real;
      return node;
    }
    if (at(Tok::Int)) {
      node.num = static_cast<double>(take().integer);
      return node;
    }
    if (acceptIdent("pi")) {
      node.num = std::numbers::pi;
      return node;
    }
    if (at(Tok::Ident)) {
      const std::string& name = take().text;
      if (accept(Tok::LParen)) {
        node.kind = Expr::Kind::Call;
        node.name = name;
        node.children = {parseExpr()};
        expect(Tok::RParen, "')'");
        return node;
      }
      node.kind = Expr::Kind::Param;
      node.name = name;
      return node;
    }
    if (accept(Tok::LParen)) {
      Expr inner = parseExpr();
      expect(Tok::RParen, "')'");
      return inner;
    }
    fail("expected expression");
  }

  // -- statements --------------------------------------------------------
  void parseStatement() {
    if (acceptInclude("qelib1.inc")) {
      return;
    }
    if (atIdent("qreg") || atIdent("creg")) {
      const bool quantum = take().text == "qreg";
      if (!at(Tok::Ident)) {
        fail("expected register name");
      }
      const Token& name = take();
      expect(Tok::LBracket, "'['");
      if (!at(Tok::Int)) {
        fail("expected register size");
      }
      const Token& size = take();
      expect(Tok::RBracket, "']'");
      expect(Tok::Semi, "';'");
      declare(name, quantum, size);
      circuit_.setNumQubits(numQubits());
      circuit_.setNumBits(numBits());
      return;
    }
    if (atIdent("gate")) {
      parseGateDef();
      return;
    }
    if (atIdent("opaque")) {
      fail("opaque gates cannot be simulated");
    }
    if (acceptIdent("if")) {
      expect(Tok::LParen, "'('");
      if (!at(Tok::Ident)) {
        fail("expected creg name in condition");
      }
      const Register& reg = lookup(take(), /*quantum=*/false);
      expect(Tok::EqEq, "'=='");
      if (!at(Tok::Int)) {
        fail("expected integer in condition");
      }
      const auto value = static_cast<std::uint64_t>(take().integer);
      expect(Tok::RParen, "')'");
      parseQuantumOp(Condition{reg.offset, reg.size, value});
      return;
    }
    parseQuantumOp(std::nullopt);
  }

  void parseGateDef() {
    expectIdent("gate");
    if (!at(Tok::Ident)) {
      fail("expected gate name");
    }
    const std::string& name = take().text;
    GateDef def;
    if (accept(Tok::LParen)) {
      if (!at(Tok::RParen)) {
        do {
          if (!at(Tok::Ident)) {
            fail("expected parameter name");
          }
          def.paramNames.push_back(take().text);
        } while (accept(Tok::Comma));
      }
      expect(Tok::RParen, "')'");
    }
    do {
      if (!at(Tok::Ident)) {
        fail("expected qubit name");
      }
      def.qubitNames.push_back(take().text);
    } while (accept(Tok::Comma));
    expect(Tok::LBrace, "'{'");
    while (!at(Tok::RBrace)) {
      if (acceptIdent("barrier")) {
        while (!at(Tok::Semi) && !at(Tok::Eof)) {
          take(); // the qubit list
        }
        expect(Tok::Semi, "';'");
        continue;
      }
      if (!at(Tok::Ident)) {
        fail("expected gate application in gate body");
      }
      GateBodyStmt stmt;
      stmt.gateName = take().text;
      if (accept(Tok::LParen)) {
        if (!at(Tok::RParen)) {
          do {
            stmt.params.push_back(parseExpr());
          } while (accept(Tok::Comma));
        }
        expect(Tok::RParen, "')'");
      }
      do {
        if (!at(Tok::Ident)) {
          fail("expected qubit name");
        }
        stmt.qubits.push_back(take().text);
      } while (accept(Tok::Comma));
      expect(Tok::Semi, "';'");
      def.body.push_back(std::move(stmt));
    }
    expect(Tok::RBrace, "'}'");
    gateDefs_[name] = std::move(def);
  }

  QArg parseQArg(bool quantum) {
    if (!at(Tok::Ident)) {
      fail("expected register reference");
    }
    QArg arg{&lookup(take(), quantum), std::nullopt};
    if (accept(Tok::LBracket)) {
      if (!at(Tok::Int)) {
        fail("expected index");
      }
      const Token& index = take();
      arg.index = checkIndex(*arg.reg, index.integer, index.loc);
      expect(Tok::RBracket, "']'");
    }
    return arg;
  }

  /// The number of lanes a statement broadcasts over: the common size of
  /// its whole-register arguments, 1 when every argument is indexed.
  std::uint32_t broadcastWidth(const std::vector<QArg>& args) {
    std::optional<std::uint32_t> width;
    for (const QArg& arg : args) {
      if (!arg.index) {
        if (width && *width != arg.reg->size) {
          fail("mismatched broadcast widths");
        }
        width = arg.reg->size;
      }
    }
    return width.value_or(1);
  }

  static std::uint32_t resolveQubit(const QArg& arg, std::uint32_t lane) {
    return arg.reg->offset + (arg.index ? *arg.index : lane);
  }

  /// Count one operation of the current statement. The first is free;
  /// each further one (a user gate's body, recursively, or a broadcast's
  /// lanes) spends one of the program's kMaxExpandedModuleSize extra
  /// operations, so a few hundred bytes of nested gates cannot ask for
  /// 2^40 of them. `id` and a gate whose body applies nothing count too:
  /// they emit nothing, but expanding them still costs.
  void spend() {
    if (statementOps_++ != 0 && ++extraOps_ > passes::kMaxExpandedModuleSize) {
      throw Error(ErrorCode::Semantic,
                  "'" + statement_->text + "' expands the program past " +
                      std::to_string(passes::kMaxExpandedModuleSize) +
                      " operations beyond one per statement",
                  statement_->loc);
    }
  }

  void emit(Operation op) {
    spend();
    circuit_.add(std::move(op));
  }

  void parseQuantumOp(const std::optional<Condition>& cond) {
    statement_ = &cur();
    statementOps_ = 0;
    if (acceptIdent("measure")) {
      const QArg q = parseQArg(/*quantum=*/true);
      expect(Tok::Arrow, "'->'");
      const QArg c = parseQArg(/*quantum=*/false);
      expect(Tok::Semi, "';'");
      if (q.index.has_value() != c.index.has_value()) {
        fail("measure must be register->register or qubit->bit");
      }
      if (q.index) {
        emit({OpKind::Measure, {q.reg->offset + *q.index}, {}, c.reg->offset + *c.index,
              cond});
        return;
      }
      if (q.reg->size != c.reg->size) {
        fail("measure register size mismatch");
      }
      for (std::uint32_t i = 0; i < q.reg->size; ++i) {
        emit({OpKind::Measure, {q.reg->offset + i}, {}, c.reg->offset + i, cond});
      }
      return;
    }
    if (acceptIdent("reset")) {
      const QArg q = parseQArg(/*quantum=*/true);
      expect(Tok::Semi, "';'");
      const std::uint32_t width = broadcastWidth({q});
      for (std::uint32_t lane = 0; lane < width; ++lane) {
        emit({OpKind::Reset, {resolveQubit(q, lane)}, {}, 0, cond});
      }
      return;
    }
    if (acceptIdent("barrier")) {
      std::vector<QArg> args;
      if (!at(Tok::Semi)) {
        do {
          args.push_back(parseQArg(/*quantum=*/true));
        } while (accept(Tok::Comma));
      }
      expect(Tok::Semi, "';'");
      Operation op{OpKind::Barrier, {}, {}, 0, std::nullopt};
      for (const QArg& arg : args) {
        const std::uint32_t width = arg.index ? 1 : arg.reg->size;
        for (std::uint32_t lane = 0; lane < width; ++lane) {
          op.qubits.push_back(resolveQubit(arg, lane));
        }
      }
      emit(std::move(op));
      return;
    }
    // Gate application.
    if (!at(Tok::Ident)) {
      fail("expected statement");
    }
    const std::string& name = take().text;
    std::vector<double> params;
    if (accept(Tok::LParen)) {
      if (!at(Tok::RParen)) {
        do {
          params.push_back(parseExpr().eval({}));
        } while (accept(Tok::Comma));
      }
      expect(Tok::RParen, "')'");
    }
    std::vector<QArg> args;
    do {
      args.push_back(parseQArg(/*quantum=*/true));
    } while (accept(Tok::Comma));
    expect(Tok::Semi, "';'");

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
    // The gate table's spellings, plus OpenQASM 2's two built-ins.
    const std::optional<OpKind> kind = name == "CX"  ? OpKind::CX
                                       : name == "U" ? OpKind::U3
                                                     : circuit::opKindNamed(name);
    if (kind && circuit::isUnitary(*kind)) {
      emit({*kind, qubits, params, 0, cond});
      return;
    }
    if (name == "id") {
      spend();
      return;
    }
    if (name == "u1") {
      // u1(l) == rz(l) up to global phase.
      emit({OpKind::RZ, qubits, params, 0, cond});
      return;
    }
    if (name == "u2") {
      if (params.size() != 2) {
        throw SemanticError("u2 expects 2 parameters");
      }
      emit({OpKind::U3, qubits, {std::numbers::pi / 2, params[0], params[1]}, 0, cond});
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
    if (def->second.body.empty()) {
      spend();
      return;
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

  Circuit circuit_;
  std::map<std::string, GateDef> gateDefs_;
  const Token* statement_ = nullptr; // the statement being expanded
  std::size_t statementOps_ = 0;     // operations it has counted
  std::size_t extraOps_ = 0;         // beyond one per statement, program-wide
};

telemetry::Stage g_parseQasm2{"parse.qasm2"};

} // namespace

circuit::Circuit parse(std::string_view source) {
  const telemetry::Span span(g_parseQasm2);
  return Parser(source).run();
}

} // namespace qirkit::qasm
