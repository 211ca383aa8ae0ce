#include "qasm/qasm3.hpp"

#include "ir/builder.hpp"
#include "passes/folding.hpp"
#include "qir/names.hpp"
#include "support/source_location.hpp"
#include "support/string_utils.hpp"
#include "support/telemetry/telemetry.hpp"

#include <cctype>
#include <map>
#include <numbers>
#include <optional>
#include <vector>

namespace qirkit::qasm {
namespace {

using namespace qirkit::ir;

// ---------------------------------------------------------------------------
// Lexer (QASM3 dialect: adds ':' ranges and '=' assignment)
// ---------------------------------------------------------------------------

enum class Tok : std::uint8_t {
  Eof,
  Ident,
  Int,
  Real,
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
  Equal,
  EqEq,
  Plus,
  Minus,
  Star,
  Slash,
};

struct Token {
  Tok kind = Tok::Eof;
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
      const bool end = t.kind == Tok::Eof;
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
  [[noreturn]] void fail(const std::string& m) { throw ParseError({line_, col_}, m); }

  Token next() {
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
    case '-': advance(); t.kind = Tok::Minus; return t;
    case '*': advance(); t.kind = Tok::Star; return t;
    case '/': advance(); t.kind = Tok::Slash; return t;
    case '=':
      advance();
      if (peek() == '=') {
        advance();
        t.kind = Tok::EqEq;
      } else {
        t.kind = Tok::Equal;
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
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
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

  std::string_view src_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t col_ = 1;
};

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

struct Register {
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
  bool quantum = true;
};

class Compiler {
public:
  Compiler(Context& ctx, std::vector<Token> tokens)
      : ctx_(ctx), tokens_(std::move(tokens)),
        module_(std::make_unique<Module>(ctx, "qasm3")) {}

  std::unique_ptr<Module> run() {
    expectIdent("OPENQASM");
    if (at(Tok::Real) || at(Tok::Int)) {
      ++pos_;
    } else {
      fail("expected version");
    }
    expect(Tok::Semi, "';'");

    entry_ = module_->createFunction("main", ctx_.functionTy(ctx_.voidTy(), {}));
    entry_->setAttribute("entry_point");
    block_ = entry_->createBlock("entry");
    builder_.setInsertPoint(block_);

    while (!at(Tok::Eof)) {
      parseStatement();
    }
    emitRecordOutput();
    builder_.createRetVoid();
    entry_->setAttribute("required_num_qubits", std::to_string(numQubits_));
    entry_->setAttribute("required_num_results", std::to_string(numBits_));
    return std::move(module_);
  }

private:
  // -- cursor ------------------------------------------------------------
  [[nodiscard]] const Token& cur() const { return tokens_[pos_]; }
  [[nodiscard]] bool at(Tok k) const { return cur().kind == k; }
  [[nodiscard]] bool atIdent(std::string_view s) const {
    return at(Tok::Ident) && cur().text == s;
  }
  Token take() { return tokens_[pos_++]; }
  void expect(Tok k, const char* what) {
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
  bool acceptIdent(std::string_view s) {
    if (atIdent(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  [[noreturn]] void fail(const std::string& m) const {
    throw ParseError(cur().loc, m + " (got '" + cur().text + "')");
  }

  /// Emit an integer binary op, folding constant operands immediately so
  /// literal arithmetic (`[0:n-1]`, `pi/2`) never reaches the IR.
  Value* ibin(Opcode op, Value* lhs, Value* rhs) {
    const auto* cl = dynamic_cast<ConstantInt*>(lhs);
    const auto* cr = dynamic_cast<ConstantInt*>(rhs);
    if (cl != nullptr && cr != nullptr) {
      std::int64_t result = 0;
      if (passes::evalIntBinOp(op, 64, cl->value(), cr->value(), result)) {
        return ctx_.getI64(result);
      }
    }
    return builder_.createBinOp(op, lhs, rhs);
  }

  Value* fbin(Opcode op, Value* lhs, Value* rhs) {
    const auto* cl = dynamic_cast<ConstantFP*>(lhs);
    const auto* cr = dynamic_cast<ConstantFP*>(rhs);
    if (cl != nullptr && cr != nullptr) {
      return ctx_.getDouble(passes::evalFloatBinOp(op, cl->value(), cr->value()));
    }
    return builder_.createBinOp(op, lhs, rhs);
  }

  // -- integer expressions (indices, loop bounds): lowered to i64 values ---
  Value* parseIntExpr() { return parseIntAdditive(); }

  Value* parseIntAdditive() {
    Value* lhs = parseIntMultiplicative();
    while (at(Tok::Plus) || at(Tok::Minus)) {
      const Opcode op = at(Tok::Plus) ? Opcode::Add : Opcode::Sub;
      ++pos_;
      lhs = ibin(op, lhs, parseIntMultiplicative());
    }
    return lhs;
  }

  Value* parseIntMultiplicative() {
    Value* lhs = parseIntPrimary();
    while (at(Tok::Star) || at(Tok::Slash)) {
      const Opcode op = at(Tok::Star) ? Opcode::Mul : Opcode::SDiv;
      ++pos_;
      lhs = ibin(op, lhs, parseIntPrimary());
    }
    return lhs;
  }

  Value* parseIntPrimary() {
    if (at(Tok::Minus)) {
      ++pos_;
      return ibin(Opcode::Sub, ctx_.getI64(0), parseIntPrimary());
    }
    if (at(Tok::Int)) {
      return ctx_.getI64(take().integer);
    }
    if (at(Tok::LParen)) {
      ++pos_;
      Value* inner = parseIntExpr();
      expect(Tok::RParen, "')'");
      return inner;
    }
    if (at(Tok::Ident)) {
      const auto it = intVars_.find(cur().text);
      if (it == intVars_.end()) {
        fail("unknown integer variable '" + cur().text + "'");
      }
      ++pos_;
      return builder_.createLoad(ctx_.i64(), it->second);
    }
    fail("expected integer expression");
  }

  // -- angle expressions: lowered to double values -------------------------
  Value* parseAngleExpr() { return parseAngleAdditive(); }

  Value* parseAngleAdditive() {
    Value* lhs = parseAngleMultiplicative();
    while (at(Tok::Plus) || at(Tok::Minus)) {
      const Opcode op = at(Tok::Plus) ? Opcode::FAdd : Opcode::FSub;
      ++pos_;
      lhs = fbin(op, lhs, parseAngleMultiplicative());
    }
    return lhs;
  }

  Value* parseAngleMultiplicative() {
    Value* lhs = parseAnglePrimary();
    while (at(Tok::Star) || at(Tok::Slash)) {
      const Opcode op = at(Tok::Star) ? Opcode::FMul : Opcode::FDiv;
      ++pos_;
      lhs = fbin(op, lhs, parseAnglePrimary());
    }
    return lhs;
  }

  Value* parseAnglePrimary() {
    if (at(Tok::Minus)) {
      ++pos_;
      return fbin(Opcode::FSub, ctx_.getDouble(0.0), parseAnglePrimary());
    }
    if (at(Tok::Real)) {
      return ctx_.getDouble(take().real);
    }
    if (at(Tok::Int)) {
      return ctx_.getDouble(static_cast<double>(take().integer));
    }
    if (atIdent("pi")) {
      ++pos_;
      return ctx_.getDouble(std::numbers::pi);
    }
    if (at(Tok::LParen)) {
      ++pos_;
      Value* inner = parseAngleExpr();
      expect(Tok::RParen, "')'");
      return inner;
    }
    if (at(Tok::Ident)) {
      const auto it = intVars_.find(cur().text);
      if (it == intVars_.end()) {
        fail("unknown variable '" + cur().text + "' in angle expression");
      }
      ++pos_;
      Value* loaded = builder_.createLoad(ctx_.i64(), it->second);
      return builder_.createCast(Opcode::SIToFP, loaded, ctx_.doubleTy());
    }
    fail("expected angle expression");
  }

  // -- register references ---------------------------------------------------
  /// `name[expr]` -> (register, index value).
  std::pair<const Register*, Value*> parseIndexedRef(bool quantum) {
    if (!at(Tok::Ident)) {
      fail("expected register name");
    }
    const std::string name = take().text;
    const auto it = registers_.find(name);
    if (it == registers_.end()) {
      fail("unknown register '" + name + "'");
    }
    if (it->second.quantum != quantum) {
      fail(std::string("register '") + name + "' is not a " +
           (quantum ? "qubit" : "bit") + " register");
    }
    expect(Tok::LBracket, "'['");
    Value* index = parseIntExpr();
    expect(Tok::RBracket, "']'");
    return {&it->second, index};
  }

  /// Static-or-computed address for register element (offset + index).
  Value* address(const Register& reg, Value* index) {
    if (const auto* c = dynamic_cast<ConstantInt*>(index)) {
      const std::uint64_t id = reg.offset + static_cast<std::uint64_t>(c->value());
      return id == 0 ? static_cast<Value*>(ctx_.getNullPtr())
                     : static_cast<Value*>(ctx_.getIntToPtr(id));
    }
    Value* shifted =
        reg.offset == 0
            ? index
            : builder_.createAdd(index, ctx_.getI64(reg.offset));
    return builder_.createCast(Opcode::IntToPtr, shifted, ctx_.ptrTy());
  }

  Value* qubitAddress() {
    const auto [reg, index] = parseIndexedRef(/*quantum=*/true);
    return address(*reg, index);
  }

  // -- statements --------------------------------------------------------
  void parseStatement() {
    if (acceptIdent("include")) {
      if (!at(Tok::String)) {
        fail("expected include path");
      }
      const std::string file = take().text;
      if (file != "stdgates.inc") {
        fail("only stdgates.inc is available");
      }
      expect(Tok::Semi, "';'");
      return;
    }
    if (atIdent("qubit") || atIdent("bit")) {
      const bool quantum = cur().text == "qubit";
      ++pos_;
      expect(Tok::LBracket, "'['");
      if (!at(Tok::Int)) {
        fail("expected register size");
      }
      const auto size = static_cast<std::uint32_t>(take().integer);
      expect(Tok::RBracket, "']'");
      if (!at(Tok::Ident)) {
        fail("expected register name");
      }
      const std::string name = take().text;
      expect(Tok::Semi, "';'");
      if (registers_.count(name) != 0) {
        fail("redeclaration of '" + name + "'");
      }
      if (quantum) {
        registers_[name] = {numQubits_, size, true};
        numQubits_ += size;
      } else {
        registers_[name] = {numBits_, size, false};
        numBits_ += size;
      }
      return;
    }
    if (atIdent("for")) {
      parseFor();
      return;
    }
    if (atIdent("while")) {
      parseWhile();
      return;
    }
    if (atIdent("if")) {
      parseIf();
      return;
    }
    if (atIdent("reset")) {
      ++pos_;
      Value* q = qubitAddress();
      expect(Tok::Semi, "';'");
      builder_.createCall(qir::declareQIRFunction(*module_, qir::kQisReset), {q});
      return;
    }
    // `bit[i] = measure qubit[j];`
    if (at(Tok::Ident) && registers_.count(cur().text) != 0 &&
        !registers_.at(cur().text).quantum) {
      const auto [reg, index] = parseIndexedRef(/*quantum=*/false);
      expect(Tok::Equal, "'='");
      expectIdent("measure");
      Value* q = qubitAddress();
      expect(Tok::Semi, "';'");
      builder_.createCall(qir::declareQIRFunction(*module_, qir::kQisMz),
                          {q, address(*reg, index)});
      return;
    }
    parseGateApplication();
  }

  void parseGateApplication() {
    if (!at(Tok::Ident)) {
      fail("expected statement");
    }
    const std::string name = take().text;
    std::vector<Value*> args;
    if (name == "U") {
      // U(theta, phi, lambda) q  ->  rz(lambda); ry(theta); rz(phi)
      expect(Tok::LParen, "'('");
      Value* theta = parseAngleExpr();
      expect(Tok::Comma, "','");
      Value* phi = parseAngleExpr();
      expect(Tok::Comma, "','");
      Value* lambda = parseAngleExpr();
      expect(Tok::RParen, "')'");
      Value* q = qubitAddress();
      expect(Tok::Semi, "';'");
      Function* rz = qir::declareQIRFunction(*module_, qir::kQisRZ);
      Function* ry = qir::declareQIRFunction(*module_, qir::kQisRY);
      builder_.createCall(rz, {lambda, q});
      builder_.createCall(ry, {theta, q});
      builder_.createCall(rz, {phi, q});
      return;
    }
    // The gate table's spellings that the QIS has, plus the built-in CX.
    const auto kind = name == "CX" ? circuit::OpKind::CX : circuit::opKindNamed(name);
    const auto qisName =
        kind && circuit::isUnitary(*kind) ? qir::qisNameFor(*kind) : std::nullopt;
    if (!qisName) {
      fail("unknown gate '" + name + "'");
    }
    if (at(Tok::LParen)) {
      ++pos_;
      do {
        args.push_back(parseAngleExpr());
      } while (at(Tok::Comma) && (++pos_, true));
      expect(Tok::RParen, "')'");
    }
    do {
      args.push_back(qubitAddress());
    } while (at(Tok::Comma) && (++pos_, true));
    expect(Tok::Semi, "';'");
    Function* callee = qir::declareQIRFunction(*module_, *qisName);
    if (args.size() != callee->functionType()->paramTypes().size()) {
      fail("wrong arity for gate '" + name + "'");
    }
    builder_.createCall(callee, std::span<Value* const>(args.data(), args.size()));
  }

  void parseFor() {
    expectIdent("for");
    expectIdent("int");
    if (!at(Tok::Ident)) {
      fail("expected loop variable");
    }
    const std::string var = take().text;
    expectIdent("in");
    expect(Tok::LBracket, "'['");
    Value* begin = parseIntExpr();
    expect(Tok::Colon, "':'");
    Value* end = parseIntExpr();
    expect(Tok::RBracket, "']'");

    // Lower to the Ex. 4 shape: counter slot, header with inclusive bound,
    // body, latch increment.
    Instruction* slot = builder_.createAlloca(ctx_.i64(), var);
    builder_.createStore(begin, slot);
    if (intVars_.count(var) != 0) {
      fail("shadowing loop variable '" + var + "' is not supported");
    }
    intVars_[var] = slot;

    Function* fn = entry_;
    BasicBlock* header = fn->createBlock(var + ".header");
    BasicBlock* body = fn->createBlock(var + ".body");
    BasicBlock* exit = fn->createBlock(var + ".exit");
    builder_.createBr(header);

    builder_.setInsertPoint(header);
    Value* current = builder_.createLoad(ctx_.i64(), slot);
    Value* cond = builder_.createICmp(ICmpPred::SLE, current, end);
    builder_.createCondBr(cond, body, exit);

    builder_.setInsertPoint(body);
    block_ = body;
    expect(Tok::LBrace, "'{'");
    while (!at(Tok::RBrace)) {
      parseStatement();
    }
    expect(Tok::RBrace, "'}'");
    // Latch: i = i + 1; back to header. (block_ may have changed if the
    // body contained nested control flow.)
    Value* latchValue = builder_.createLoad(ctx_.i64(), slot);
    Value* next = builder_.createAdd(latchValue, ctx_.getI64(1));
    builder_.createStore(next, slot);
    builder_.createBr(header);

    block_ = exit;
    builder_.setInsertPoint(exit);
    intVars_.erase(var);
  }

  /// `while (bit[i] == 0|1) { ... }` — a measurement-driven loop
  /// (repeat-until-success). Unbounded by construction: it cannot be
  /// expressed in the flat circuit IR, but the QIR runtime executes it —
  /// the expressiveness gap of §III.A in one construct.
  void parseWhile() {
    expectIdent("while");
    expect(Tok::LParen, "'('");
    const auto [reg, index] = parseIndexedRef(/*quantum=*/false);
    bool expectOne = true;
    if (at(Tok::EqEq)) {
      ++pos_;
      if (!at(Tok::Int)) {
        fail("expected 0 or 1 in bit comparison");
      }
      expectOne = take().integer != 0;
    }
    expect(Tok::RParen, "')'");
    Value* resultPtr = address(*reg, index);

    Function* fn = entry_;
    BasicBlock* header = fn->createBlock("while.header");
    BasicBlock* body = fn->createBlock("while.body");
    BasicBlock* exit = fn->createBlock("while.exit");
    builder_.createBr(header);

    builder_.setInsertPoint(header);
    Function* readResult = qir::declareQIRFunction(*module_, qir::kQisReadResult);
    Value* bit = builder_.createCall(readResult, {resultPtr});
    Value* cond = expectOne
                      ? bit
                      : builder_.createBinOp(Opcode::Xor, bit, ctx_.getI1(true));
    builder_.createCondBr(cond, body, exit);

    builder_.setInsertPoint(body);
    block_ = body;
    expect(Tok::LBrace, "'{'");
    while (!at(Tok::RBrace)) {
      parseStatement();
    }
    expect(Tok::RBrace, "'}'");
    builder_.createBr(header);

    block_ = exit;
    builder_.setInsertPoint(exit);
  }

  void parseIf() {
    expectIdent("if");
    expect(Tok::LParen, "'('");
    const auto [reg, index] = parseIndexedRef(/*quantum=*/false);
    bool expectOne = true;
    if (at(Tok::EqEq)) {
      ++pos_;
      if (!at(Tok::Int)) {
        fail("expected 0 or 1 in bit comparison");
      }
      expectOne = take().integer != 0;
    }
    expect(Tok::RParen, "')'");

    Function* readResult = qir::declareQIRFunction(*module_, qir::kQisReadResult);
    Value* bit = builder_.createCall(readResult, {address(*reg, index)});
    Value* cond = expectOne
                      ? bit
                      : builder_.createBinOp(Opcode::Xor, bit, ctx_.getI1(true));

    Function* fn = entry_;
    BasicBlock* then = fn->createBlock("if.then");
    BasicBlock* cont = fn->createBlock("if.end");
    builder_.createCondBr(cond, then, cont);

    builder_.setInsertPoint(then);
    block_ = then;
    if (at(Tok::LBrace)) {
      ++pos_;
      while (!at(Tok::RBrace)) {
        parseStatement();
      }
      expect(Tok::RBrace, "'}'");
    } else {
      parseStatement();
    }
    builder_.createBr(cont);
    block_ = cont;
    builder_.setInsertPoint(cont);
  }

  void emitRecordOutput() {
    if (numBits_ == 0) {
      return;
    }
    Function* record =
        qir::declareQIRFunction(*module_, qir::kRtResultRecordOutput);
    Function* arrayRecord =
        qir::declareQIRFunction(*module_, qir::kRtArrayRecordOutput);
    GlobalVariable* arrayLabel =
        module_->createGlobalString("lbl.array", std::string("array\0", 6));
    builder_.createCall(arrayRecord, {ctx_.getI64(numBits_), arrayLabel});
    for (std::uint32_t bit = 0; bit < numBits_; ++bit) {
      const std::string label = "r" + std::to_string(bit);
      GlobalVariable* labelGlobal =
          module_->createGlobalString("lbl." + label, label + '\0');
      Value* result = bit == 0 ? static_cast<Value*>(ctx_.getNullPtr())
                               : static_cast<Value*>(ctx_.getIntToPtr(bit));
      builder_.createCall(record, {result, labelGlobal});
    }
  }

  Context& ctx_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::unique_ptr<Module> module_;
  Function* entry_ = nullptr;
  BasicBlock* block_ = nullptr;
  IRBuilder builder_{ctx_};
  std::map<std::string, Register> registers_;
  std::map<std::string, Instruction*> intVars_; // name -> alloca slot
  std::uint32_t numQubits_ = 0;
  std::uint32_t numBits_ = 0;
};

telemetry::Stage g_parseQasm3{"parse.qasm3"};

} // namespace

std::unique_ptr<Module> compileQasm3(Context& context, std::string_view source) {
  const telemetry::Span span(g_parseQasm3);
  Lexer lexer(source);
  Compiler compiler(context, lexer.lexAll());
  return compiler.run();
}

} // namespace qirkit::qasm
