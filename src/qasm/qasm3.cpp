#include "qasm/qasm3.hpp"

#include "ir/builder.hpp"
#include "passes/folding.hpp"
#include "qasm/reader.hpp"
#include "qir/names.hpp"
#include "support/telemetry/telemetry.hpp"

#include <map>
#include <numbers>
#include <vector>

namespace qirkit::qasm {
namespace {

using namespace qirkit::ir;

class Compiler : Reader {
public:
  Compiler(Context& ctx, std::string_view source)
      : Reader(source), ctx_(ctx), module_(std::make_unique<Module>(ctx, "qasm3")) {}

  std::unique_ptr<Module> run() {
    readHeader();

    entry_ = module_->createFunction("main", ctx_.functionTy(ctx_.voidTy(), {}));
    entry_->setAttribute("entry_point");
    block_ = entry_->createBlock("entry");
    builder_.setInsertPoint(block_);

    while (!at(Tok::Eof)) {
      parseStatement();
    }
    emitRecordOutput();
    builder_.createRetVoid();
    entry_->setAttribute("required_num_qubits", std::to_string(numQubits()));
    entry_->setAttribute("required_num_results", std::to_string(numBits()));
    return std::move(module_);
  }

private:
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
      const Opcode op = take().kind == Tok::Plus ? Opcode::Add : Opcode::Sub;
      lhs = ibin(op, lhs, parseIntMultiplicative());
    }
    return lhs;
  }

  Value* parseIntMultiplicative() {
    Value* lhs = parseIntPrimary();
    while (at(Tok::Star) || at(Tok::Slash)) {
      const Opcode op = take().kind == Tok::Star ? Opcode::Mul : Opcode::SDiv;
      lhs = ibin(op, lhs, parseIntPrimary());
    }
    return lhs;
  }

  Value* parseIntPrimary() {
    if (accept(Tok::Minus)) {
      return ibin(Opcode::Sub, ctx_.getI64(0), parseIntPrimary());
    }
    if (at(Tok::Int)) {
      return ctx_.getI64(take().integer);
    }
    if (accept(Tok::LParen)) {
      Value* inner = parseIntExpr();
      expect(Tok::RParen, "')'");
      return inner;
    }
    if (at(Tok::Ident)) {
      const auto it = intVars_.find(cur().text);
      if (it == intVars_.end()) {
        fail("unknown integer variable '" + cur().text + "'");
      }
      take();
      return builder_.createLoad(ctx_.i64(), it->second);
    }
    fail("expected integer expression");
  }

  // -- angle expressions: lowered to double values -------------------------
  Value* parseAngleExpr() { return parseAngleAdditive(); }

  Value* parseAngleAdditive() {
    Value* lhs = parseAngleMultiplicative();
    while (at(Tok::Plus) || at(Tok::Minus)) {
      const Opcode op = take().kind == Tok::Plus ? Opcode::FAdd : Opcode::FSub;
      lhs = fbin(op, lhs, parseAngleMultiplicative());
    }
    return lhs;
  }

  Value* parseAngleMultiplicative() {
    Value* lhs = parseAnglePrimary();
    while (at(Tok::Star) || at(Tok::Slash)) {
      const Opcode op = take().kind == Tok::Star ? Opcode::FMul : Opcode::FDiv;
      lhs = fbin(op, lhs, parseAnglePrimary());
    }
    return lhs;
  }

  Value* parseAnglePrimary() {
    if (accept(Tok::Minus)) {
      return fbin(Opcode::FSub, ctx_.getDouble(0.0), parseAnglePrimary());
    }
    if (at(Tok::Real)) {
      return ctx_.getDouble(take().real);
    }
    if (at(Tok::Int)) {
      return ctx_.getDouble(static_cast<double>(take().integer));
    }
    if (acceptIdent("pi")) {
      return ctx_.getDouble(std::numbers::pi);
    }
    if (accept(Tok::LParen)) {
      Value* inner = parseAngleExpr();
      expect(Tok::RParen, "')'");
      return inner;
    }
    if (at(Tok::Ident)) {
      const auto it = intVars_.find(cur().text);
      if (it == intVars_.end()) {
        fail("unknown variable '" + cur().text + "' in angle expression");
      }
      take();
      Value* loaded = builder_.createLoad(ctx_.i64(), it->second);
      return builder_.createCast(Opcode::SIToFP, loaded, ctx_.doubleTy());
    }
    fail("expected angle expression");
  }

  // -- register references ---------------------------------------------------
  /// `name[expr]` -> (register, index value). A constant index is
  /// checked here; one computed from a loop variable is checked by the
  /// loader once the pipeline has folded it.
  std::pair<const Register*, Value*> parseIndexedRef(bool quantum) {
    if (!at(Tok::Ident)) {
      fail("expected register name");
    }
    const Register& reg = lookup(take(), quantum);
    expect(Tok::LBracket, "'['");
    const SourceLoc indexLoc = cur().loc;
    Value* index = parseIntExpr();
    expect(Tok::RBracket, "']'");
    if (const auto* c = dynamic_cast<ConstantInt*>(index)) {
      checkIndex(reg, c->value(), indexLoc);
    }
    return {&reg, index};
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
    if (acceptInclude("stdgates.inc")) {
      return;
    }
    if (atIdent("qubit") || atIdent("bit")) {
      const bool quantum = take().text == "qubit";
      expect(Tok::LBracket, "'['");
      if (!at(Tok::Int)) {
        fail("expected register size");
      }
      const Token& size = take();
      expect(Tok::RBracket, "']'");
      if (!at(Tok::Ident)) {
        fail("expected register name");
      }
      const Token& name = take();
      expect(Tok::Semi, "';'");
      declare(name, quantum, size);
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
    if (acceptIdent("reset")) {
      Value* q = qubitAddress();
      expect(Tok::Semi, "';'");
      builder_.createCall(qir::declareQIRFunction(*module_, qir::kQisReset), {q});
      return;
    }
    // `bit[i] = measure qubit[j];`
    if (const Register* bits = at(Tok::Ident) ? find(cur().text) : nullptr;
        bits != nullptr && !bits->quantum) {
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
    const std::string& name = take().text;
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
    if (accept(Tok::LParen)) {
      do {
        args.push_back(parseAngleExpr());
      } while (accept(Tok::Comma));
      expect(Tok::RParen, "')'");
    }
    do {
      args.push_back(qubitAddress());
    } while (accept(Tok::Comma));
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
    const std::string& var = take().text;
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
    parseBody();
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
    const auto [result, expectOne] = parseBitCondition();

    Function* fn = entry_;
    BasicBlock* header = fn->createBlock("while.header");
    BasicBlock* body = fn->createBlock("while.body");
    BasicBlock* exit = fn->createBlock("while.exit");
    builder_.createBr(header);

    builder_.setInsertPoint(header);
    builder_.createCondBr(emitBitTest(result, expectOne), body, exit);

    builder_.setInsertPoint(body);
    block_ = body;
    parseBody();
    builder_.createBr(header);

    block_ = exit;
    builder_.setInsertPoint(exit);
  }

  void parseIf() {
    expectIdent("if");
    const auto [result, expectOne] = parseBitCondition();
    Value* cond = emitBitTest(result, expectOne);

    Function* fn = entry_;
    BasicBlock* then = fn->createBlock("if.then");
    BasicBlock* cont = fn->createBlock("if.end");
    builder_.createCondBr(cond, then, cont);

    builder_.setInsertPoint(then);
    block_ = then;
    if (at(Tok::LBrace)) {
      parseBody();
    } else {
      parseStatement();
    }
    builder_.createBr(cont);
    block_ = cont;
    builder_.setInsertPoint(cont);
  }

  /// `{ statement* }`
  void parseBody() {
    expect(Tok::LBrace, "'{'");
    while (!at(Tok::RBrace)) {
      parseStatement();
    }
    expect(Tok::RBrace, "'}'");
  }

  /// `(bit[i])` or `(bit[i] == 0|1)`: the result's address and the value
  /// the condition holds for.
  std::pair<Value*, bool> parseBitCondition() {
    expect(Tok::LParen, "'('");
    const auto [reg, index] = parseIndexedRef(/*quantum=*/false);
    bool expectOne = true;
    if (accept(Tok::EqEq)) {
      if (!at(Tok::Int)) {
        fail("expected 0 or 1 in bit comparison");
      }
      expectOne = take().integer != 0;
    }
    expect(Tok::RParen, "')'");
    return {address(*reg, index), expectOne};
  }

  /// Read the result at \p result: true when it is \p expectOne.
  Value* emitBitTest(Value* result, bool expectOne) {
    Value* bit = builder_.createCall(
        qir::declareQIRFunction(*module_, qir::kQisReadResult), {result});
    return expectOne ? bit : builder_.createBinOp(Opcode::Xor, bit, ctx_.getI1(true));
  }

  void emitRecordOutput() {
    if (numBits() == 0) {
      return;
    }
    Function* record =
        qir::declareQIRFunction(*module_, qir::kRtResultRecordOutput);
    Function* arrayRecord =
        qir::declareQIRFunction(*module_, qir::kRtArrayRecordOutput);
    GlobalVariable* arrayLabel =
        module_->createGlobalString("lbl.array", std::string("array\0", 6));
    builder_.createCall(arrayRecord, {ctx_.getI64(numBits()), arrayLabel});
    for (std::uint32_t bit = 0; bit < numBits(); ++bit) {
      const std::string label = "r" + std::to_string(bit);
      GlobalVariable* labelGlobal =
          module_->createGlobalString("lbl." + label, label + '\0');
      Value* result = bit == 0 ? static_cast<Value*>(ctx_.getNullPtr())
                               : static_cast<Value*>(ctx_.getIntToPtr(bit));
      builder_.createCall(record, {result, labelGlobal});
    }
  }

  Context& ctx_;
  std::unique_ptr<Module> module_;
  Function* entry_ = nullptr;
  BasicBlock* block_ = nullptr;
  IRBuilder builder_{ctx_};
  std::map<std::string, Instruction*> intVars_; // name -> alloca slot
};

telemetry::Stage g_parseQasm3{"parse.qasm3"};

} // namespace

std::unique_ptr<Module> compileQasm3(Context& context, std::string_view source) {
  const telemetry::Span span(g_parseQasm3);
  return Compiler(context, source).run();
}

} // namespace qirkit::qasm
