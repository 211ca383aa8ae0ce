/// \file instruction.hpp
/// Instructions and basic blocks of the LLVM-IR subset.
///
/// Design notes:
///  * One concrete Instruction class carrying an Opcode, rather than a
///    class per opcode; per-opcode payload (icmp predicate, alloca type,
///    callee) lives in dedicated fields. This keeps the pass code compact
///    while preserving LLVM's operand/use-list semantics.
///  * Basic blocks are Values and appear as *operands* of terminators and
///    phis (exactly as in LLVM), so predecessor lists fall out of the
///    use-def graph and replaceAllUsesWith retargets control flow.
#pragma once

#include "ir/constant.hpp"
#include "ir/value.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qirkit::ir {

class BasicBlock;
class Function;
class Instruction;

/// Every IR opcode, spelled once: OP(enumerator, LLVM mnemonic, class).
/// The class is one of OpcodeClass's. The list generates Opcode,
/// opcodeName, opcodeFromName (the parser's dispatch) and the is*Op class
/// tests.
#define QIRKIT_IR_OPCODES(OP)                                                  \
  OP(Ret, "ret", Terminator)                                                   \
  OP(Br, "br", Terminator)                                                     \
  OP(Switch, "switch", Terminator)                                             \
  OP(Unreachable, "unreachable", Terminator)                                   \
  OP(Add, "add", IntBinary)                                                    \
  OP(Sub, "sub", IntBinary)                                                    \
  OP(Mul, "mul", IntBinary)                                                    \
  OP(SDiv, "sdiv", IntBinary)                                                  \
  OP(UDiv, "udiv", IntBinary)                                                  \
  OP(SRem, "srem", IntBinary)                                                  \
  OP(URem, "urem", IntBinary)                                                  \
  OP(And, "and", IntBinary)                                                    \
  OP(Or, "or", IntBinary)                                                      \
  OP(Xor, "xor", IntBinary)                                                    \
  OP(Shl, "shl", IntBinary)                                                    \
  OP(LShr, "lshr", IntBinary)                                                  \
  OP(AShr, "ashr", IntBinary)                                                  \
  OP(FAdd, "fadd", FloatBinary)                                                \
  OP(FSub, "fsub", FloatBinary)                                                \
  OP(FMul, "fmul", FloatBinary)                                                \
  OP(FDiv, "fdiv", FloatBinary)                                                \
  OP(FRem, "frem", FloatBinary)                                                \
  OP(Alloca, "alloca", Memory)                                                 \
  OP(Load, "load", Memory)                                                     \
  OP(Store, "store", Memory)                                                   \
  OP(ICmp, "icmp", Compare)                                                    \
  OP(FCmp, "fcmp", Compare)                                                    \
  OP(ZExt, "zext", Cast)                                                       \
  OP(SExt, "sext", Cast)                                                       \
  OP(Trunc, "trunc", Cast)                                                     \
  OP(PtrToInt, "ptrtoint", Cast)                                               \
  OP(IntToPtr, "inttoptr", Cast)                                               \
  OP(SIToFP, "sitofp", Cast)                                                   \
  OP(FPToSI, "fptosi", Cast)                                                   \
  OP(UIToFP, "uitofp", Cast)                                                   \
  OP(FPToUI, "fptoui", Cast)                                                   \
  OP(Bitcast, "bitcast", Cast)                                                 \
  OP(Phi, "phi", Other)                                                        \
  OP(Select, "select", Other)                                                  \
  OP(Call, "call", Other)

/// Integer comparison predicates: P(enumerator, mnemonic).
#define QIRKIT_ICMP_PREDS(P)                                                   \
  P(EQ, "eq") P(NE, "ne") P(SLT, "slt") P(SLE, "sle") P(SGT, "sgt")             \
  P(SGE, "sge") P(ULT, "ult") P(ULE, "ule") P(UGT, "ugt") P(UGE, "uge")

/// Floating comparison predicates (ordered subset plus UNE).
#define QIRKIT_FCMP_PREDS(P)                                                   \
  P(OEQ, "oeq") P(ONE, "one") P(OLT, "olt") P(OLE, "ole") P(OGT, "ogt")         \
  P(OGE, "oge") P(UNE, "une")

/// The class column of QIRKIT_IR_OPCODES.
enum class OpcodeClass : std::uint8_t {
  Terminator,
  IntBinary,
  FloatBinary,
  Memory,
  Compare,
  Cast,
  Other,
};

#define QIRKIT_IR_ENUMERATOR(name, ...) name,
/// Instruction opcodes of the modeled subset, in QIRKIT_IR_OPCODES order.
enum class Opcode : std::uint8_t { QIRKIT_IR_OPCODES(QIRKIT_IR_ENUMERATOR) };
enum class ICmpPred : std::uint8_t { QIRKIT_ICMP_PREDS(QIRKIT_IR_ENUMERATOR) };
enum class FCmpPred : std::uint8_t { QIRKIT_FCMP_PREDS(QIRKIT_IR_ENUMERATOR) };
#undef QIRKIT_IR_ENUMERATOR

[[nodiscard]] constexpr OpcodeClass opcodeClass(Opcode op) noexcept {
  constexpr OpcodeClass kClasses[] = {
#define QIRKIT_IR_CLASS(name, mnemonic, cls) OpcodeClass::cls,
      QIRKIT_IR_OPCODES(QIRKIT_IR_CLASS)
#undef QIRKIT_IR_CLASS
  };
  return kClasses[static_cast<std::size_t>(op)];
}
[[nodiscard]] constexpr bool isIntBinaryOp(Opcode op) noexcept {
  return opcodeClass(op) == OpcodeClass::IntBinary;
}
[[nodiscard]] constexpr bool isFloatBinaryOp(Opcode op) noexcept {
  return opcodeClass(op) == OpcodeClass::FloatBinary;
}
[[nodiscard]] constexpr bool isBinaryOp(Opcode op) noexcept {
  return isIntBinaryOp(op) || isFloatBinaryOp(op);
}
[[nodiscard]] constexpr bool isCastOp(Opcode op) noexcept {
  return opcodeClass(op) == OpcodeClass::Cast;
}
[[nodiscard]] constexpr bool isTerminatorOp(Opcode op) noexcept {
  return opcodeClass(op) == OpcodeClass::Terminator;
}

[[nodiscard]] const char* opcodeName(Opcode op) noexcept;
[[nodiscard]] const char* icmpPredName(ICmpPred p) noexcept;
[[nodiscard]] const char* fcmpPredName(FCmpPred p) noexcept;
/// Inverses of the *Name functions: nullopt for a name not in the lists.
[[nodiscard]] std::optional<Opcode> opcodeFromName(std::string_view name) noexcept;
[[nodiscard]] std::optional<ICmpPred> icmpPredFromName(std::string_view name) noexcept;
[[nodiscard]] std::optional<FCmpPred> fcmpPredFromName(std::string_view name) noexcept;

/// A single IR instruction. Operand layout per opcode:
///   Ret:      [] or [value]
///   Br:       [dest] (unconditional) or [cond, trueDest, falseDest]
///   Switch:   [cond, defaultDest, caseVal0, caseDest0, caseVal1, ...]
///   Binary:   [lhs, rhs]
///   Alloca:   []                       (allocatedType() holds the type)
///   Load:     [ptr]                    (result type is the loaded type)
///   Store:    [value, ptr]
///   ICmp/FCmp:[lhs, rhs]               (predicate in icmpPred()/fcmpPred())
///   Casts:    [value]
///   Phi:      [inVal0, inBlock0, inVal1, inBlock1, ...]
///   Select:   [cond, trueValue, falseValue]
///   Call:     [arg0, arg1, ...]        (callee() holds the target)
class Instruction final : public User {
public:
  [[nodiscard]] Opcode op() const noexcept { return op_; }
  [[nodiscard]] BasicBlock* parent() const noexcept { return parent_; }
  [[nodiscard]] Function* function() const noexcept;

  [[nodiscard]] bool isTerminator() const noexcept { return isTerminatorOp(op_); }

  /// True if removing this instruction (when unused) changes observable
  /// behaviour: stores, calls, and terminators do; pure computations and
  /// allocas do not.
  [[nodiscard]] bool hasSideEffects() const noexcept;

  /// True if executing this instruction may raise a run-time trap: a
  /// division or remainder whose divisor is not a known non-zero constant
  /// (signed ones also unless INT_MIN / -1 is ruled out), a shift whose
  /// amount is not a constant below the width, or a load that is not
  /// known to stay inside an alloca or global. Passes must not delete such
  /// an instruction even when its result is unused.
  [[nodiscard]] bool mayTrap() const noexcept;

  /// True if deleting this instruction cannot change what the program
  /// does: it produces a value nobody uses, has no side effects and
  /// cannot trap. The one deletion rule of DCE, SCCP and constant folding.
  [[nodiscard]] bool isTriviallyDead() const noexcept {
    return !type()->isVoid() && !hasUses() && !hasSideEffects() && !mayTrap();
  }

  // -- ICmp / FCmp -----------------------------------------------------------
  [[nodiscard]] ICmpPred icmpPred() const noexcept { return icmpPred_; }
  [[nodiscard]] FCmpPred fcmpPred() const noexcept { return fcmpPred_; }
  void setICmpPred(ICmpPred p) noexcept { icmpPred_ = p; }
  void setFCmpPred(FCmpPred p) noexcept { fcmpPred_ = p; }

  // -- Alloca ------------------------------------------------------------
  [[nodiscard]] const Type* allocatedType() const noexcept { return allocatedType_; }
  void setAllocatedType(const Type* t) noexcept { allocatedType_ = t; }

  // -- Call --------------------------------------------------------------
  [[nodiscard]] Function* callee() const noexcept { return callee_; }
  void setCallee(Function* f) noexcept { callee_ = f; }

  // -- Br ------------------------------------------------------------------
  [[nodiscard]] bool isConditionalBr() const noexcept {
    return op_ == Opcode::Br && numOperands() == 3;
  }
  [[nodiscard]] Value* brCondition() const { return operand(0); }

  // -- Switch ----------------------------------------------------------------
  [[nodiscard]] unsigned numSwitchCases() const noexcept {
    return (numOperands() - 2) / 2;
  }
  [[nodiscard]] ConstantInt* switchCaseValue(unsigned i) const;
  [[nodiscard]] BasicBlock* switchCaseDest(unsigned i) const;

  // -- Phi --------------------------------------------------------------
  [[nodiscard]] unsigned numIncoming() const noexcept { return numOperands() / 2; }
  [[nodiscard]] Value* incomingValue(unsigned i) const { return operand(2 * i); }
  [[nodiscard]] BasicBlock* incomingBlock(unsigned i) const;
  void addIncoming(Value* value, BasicBlock* block);
  /// Remove the incoming pair for \p block (must be present exactly once).
  void removeIncoming(const BasicBlock* block);
  /// Incoming value for \p block, or nullptr if \p block is not incoming.
  [[nodiscard]] Value* incomingValueFor(const BasicBlock* block) const;

  // -- Terminator successors ------------------------------------------------
  [[nodiscard]] unsigned numSuccessors() const noexcept;
  [[nodiscard]] BasicBlock* successor(unsigned i) const;
  void setSuccessor(unsigned i, BasicBlock* block);

  /// Detach and destroy this instruction. Asserts that it has no uses.
  void eraseFromParent();

  /// Create an unparented copy of this instruction referencing the same
  /// operands. Callers remap operands afterwards (loop unrolling, inlining).
  [[nodiscard]] std::unique_ptr<Instruction> clone() const;

private:
  friend class BasicBlock;
  friend class IRBuilder;
  Instruction(Opcode op, const Type* type) : User(Kind::Instruction, type), op_(op) {}

  Opcode op_;
  BasicBlock* parent_ = nullptr;
  ICmpPred icmpPred_ = ICmpPred::EQ;
  FCmpPred fcmpPred_ = FCmpPred::OEQ;
  const Type* allocatedType_ = nullptr;
  Function* callee_ = nullptr;
};

/// A basic block: a label plus a straight-line instruction sequence ending
/// in exactly one terminator (enforced by the verifier).
class BasicBlock final : public Value {
public:
  [[nodiscard]] Function* parent() const noexcept { return parent_; }

  [[nodiscard]] const std::vector<std::unique_ptr<Instruction>>& instructions()
      const noexcept {
    return instructions_;
  }
  [[nodiscard]] bool empty() const noexcept { return instructions_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return instructions_.size(); }
  [[nodiscard]] Instruction* front() const { return instructions_.front().get(); }
  [[nodiscard]] Instruction* back() const { return instructions_.back().get(); }

  /// The block terminator, or nullptr if the block is not yet terminated.
  [[nodiscard]] Instruction* terminator() const noexcept;

  /// Append an instruction (takes ownership).
  Instruction* append(std::unique_ptr<Instruction> inst);
  /// Insert before position \p index.
  Instruction* insert(std::size_t index, std::unique_ptr<Instruction> inst);
  /// Index of \p inst within this block (linear scan).
  [[nodiscard]] std::size_t indexOf(const Instruction* inst) const;
  /// Detach \p inst without destroying it.
  std::unique_ptr<Instruction> detach(Instruction* inst);
  /// Move the instructions from position \p index on, in order, to the
  /// end of \p to (one pass; detaching them one by one is quadratic).
  void moveTailTo(std::size_t index, BasicBlock& to);
  /// Destroy every instruction for which \p pred returns true. Instructions
  /// are removed after their operands are released, so mutually-referencing
  /// dead instructions are handled.
  template <typename Pred> std::size_t eraseIf(Pred pred) {
    std::size_t erased = 0;
    // First drop operands of all doomed instructions so use counts between
    // them reach zero, then remove. The removal pass asks \p pred again only
    // about survivors (the drops may have left them unused), so it never
    // sees an instruction whose operands are gone.
    std::vector<bool> doomed(instructions_.size());
    for (std::size_t i = 0; i < instructions_.size(); ++i) {
      doomed[i] = pred(instructions_[i].get());
      if (doomed[i]) {
        instructions_[i]->dropAllOperands();
      }
    }
    // One compaction pass: erasing one at a time is quadratic in the block
    // length, which dominated mem2reg on large straight-line modules.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < instructions_.size(); ++i) {
      if (doomed[i] || pred(instructions_[i].get())) {
        instructions_[i].reset();
        ++erased;
      } else {
        if (kept != i) {
          instructions_[kept] = std::move(instructions_[i]);
        }
        ++kept;
      }
    }
    instructions_.resize(kept);
    return erased;
  }

  /// Successor blocks of the terminator (empty if unterminated).
  [[nodiscard]] std::vector<BasicBlock*> successors() const;
  /// Predecessor blocks: every block whose terminator targets this one.
  /// Derived from the use list; deduplicated, order unspecified.
  [[nodiscard]] std::vector<BasicBlock*> predecessors() const;
  /// True if \p pred's terminator targets this block.
  [[nodiscard]] bool hasPredecessor(const BasicBlock* pred) const;

  /// Phi nodes at the head of this block.
  [[nodiscard]] std::vector<Instruction*> phis() const;

  static bool classof(const Value* v) noexcept {
    return v->kind() == Kind::BasicBlock;
  }

private:
  friend class Function;
  explicit BasicBlock(const Type* labelType) : Value(Kind::BasicBlock, labelType) {}

  Function* parent_ = nullptr;
  std::vector<std::unique_ptr<Instruction>> instructions_;
};

} // namespace qirkit::ir
