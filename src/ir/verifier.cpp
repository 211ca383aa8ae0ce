#include "ir/verifier.hpp"

#include "ir/dominance.hpp"
#include "support/source_location.hpp"

#include <algorithm>
#include <sstream>

namespace qirkit::ir {
namespace {

class Verifier {
public:
  explicit Verifier(const Module& module) : module_(module) {}

  std::vector<std::string> run() {
    for (const auto& fn : module_.functions()) {
      if (!fn->isDeclaration()) {
        verifyFunction(*fn);
      }
    }
    return std::move(errors_);
  }

private:
  template <typename... Args> void error(const Function& fn, Args&&... parts) {
    std::ostringstream out;
    out << "in @" << fn.name() << ": ";
    (out << ... << parts);
    errors_.push_back(out.str());
  }

  static std::string describe(const Instruction& inst) {
    std::string out = opcodeName(inst.op());
    if (inst.op() == Opcode::Call && inst.callee() != nullptr) {
      out += " @" + inst.callee()->name();
    }
    if (inst.hasName()) {
      out += " (%" + inst.name() + ")";
    }
    return out;
  }

  void verifyFunction(const Function& fn) {
    if (fn.entry() == nullptr) {
      error(fn, "function definition has no blocks");
      return;
    }
    if (!fn.entry()->predecessors().empty()) {
      error(fn, "entry block has predecessors");
    }
    for (const auto& block : fn.blocks()) {
      verifyBlock(fn, *block);
    }
    verifyDominance(fn);
  }

  void verifyBlock(const Function& fn, const BasicBlock& block) {
    if (block.empty() || !block.back()->isTerminator()) {
      error(fn, "block ", block.hasName() ? "%" + block.name() : "<unnamed>",
            " is not terminated");
      return;
    }
    bool seenNonPhi = false;
    for (const auto& inst : block.instructions()) {
      if (inst->isTerminator() && inst.get() != block.back()) {
        error(fn, "terminator in the middle of a block");
      }
      if (inst->op() == Opcode::Phi) {
        if (seenNonPhi) {
          error(fn, "phi after non-phi instruction");
        }
      } else {
        seenNonPhi = true;
      }
      verifyInstruction(fn, *inst);
    }
    // Phi incoming sets must match the predecessor set exactly.
    const std::vector<BasicBlock*> preds = block.predecessors();
    for (const Instruction* phi : block.phis()) {
      if (phi->numIncoming() != preds.size()) {
        error(fn, "phi has ", phi->numIncoming(), " incoming values but block has ",
              preds.size(), " predecessors");
        continue;
      }
      for (unsigned i = 0; i < phi->numIncoming(); ++i) {
        const BasicBlock* incoming = phi->incomingBlock(i);
        if (std::find(preds.begin(), preds.end(), incoming) == preds.end()) {
          error(fn, "phi incoming block is not a predecessor");
        }
        if (phi->incomingValue(i)->type() != phi->type() &&
            phi->incomingValue(i)->kind() != Value::Kind::Undef) {
          error(fn, "phi incoming value type mismatch");
        }
      }
    }
  }

  void verifyInstruction(const Function& fn, const Instruction& inst) {
    for (unsigned i = 0; i < inst.numOperands(); ++i) {
      if (inst.operand(i) == nullptr) {
        error(fn, describe(inst), ": null operand");
        return;
      }
      if (inst.operand(i)->kind() == Value::Kind::ForwardRef) {
        error(fn, describe(inst), ": unresolved forward reference operand");
        return;
      }
    }
    const Opcode op = inst.op();
    if (isBinaryOp(op)) {
      const Type* lhs = inst.operand(0)->type();
      const Type* rhs = inst.operand(1)->type();
      if (lhs != rhs || inst.type() != lhs) {
        error(fn, describe(inst), ": operand/result type mismatch");
      }
      if (isIntBinaryOp(op) && !lhs->isInteger()) {
        error(fn, describe(inst), ": integer op on non-integer type");
      }
      if (isFloatBinaryOp(op) && !lhs->isDouble()) {
        error(fn, describe(inst), ": float op on non-double type");
      }
      return;
    }
    switch (op) {
    case Opcode::Ret: {
      const Type* expected = fn.returnType();
      if (expected->isVoid()) {
        if (inst.numOperands() != 0) {
          error(fn, "ret with value in void function");
        }
      } else if (inst.numOperands() != 1 || inst.operand(0)->type() != expected) {
        error(fn, "ret value type does not match function return type");
      }
      break;
    }
    case Opcode::Br:
      if (inst.isConditionalBr() && !inst.brCondition()->type()->isInteger(1)) {
        error(fn, "br condition is not i1");
      }
      break;
    case Opcode::Switch:
      if (!inst.operand(0)->type()->isInteger()) {
        error(fn, "switch condition is not an integer");
      }
      for (unsigned i = 0; i < inst.numSwitchCases(); ++i) {
        if (inst.operand(2 + 2 * i)->type() != inst.operand(0)->type()) {
          error(fn, "switch case type mismatch");
        }
      }
      break;
    case Opcode::Load:
      if (!inst.operand(0)->type()->isPointer()) {
        error(fn, "load from non-pointer");
      }
      break;
    case Opcode::Store:
      if (!inst.operand(1)->type()->isPointer()) {
        error(fn, "store to non-pointer");
      }
      break;
    case Opcode::ICmp:
      if (inst.operand(0)->type() != inst.operand(1)->type()) {
        error(fn, "icmp operand type mismatch");
      } else if (!inst.operand(0)->type()->isInteger() &&
                 !inst.operand(0)->type()->isPointer()) {
        error(fn, "icmp on non-integer, non-pointer type");
      }
      break;
    case Opcode::FCmp:
      if (!inst.operand(0)->type()->isDouble() || !inst.operand(1)->type()->isDouble()) {
        error(fn, "fcmp on non-double type");
      }
      break;
    case Opcode::ZExt:
    case Opcode::SExt:
      if (!inst.operand(0)->type()->isInteger() || !inst.type()->isInteger() ||
          inst.operand(0)->type()->bits() >= inst.type()->bits()) {
        error(fn, describe(inst), ": invalid extension");
      }
      break;
    case Opcode::Trunc:
      if (!inst.operand(0)->type()->isInteger() || !inst.type()->isInteger() ||
          inst.operand(0)->type()->bits() <= inst.type()->bits()) {
        error(fn, "invalid trunc");
      }
      break;
    case Opcode::PtrToInt:
      if (!inst.operand(0)->type()->isPointer() || !inst.type()->isInteger()) {
        error(fn, "invalid ptrtoint");
      }
      break;
    case Opcode::IntToPtr:
      if (!inst.operand(0)->type()->isInteger() || !inst.type()->isPointer()) {
        error(fn, "invalid inttoptr");
      }
      break;
    case Opcode::SIToFP:
    case Opcode::UIToFP:
      if (!inst.operand(0)->type()->isInteger() || !inst.type()->isDouble()) {
        error(fn, "invalid int-to-fp cast");
      }
      break;
    case Opcode::FPToSI:
    case Opcode::FPToUI:
      if (!inst.operand(0)->type()->isDouble() || !inst.type()->isInteger()) {
        error(fn, "invalid fp-to-int cast");
      }
      break;
    case Opcode::Bitcast:
      // With opaque pointers the subset's bitcast is a no-op. A
      // reinterpreting one (i64 to double) would need the engines to move
      // bits between register fields, which they do not.
      if (inst.operand(0)->type() != inst.type()) {
        error(fn, describe(inst), ": bitcast between different types");
      }
      break;
    case Opcode::Select:
      if (!inst.operand(0)->type()->isInteger(1)) {
        error(fn, "select condition is not i1");
      }
      if (inst.operand(1)->type() != inst.operand(2)->type() ||
          inst.type() != inst.operand(1)->type()) {
        error(fn, "select arm type mismatch");
      }
      break;
    case Opcode::Call: {
      const Function* callee = inst.callee();
      if (callee == nullptr) {
        error(fn, "call without callee");
        break;
      }
      const auto params = callee->functionType()->paramTypes();
      if (inst.numOperands() != params.size()) {
        error(fn, "call to @", callee->name(), " has wrong arity");
        break;
      }
      for (unsigned i = 0; i < params.size(); ++i) {
        if (inst.operand(i)->type() != params[i] &&
            inst.operand(i)->kind() != Value::Kind::Undef) {
          error(fn, "call to @", callee->name(), ": argument ", i, " type mismatch");
        }
      }
      if (inst.type() != callee->returnType()) {
        error(fn, "call to @", callee->name(), ": return type mismatch");
      }
      break;
    }
    default:
      break;
    }
  }

  void verifyDominance(const Function& fn) {
    const DomTree dom(fn);
    for (const auto& block : fn.blocks()) {
      if (!dom.isReachable(block.get())) {
        continue; // uses in unreachable code are not constrained
      }
      for (const auto& inst : block->instructions()) {
        for (unsigned i = 0; i < inst->numOperands(); ++i) {
          const auto* defInst = dynamic_cast<const Instruction*>(inst->operand(i));
          if (defInst == nullptr) {
            continue;
          }
          if (inst->op() == Opcode::Phi) {
            if (i % 2 != 0) {
              continue; // incoming block operand
            }
            const BasicBlock* incoming = inst->incomingBlock(i / 2);
            if (dom.isReachable(incoming) &&
                !dom.dominates(defInst->parent(), incoming)) {
              error(fn, describe(*inst), ": incoming value does not dominate edge");
            }
            continue;
          }
          if (!dom.dominatesUse(defInst, inst.get())) {
            error(fn, describe(*inst), ": operand %",
                  defInst->hasName() ? defInst->name() : std::string("<tmp>"),
                  " does not dominate use");
          }
        }
      }
    }
  }

  const Module& module_;
  std::vector<std::string> errors_;
};

} // namespace

std::vector<std::string> verifyModule(const Module& module) {
  return Verifier(module).run();
}

void verifyModuleOrThrow(const Module& module) {
  const std::vector<std::string> errors = verifyModule(module);
  if (errors.empty()) {
    return;
  }
  std::string message = "module verification failed:";
  for (const std::string& e : errors) {
    message += "\n  " + e;
  }
  throw qirkit::SemanticError(message, qirkit::ErrorCode::Verify);
}

} // namespace qirkit::ir
