#include "interp/interpreter.hpp"

#include "ir/constant.hpp"
#include "passes/folding.hpp"
#include "support/cancel.hpp"
#include "support/faultinject.hpp"
#include "support/source_location.hpp"

#include <cassert>
#include <cstring>

namespace qirkit::interp {

using namespace qirkit::ir;

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

Interpreter::Interpreter(const ir::Module& module) : module_(module) {
  materializeGlobals();
}

void Interpreter::materializeGlobals() {
  for (const auto& global : module_.globals()) {
    const std::string& bytes = global->initializer();
    const std::uint64_t address = memory_.allocate(std::max<std::uint64_t>(
        1, bytes.size()));
    if (!bytes.empty()) {
      memory_.store(address, bytes.data(), bytes.size());
    }
    globalAddresses_[global.get()] = address;
  }
}

void Interpreter::reset() {
  memory_ = Memory();
  globalAddresses_.clear();
  materializeGlobals();
  stats_ = {};
  stepsTaken_ = 0;
}

std::uint64_t Interpreter::globalAddress(const GlobalVariable* g) const {
  const auto it = globalAddresses_.find(g);
  if (it == globalAddresses_.end()) {
    throw TrapError("reference to unmaterialized global @" + g->name());
  }
  return it->second;
}

RtValue Interpreter::evalConstant(const Value* v) const {
  switch (v->kind()) {
  case Value::Kind::ConstantInt:
    return RtValue::makeInt(static_cast<const ConstantInt*>(v)->value());
  case Value::Kind::ConstantFP:
    return RtValue::makeDouble(static_cast<const ConstantFP*>(v)->value());
  case Value::Kind::ConstantPointerNull:
    return RtValue::makePtr(0);
  case Value::Kind::ConstantIntToPtr:
    return RtValue::makePtr(static_cast<const ConstantIntToPtr*>(v)->address());
  case Value::Kind::Undef:
    return v->type()->isDouble() ? RtValue::makeDouble(0.0)
           : v->type()->isPointer()
               ? RtValue::makePtr(0)
               : RtValue::makeInt(0);
  case Value::Kind::GlobalVariable:
    return RtValue::makePtr(
        globalAddress(static_cast<const GlobalVariable*>(v)));
  default:
    throw TrapError("cannot evaluate value of kind " +
                    std::to_string(static_cast<int>(v->kind())));
  }
}

void checkArgumentCount(const std::string& function, std::size_t params,
                        std::size_t given) {
  if (params != given) {
    throw TrapError("@" + function + " takes " + std::to_string(params) +
                        " parameter(s) but was called with " +
                        std::to_string(given) +
                        " argument(s) (QIR entry points take none)",
                    ErrorCode::Semantic);
  }
}

const ir::Function& checkEntryPoint(const ir::Module& module) {
  const Function* entry = module.entryFunction();
  if (entry == nullptr) {
    throw TrapError("module has no executable entry point");
  }
  checkArgumentCount(entry->name(), entry->numArgs(), 0);
  return *entry;
}

RtValue Interpreter::run(const ir::Function& fn, std::span<const RtValue> args) {
  checkArgumentCount(fn.name(), fn.numArgs(), args.size());
  stepsTaken_ = 0;
  return execute(fn, args, 0);
}

RtValue Interpreter::runEntryPoint() {
  return run(checkEntryPoint(module_), {});
}

RtValue Interpreter::execute(const ir::Function& fn, std::span<const RtValue> args,
                             unsigned depth) {
  if (depth > 512) {
    throw TrapError("call stack overflow (depth > 512)",
                    ErrorCode::ResourceLimit);
  }
  if (fn.isDeclaration()) {
    throw TrapError("cannot execute declaration @" + fn.name());
  }
  ++stats_.internalCalls;

  std::map<const Value*, RtValue> frame;
  const auto get = [&](const Value* v) -> RtValue {
    if (const auto* arg = dynamic_cast<const Argument*>(v)) {
      return args[arg->index()];
    }
    if (v->kind() == Value::Kind::Instruction) {
      const auto it = frame.find(v);
      if (it == frame.end()) {
        throw TrapError("use of value before definition (verifier not run?)");
      }
      return it->second;
    }
    return evalConstant(v);
  };

  const BasicBlock* block = fn.entry();
  const BasicBlock* previous = nullptr;
  while (true) {
    ++stats_.blocksEntered;
    bool branched = false;
    // Phase 1: phis read their incoming values simultaneously.
    std::vector<std::pair<const Instruction*, RtValue>> phiValues;
    std::size_t index = 0;
    for (; index < block->size(); ++index) {
      const Instruction* inst = block->instructions()[index].get();
      if (inst->op() != Opcode::Phi) {
        break;
      }
      const Value* incoming = inst->incomingValueFor(previous);
      if (incoming == nullptr) {
        throw TrapError("phi has no incoming value for executed edge");
      }
      phiValues.emplace_back(inst, get(incoming));
    }
    for (auto& [phi, value] : phiValues) {
      frame[phi] = value;
    }

    for (; index < block->size(); ++index) {
      const Instruction* inst = block->instructions()[index].get();
      if (++stepsTaken_ > stepLimit_) {
        throw TrapError("step limit exceeded (" + std::to_string(stepLimit_) + ")",
                        ErrorCode::StepBudgetExceeded);
      }
      ++stats_.instructionsExecuted;
      // Strided cancellation probe (same 1024-step stride as the VM).
      if (cancel_ != nullptr && (stepsTaken_ & 1023) == 0) {
        cancel_->checkpoint("interpreter");
      }
      const Opcode op = inst->op();

      if (isIntBinaryOp(op)) {
        const RtValue lhs = get(inst->operand(0));
        const RtValue rhs = get(inst->operand(1));
        std::int64_t result = 0;
        if (!passes::evalIntBinOp(op, inst->type()->bits(), lhs.i, rhs.i, result)) {
          throw TrapError(std::string("arithmetic trap in ") + opcodeName(op) +
                              " (division by zero or oversized shift)",
                          ErrorCode::TrapArithmetic);
        }
        frame[inst] = RtValue::makeInt(result);
        continue;
      }
      if (isFloatBinaryOp(op)) {
        frame[inst] = RtValue::makeDouble(passes::evalFloatBinOp(
            op, get(inst->operand(0)).d, get(inst->operand(1)).d));
        continue;
      }
      if (isCastOp(op)) {
        if (passes::isTypeChangingBitcast(*inst)) {
          throw TrapError("bitcast between different types");
        }
        frame[inst] =
            passes::evalCast(op, passes::castBits(*inst), get(inst->operand(0)));
        continue;
      }

      switch (op) {
      case Opcode::Ret:
        return inst->numOperands() == 1 ? get(inst->operand(0)) : RtValue::makeVoid();
      case Opcode::Br: {
        const BasicBlock* next = nullptr;
        if (inst->isConditionalBr()) {
          next = get(inst->brCondition()).i != 0 ? inst->successor(0)
                                                 : inst->successor(1);
        } else {
          next = inst->successor(0);
        }
        previous = block;
        block = next;
        branched = true;
        break;
      }
      case Opcode::Switch: {
        const std::int64_t cond = get(inst->operand(0)).i;
        const BasicBlock* next = inst->successor(0);
        for (unsigned c = 0; c < inst->numSwitchCases(); ++c) {
          if (inst->switchCaseValue(c)->value() == cond) {
            next = inst->switchCaseDest(c);
            break;
          }
        }
        previous = block;
        block = next;
        branched = true;
        break;
      }
      case Opcode::Unreachable:
        throw TrapError("executed 'unreachable'", ErrorCode::TrapUnreachable);
      case Opcode::Alloca:
        frame[inst] =
            RtValue::makePtr(memory_.allocate(inst->allocatedType()->storeSize()));
        continue;
      case Opcode::Load: {
        const std::uint64_t address = get(inst->operand(0)).p;
        const Type* type = inst->type();
        if (type->isDouble()) {
          double value = 0.0;
          memory_.load(address, &value, sizeof value);
          frame[inst] = RtValue::makeDouble(value);
        } else if (type->isPointer()) {
          std::uint64_t value = 0;
          memory_.load(address, &value, sizeof value);
          frame[inst] = RtValue::makePtr(value);
        } else {
          frame[inst] = RtValue::makeInt(memory_.loadInt(address, type->bits()));
        }
        continue;
      }
      case Opcode::Store: {
        const RtValue value = get(inst->operand(0));
        const std::uint64_t address = get(inst->operand(1)).p;
        const Type* type = inst->operand(0)->type();
        if (type->isDouble()) {
          memory_.store(address, &value.d, sizeof value.d);
        } else if (type->isPointer()) {
          memory_.store(address, &value.p, sizeof value.p);
        } else {
          memory_.storeInt(address, value.i, type->bits());
        }
        continue;
      }
      case Opcode::ICmp: {
        const Value* lhsV = inst->operand(0);
        const RtValue lhs = get(lhsV);
        const RtValue rhs = get(inst->operand(1));
        const bool ptrCmp = lhsV->type()->isPointer();
        const std::int64_t li = ptrCmp ? static_cast<std::int64_t>(lhs.p) : lhs.i;
        const std::int64_t ri = ptrCmp ? static_cast<std::int64_t>(rhs.p) : rhs.i;
        const unsigned bits = ptrCmp ? 64 : lhsV->type()->bits();
        frame[inst] = RtValue::makeI1(passes::evalICmp(inst->icmpPred(), bits, li, ri));
        continue;
      }
      case Opcode::FCmp:
        frame[inst] = RtValue::makeI1(passes::evalFCmp(
            inst->fcmpPred(), get(inst->operand(0)).d, get(inst->operand(1)).d));
        continue;
      case Opcode::Select:
        frame[inst] = get(inst->operand(0)).i != 0 ? get(inst->operand(1))
                                                   : get(inst->operand(2));
        continue;
      case Opcode::Call: {
        const Function* callee = inst->callee();
        std::vector<RtValue> callArgs(inst->numOperands());
        for (unsigned a = 0; a < inst->numOperands(); ++a) {
          callArgs[a] = get(inst->operand(a));
        }
        RtValue result;
        if (callee->isDeclaration()) {
          const ExternalHandler* handler = findExternal(callee->name());
          if (handler == nullptr) {
            // The paper's observation: lli "cannot handle the quantum
            // instructions and will raise an error" unless a runtime
            // provides the missing definitions.
            throw TrapError("call to undefined external @" + callee->name() +
                                " (no runtime binding registered)",
                            ErrorCode::TrapUnboundExternal);
          }
          ++stats_.externalCalls;
          fault::probe(fault::Site::RuntimeCall);
          ExternContext extern_{memory_};
          result = (*handler)(callArgs, extern_);
        } else {
          result = execute(*callee, callArgs, depth + 1);
        }
        if (!inst->type()->isVoid()) {
          frame[inst] = result;
        }
        continue;
      }
      default:
        throw TrapError(std::string("cannot interpret opcode ") + opcodeName(op));
      }
      break; // a branch was taken: restart the block loop
    }
    if (!branched) {
      throw TrapError("fell off the end of an unterminated block");
    }
  }
}

} // namespace qirkit::interp
