#include "passes/folding.hpp"

#include "ir/context.hpp"

#include <cmath>

namespace qirkit::passes {

using namespace qirkit::ir;

namespace {

const ConstantInt* asConstInt(const Value* v) noexcept {
  return v->kind() == Value::Kind::ConstantInt ? static_cast<const ConstantInt*>(v)
                                               : nullptr;
}

const ConstantFP* asConstFP(const Value* v) noexcept {
  return v->kind() == Value::Kind::ConstantFP ? static_cast<const ConstantFP*>(v)
                                              : nullptr;
}

/// A constant in the register shape evalCast reads and writes.
struct Scalar {
  std::int64_t i = 0;
  double d = 0.0;
  std::uint64_t p = 0;
  static Scalar makeInt(std::int64_t v) { return {v, 0.0, 0}; }
  static Scalar makeDouble(double v) { return {0, v, 0}; }
  static Scalar makePtr(std::uint64_t v) { return {0, 0.0, v}; }
};

/// foldInstruction with \p operand(i) standing for \p inst's operand i.
template <typename Operand>
Value* fold(Context& ctx, const Instruction& inst, Operand operand) {
  const Opcode op = inst.op();

  if (isIntBinaryOp(op)) {
    Value* lhs = operand(0);
    Value* rhs = operand(1);
    const ConstantInt* cl = asConstInt(lhs);
    const ConstantInt* cr = asConstInt(rhs);
    const unsigned bits = inst.type()->bits();
    if (cl != nullptr && cr != nullptr) {
      std::int64_t result = 0;
      if (evalIntBinOp(op, bits, cl->value(), cr->value(), result)) {
        return ctx.getInt(bits, result);
      }
      return nullptr;
    }
    // Algebraic identities.
    switch (op) {
    case Opcode::Add:
      if (cr != nullptr && cr->isZero()) return lhs;
      if (cl != nullptr && cl->isZero()) return rhs;
      break;
    case Opcode::Sub:
      if (cr != nullptr && cr->isZero()) return lhs;
      if (lhs == rhs) return ctx.getInt(bits, 0);
      break;
    case Opcode::Mul:
      if (cr != nullptr && cr->isOne()) return lhs;
      if (cl != nullptr && cl->isOne()) return rhs;
      if (cr != nullptr && cr->isZero()) return ctx.getInt(bits, 0);
      if (cl != nullptr && cl->isZero()) return ctx.getInt(bits, 0);
      break;
    case Opcode::SDiv:
    case Opcode::UDiv:
      if (cr != nullptr && cr->isOne()) return lhs;
      break;
    case Opcode::And:
      if (lhs == rhs) return lhs;
      if (cr != nullptr && cr->isZero()) return ctx.getInt(bits, 0);
      if (cl != nullptr && cl->isZero()) return ctx.getInt(bits, 0);
      if (cr != nullptr && cr->value() == -1) return lhs;
      break;
    case Opcode::Or:
      if (lhs == rhs) return lhs;
      if (cr != nullptr && cr->isZero()) return lhs;
      if (cl != nullptr && cl->isZero()) return rhs;
      break;
    case Opcode::Xor:
      if (lhs == rhs) return ctx.getInt(bits, 0);
      if (cr != nullptr && cr->isZero()) return lhs;
      if (cl != nullptr && cl->isZero()) return rhs;
      break;
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
      if (cr != nullptr && cr->isZero()) return lhs;
      break;
    default:
      break;
    }
    return nullptr;
  }

  if (isFloatBinaryOp(op)) {
    const ConstantFP* cl = asConstFP(operand(0));
    const ConstantFP* cr = asConstFP(operand(1));
    if (cl != nullptr && cr != nullptr) {
      return ctx.getDouble(evalFloatBinOp(op, cl->value(), cr->value()));
    }
    return nullptr;
  }

  if (isCastOp(op)) {
    Value* source = operand(0);
    if (op == Opcode::Bitcast) {
      // With opaque pointers the only bitcasts left are no-ops.
      return inst.type() == source->type() ? source : nullptr;
    }
    Scalar value;
    if (const ConstantInt* c = asConstInt(source)) {
      value.i = c->value();
    } else if (const ConstantFP* c = asConstFP(source)) {
      value.d = c->value();
    } else if (!getStaticPointerAddress(source, value.p)) {
      return nullptr;
    }
    const Scalar result = evalCast(op, castBits(inst), value);
    const Type* type = inst.type();
    return type->isInteger()  ? static_cast<Value*>(ctx.getInt(type->bits(), result.i))
           : type->isDouble() ? static_cast<Value*>(ctx.getDouble(result.d))
                              : ctx.getIntToPtr(result.p);
  }

  switch (op) {
  case Opcode::ICmp: {
    Value* lhs = operand(0);
    Value* rhs = operand(1);
    if (const ConstantInt* cl = asConstInt(lhs)) {
      if (const ConstantInt* cr = asConstInt(rhs)) {
        return ctx.getI1(
            evalICmp(inst.icmpPred(), lhs->type()->bits(), cl->value(), cr->value()));
      }
    }
    // Pointer comparisons of static addresses (QIR static qubit ids).
    std::uint64_t la = 0;
    std::uint64_t ra = 0;
    if (lhs->type()->isPointer() && getStaticPointerAddress(lhs, la) &&
        getStaticPointerAddress(rhs, ra)) {
      return ctx.getI1(evalICmp(inst.icmpPred(), 64, static_cast<std::int64_t>(la),
                                static_cast<std::int64_t>(ra)));
    }
    if (lhs == rhs) {
      const ICmpPred pred = inst.icmpPred();
      if (pred == ICmpPred::EQ || pred == ICmpPred::SLE || pred == ICmpPred::SGE ||
          pred == ICmpPred::ULE || pred == ICmpPred::UGE) {
        return ctx.getI1(true);
      }
      return ctx.getI1(false);
    }
    return nullptr;
  }
  case Opcode::FCmp: {
    const ConstantFP* cl = asConstFP(operand(0));
    const ConstantFP* cr = asConstFP(operand(1));
    if (cl != nullptr && cr != nullptr) {
      return ctx.getI1(evalFCmp(inst.fcmpPred(), cl->value(), cr->value()));
    }
    return nullptr;
  }
  case Opcode::Select: {
    if (const ConstantInt* cond = asConstInt(operand(0))) {
      return cond->isZero() ? operand(2) : operand(1);
    }
    if (operand(1) == operand(2)) {
      return operand(1);
    }
    return nullptr;
  }
  case Opcode::Phi: {
    // Phi with all-identical incoming values (ignoring self-references).
    Value* unique = nullptr;
    for (unsigned i = 0; i < inst.numIncoming(); ++i) {
      Value* in = operand(2 * i);
      if (in == &inst) {
        continue;
      }
      if (unique == nullptr) {
        unique = in;
      } else if (unique != in) {
        return nullptr;
      }
    }
    return unique;
  }
  default:
    return nullptr;
  }
}

} // namespace

Value* foldInstruction(Context& ctx, const Instruction& inst) {
  return fold(ctx, inst, [&inst](unsigned i) { return inst.operand(i); });
}

Value* foldInstruction(Context& ctx, const Instruction& inst,
                       std::span<Value* const> operands) {
  return fold(ctx, inst, [operands](unsigned i) { return operands[i]; });
}

} // namespace qirkit::passes
