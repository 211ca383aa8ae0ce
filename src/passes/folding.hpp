/// \file folding.hpp
/// The one meaning of each classical opcode: the eval* functions compute
/// a result from operand values, and foldInstruction turns them into
/// constant folding and algebraic simplification of single instructions.
/// The constant-fold pass and SCCP fold through foldInstruction; the
/// interpreter and the VM evaluate through the same eval* functions, so
/// the folder and both engines give one answer.
#pragma once

#include "ir/instruction.hpp"
#include "ir/module.hpp"

#include <cmath>
#include <cstdint>
#include <span>

namespace qirkit::passes {

// The eval* helpers are inline: beyond the folding passes they sit on
// the per-instruction path of both execution engines (the interpreter
// and the VM dispatch loops), where an out-of-line call per arithmetic
// opcode is measurable interpretation overhead.

namespace detail {

/// Mask a 64-bit value down to iN and sign-extend back (canonical iN rep).
inline std::int64_t toWidth(std::int64_t value, unsigned bits) noexcept {
  if (bits >= 64) {
    return value;
  }
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  std::uint64_t u = static_cast<std::uint64_t>(value) & mask;
  if (bits > 0 && ((u >> (bits - 1)) & 1) != 0) {
    u |= ~mask;
  }
  return static_cast<std::int64_t>(u);
}

inline std::uint64_t zext(std::int64_t value, unsigned bits) noexcept {
  if (bits >= 64) {
    return static_cast<std::uint64_t>(value);
  }
  return static_cast<std::uint64_t>(value) & ((std::uint64_t{1} << bits) - 1);
}

/// fptosi / fptoui to iN: LLVM's value where it defines one (truncation
/// toward zero), else saturation to iN's range, and 0 for NaN. Returns the
/// canonical iN representation. The range checks come first, so the C++
/// conversion only ever sees a value it can represent.
inline std::int64_t fpToInt(double x, unsigned bits, bool isSigned) noexcept {
  if (std::isnan(x)) {
    return 0;
  }
  if (isSigned) {
    const double limit = std::ldexp(1.0, static_cast<int>(bits) - 1); // 2^(N-1)
    const std::uint64_t top = std::uint64_t{1} << (bits - 1);
    if (x >= limit) {
      return static_cast<std::int64_t>(top - 1);
    }
    if (x < -limit) {
      return static_cast<std::int64_t>(~(top - 1));
    }
    return static_cast<std::int64_t>(x);
  }
  if (x <= -1.0) {
    return 0;
  }
  if (x >= std::ldexp(1.0, static_cast<int>(bits))) {
    return -1; // 2^N - 1, canonical
  }
  return toWidth(static_cast<std::int64_t>(static_cast<std::uint64_t>(x)), bits);
}

} // namespace detail

/// Evaluate an integer binary op with the semantics of iN two's-complement
/// arithmetic. Returns false for division/remainder by zero (UB avoided).
[[nodiscard]] inline bool evalIntBinOp(ir::Opcode op, unsigned bits,
                                       std::int64_t lhs, std::int64_t rhs,
                                       std::int64_t& result) noexcept {
  using detail::toWidth;
  using detail::zext;
  const std::uint64_t ul = zext(lhs, bits);
  const std::uint64_t ur = zext(rhs, bits);
  switch (op) {
  case ir::Opcode::Add:
    result = toWidth(static_cast<std::int64_t>(static_cast<std::uint64_t>(lhs) +
                                               static_cast<std::uint64_t>(rhs)),
                     bits);
    return true;
  case ir::Opcode::Sub:
    result = toWidth(static_cast<std::int64_t>(static_cast<std::uint64_t>(lhs) -
                                               static_cast<std::uint64_t>(rhs)),
                     bits);
    return true;
  case ir::Opcode::Mul:
    result = toWidth(static_cast<std::int64_t>(static_cast<std::uint64_t>(lhs) *
                                               static_cast<std::uint64_t>(rhs)),
                     bits);
    return true;
  case ir::Opcode::SDiv:
    if (rhs == 0 ||
        (lhs == toWidth(std::int64_t{1} << (bits - 1), bits) && rhs == -1)) {
      return false;
    }
    result = toWidth(lhs / rhs, bits);
    return true;
  case ir::Opcode::UDiv:
    if (ur == 0) {
      return false;
    }
    result = toWidth(static_cast<std::int64_t>(ul / ur), bits);
    return true;
  case ir::Opcode::SRem:
    if (rhs == 0 ||
        (lhs == toWidth(std::int64_t{1} << (bits - 1), bits) && rhs == -1)) {
      return false;
    }
    result = toWidth(lhs % rhs, bits);
    return true;
  case ir::Opcode::URem:
    if (ur == 0) {
      return false;
    }
    result = toWidth(static_cast<std::int64_t>(ul % ur), bits);
    return true;
  case ir::Opcode::And:
    result = toWidth(lhs & rhs, bits);
    return true;
  case ir::Opcode::Or:
    result = toWidth(lhs | rhs, bits);
    return true;
  case ir::Opcode::Xor:
    result = toWidth(lhs ^ rhs, bits);
    return true;
  case ir::Opcode::Shl:
    if (ur >= bits) {
      return false; // poison in LLVM; refuse to fold
    }
    result = toWidth(static_cast<std::int64_t>(ul << ur), bits);
    return true;
  case ir::Opcode::LShr:
    if (ur >= bits) {
      return false;
    }
    result = toWidth(static_cast<std::int64_t>(ul >> ur), bits);
    return true;
  case ir::Opcode::AShr:
    if (ur >= bits) {
      return false;
    }
    result = toWidth(toWidth(lhs, bits) >> static_cast<std::int64_t>(ur), bits);
    return true;
  default:
    return false;
  }
}

/// Evaluate a floating binary op.
[[nodiscard]] inline double evalFloatBinOp(ir::Opcode op, double lhs,
                                           double rhs) noexcept {
  switch (op) {
  case ir::Opcode::FAdd: return lhs + rhs;
  case ir::Opcode::FSub: return lhs - rhs;
  case ir::Opcode::FMul: return lhs * rhs;
  case ir::Opcode::FDiv: return lhs / rhs;
  case ir::Opcode::FRem: return std::fmod(lhs, rhs);
  default: return 0.0;
  }
}

/// Evaluate an integer comparison under iN semantics.
[[nodiscard]] inline bool evalICmp(ir::ICmpPred pred, unsigned bits,
                                   std::int64_t lhs, std::int64_t rhs) noexcept {
  const std::int64_t sl = detail::toWidth(lhs, bits);
  const std::int64_t sr = detail::toWidth(rhs, bits);
  const std::uint64_t ul = detail::zext(lhs, bits);
  const std::uint64_t ur = detail::zext(rhs, bits);
  switch (pred) {
  case ir::ICmpPred::EQ: return ul == ur;
  case ir::ICmpPred::NE: return ul != ur;
  case ir::ICmpPred::SLT: return sl < sr;
  case ir::ICmpPred::SLE: return sl <= sr;
  case ir::ICmpPred::SGT: return sl > sr;
  case ir::ICmpPred::SGE: return sl >= sr;
  case ir::ICmpPred::ULT: return ul < ur;
  case ir::ICmpPred::ULE: return ul <= ur;
  case ir::ICmpPred::UGT: return ul > ur;
  case ir::ICmpPred::UGE: return ul >= ur;
  }
  return false;
}

/// Evaluate a floating comparison.
[[nodiscard]] inline bool evalFCmp(ir::FCmpPred pred, double lhs,
                                   double rhs) noexcept {
  switch (pred) {
  case ir::FCmpPred::OEQ: return lhs == rhs;
  case ir::FCmpPred::ONE:
    return lhs != rhs && !std::isnan(lhs) && !std::isnan(rhs);
  case ir::FCmpPred::OLT: return lhs < rhs;
  case ir::FCmpPred::OLE: return lhs <= rhs;
  case ir::FCmpPred::OGT: return lhs > rhs;
  case ir::FCmpPred::OGE: return lhs >= rhs;
  case ir::FCmpPred::UNE: return !(lhs == rhs);
  }
  return false;
}

/// The one width evalCast reads for \p cast: the source width of zext,
/// uitofp and inttoptr, the destination width of trunc, fptosi, fptoui
/// and ptrtoint, and 0 for sext and bitcast, which read none.
[[nodiscard]] inline unsigned castBits(const ir::Instruction& cast) noexcept {
  switch (cast.op()) {
  case ir::Opcode::ZExt:
  case ir::Opcode::UIToFP:
  case ir::Opcode::IntToPtr:
    return cast.operand(0)->type()->bits();
  case ir::Opcode::Trunc:
  case ir::Opcode::FPToSI:
  case ir::Opcode::FPToUI:
  case ir::Opcode::PtrToInt:
    return cast.type()->bits();
  default:
    return 0;
  }
}

/// True for the one cast the engines refuse, a bitcast between different
/// types ("bitcast i64 %x to double"): it would move bits between register
/// fields, which evalCast does not. The verifier rejects it too, but a
/// module the verifier rejects still runs as written.
[[nodiscard]] inline bool isTypeChangingBitcast(const ir::Instruction& cast) noexcept {
  return cast.op() == ir::Opcode::Bitcast && cast.operand(0)->type() != cast.type();
}

/// Evaluate cast \p op on \p value, a register of the engines' shape
/// (interp::RtValue: fields i, d and p, factories makeInt, makeDouble and
/// makePtr). Integers are held in their canonical sign-extended form, so
/// sext and bitcast return \p value unchanged. \p bits is castBits().
/// Where LLVM defines a result this is LLVM's; an out-of-range or NaN
/// fptosi/fptoui saturates (detail::fpToInt).
template <typename Register>
[[nodiscard]] inline Register evalCast(ir::Opcode op, unsigned bits,
                                       const Register& value) noexcept {
  using detail::zext;
  switch (op) {
  case ir::Opcode::ZExt:
    return Register::makeInt(static_cast<std::int64_t>(zext(value.i, bits)));
  case ir::Opcode::Trunc:
    return Register::makeInt(detail::toWidth(value.i, bits));
  case ir::Opcode::PtrToInt:
    return Register::makeInt(
        detail::toWidth(static_cast<std::int64_t>(value.p), bits));
  case ir::Opcode::IntToPtr:
    return Register::makePtr(zext(value.i, bits));
  case ir::Opcode::SIToFP:
    return Register::makeDouble(static_cast<double>(value.i));
  case ir::Opcode::UIToFP:
    return Register::makeDouble(static_cast<double>(zext(value.i, bits)));
  case ir::Opcode::FPToSI:
    return Register::makeInt(detail::fpToInt(value.d, bits, true));
  case ir::Opcode::FPToUI:
    return Register::makeInt(detail::fpToInt(value.d, bits, false));
  default:
    return value;
  }
}

/// Try to fold \p inst given its current operands.
/// Returns the replacement value — an existing constant or operand — or
/// nullptr if the instruction cannot be simplified. Does not mutate IR.
///
/// Covers: all-constant arithmetic/comparisons/casts/selects, and algebraic
/// identities (x+0, x-0, x*1, x*0, x&0, x&x, x|0, x|x, x^x, x^0, x-x,
/// x/1, select with equal arms, icmp x==x, phi with identical incoming).
[[nodiscard]] ir::Value* foldInstruction(ir::Context& context,
                                         const ir::Instruction& inst);

/// foldInstruction as if \p inst's operands were \p operands (one per
/// operand): SCCP folds with its lattice-resolved operands this way.
[[nodiscard]] ir::Value* foldInstruction(ir::Context& context,
                                         const ir::Instruction& inst,
                                         std::span<ir::Value* const> operands);

} // namespace qirkit::passes
