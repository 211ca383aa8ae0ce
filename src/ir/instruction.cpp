#include "ir/instruction.hpp"

#include "ir/module.hpp"

#include <algorithm>
#include <cassert>

namespace qirkit::ir {

const char* opcodeName(Opcode op) noexcept {
  switch (op) {
  case Opcode::Ret: return "ret";
  case Opcode::Br: return "br";
  case Opcode::Switch: return "switch";
  case Opcode::Unreachable: return "unreachable";
  case Opcode::Add: return "add";
  case Opcode::Sub: return "sub";
  case Opcode::Mul: return "mul";
  case Opcode::SDiv: return "sdiv";
  case Opcode::UDiv: return "udiv";
  case Opcode::SRem: return "srem";
  case Opcode::URem: return "urem";
  case Opcode::And: return "and";
  case Opcode::Or: return "or";
  case Opcode::Xor: return "xor";
  case Opcode::Shl: return "shl";
  case Opcode::LShr: return "lshr";
  case Opcode::AShr: return "ashr";
  case Opcode::FAdd: return "fadd";
  case Opcode::FSub: return "fsub";
  case Opcode::FMul: return "fmul";
  case Opcode::FDiv: return "fdiv";
  case Opcode::FRem: return "frem";
  case Opcode::Alloca: return "alloca";
  case Opcode::Load: return "load";
  case Opcode::Store: return "store";
  case Opcode::ICmp: return "icmp";
  case Opcode::FCmp: return "fcmp";
  case Opcode::ZExt: return "zext";
  case Opcode::SExt: return "sext";
  case Opcode::Trunc: return "trunc";
  case Opcode::PtrToInt: return "ptrtoint";
  case Opcode::IntToPtr: return "inttoptr";
  case Opcode::SIToFP: return "sitofp";
  case Opcode::FPToSI: return "fptosi";
  case Opcode::UIToFP: return "uitofp";
  case Opcode::FPToUI: return "fptoui";
  case Opcode::Bitcast: return "bitcast";
  case Opcode::Phi: return "phi";
  case Opcode::Select: return "select";
  case Opcode::Call: return "call";
  }
  return "<bad opcode>";
}

const char* icmpPredName(ICmpPred p) noexcept {
  switch (p) {
  case ICmpPred::EQ: return "eq";
  case ICmpPred::NE: return "ne";
  case ICmpPred::SLT: return "slt";
  case ICmpPred::SLE: return "sle";
  case ICmpPred::SGT: return "sgt";
  case ICmpPred::SGE: return "sge";
  case ICmpPred::ULT: return "ult";
  case ICmpPred::ULE: return "ule";
  case ICmpPred::UGT: return "ugt";
  case ICmpPred::UGE: return "uge";
  }
  return "<bad pred>";
}

const char* fcmpPredName(FCmpPred p) noexcept {
  switch (p) {
  case FCmpPred::OEQ: return "oeq";
  case FCmpPred::ONE: return "one";
  case FCmpPred::OLT: return "olt";
  case FCmpPred::OLE: return "ole";
  case FCmpPred::OGT: return "ogt";
  case FCmpPred::OGE: return "oge";
  case FCmpPred::UNE: return "une";
  }
  return "<bad pred>";
}

bool isIntBinaryOp(Opcode op) noexcept {
  switch (op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::SDiv:
  case Opcode::UDiv:
  case Opcode::SRem:
  case Opcode::URem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr:
    return true;
  default:
    return false;
  }
}

bool isFloatBinaryOp(Opcode op) noexcept {
  switch (op) {
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FRem:
    return true;
  default:
    return false;
  }
}

bool isBinaryOp(Opcode op) noexcept { return isIntBinaryOp(op) || isFloatBinaryOp(op); }

bool isCastOp(Opcode op) noexcept {
  switch (op) {
  case Opcode::ZExt:
  case Opcode::SExt:
  case Opcode::Trunc:
  case Opcode::PtrToInt:
  case Opcode::IntToPtr:
  case Opcode::SIToFP:
  case Opcode::FPToSI:
  case Opcode::UIToFP:
  case Opcode::FPToUI:
  case Opcode::Bitcast:
    return true;
  default:
    return false;
  }
}

bool isTerminatorOp(Opcode op) noexcept {
  return op == Opcode::Ret || op == Opcode::Br || op == Opcode::Switch ||
         op == Opcode::Unreachable;
}

Function* Instruction::function() const noexcept {
  return parent_ != nullptr ? parent_->parent() : nullptr;
}

bool Instruction::hasSideEffects() const noexcept {
  switch (op_) {
  case Opcode::Store:
  case Opcode::Call: // conservatively: every call may have effects
  case Opcode::Ret:
  case Opcode::Br:
  case Opcode::Switch:
  case Opcode::Unreachable:
    return true;
  default:
    return false;
  }
}

bool Instruction::mayTrap() const noexcept {
  const auto constantOperand = [this](unsigned i) -> const ConstantInt* {
    const Value* v = operand(i);
    return v->kind() == Kind::ConstantInt ? static_cast<const ConstantInt*>(v)
                                          : nullptr;
  };
  switch (op_) {
  case Opcode::SDiv:
  case Opcode::SRem: {
    const ConstantInt* divisor = constantOperand(1);
    if (divisor == nullptr || divisor->isZero()) {
      return true;
    }
    if (divisor->value() != -1) {
      return false;
    }
    const ConstantInt* dividend = constantOperand(0);
    return dividend == nullptr ||
           dividend->zextValue() == std::uint64_t{1} << (type()->bits() - 1);
  }
  case Opcode::UDiv:
  case Opcode::URem: {
    const ConstantInt* divisor = constantOperand(1);
    return divisor == nullptr || divisor->isZero();
  }
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr: {
    const ConstantInt* amount = constantOperand(1);
    return amount == nullptr || amount->zextValue() >= type()->bits();
  }
  case Opcode::Load: {
    // The engines give an alloca its type's store size and a global its
    // initializer (at least one byte); a load from the start of either
    // that fits stays in bounds. Every other address may be out of range.
    const Value* address = operand(0);
    if (address->kind() == Kind::Instruction &&
        static_cast<const Instruction*>(address)->op() == Opcode::Alloca) {
      return type()->storeSize() >
             static_cast<const Instruction*>(address)->allocatedType()->storeSize();
    }
    if (address->kind() == Kind::GlobalVariable) {
      return type()->storeSize() >
             std::max<std::uint64_t>(
                 1, static_cast<const GlobalVariable*>(address)->initializer().size());
    }
    return true;
  }
  default:
    return false;
  }
}

ConstantInt* Instruction::switchCaseValue(unsigned i) const {
  assert(op_ == Opcode::Switch);
  auto* c = dynamic_cast<ConstantInt*>(operand(2 + 2 * i));
  assert(c != nullptr && "switch case value must be a constant int");
  return c;
}

BasicBlock* Instruction::switchCaseDest(unsigned i) const {
  assert(op_ == Opcode::Switch);
  auto* bb = dynamic_cast<BasicBlock*>(operand(3 + 2 * i));
  assert(bb != nullptr);
  return bb;
}

BasicBlock* Instruction::incomingBlock(unsigned i) const {
  assert(op_ == Opcode::Phi);
  auto* bb = dynamic_cast<BasicBlock*>(operand(2 * i + 1));
  assert(bb != nullptr);
  return bb;
}

void Instruction::addIncoming(Value* value, BasicBlock* block) {
  assert(op_ == Opcode::Phi);
  addOperand(value);
  addOperand(block);
}

void Instruction::removeIncoming(const BasicBlock* block) {
  assert(op_ == Opcode::Phi);
  for (unsigned i = 0; i < numIncoming(); ++i) {
    if (incomingBlock(i) == block) {
      removeOperand(2 * i + 1);
      removeOperand(2 * i);
      return;
    }
  }
  assert(false && "block is not incoming to this phi");
}

Value* Instruction::incomingValueFor(const BasicBlock* block) const {
  assert(op_ == Opcode::Phi);
  for (unsigned i = 0; i < numIncoming(); ++i) {
    if (incomingBlock(i) == block) {
      return incomingValue(i);
    }
  }
  return nullptr;
}

unsigned Instruction::numSuccessors() const noexcept {
  switch (op_) {
  case Opcode::Br:
    return isConditionalBr() ? 2 : 1;
  case Opcode::Switch:
    return 1 + numSwitchCases();
  default:
    return 0;
  }
}

BasicBlock* Instruction::successor(unsigned i) const {
  assert(i < numSuccessors());
  unsigned operandIndex = 0;
  if (op_ == Opcode::Br) {
    operandIndex = isConditionalBr() ? 1 + i : 0;
  } else { // Switch: successor 0 is the default, successor i>0 is case i-1
    operandIndex = i == 0 ? 1 : 3 + 2 * (i - 1);
  }
  auto* bb = dynamic_cast<BasicBlock*>(operand(operandIndex));
  assert(bb != nullptr);
  return bb;
}

void Instruction::setSuccessor(unsigned i, BasicBlock* block) {
  assert(i < numSuccessors());
  unsigned operandIndex = 0;
  if (op_ == Opcode::Br) {
    operandIndex = isConditionalBr() ? 1 + i : 0;
  } else {
    operandIndex = i == 0 ? 1 : 3 + 2 * (i - 1);
  }
  setOperand(operandIndex, block);
}

void Instruction::eraseFromParent() {
  assert(!hasUses() && "erasing an instruction that still has uses");
  assert(parent_ != nullptr);
  BasicBlock* bb = parent_;
  bb->detach(this); // returned unique_ptr destroys *this
}

std::unique_ptr<Instruction> Instruction::clone() const {
  auto copy = std::unique_ptr<Instruction>(new Instruction(op_, type()));
  copy->icmpPred_ = icmpPred_;
  copy->fcmpPred_ = fcmpPred_;
  copy->allocatedType_ = allocatedType_;
  copy->callee_ = callee_;
  copy->setName(name());
  for (unsigned i = 0; i < numOperands(); ++i) {
    copy->addOperand(operand(i));
  }
  return copy;
}

Instruction* BasicBlock::terminator() const noexcept {
  if (instructions_.empty()) {
    return nullptr;
  }
  Instruction* last = instructions_.back().get();
  return last->isTerminator() ? last : nullptr;
}

Instruction* BasicBlock::append(std::unique_ptr<Instruction> inst) {
  inst->parent_ = this;
  instructions_.push_back(std::move(inst));
  return instructions_.back().get();
}

Instruction* BasicBlock::insert(std::size_t index, std::unique_ptr<Instruction> inst) {
  assert(index <= instructions_.size());
  inst->parent_ = this;
  const auto it = instructions_.insert(instructions_.begin() + static_cast<std::ptrdiff_t>(index),
                                       std::move(inst));
  return it->get();
}

std::size_t BasicBlock::indexOf(const Instruction* inst) const {
  for (std::size_t i = 0; i < instructions_.size(); ++i) {
    if (instructions_[i].get() == inst) {
      return i;
    }
  }
  assert(false && "instruction not in block");
  return instructions_.size();
}

std::unique_ptr<Instruction> BasicBlock::detach(Instruction* inst) {
  // The last instruction, usually a terminator a pass replaces or drops,
  // is found without a scan: merging a chain of blocks drops the growing
  // head's terminator once per link.
  const std::size_t index = !instructions_.empty() && instructions_.back().get() == inst
                                ? instructions_.size() - 1
                                : indexOf(inst);
  std::unique_ptr<Instruction> owned = std::move(instructions_[index]);
  instructions_.erase(instructions_.begin() + static_cast<std::ptrdiff_t>(index));
  owned->parent_ = nullptr;
  return owned;
}

void BasicBlock::moveTailTo(std::size_t index, BasicBlock& to) {
  assert(index <= instructions_.size() && &to != this);
  for (auto it = instructions_.begin() + static_cast<std::ptrdiff_t>(index);
       it != instructions_.end(); ++it) {
    (*it)->parent_ = &to;
    to.instructions_.push_back(std::move(*it));
  }
  instructions_.resize(index);
}

std::vector<BasicBlock*> BasicBlock::successors() const {
  std::vector<BasicBlock*> result;
  if (const Instruction* term = terminator()) {
    result.reserve(term->numSuccessors());
    for (unsigned i = 0; i < term->numSuccessors(); ++i) {
      result.push_back(term->successor(i));
    }
  }
  return result;
}

std::vector<BasicBlock*> BasicBlock::predecessors() const {
  std::vector<BasicBlock*> result;
  for (const Use* use : uses()) {
    auto* inst = dynamic_cast<Instruction*>(use->user);
    if (inst == nullptr || !inst->isTerminator()) {
      continue;
    }
    BasicBlock* pred = inst->parent();
    if (pred != nullptr && std::find(result.begin(), result.end(), pred) == result.end()) {
      result.push_back(pred);
    }
  }
  return result;
}

bool BasicBlock::hasPredecessor(const BasicBlock* pred) const {
  for (const Use* use : uses()) {
    auto* inst = dynamic_cast<Instruction*>(use->user);
    if (inst != nullptr && inst->isTerminator() && inst->parent() == pred) {
      return true;
    }
  }
  return false;
}

std::vector<Instruction*> BasicBlock::phis() const {
  std::vector<Instruction*> result;
  for (const auto& inst : instructions_) {
    if (inst->op() != Opcode::Phi) {
      break;
    }
    result.push_back(inst.get());
  }
  return result;
}

} // namespace qirkit::ir
