#include "ir/instruction.hpp"

#include "ir/module.hpp"

#include <algorithm>
#include <cassert>

namespace qirkit::ir {

namespace {

#define QIRKIT_IR_MNEMONIC(name, mnemonic, ...) mnemonic,
constexpr std::string_view kOpcodeNames[] = {QIRKIT_IR_OPCODES(QIRKIT_IR_MNEMONIC)};
constexpr std::string_view kICmpPredNames[] = {QIRKIT_ICMP_PREDS(QIRKIT_IR_MNEMONIC)};
constexpr std::string_view kFCmpPredNames[] = {QIRKIT_FCMP_PREDS(QIRKIT_IR_MNEMONIC)};
#undef QIRKIT_IR_MNEMONIC

/// The enumerator spelled \p name in \p names (a linear scan: the lists
/// are short, and the parser asks once per instruction).
template <typename Enum, std::size_t N>
std::optional<Enum> fromName(const std::string_view (&names)[N],
                             std::string_view name) noexcept {
  for (std::size_t i = 0; i < N; ++i) {
    if (names[i] == name) {
      return static_cast<Enum>(i);
    }
  }
  return std::nullopt;
}

} // namespace

const char* opcodeName(Opcode op) noexcept {
  return kOpcodeNames[static_cast<std::size_t>(op)].data();
}
const char* icmpPredName(ICmpPred p) noexcept {
  return kICmpPredNames[static_cast<std::size_t>(p)].data();
}
const char* fcmpPredName(FCmpPred p) noexcept {
  return kFCmpPredNames[static_cast<std::size_t>(p)].data();
}
std::optional<Opcode> opcodeFromName(std::string_view name) noexcept {
  return fromName<Opcode>(kOpcodeNames, name);
}
std::optional<ICmpPred> icmpPredFromName(std::string_view name) noexcept {
  return fromName<ICmpPred>(kICmpPredNames, name);
}
std::optional<FCmpPred> fcmpPredFromName(std::string_view name) noexcept {
  return fromName<FCmpPred>(kFCmpPredNames, name);
}

Function* Instruction::function() const noexcept {
  return parent_ != nullptr ? parent_->parent() : nullptr;
}

bool Instruction::hasSideEffects() const noexcept {
  // Conservatively, every call may have effects.
  return op_ == Opcode::Store || op_ == Opcode::Call || isTerminator();
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
