/// Common subexpression elimination: replaces a pure instruction with an
/// earlier identical instruction that dominates it. This is exactly the
/// kind of classical optimization the paper's §II.C argues QIR inherits
/// from the LLVM infrastructure — e.g. the repeated
/// `load ptr, ptr %q` / `array_get_element_ptr_1d(%q, 0)` pairs of Ex. 2
/// collapse after mem2reg + CSE.
#include "ir/dominance.hpp"
#include "passes/pass.hpp"

#include <map>
#include <tuple>
#include <vector>

namespace qirkit::passes {
namespace {

using namespace qirkit::ir;

/// Structural key of a pure instruction: opcode, predicates, type, callee,
/// and operand identities.
struct ExprKey {
  Opcode op;
  ICmpPred icmp;
  FCmpPred fcmp;
  const Type* type;
  const Function* callee;
  std::vector<const Value*> operands;

  bool operator<(const ExprKey& other) const {
    return std::tie(op, icmp, fcmp, type, callee, operands) <
           std::tie(other.op, other.icmp, other.fcmp, other.type, other.callee,
                    other.operands);
  }
};

/// Pure, speculatable instructions eligible for CSE. Calls are excluded
/// (conservative: any call may have effects); loads are excluded (no alias
/// analysis in the subset); phis/allocas/terminators are not expressions.
bool isCSECandidate(const Instruction& inst) {
  if (isBinaryOp(inst.op()) || isCastOp(inst.op())) {
    // Division/remainder can trap; hoisting across paths is still fine for
    // dominance-based CSE (the earlier instance already executed).
    return true;
  }
  switch (inst.op()) {
  case Opcode::ICmp:
  case Opcode::FCmp:
  case Opcode::Select:
    return true;
  default:
    return false;
  }
}

ExprKey keyFor(const Instruction& inst) {
  ExprKey key{inst.op(), ICmpPred::EQ, FCmpPred::OEQ, inst.type(), nullptr, {}};
  if (inst.op() == Opcode::ICmp) {
    key.icmp = inst.icmpPred();
  }
  if (inst.op() == Opcode::FCmp) {
    key.fcmp = inst.fcmpPred();
  }
  key.operands.reserve(inst.numOperands());
  for (unsigned i = 0; i < inst.numOperands(); ++i) {
    key.operands.push_back(inst.operand(i));
  }
  // Commutative normalization: order operands by pointer for symmetric ops.
  switch (inst.op()) {
  case Opcode::Add:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::FAdd:
  case Opcode::FMul:
    if (key.operands[1] < key.operands[0]) {
      std::swap(key.operands[0], key.operands[1]);
    }
    break;
  default:
    break;
  }
  return key;
}

class CSEPass final : public FunctionPass {
public:
  [[nodiscard]] std::string_view name() const noexcept override { return "cse"; }

  bool run(Function& fn) override {
    if (fn.entry() == nullptr) {
      return false;
    }
    const DomTree dom(fn);
    // Scoped hash table over a dominator-tree DFS: available expressions
    // are those defined in dominating blocks (or earlier in the same
    // block). The walk keeps an explicit stack, because a recursive one
    // overflows on deep dominator chains (long runs of if-diamonds). The
    // entries a block adds go on an undo log and are erased when the walk
    // leaves its subtree, instead of copying the map per child, which is
    // quadratic on deep chains.
    struct Frame {
      const BasicBlock* block;
      bool leaving;      // the subtree is done: roll the log back
      std::size_t mark;  // undo-log size when the block was entered
    };
    std::map<ExprKey, Instruction*> available;
    std::vector<std::map<ExprKey, Instruction*>::iterator> added;
    std::vector<Frame> stack{{fn.entry(), false, 0}};
    bool changed = false;
    while (!stack.empty()) {
      const Frame frame = stack.back();
      stack.pop_back();
      if (frame.leaving) {
        for (; added.size() > frame.mark; added.pop_back()) {
          available.erase(added.back());
        }
        continue;
      }
      stack.push_back({frame.block, true, added.size()});
      changed |= visit(*const_cast<BasicBlock*>(frame.block), available, added);
      // Pushed in reverse, so children are visited in order.
      const auto& kids = dom.children(frame.block);
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        stack.push_back({*it, false, 0});
      }
    }
    return changed;
  }

private:
  /// Replace each instruction of \p block that repeats an available
  /// expression; log the expressions the block makes available.
  static bool visit(BasicBlock& block, std::map<ExprKey, Instruction*>& available,
                    std::vector<std::map<ExprKey, Instruction*>::iterator>& added) {
    bool changed = false;
    std::vector<Instruction*> dead;
    for (const auto& inst : block.instructions()) {
      if (!isCSECandidate(*inst)) {
        continue;
      }
      const auto [it, inserted] = available.emplace(keyFor(*inst), inst.get());
      if (inserted) {
        added.push_back(it);
      } else {
        inst->replaceAllUsesWith(it->second);
        dead.push_back(inst.get());
        changed = true;
      }
    }
    for (Instruction* inst : dead) {
      inst->eraseFromParent();
    }
    return changed;
  }
};

} // namespace

std::unique_ptr<FunctionPass> createCSEPass() { return std::make_unique<CSEPass>(); }

} // namespace qirkit::passes
