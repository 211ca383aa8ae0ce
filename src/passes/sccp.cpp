/// Sparse conditional constant propagation (Wegman–Zadeck): propagates
/// constants along only the CFG edges that can execute, then rewrites
/// constant values and folds branches whose condition became known.
/// Together with mem2reg this gives QIR the classical "for free"
/// optimizations the paper credits to the LLVM infrastructure (§II.C).
#include "passes/folding.hpp"
#include "passes/pass.hpp"

#include <cassert>
#include <map>
#include <set>
#include <vector>

namespace qirkit::passes {
namespace {

using namespace qirkit::ir;

/// Lattice: Unknown (top) -> Constant -> Overdefined (bottom).
struct LatticeValue {
  enum class State : std::uint8_t { Unknown, Constant, Overdefined };
  State state = State::Unknown;
  Value* constant = nullptr; // ConstantInt/FP/Null/IntToPtr when Constant
};

class SCCPSolver {
public:
  explicit SCCPSolver(Function& fn)
      : fn_(fn), ctx_(fn.parent()->context()) {}

  void solve() {
    markEdgeExecutable(nullptr, fn_.entry());
    while (!blockWorklist_.empty() || !valueWorklist_.empty()) {
      while (!valueWorklist_.empty()) {
        Instruction* inst = valueWorklist_.back();
        valueWorklist_.pop_back();
        for (const Use* use : inst->uses()) {
          if (auto* user = dynamic_cast<Instruction*>(use->user)) {
            if (executableBlocks_.count(user->parent()) != 0) {
              visitInstruction(user);
            }
          }
        }
      }
      while (!blockWorklist_.empty()) {
        BasicBlock* block = blockWorklist_.back();
        blockWorklist_.pop_back();
        for (const auto& inst : block->instructions()) {
          visitInstruction(inst.get());
        }
      }
    }
  }

  /// Apply the solution: RAUW constants, fold branches, erase dead code.
  bool rewrite() {
    bool changed = false;
    for (const auto& block : fn_.blocks()) {
      if (executableBlocks_.count(block.get()) == 0) {
        continue; // SimplifyCFG removes these once branches are folded
      }
      for (const auto& inst : block->instructions()) {
        const auto it = values_.find(inst.get());
        if (it == values_.end() || it->second.state != LatticeValue::State::Constant) {
          continue;
        }
        if (inst->hasUses()) {
          inst->replaceAllUsesWith(it->second.constant);
          changed = true;
        }
      }
      // Fold branches with known conditions so SimplifyCFG can delete the
      // non-executable blocks.
      Instruction* term = block->terminator();
      if (term != nullptr && term->op() == Opcode::Br && term->isConditionalBr()) {
        if (dynamic_cast<ConstantInt*>(term->brCondition()) != nullptr) {
          changed = true; // SimplifyCFG will rewrite; nothing to do here
        }
      }
      block->eraseIf([](Instruction* i) { return i->isTriviallyDead(); });
    }
    return changed;
  }

private:
  LatticeValue getLattice(Value* v) const {
    if (v->isConstant()) {
      if (v->kind() == Value::Kind::Undef) {
        return {LatticeValue::State::Unknown, nullptr};
      }
      return {LatticeValue::State::Constant, v};
    }
    if (auto* inst = dynamic_cast<Instruction*>(v)) {
      const auto it = values_.find(inst);
      return it == values_.end() ? LatticeValue{} : it->second;
    }
    // Arguments, globals, functions: not tracked.
    return {LatticeValue::State::Overdefined, nullptr};
  }

  void markOverdefined(Instruction* inst) {
    LatticeValue& lv = values_[inst];
    if (lv.state != LatticeValue::State::Overdefined) {
      lv.state = LatticeValue::State::Overdefined;
      lv.constant = nullptr;
      valueWorklist_.push_back(inst);
    }
  }

  void markConstant(Instruction* inst, Value* constant) {
    LatticeValue& lv = values_[inst];
    if (lv.state == LatticeValue::State::Overdefined) {
      return;
    }
    if (lv.state == LatticeValue::State::Constant) {
      if (lv.constant != constant) {
        markOverdefined(inst);
      }
      return;
    }
    lv.state = LatticeValue::State::Constant;
    lv.constant = constant;
    valueWorklist_.push_back(inst);
  }

  void markEdgeExecutable(BasicBlock* from, BasicBlock* to) {
    if (from != nullptr && !executableEdges_.insert({from, to}).second) {
      return;
    }
    if (executableBlocks_.insert(to).second) {
      blockWorklist_.push_back(to);
    } else {
      // Block already live; re-visit its phis, which may see the new edge.
      for (Instruction* phi : to->phis()) {
        visitInstruction(phi);
      }
    }
  }

  void visitInstruction(Instruction* inst) {
    const Opcode op = inst->op();
    if (op == Opcode::Phi) {
      visitPhi(inst);
      return;
    }
    if (inst->isTerminator()) {
      visitTerminator(inst);
      return;
    }
    if (inst->type()->isVoid()) {
      return;
    }
    if (op == Opcode::Call || op == Opcode::Load || op == Opcode::Alloca) {
      markOverdefined(inst);
      return;
    }
    // Pure computation: if any operand is Unknown, wait; if foldable with
    // constant substitution, constant; else overdefined.
    std::vector<Value*> resolved(inst->numOperands());
    for (unsigned i = 0; i < inst->numOperands(); ++i) {
      const LatticeValue lv = getLattice(inst->operand(i));
      if (lv.state == LatticeValue::State::Unknown) {
        return; // optimistic: wait for more information
      }
      resolved[i] = lv.state == LatticeValue::State::Constant ? lv.constant
                                                              : inst->operand(i);
    }
    Value* folded = foldInstruction(ctx_, *inst, resolved);
    if (folded != nullptr && folded->isConstant() &&
        folded->kind() != Value::Kind::Undef) {
      markConstant(inst, folded);
    } else {
      markOverdefined(inst);
    }
  }

  void visitPhi(Instruction* phi) {
    LatticeValue merged;
    for (unsigned i = 0; i < phi->numIncoming(); ++i) {
      BasicBlock* incoming = phi->incomingBlock(i);
      if (executableEdges_.count({incoming, phi->parent()}) == 0) {
        continue;
      }
      const LatticeValue in = getLattice(phi->incomingValue(i));
      if (in.state == LatticeValue::State::Overdefined) {
        markOverdefined(phi);
        return;
      }
      if (in.state == LatticeValue::State::Unknown) {
        continue;
      }
      if (merged.state == LatticeValue::State::Unknown) {
        merged = in;
      } else if (merged.constant != in.constant) {
        markOverdefined(phi);
        return;
      }
    }
    if (merged.state == LatticeValue::State::Constant) {
      markConstant(phi, merged.constant);
    }
  }

  void visitTerminator(Instruction* term) {
    switch (term->op()) {
    case Opcode::Br:
      if (!term->isConditionalBr()) {
        markEdgeExecutable(term->parent(), term->successor(0));
        return;
      }
      {
        const LatticeValue cond = getLattice(term->brCondition());
        if (cond.state == LatticeValue::State::Constant) {
          const auto* c = static_cast<ConstantInt*>(cond.constant);
          markEdgeExecutable(term->parent(), term->successor(c->isZero() ? 1 : 0));
        } else if (cond.state == LatticeValue::State::Overdefined) {
          markEdgeExecutable(term->parent(), term->successor(0));
          markEdgeExecutable(term->parent(), term->successor(1));
        }
        // Unknown: no edge executable yet.
      }
      return;
    case Opcode::Switch: {
      const LatticeValue cond = getLattice(term->operand(0));
      if (cond.state == LatticeValue::State::Constant) {
        const auto* c = static_cast<ConstantInt*>(cond.constant);
        BasicBlock* taken = term->successor(0);
        for (unsigned i = 0; i < term->numSwitchCases(); ++i) {
          if (term->switchCaseValue(i)->value() == c->value()) {
            taken = term->switchCaseDest(i);
            break;
          }
        }
        markEdgeExecutable(term->parent(), taken);
      } else if (cond.state == LatticeValue::State::Overdefined) {
        for (unsigned i = 0; i < term->numSuccessors(); ++i) {
          markEdgeExecutable(term->parent(), term->successor(i));
        }
      }
      return;
    }
    default:
      return; // ret / unreachable: no successors
    }
  }

  Function& fn_;
  Context& ctx_;
  std::map<Instruction*, LatticeValue> values_;
  std::set<std::pair<BasicBlock*, BasicBlock*>> executableEdges_;
  std::set<const BasicBlock*> executableBlocks_;
  std::vector<BasicBlock*> blockWorklist_;
  std::vector<Instruction*> valueWorklist_;
};

class SCCPPass final : public FunctionPass {
public:
  [[nodiscard]] std::string_view name() const noexcept override { return "sccp"; }

  bool run(Function& fn) override {
    if (fn.entry() == nullptr) {
      return false;
    }
    SCCPSolver solver(fn);
    solver.solve();
    return solver.rewrite();
  }
};

} // namespace

std::unique_ptr<FunctionPass> createSCCPPass() { return std::make_unique<SCCPPass>(); }

} // namespace qirkit::passes
