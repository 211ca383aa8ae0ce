/// CFG simplification:
///   * folds conditional branches / switches with constant conditions
///     (fixing up phis on removed edges),
///   * deletes unreachable blocks,
///   * replaces trivial phis (single or identical incoming),
///   * merges straight-line block pairs (unique successor with unique
///     predecessor).
#include "passes/folding.hpp"
#include "passes/pass.hpp"

#include "ir/builder.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace qirkit::passes {
namespace {

using namespace qirkit::ir;

class SimplifyCFGPass final : public FunctionPass {
public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "simplify-cfg";
  }

  bool run(Function& fn) override {
    bool changedAny = false;
    bool changed = true;
    while (changed) {
      changed = false;
      changed |= foldConstantBranches(fn);
      changed |= removeUnreachableBlocks(fn);
      changed |= simplifyPhis(fn);
      changed |= mergeBlocks(fn);
      changedAny |= changed;
    }
    return changedAny;
  }

private:
  /// Remove the phi entries in \p target for edge(s) from \p pred, if the
  /// edge no longer exists.
  static void removePhiEdge(BasicBlock* target, BasicBlock* pred) {
    // Phis first: the predecessor check walks target's use list, and an
    // unrolled loop's exit is branched to from every iteration.
    const std::vector<Instruction*> phis = target->phis();
    if (phis.empty() || target->hasPredecessor(pred)) {
      return; // nothing to fix, or another edge from pred still reaches target
    }
    for (Instruction* phi : phis) {
      if (phi->incomingValueFor(pred) != nullptr) {
        phi->removeIncoming(pred);
      }
    }
  }

  static bool foldConstantBranches(Function& fn) {
    bool changed = false;
    for (const auto& block : fn.blocks()) {
      Instruction* term = block->terminator();
      if (term == nullptr) {
        continue;
      }
      if (term->op() == Opcode::Br && term->isConditionalBr()) {
        BasicBlock* ifTrue = term->successor(0);
        BasicBlock* ifFalse = term->successor(1);
        const auto* cond = dynamic_cast<ConstantInt*>(term->brCondition());
        if (cond == nullptr && ifTrue != ifFalse) {
          continue;
        }
        BasicBlock* taken =
            cond != nullptr ? (cond->isZero() ? ifFalse : ifTrue) : ifTrue;
        BasicBlock* notTaken = taken == ifTrue ? ifFalse : ifTrue;
        term->dropAllOperands();
        term->addOperand(taken);
        if (notTaken != taken) {
          removePhiEdge(notTaken, block.get());
        }
        changed = true;
      } else if (term->op() == Opcode::Switch) {
        const auto* cond = dynamic_cast<ConstantInt*>(term->operand(0));
        if (cond == nullptr) {
          continue;
        }
        BasicBlock* taken = term->successor(0); // default
        for (unsigned i = 0; i < term->numSwitchCases(); ++i) {
          if (term->switchCaseValue(i)->value() == cond->value()) {
            taken = term->switchCaseDest(i);
            break;
          }
        }
        std::set<BasicBlock*> losers;
        for (unsigned i = 0; i < term->numSuccessors(); ++i) {
          if (term->successor(i) != taken) {
            losers.insert(term->successor(i));
          }
        }
        // Rewrite the switch into an unconditional branch in place.
        term->dropAllOperands();
        // Note: opcode stays Switch structurally; replace with a fresh Br.
        BasicBlock* parent = term->parent();
        term->eraseFromParent();
        IRBuilder builder(parent);
        builder.createBr(taken);
        for (BasicBlock* loser : losers) {
          removePhiEdge(loser, parent);
        }
        changed = true;
      }
    }
    return changed;
  }

  static bool removeUnreachableBlocks(Function& fn) {
    // Reachability from entry.
    std::set<const BasicBlock*> reachable;
    std::vector<BasicBlock*> worklist;
    if (fn.entry() == nullptr) {
      return false;
    }
    worklist.push_back(fn.entry());
    reachable.insert(fn.entry());
    while (!worklist.empty()) {
      BasicBlock* block = worklist.back();
      worklist.pop_back();
      for (BasicBlock* succ : block->successors()) {
        if (reachable.insert(succ).second) {
          worklist.push_back(succ);
        }
      }
    }
    std::vector<BasicBlock*> dead;
    for (const auto& block : fn.blocks()) {
      if (reachable.count(block.get()) == 0) {
        dead.push_back(block.get());
      }
    }
    if (dead.empty()) {
      return false;
    }
    // Detach phi edges from dead predecessors, then erase the blocks.
    for (BasicBlock* block : dead) {
      for (BasicBlock* succ : block->successors()) {
        if (reachable.count(succ) != 0) {
          for (Instruction* phi : succ->phis()) {
            if (phi->incomingValueFor(block) != nullptr) {
              phi->removeIncoming(block);
            }
          }
        }
      }
    }
    fn.eraseBlocksIf(
        [&](BasicBlock* block) { return reachable.count(block) == 0; });
    return true;
  }

  static bool simplifyPhis(Function& fn) {
    Context& ctx = fn.parent()->context();
    bool changed = false;
    for (const auto& block : fn.blocks()) {
      for (Instruction* phi : block->phis()) {
        Value* replacement = nullptr;
        if (phi->numIncoming() == 1) {
          replacement = phi->incomingValue(0);
        } else {
          replacement = foldInstruction(ctx, *phi);
        }
        if (replacement != nullptr && replacement != phi) {
          phi->replaceAllUsesWith(replacement);
          changed = true;
        }
      }
      block->eraseIf([](Instruction* inst) {
        return inst->op() == Opcode::Phi && !inst->hasUses();
      });
    }
    return changed;
  }

  /// One scan: each block absorbs its chain of unique successors with
  /// unique predecessors in place, and the emptied blocks go in one
  /// compaction. Merging is confluent, so every chain ends in its head
  /// whatever the block order, as a rescan after each merge would leave it.
  static bool mergeBlocks(Function& fn) {
    std::unordered_set<const BasicBlock*> absorbed;
    for (const auto& blockOwner : fn.blocks()) {
      BasicBlock* block = blockOwner.get();
      while (true) {
        // An absorbed block is empty, so it has no terminator either.
        Instruction* term = block->terminator();
        if (term == nullptr || term->op() != Opcode::Br || term->isConditionalBr()) {
          break;
        }
        BasicBlock* succ = term->successor(0);
        if (succ == block || succ == fn.entry()) {
          break;
        }
        const std::vector<BasicBlock*> preds = succ->predecessors();
        if (preds.size() != 1 || preds[0] != block) {
          break;
        }
        if (!succ->phis().empty()) {
          break; // simplifyPhis will reduce these first
        }
        // Splice succ's instructions into block.
        term->eraseFromParent();
        succ->moveTailTo(0, *block);
        succ->replaceAllUsesWith(block); // phis in succ's successors
        absorbed.insert(succ);
      }
    }
    if (absorbed.empty()) {
      return false;
    }
    fn.eraseBlocksIf(
        [&](BasicBlock* block) { return absorbed.count(block) != 0; });
    return true;
  }
};

} // namespace

std::unique_ptr<FunctionPass> createSimplifyCFGPass() {
  return std::make_unique<SimplifyCFGPass>();
}

} // namespace qirkit::passes
