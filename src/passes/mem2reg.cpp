/// mem2reg: promotes stack slots (alloca) whose address never escapes into
/// SSA values, inserting pruned phis at iterated dominance frontiers and
/// renaming along the dominator tree. This is the pass that turns the
/// paper's Ex. 2/Ex. 4 load/store style QIR into analyzable SSA — the
/// precondition for SCCP and loop unrolling to "see" the qubit indices.
#include "passes/pass.hpp"

#include "ir/builder.hpp"
#include "ir/dominance.hpp"

#include <map>
#include <set>
#include <vector>

namespace qirkit::passes {
namespace {

using namespace qirkit::ir;

class Mem2RegPass final : public FunctionPass {
public:
  [[nodiscard]] std::string_view name() const noexcept override { return "mem2reg"; }

  bool run(Function& fn) override {
    std::vector<Instruction*> allocas = collectPromotable(fn);
    if (allocas.empty()) {
      return false;
    }
    const DomTree dom(fn);
    promote(fn, allocas, dom);
    return true;
  }

private:
  /// An alloca is promotable when every use is a load from it or a store
  /// *to* it (never storing the address itself), with matching types.
  static std::vector<Instruction*> collectPromotable(Function& fn) {
    std::vector<Instruction*> result;
    for (const auto& block : fn.blocks()) {
      for (const auto& inst : block->instructions()) {
        if (inst->op() != Opcode::Alloca) {
          continue;
        }
        const Type* slotType = inst->allocatedType();
        if (slotType->isArray()) {
          continue; // aggregate slots are not promoted in the subset
        }
        bool promotable = true;
        for (const Use* use : inst->uses()) {
          const auto* user = dynamic_cast<const Instruction*>(use->user);
          if (user == nullptr) {
            promotable = false;
            break;
          }
          if (user->op() == Opcode::Load && user->type() == slotType) {
            continue;
          }
          if (user->op() == Opcode::Store && use->index == 1 &&
              user->operand(0)->type() == slotType) {
            continue;
          }
          promotable = false;
          break;
        }
        if (promotable) {
          result.push_back(inst.get());
        }
      }
    }
    return result;
  }

  static void promote(Function& fn, const std::vector<Instruction*>& allocas,
                      const DomTree& dom) {
    Context& ctx = fn.parent()->context();
    std::map<const Instruction*, std::size_t> allocaIndex;
    for (std::size_t i = 0; i < allocas.size(); ++i) {
      allocaIndex[allocas[i]] = i;
    }

    // Neutralize accesses in unreachable blocks so the allocas become
    // fully dead afterwards.
    for (const auto& block : fn.blocks()) {
      if (dom.isReachable(block.get())) {
        continue;
      }
      for (const auto& inst : block->instructions()) {
        if (inst->op() == Opcode::Load &&
            allocaIndex.count(dynamic_cast<Instruction*>(inst->operand(0))) != 0) {
          inst->replaceAllUsesWith(ctx.getUndef(inst->type()));
        }
      }
      // Collect doomed accesses first: eraseIf's predicate must not depend
      // on operands, which are dropped before erasure.
      std::set<const Instruction*> doomed;
      for (const auto& inst : block->instructions()) {
        if (inst->op() == Opcode::Store &&
            allocaIndex.count(dynamic_cast<Instruction*>(inst->operand(1))) != 0) {
          doomed.insert(inst.get());
        } else if (inst->op() == Opcode::Load && !inst->hasUses() &&
                   allocaIndex.count(dynamic_cast<Instruction*>(inst->operand(0))) !=
                       0) {
          doomed.insert(inst.get());
        }
      }
      block->eraseIf([&doomed](Instruction* inst) { return doomed.count(inst) != 0; });
    }

    // Pruned phi insertion: for each alloca, place phis on the iterated
    // dominance frontier of its defining (storing) blocks.
    // phiFor[block][allocaIdx] -> phi instruction
    std::map<const BasicBlock*, std::map<std::size_t, Instruction*>> phiFor;
    for (std::size_t a = 0; a < allocas.size(); ++a) {
      std::set<const BasicBlock*> defBlocks;
      for (const Use* use : allocas[a]->uses()) {
        const auto* user = static_cast<const Instruction*>(use->user);
        if (user->op() == Opcode::Store && dom.isReachable(user->parent())) {
          defBlocks.insert(user->parent());
        }
      }
      std::vector<const BasicBlock*> worklist(defBlocks.begin(), defBlocks.end());
      std::set<const BasicBlock*> hasPhi;
      while (!worklist.empty()) {
        const BasicBlock* block = worklist.back();
        worklist.pop_back();
        for (const BasicBlock* frontier : dom.frontier(block)) {
          if (!hasPhi.insert(frontier).second) {
            continue;
          }
          auto* mutableBlock = const_cast<BasicBlock*>(frontier);
          IRBuilder builder(ctx);
          builder.setInsertPoint(mutableBlock, 0);
          Instruction* phi = builder.createPhi(allocas[a]->allocatedType());
          phiFor[frontier][a] = phi;
          if (defBlocks.insert(frontier).second) {
            worklist.push_back(frontier);
          }
        }
      }
    }

    // Renaming walk.
    struct Frame {
      const BasicBlock* block;
      std::vector<Value*> incoming; // per-alloca current value
    };
    std::vector<Value*> initial(allocas.size(), nullptr);
    for (std::size_t a = 0; a < allocas.size(); ++a) {
      initial[a] = ctx.getUndef(allocas[a]->allocatedType());
    }
    std::vector<Frame> stack;
    stack.push_back({fn.entry(), std::move(initial)});
    while (!stack.empty()) {
      Frame frame = std::move(stack.back());
      stack.pop_back();
      auto* block = const_cast<BasicBlock*>(frame.block);
      std::vector<Value*>& current = frame.incoming;

      // Phis for promoted slots at the head of this block become the
      // current values.
      const auto phiIt = phiFor.find(block);
      if (phiIt != phiFor.end()) {
        for (const auto& [allocaIdx, phi] : phiIt->second) {
          current[allocaIdx] = phi;
        }
      }

      for (const auto& inst : block->instructions()) {
        if (inst->op() == Opcode::Load) {
          const auto it = allocaIndex.find(dynamic_cast<Instruction*>(inst->operand(0)));
          if (it != allocaIndex.end()) {
            inst->replaceAllUsesWith(current[it->second]);
          }
        } else if (inst->op() == Opcode::Store) {
          const auto it = allocaIndex.find(dynamic_cast<Instruction*>(inst->operand(1)));
          if (it != allocaIndex.end()) {
            current[it->second] = inst->operand(0);
          }
        }
      }

      // Fill phi incomings in CFG successors.
      for (BasicBlock* succ : block->successors()) {
        const auto succPhis = phiFor.find(succ);
        if (succPhis == phiFor.end()) {
          continue;
        }
        for (const auto& [allocaIdx, phi] : succPhis->second) {
          // A block can reach the same successor through both branch arms;
          // add one incoming per predecessor relationship, as the verifier
          // models predecessors as a set.
          if (phi->incomingValueFor(block) == nullptr) {
            phi->addIncoming(current[allocaIdx], block);
          }
        }
      }

      // Recurse into dominator-tree children.
      for (const BasicBlock* child : dom.children(block)) {
        stack.push_back({child, current});
      }
    }

    // Drop the now-dead loads/stores and the allocas themselves. The doomed
    // set is computed up front (see above re: eraseIf predicates).
    for (const auto& block : fn.blocks()) {
      std::set<const Instruction*> doomed;
      for (const auto& inst : block->instructions()) {
        if (inst->op() == Opcode::Store &&
            allocaIndex.count(dynamic_cast<Instruction*>(inst->operand(1))) != 0) {
          doomed.insert(inst.get());
        } else if (inst->op() == Opcode::Load && !inst->hasUses() &&
                   allocaIndex.count(dynamic_cast<Instruction*>(inst->operand(0))) !=
                       0) {
          doomed.insert(inst.get());
        }
      }
      block->eraseIf([&doomed](Instruction* inst) { return doomed.count(inst) != 0; });
    }
    for (const auto& block : fn.blocks()) {
      block->eraseIf([&](Instruction* inst) {
        return inst->op() == Opcode::Alloca && allocaIndex.count(inst) != 0 &&
               !inst->hasUses();
      });
    }
  }
};

} // namespace

std::unique_ptr<FunctionPass> createMem2RegPass() {
  return std::make_unique<Mem2RegPass>();
}

} // namespace qirkit::passes
