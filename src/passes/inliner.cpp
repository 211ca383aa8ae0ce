/// Function inlining: replaces calls to small (or always_inline) defined
/// functions with a clone of their body. Part of the classical pipeline
/// that QIR inherits from the LLVM-style infrastructure — gate subroutines
/// written as functions flatten into their callers, exposing the quantum
/// instruction sequence to the other passes.
///
/// A callee that can reach itself through direct calls (recursive or
/// mutually recursive) is never inlined: each copy would bring the call
/// back. An inline that would take the module past kMaxExpandedModuleSize
/// instructions is refused, so a call tree cannot blow up the module.
#include "passes/pass.hpp"

#include "ir/builder.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace qirkit::passes {
namespace {

using namespace qirkit::ir;

/// The defined functions that can reach themselves through direct calls:
/// the members of call-graph cycles (Tarjan's strongly connected
/// components, with an explicit stack so a long call chain cannot
/// overflow ours). Inlining a callee outside this set adds no cycle, so
/// the set holds for a whole inliner run.
std::set<const Function*> recursiveFunctions(const Module& module) {
  std::map<const Function*, std::vector<const Function*>> callees;
  for (const auto& fn : module.functions()) {
    for (const auto& block : fn->blocks()) {
      for (const auto& inst : block->instructions()) {
        if (inst->op() == Opcode::Call && inst->callee() != nullptr &&
            !inst->callee()->isDeclaration()) {
          callees[fn.get()].push_back(inst->callee());
        }
      }
    }
  }
  std::set<const Function*> recursive;
  std::map<const Function*, std::size_t> index;
  std::map<const Function*, std::size_t> low;
  std::vector<const Function*> component; // Tarjan's stack
  std::set<const Function*> onComponent;
  const auto enter = [&](const Function* fn) {
    const std::size_t order = index.size();
    index[fn] = order;
    low[fn] = order;
    component.push_back(fn);
    onComponent.insert(fn);
  };
  struct Frame {
    const Function* fn;
    std::size_t nextCallee;
  };
  for (const auto& root : module.functions()) {
    if (index.count(root.get()) != 0) {
      continue;
    }
    enter(root.get());
    std::vector<Frame> dfs{{root.get(), 0}};
    while (!dfs.empty()) {
      const Function* fn = dfs.back().fn;
      const std::vector<const Function*>& out = callees[fn];
      if (dfs.back().nextCallee < out.size()) {
        const Function* callee = out[dfs.back().nextCallee++];
        if (callee == fn) {
          recursive.insert(fn);
        } else if (index.count(callee) == 0) {
          enter(callee);
          dfs.push_back({callee, 0});
        } else if (onComponent.count(callee) != 0) {
          low[fn] = std::min(low[fn], index[callee]);
        }
        continue;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        low[dfs.back().fn] = std::min(low[dfs.back().fn], low[fn]);
      }
      if (low[fn] == index[fn]) {
        const bool cycle = component.back() != fn;
        const Function* member = nullptr;
        do {
          member = component.back();
          component.pop_back();
          onComponent.erase(member);
          if (cycle) {
            recursive.insert(member);
          }
        } while (member != fn);
      }
    }
  }
  return recursive;
}

class InlinerPass final : public ModulePass {
public:
  explicit InlinerPass(std::size_t sizeThreshold) : sizeThreshold_(sizeThreshold) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "inline"; }

  bool run(Module& module) override {
    recursive_ = recursiveFunctions(module);
    moduleSize_ = module.instructionCount();
    calleeSizes_.clear();
    bool changedAny = false;
    for (int sweep = 0; sweep < 8; ++sweep) {
      bool changed = false;
      for (const auto& fn : module.functions()) {
        if (fn->isDeclaration()) {
          continue;
        }
        changed |= inlineCallsIn(*fn);
      }
      changedAny |= changed;
      if (!changed) {
        break;
      }
    }
    return changedAny;
  }

private:
  std::size_t sizeThreshold_;
  std::set<const Function*> recursive_;
  std::size_t moduleSize_ = 0; // grows by the callee's size per inline
  // Callee sizes, counted once: inlining changes only the caller, whose
  // entry is dropped then.
  std::map<const Function*, std::size_t> calleeSizes_;

  [[nodiscard]] bool shouldInline(const Function& callee) {
    if (callee.isDeclaration() || recursive_.count(&callee) != 0) {
      return false;
    }
    if (callee.hasAttribute("noinline")) {
      return false;
    }
    const auto [it, counted] = calleeSizes_.try_emplace(&callee, 0);
    if (counted) {
      it->second = callee.instructionCount();
    }
    const std::size_t size = it->second;
    if (moduleSize_ + size > kMaxExpandedModuleSize) {
      return false;
    }
    return callee.hasAttribute("alwaysinline") || size <= sizeThreshold_;
  }

  bool inlineCallsIn(Function& caller) {
    // Inline one call at a time: inlining mutates the block list under our
    // feet. The body lands after the call's block, and a call refused once
    // stays refused (callees and the module only grow), so each search
    // resumes at the block of the last inlined call.
    std::size_t first = 0;
    for (int guard = 0; guard < 1024; ++guard) {
      Instruction* site = nullptr;
      const auto& blocks = caller.blocks();
      for (std::size_t b = first; b < blocks.size() && site == nullptr; ++b) {
        for (const auto& inst : blocks[b]->instructions()) {
          if (inst->op() == Opcode::Call && inst->callee() != nullptr &&
              shouldInline(*inst->callee())) {
            site = inst.get();
            first = b;
            break;
          }
        }
      }
      if (site == nullptr) {
        return guard > 0;
      }
      moduleSize_ += calleeSizes_.at(site->callee());
      calleeSizes_.erase(&caller);
      inlineCall(caller, site);
    }
    return true;
  }

  using ValueMap = std::map<const Value*, Value*>;

  static Value* mapValue(const ValueMap& vmap, Value* v) {
    const auto it = vmap.find(v);
    return it == vmap.end() ? v : it->second;
  }

  void inlineCall(Function& caller, Instruction* call) {
    Function& callee = *call->callee();
    BasicBlock* before = call->parent();
    const std::size_t callIndex = before->indexOf(call);

    // Split: everything after the call (including the terminator) moves to
    // the continuation block.
    BasicBlock* cont = caller.createBlockAfter(before, before->hasName()
                                                           ? before->name() + ".cont"
                                                           : std::string{});
    before->moveTailTo(callIndex + 1, *cont);
    // Phis in the original successors must now name `cont` as the incoming
    // block.
    for (BasicBlock* succ : cont->successors()) {
      for (Instruction* phi : succ->phis()) {
        for (unsigned i = 0; i < phi->numIncoming(); ++i) {
          if (phi->incomingBlock(i) == before) {
            phi->setOperand(2 * i + 1, cont);
          }
        }
      }
    }

    // Clone the callee body.
    ValueMap vmap;
    for (unsigned i = 0; i < callee.numArgs(); ++i) {
      vmap[callee.arg(i)] = call->operand(i);
    }
    std::map<const BasicBlock*, BasicBlock*> blockMap;
    for (const auto& block : callee.blocks()) {
      blockMap[block.get()] = caller.createBlockAfter(
          cont, callee.name() + (block->hasName() ? "." + block->name() : ".bb"));
    }
    // Pass 1: clone every instruction with its *original* operands so the
    // value map is complete regardless of block layout order; returns are
    // rewritten to branches into the continuation.
    std::vector<Instruction*> clones;
    std::vector<std::pair<BasicBlock*, Value*>> returns; // cloned ret block, orig value
    for (const auto& block : callee.blocks()) {
      BasicBlock* clone = blockMap.at(block.get());
      for (const auto& inst : block->instructions()) {
        if (inst->op() == Opcode::Ret) {
          Value* retValue = inst->numOperands() == 1 ? inst->operand(0) : nullptr;
          IRBuilder builder(clone);
          builder.createBr(cont);
          returns.emplace_back(clone, retValue);
          continue;
        }
        Instruction* placed = clone->append(inst->clone());
        vmap[inst.get()] = placed;
        clones.push_back(placed);
      }
    }
    // Pass 2: remap all operands (values through vmap, blocks through
    // blockMap).
    for (Instruction* placed : clones) {
      for (unsigned op = 0; op < placed->numOperands(); ++op) {
        Value* operand = placed->operand(op);
        if (operand->kind() == Value::Kind::BasicBlock) {
          placed->setOperand(op, blockMap.at(static_cast<BasicBlock*>(operand)));
        } else {
          placed->setOperand(op, mapValue(vmap, operand));
        }
      }
    }

    // Join the return values.
    if (!call->type()->isVoid()) {
      Value* replacement = nullptr;
      if (returns.empty()) {
        replacement = caller.parent()->context().getUndef(call->type());
      } else if (returns.size() == 1) {
        replacement = mapValue(vmap, returns.front().second);
      } else {
        IRBuilder builder(caller.parent()->context());
        builder.setInsertPoint(cont, 0);
        Instruction* phi = builder.createPhi(call->type());
        for (const auto& [retBlock, value] : returns) {
          phi->addIncoming(mapValue(vmap, value), retBlock);
        }
        replacement = phi;
      }
      call->replaceAllUsesWith(replacement);
    }

    // Enter the inlined body, remove the call.
    {
      IRBuilder builder(before);
      builder.createBr(blockMap.at(callee.entry()));
    }
    call->eraseFromParent();
  }
};

} // namespace

std::unique_ptr<ModulePass> createInlinerPass(std::size_t sizeThreshold) {
  return std::make_unique<InlinerPass>(sizeThreshold);
}

} // namespace qirkit::passes
