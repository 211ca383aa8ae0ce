/// Strip dead functions: after inlining, helper definitions that are no
/// longer called (and are not the entry point) are deleted, leaving the
/// flattened QIR program the paper's restricted profiles expect.
#include "passes/pass.hpp"

#include <set>

namespace qirkit::passes {
namespace {

using namespace qirkit::ir;

class StripDeadFunctionsPass final : public ModulePass {
public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "strip-dead-functions";
  }

  bool run(Module& module) override {
    const Function* root = module.entryFunction();
    if (root == nullptr) {
      return false; // library module: every definition is a root
    }
    bool changedAny = false;
    bool changed = true;
    while (changed) {
      changed = false;
      // Collect callees referenced from any remaining definition.
      std::set<const Function*> called;
      for (const auto& fn : module.functions()) {
        for (const auto& block : fn->blocks()) {
          for (const auto& inst : block->instructions()) {
            if (inst->op() == Opcode::Call) {
              called.insert(inst->callee());
            }
          }
        }
      }
      Function* dead = nullptr;
      for (const auto& fn : module.functions()) {
        if (fn->isDeclaration() || fn.get() == root) {
          continue;
        }
        if (called.count(fn.get()) == 0 && !fn->hasUses()) {
          dead = fn.get();
          break;
        }
      }
      if (dead != nullptr) {
        module.eraseFunction(dead);
        changed = true;
        changedAny = true;
      }
    }
    return changedAny;
  }
};

} // namespace

std::unique_ptr<ModulePass> createStripDeadFunctionsPass() {
  return std::make_unique<StripDeadFunctionsPass>();
}

} // namespace qirkit::passes
