/// Constant folding and peephole simplification: replaces instructions
/// whose result is statically known (or reducible to an existing value)
/// and erases the folded instructions. Purely local; CFG untouched.
#include "passes/folding.hpp"
#include "passes/pass.hpp"

namespace qirkit::passes {
namespace {

class ConstantFoldPass final : public FunctionPass {
public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "constant-fold";
  }

  bool run(ir::Function& fn) override {
    ir::Context& ctx = fn.parent()->context();
    bool changedAny = false;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& block : fn.blocks()) {
        for (const auto& inst : block->instructions()) {
          if (inst->type()->isVoid() || inst->op() == ir::Opcode::Phi) {
            continue; // phi folding is SimplifyCFG's job (needs pred info)
          }
          if (ir::Value* replacement = foldInstruction(ctx, *inst)) {
            inst->replaceAllUsesWith(replacement);
            changed = true;
            changedAny = true;
          }
        }
        block->eraseIf([](ir::Instruction* inst) { return inst->isTriviallyDead(); });
      }
    }
    return changedAny;
  }
};

} // namespace

std::unique_ptr<FunctionPass> createConstantFoldPass() {
  return std::make_unique<ConstantFoldPass>();
}

} // namespace qirkit::passes
