/// Dead code elimination: removes side-effect-free instructions with no
/// uses, iterating until stable (removal can make operands dead). An
/// instruction that may trap stays: deleting it would turn a run-time
/// trap into a normal shot.
#include "passes/pass.hpp"

namespace qirkit::passes {
namespace {

class DCEPass final : public FunctionPass {
public:
  [[nodiscard]] std::string_view name() const noexcept override { return "dce"; }

  bool run(ir::Function& fn) override {
    bool changedAny = false;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& block : fn.blocks()) {
        const std::size_t erased = block->eraseIf(
            [](ir::Instruction* inst) { return inst->isTriviallyDead(); });
        if (erased > 0) {
          changed = true;
          changedAny = true;
        }
      }
    }
    return changedAny;
  }
};

} // namespace

std::unique_ptr<FunctionPass> createDCEPass() { return std::make_unique<DCEPass>(); }

} // namespace qirkit::passes
