#include "passes/pass.hpp"

#include "ir/verifier.hpp"
#include "support/telemetry/telemetry.hpp"

namespace qirkit::passes {

void PassManager::add(std::unique_ptr<FunctionPass> pass) {
  entries_.push_back({std::move(pass), nullptr});
}

void PassManager::add(std::unique_ptr<ModulePass> pass) {
  entries_.push_back({nullptr, std::move(pass)});
}

bool PassManager::run(ir::Module& module) {
  // IR sizing (an O(module) walk) happens only with telemetry armed.
  const bool telemetryOn = telemetry::enabled();
  bool changed = false;
  for (const Entry& entry : entries_) {
    // No stage histogram: the passes record below keeps the statistics.
    telemetry::Stage stage(entry.modulePass != nullptr
                               ? entry.modulePass->name()
                               : entry.functionPass->name(),
                           telemetry::Unregistered{});
    const std::uint64_t irBefore = telemetryOn ? module.instructionCount() : 0;
    telemetry::Span span(stage);
    bool passChanged = false;
    if (entry.modulePass != nullptr) {
      passChanged = entry.modulePass->run(module);
    } else {
      for (const auto& fn : module.functions()) {
        if (!fn->isDeclaration()) {
          passChanged |= entry.functionPass->run(*fn);
        }
      }
    }
    const std::uint64_t ns = span.end();
    changed |= passChanged;
    if (telemetryOn) {
      telemetry::recordPassRun(stage.name(), ns, passChanged, irBefore,
                               module.instructionCount());
    }
    if (verifyEach_) {
      ir::verifyModuleOrThrow(module);
    }
  }
  return changed;
}

std::size_t PassManager::runToFixpoint(ir::Module& module, std::size_t maxIterations) {
  for (std::size_t sweep = 1; sweep <= maxIterations; ++sweep) {
    if (!run(module)) {
      return sweep;
    }
  }
  return maxIterations;
}

void addStandardPipeline(PassManager& pm) {
  pm.add(createMem2RegPass());
  pm.add(createSCCPPass());
  pm.add(createConstantFoldPass());
  pm.add(createCSEPass());
  pm.add(createSimplifyCFGPass());
  pm.add(createDCEPass());
}

void addFullPipeline(PassManager& pm, std::size_t maxUnrollTripCount) {
  pm.add(createInlinerPass());
  pm.add(createMem2RegPass());
  pm.add(createSCCPPass());
  pm.add(createConstantFoldPass());
  pm.add(createSimplifyCFGPass());
  pm.add(createLoopUnrollPass(maxUnrollTripCount));
  pm.add(createSCCPPass());
  pm.add(createConstantFoldPass());
  pm.add(createCSEPass());
  pm.add(createSimplifyCFGPass());
  pm.add(createDCEPass());
  pm.add(createStripDeadFunctionsPass());
}

} // namespace qirkit::passes
