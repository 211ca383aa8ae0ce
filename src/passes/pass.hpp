/// \file pass.hpp
/// The pass framework: FunctionPass / ModulePass interfaces and a
/// PassManager that runs a pipeline, timing each pass with a telemetry
/// Span that feeds the `passes` record of the stats report.
/// This is the machinery the paper's §III.B calls "the core motivation of
/// an IR in a compiler": transformations compose over a shared AST.
#pragma once

#include "ir/module.hpp"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace qirkit::passes {

/// A transformation over a single function definition.
class FunctionPass {
public:
  virtual ~FunctionPass() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Transform \p fn; return true if anything changed.
  virtual bool run(ir::Function& fn) = 0;
};

/// A transformation over a whole module.
class ModulePass {
public:
  virtual ~ModulePass() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  virtual bool run(ir::Module& module) = 0;
};

/// Runs a sequence of passes over a module. Function passes are applied to
/// every function definition. `runToFixpoint` repeats the whole pipeline
/// until no pass reports a change (bounded by maxIterations).
class PassManager {
public:
  void add(std::unique_ptr<FunctionPass> pass);
  void add(std::unique_ptr<ModulePass> pass);

  /// Run the pipeline once. Returns true if anything changed.
  bool run(ir::Module& module);

  /// Repeat the pipeline until a full sweep changes nothing.
  /// Returns the number of sweeps executed.
  std::size_t runToFixpoint(ir::Module& module, std::size_t maxIterations = 16);

  /// If set, verify the module after every pass and throw on breakage.
  void setVerifyEach(bool verify) noexcept { verifyEach_ = verify; }

private:
  struct Entry {
    std::unique_ptr<FunctionPass> functionPass;
    std::unique_ptr<ModulePass> modulePass;
  };
  std::vector<Entry> entries_;
  bool verifyEach_ = false;
};

/// The standard classical-optimization pipeline (the paper's "inherited for
/// free" optimizations): mem2reg, SCCP, constant folding & peepholes, DCE,
/// CFG simplification — iterated to fixpoint by the caller as needed.
void addStandardPipeline(PassManager& pm);

/// Standard pipeline plus full loop unrolling (Ex. 4) and inlining.
void addFullPipeline(PassManager& pm, std::size_t maxUnrollTripCount = 1 << 16);

/// The loop unroller and the inliner refuse a step that would take the
/// module past this many instructions: an unroll estimated as the rest of
/// the module plus the trip count times the loop's non-phi instructions,
/// an inline as the module plus the callee. Such a loop stays a loop and
/// such a call a call, and both run as written, so neither a long loop nor
/// a call tree, in one function or spread over many, can blow up memory
/// or pipeline time at load.
inline constexpr std::size_t kMaxExpandedModuleSize = std::size_t{1} << 15;

// -- pass factories -----------------------------------------------------------
std::unique_ptr<FunctionPass> createMem2RegPass();
std::unique_ptr<FunctionPass> createConstantFoldPass();
std::unique_ptr<FunctionPass> createSCCPPass();
std::unique_ptr<FunctionPass> createDCEPass();
std::unique_ptr<FunctionPass> createSimplifyCFGPass();
std::unique_ptr<FunctionPass> createCSEPass();
std::unique_ptr<ModulePass> createLoopUnrollPass(std::size_t maxTripCount = 1 << 16);
std::unique_ptr<ModulePass> createInlinerPass(std::size_t sizeThreshold = 64);
std::unique_ptr<ModulePass> createStripDeadFunctionsPass();

} // namespace qirkit::passes
