/// \file interpreter.hpp
/// An interpreter for the IR subset — the paper's `lli` analog (§III.C):
/// "A file that contains LLVM IR bytecode can be executed directly with
/// the lli tool … this can be overcome by providing the missing
/// definitions for the QIR extensions."
///
/// External functions (the QIR runtime) are bound by name via the shared
/// ExternalRegistry ABI (see abi.hpp); the interpreter executes all
/// classical structure (loops, conditionals, memory) and dispatches
/// `__quantum__*` calls to whatever runtime the embedder registered.
///
/// This tree-walking engine is the *reference semantics*: the bytecode VM
/// (src/vm) is differentially tested against it.
#pragma once

#include "interp/abi.hpp"
#include "ir/module.hpp"

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace qirkit {
class CancelToken;
} // namespace qirkit

namespace qirkit::interp {

/// Statistics of one or more executions.
struct InterpStats {
  std::uint64_t instructionsExecuted = 0;
  std::uint64_t internalCalls = 0;
  std::uint64_t externalCalls = 0;
  std::uint64_t blocksEntered = 0;
};

/// The check both engines make before running a function: throws
/// TrapError(ErrorCode::Semantic) unless \p given arguments match the
/// \p params parameters of @\p function. An entry point runs with none.
void checkArgumentCount(const std::string& function, std::size_t params,
                        std::size_t given);

/// What both engines check before they run \p module's entry point:
/// throws TrapError unless Module::entryFunction finds one
/// (ErrorCode::Trap) and it takes no parameters (checkArgumentCount).
const ir::Function& checkEntryPoint(const ir::Module& module);

/// The interpreter. Bind externals, then run a function.
class Interpreter : public ExternalRegistry {
public:
  explicit Interpreter(const ir::Module& module);

  /// Execute \p fn with \p args. Throws TrapError on dynamic violations,
  /// and before executing anything when \p args does not have one value
  /// per parameter (checkArgumentCount).
  RtValue run(const ir::Function& fn, std::span<const RtValue> args = {});

  /// Execute the module's entry point (the "entry_point"-attributed
  /// function, else @main) with no arguments.
  RtValue runEntryPoint();

  [[nodiscard]] Memory& memory() noexcept { return memory_; }
  [[nodiscard]] const InterpStats& stats() const noexcept { return stats_; }
  void resetStats() noexcept { stats_ = {}; }

  /// Return to the freshly-constructed state: fresh memory with globals
  /// re-materialized (the deterministic bump allocator reproduces the
  /// exact same addresses) and zeroed statistics, keeping every external
  /// binding. The batched shot executor uses this to run N shots on one
  /// Interpreter instead of constructing one per shot — the interp-engine
  /// analog of Vm::reset().
  void reset();

  /// Address of a materialized global (byte-array) in memory.
  [[nodiscard]] std::uint64_t globalAddress(const ir::GlobalVariable* g) const;

  /// Read a NUL-terminated string from memory (for output labels).
  [[nodiscard]] std::string readCString(std::uint64_t address) const {
    return memory_.readCString(address);
  }

  /// Upper bound on executed instructions per runEntryPoint/run call tree
  /// (default 256M) — terminates runaway programs. The bytecode VM honors
  /// the same default and accounting (kDefaultStepLimit), so both engines
  /// reject runaway programs identically.
  static constexpr std::uint64_t kDefaultStepLimit = 1ULL << 28;
  void setStepLimit(std::uint64_t limit) noexcept { stepLimit_ = limit; }

  /// Install (or clear) a cooperative cancellation token; probed with the
  /// same stride as the VM dispatch loop (vm::kCancelStrideSteps), so
  /// both engines abandon an expired shot identically.
  void setCancelToken(const qirkit::CancelToken* token) noexcept {
    cancel_ = token;
  }

private:
  void materializeGlobals();
  RtValue execute(const ir::Function& fn, std::span<const RtValue> args,
                  unsigned depth);
  RtValue evalConstant(const ir::Value* v) const;

  const ir::Module& module_;
  Memory memory_;
  std::map<const ir::GlobalVariable*, std::uint64_t> globalAddresses_;
  InterpStats stats_;
  std::uint64_t stepLimit_ = kDefaultStepLimit;
  std::uint64_t stepsTaken_ = 0;
  const qirkit::CancelToken* cancel_ = nullptr;
};

} // namespace qirkit::interp
