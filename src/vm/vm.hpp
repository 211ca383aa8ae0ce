/// \file vm.hpp
/// The bytecode execution engine: runs a BytecodeModule in a tight
/// dispatch loop against the same Runtime ABI (RtValue / Memory /
/// ExternalRegistry) the tree-walking interpreter uses. One Vm holds the
/// mutable execution state (memory, frames, extern bindings, step
/// budget); the compiled module it runs is immutable and shared.
///
/// Semantics are bit-for-bit the interpreter's — same trap messages,
/// same step accounting (see kStep in bytecode.hpp), same deterministic
/// memory layout — so the two engines are differentially testable and
/// interchangeable behind qirkit run --engine=.
#pragma once

#include "interp/interpreter.hpp"
#include "vm/bytecode.hpp"

#include <memory>
#include <span>
#include <string_view>

namespace qirkit {
class CancelToken;
} // namespace qirkit

namespace qirkit::vm {

/// How many step-counted instructions may retire between cancellation
/// probes in the dispatch loops. Even an *armed* token is only consulted
/// (one relaxed load + sometimes a clock read) once per stride, keeping
/// the hot path's cost independent of whether a deadline is set.
inline constexpr std::uint64_t kCancelStrideSteps = 1024;

/// Executes compiled bytecode. Bind externals exactly as with an
/// Interpreter (QuantumRuntime::bind works on either engine); call
/// reset() between shots to replay globals into fresh memory while
/// keeping bindings and the compiled module.
class Vm : public interp::ExternalRegistry {
public:
  explicit Vm(std::shared_ptr<const BytecodeModule> module);

  /// Run function \p name with \p args; returns its value (Void kind for
  /// void functions). Resets the step counter, not memory.
  interp::RtValue run(std::string_view name, std::span<const interp::RtValue> args = {});

  /// Run the module's entry point (the "entry_point"-attributed function,
  /// else @main). Traps if the module has neither.
  interp::RtValue runEntryPoint();

  /// Fresh execution memory with globals re-materialized; statistics and
  /// extern bindings survive. The deterministic bump allocator guarantees
  /// globals land at the same addresses every time.
  void reset();

  [[nodiscard]] interp::Memory& memory() noexcept { return memory_; }
  [[nodiscard]] const interp::Memory& memory() const noexcept { return memory_; }
  [[nodiscard]] const BytecodeModule& module() const noexcept { return *module_; }

  [[nodiscard]] const interp::InterpStats& stats() const noexcept { return stats_; }
  void resetStats() noexcept { stats_ = {}; }

  /// Same budget contract as the interpreter: exceeding it throws
  /// TrapError("step limit exceeded (N)") on the offending instruction.
  void setStepLimit(std::uint64_t limit) noexcept { stepLimit_ = limit; }
  [[nodiscard]] std::uint64_t stepLimit() const noexcept { return stepLimit_; }

  /// Install (or clear) a cooperative cancellation token. The dispatch
  /// loop probes it every kCancelStrideSteps step-counted instructions and
  /// throws Error(ErrorCode::Deadline) once it expires.
  void setCancelToken(const qirkit::CancelToken* token) noexcept {
    cancel_ = token;
  }

  /// Address of global number \p index (module order), for host-side pokes.
  [[nodiscard]] std::uint64_t globalAddress(std::size_t index) const;

  void bindExternal(std::string name, ExternalHandler handler) override;

  /// Direct kernel path for fused instructions. When a host is bound,
  /// Op::Fused hands it the run of precomposed blocks (applyFusedSweep);
  /// when none is (recording/Clifford runtimes, or no binding at all), the
  /// VM replays each block's original extern calls one by one, so fusion
  /// is observationally invisible to hosts without fused kernels.
  void bindFusedHost(interp::FusedGateHost* host) override { fusedHost_ = host; }

private:
  interp::RtValue execute(std::uint32_t funcIndex,
                          std::span<const interp::RtValue> args, unsigned depth);
  /// The portable dispatch loop: one switch per instruction, full
  /// step/fault/cancel preamble on every kStep instruction. Always
  /// compiled; the reference semantics and the only loop that runs under
  /// fault injection (it carries the per-step probes).
  interp::RtValue executeSwitch(const CompiledFunction& fn, std::size_t base,
                                unsigned depth, bool injectFaults,
                                const qirkit::CancelToken* cancel);
  /// The token-threaded loop: computed-goto dispatch with the step-limit
  /// and cancellation probes hoisted to block boundaries via a credit
  /// scheme (checkedStepProbe). Only defined on builds where
  /// threadedDispatchAvailable(); bit-compatible with executeSwitch by
  /// construction (both loops include vm_ops.inc).
  interp::RtValue executeThreaded(const CompiledFunction& fn, std::size_t base,
                                  unsigned depth,
                                  const qirkit::CancelToken* cancel);
  /// Slow path of the threaded loop's step accounting: replays the
  /// switch loop's per-step sequence exactly (budget check with the same
  /// trap, stats bump, strided cancel checkpoint), then returns how many
  /// further step-counted instructions may retire with nothing but a
  /// decrement — bounded by both the remaining budget and the distance
  /// to the next cancellation stride boundary.
  std::uint64_t checkedStepProbe(const qirkit::CancelToken* cancel);
  /// Execute one fused block with full per-gate accounting (step budget
  /// with mid-block partial credit, stats, fault probes), dispatching to
  /// the fused host as a run of length one or replaying the source calls.
  /// Op::Fused's interruptible path.
  void execFusedBlock(const interp::FusedBlock& block, bool injectFaults);
  void materializeGlobals();
  void resolveExterns();

  std::shared_ptr<const BytecodeModule> module_;
  interp::Memory memory_;
  std::vector<std::uint64_t> globalAddresses_;

  /// Per-slot handler pointers, resolved lazily from the name-keyed
  /// registry; invalidated (externsDirty_) whenever a binding changes.
  std::vector<const ExternalHandler*> externSlots_;
  bool externsDirty_ = true;

  /// One arena backs all frames; registers are indexed off a per-call
  /// base. Recursion may reallocate it, so raw pointers into it are
  /// re-derived after every internal call.
  std::vector<interp::RtValue> stack_;
  std::vector<interp::RtValue> argStack_;

  interp::InterpStats stats_;
  interp::FusedGateHost* fusedHost_ = nullptr;
  std::uint64_t stepLimit_ = interp::Interpreter::kDefaultStepLimit;
  std::uint64_t stepsTaken_ = 0;
  const qirkit::CancelToken* cancel_ = nullptr;
};

} // namespace qirkit::vm
