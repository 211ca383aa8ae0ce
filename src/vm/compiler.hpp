/// \file compiler.hpp
/// The IR → bytecode compiler. Lowers a (verified) ir::Module into a
/// BytecodeModule: registers resolved, block targets flattened to
/// instruction offsets, phi nodes eliminated via staged edge moves, and
/// external callees assigned runtime-dispatch slots.
#pragma once

#include "ir/module.hpp"
#include "vm/bytecode.hpp"

#include <memory>

namespace qirkit::vm {

/// Thrown when a module cannot be lowered (e.g. malformed control flow
/// that the verifier would reject). Derived from TrapError so callers
/// treating compile+run as one execution route catch a single type; the
/// ErrorCode::CompileFail classification is what the shot executor keys
/// its degrade-to-interpreter decision on.
class CompileError : public interp::TrapError {
public:
  explicit CompileError(const std::string& message)
      : TrapError(message, ErrorCode::CompileFail) {}
};

/// Compilation knobs: the one place a caller picks a code shape. `run` and
/// `serve` always execute shotCompileOptions(); users cannot choose
/// otherwise. The other shapes exist for the code-shape comparisons: the
/// VM differential tests, BM_Dispatch, BM_FusionResim and the pipeline
/// benchmark's replay.
struct CompileOptions {
  /// Run the gate-fusion pass (fusion.hpp) after lowering.
  bool fuseGates = true;
  /// Which dispatch loop the module is compiled for. Recorded on the
  /// module and part of the program-store key; the VM falls back to
  /// the switch loop (bit-compatibly) when the build lacks the threaded
  /// one or fault injection is armed.
  DispatchMode dispatch = defaultDispatchMode();
  /// Run the superinstruction peephole (fusion.hpp) after gate fusion:
  /// mines hot opcode pairs (ICmp+JmpIf, IntBin+StoreInt, LoadInt+IntBin,
  /// PushArg*+Call/CallExtern) into single fused opcodes with exact
  /// step/fault/stat accounting. Default off so direct compileModule
  /// callers (tests, tools) see the reference code shape; the shot
  /// executor enables it whenever it compiles for Threaded dispatch.
  bool superinstructions = false;

  bool operator==(const CompileOptions&) const = default;
};

/// The one code shape users run: fused, for the build's default loop,
/// with superinstructions when that loop is the threaded one.
[[nodiscard]] inline CompileOptions shotCompileOptions() noexcept {
  return {.fuseGates = true,
          .dispatch = defaultDispatchMode(),
          .superinstructions = defaultDispatchMode() == DispatchMode::Threaded};
}

/// Compile every defined function of \p module. The result is immutable
/// and shareable; a program run many times belongs in a CompileCache.
[[nodiscard]] std::shared_ptr<const BytecodeModule>
compileModule(const ir::Module& module, const CompileOptions& options = {});

} // namespace qirkit::vm
