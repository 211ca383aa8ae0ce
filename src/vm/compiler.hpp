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

/// The VM has one dispatch loop. DispatchMode, defaultDispatchMode() and
/// CompileOptions' `dispatch` and `superinstructions` fields have no
/// effect; they stay only because bench/pipeline/replay.cpp names them and
/// that file must keep compiling unchanged.
enum class DispatchMode : std::uint8_t { Switch, Threaded };

[[nodiscard]] constexpr DispatchMode defaultDispatchMode() noexcept {
  return DispatchMode::Switch;
}

/// Compilation knobs: the one place a caller picks a code shape. `run` and
/// `serve` execute the default; the unfused shape exists for the fusion
/// comparisons (fusion_test, BM_FusionResim).
struct CompileOptions {
  /// Run the gate-fusion pass (fusion.hpp) after lowering.
  bool fuseGates = true;
  /// Unused (see DispatchMode).
  DispatchMode dispatch = DispatchMode::Switch;
  /// Unused (see DispatchMode).
  bool superinstructions = false;

  /// Options that select the same code shape compare equal: the program
  /// store keys on this, so only fuseGates separates entries.
  bool operator==(const CompileOptions& other) const noexcept {
    return fuseGates == other.fuseGates;
  }
};

/// Compile every defined function of \p module. The result is immutable
/// and shareable; a program run many times belongs in a CompileCache.
[[nodiscard]] std::shared_ptr<const BytecodeModule>
compileModule(const ir::Module& module, const CompileOptions& options = {});

} // namespace qirkit::vm
