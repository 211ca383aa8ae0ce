/// \file compile.hpp
/// End-to-end QIR compilation pipelines — the paper's §III.B routes:
///
///  * transformDirect — route (b1): run the classical pass pipeline
///    directly on the QIR AST (mem2reg, SCCP, folding, CFG simplification,
///    loop unrolling, inlining). The program stays QIR throughout.
///
///  * compileToTarget — route (b2) plus §IV.A: transpile into the custom
///    circuit IR, optimize there, optionally map onto a hardware target
///    ("register allocation for qubits"), and emit base/adaptive-profile
///    QIR with static addresses.
#pragma once

#include "circuit/mapping.hpp"
#include "circuit/optimizer.hpp"
#include "ir/module.hpp"
#include "passes/pass.hpp"
#include "qir/exporter.hpp"
#include "qir/profiles.hpp"

#include <memory>
#include <optional>

namespace qirkit::qir {

/// Route (b1): transform the QIR AST in place with the classical pipeline.
/// Returns the number of pipeline sweeps executed.
std::size_t transformDirect(ir::Module& module,
                            std::size_t maxUnrollTripCount = 1 << 16);

struct CompileOptions {
  /// Run transformDirect before transpiling (needed when the input has
  /// loops or classical computation around the quantum instructions).
  /// A module from qasm::loadProgram has been through it already.
  bool runClassicalPipeline = true;
  std::size_t maxUnrollTripCount = 1 << 16;
  /// Circuit-level optimization (cancellation, rotation merging).
  bool optimizeCircuit = true;
  /// Defer feedback-free measurements to the end of the circuit so that
  /// interleaved-measurement programs become base-profile exportable.
  bool deferMeasurements = false;
  /// Hardware target for qubit mapping; no mapping when unset.
  std::optional<circuit::Target> target;
  /// Addressing mode of the emitted QIR.
  Addressing outputAddressing = Addressing::Static;
  bool recordOutput = true;
};

struct CompileResult {
  std::unique_ptr<ir::Module> module; // the compiled QIR
  circuit::Circuit circuit;           // the (optimized, mapped) circuit
  Profile profile = Profile::Base;    // detected profile of the output
  std::size_t passSweeps = 0;
  std::size_t swapsInserted = 0;
  circuit::OptimizeStats circuitStats;
};

/// Route (b2)/§IV.A: full compilation of \p module (consumed/mutated) to a
/// target-conforming QIR module.
[[nodiscard]] CompileResult compileToTarget(ir::Context& context, ir::Module& module,
                                            const CompileOptions& options = {});

} // namespace qirkit::qir
