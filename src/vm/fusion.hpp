/// \file fusion.hpp
/// The gate-fusion pass: a compile-time rewrite over linear bytecode that
/// groups the fully-constant `__quantum__qis__*` calls of each
/// straight-line region into fused blocks backed by precomposed matrices,
/// and heads the region with one Op::Fused instruction. Running at
/// bytecode-compile time means the pass lands in the program store, so
/// its cost amortizes across every shot of a batch while each shot pays
/// one statevector sweep per fused block instead of one per gate.
///
/// Blocks form along qubit dataflow, not source adjacency (the frontier
/// rule): gates on disjoint qubits commute, so a gate may move back to the
/// latest block on its qubits as long as no later block touches them.
///  * A one-qubit gate joins the latest block on its qubit.
///  * A two-qubit gate joins the latest block on both its qubits when that
///    is one block; otherwise it opens a block on its two qubits that
///    absorbs the latest block of either qubit when that block is still a
///    one-qubit block.
///  * A block whose composed matrix has exactly-zero off-diagonal entries
///    is a diagonal; adjacent diagonal blocks merge into one phase table
///    over up to sim::SweepGate::kMaxQubits qubits.
///  * A block holding a single source gate keeps that gate's own kernel.
/// A region whose blocks are as many as its gates saves no kernel pass and
/// stays plain calls.
///
/// Region barriers — a region never extends across:
///  * any non-gate instruction (mz, reset, read_result, rt calls,
///    branches, classical ops): measurement and control flow observe the
///    state, so gate order around them is preserved;
///  * a gate with a non-constant operand (classically-controlled angle or
///    qubit): its value is only known per shot;
///  * a gate whose qubit operand is not a static QIR address: dynamic
///    handles and arena pointers resolve through runtime state;
///  * any jump target: control may enter there, and entering a region
///    anywhere but at its head would skip the head.
///
/// The region's original calls stay in the code behind its Op::Fused
/// head, which carries the offset just past the region: the fast path
/// hands the blocks to the bound FusedGateHost and jumps there, and every
/// other case falls through into the calls (Vm::execute).
#pragma once

#include "vm/bytecode.hpp"

#include <array>

namespace qirkit::vm {

/// Why a gate call stayed a plain call (the sim.fusion.unfused.*
/// counters, in this order).
enum class UnfusedReason : std::uint8_t {
  UnknownGate,  // no fused kernel for the callee (or degenerate operands)
  NonConstant,  // an angle operand is computed at run time
  DynamicQubit, // a qubit operand is not a constant static address
  Lone,         // its region saves no kernel pass by fusing
};
inline constexpr std::size_t kNumUnfusedReasons = 4;

struct FusionStats {
  std::uint64_t fusedOps = 0; // source gate calls inside fused regions
  std::uint64_t blocks = 0;   // fused blocks emitted
  std::uint64_t regions = 0;  // fused regions (one Op::Fused each)
  /// Gate calls left unfused, indexed by UnfusedReason.
  std::array<std::uint64_t, kNumUnfusedReasons> unfused{};
  /// Amplitude-array sweeps removed per execution of the fused code
  /// (fusedOps - blocks): the quantity the pass exists to minimize.
  [[nodiscard]] std::uint64_t sweepsSaved() const noexcept {
    return fusedOps - blocks;
  }
};

/// Run the fusion pass over \p fn (in place), filling fn.fusedBlocks and
/// fn.fusedSweeps and inserting one Op::Fused head per fused region.
/// \p externNames is the module's slot table (gate recognition is by
/// extern name). Must run after jump fixups; remaps every jump target
/// (Jmp/JmpIf fields and switch tables) across the inserted heads.
FusionStats fuseGates(CompiledFunction& fn,
                      const std::vector<std::string>& externNames);

} // namespace qirkit::vm
