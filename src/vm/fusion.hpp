/// \file fusion.hpp
/// The gate-fusion pass: a compile-time peephole over linear bytecode that
/// folds runs of adjacent, fully-constant `__quantum__qis__*` calls into
/// fused blocks backed by precomposed matrices, and groups adjacent blocks
/// into runs of 1 to interp::kMaxSweepBlocks, each applied by one
/// Op::Fused instruction. Running at bytecode-compile time means the pass
/// lands in the LRU compile cache, so its cost amortizes across every
/// shot of a batch while each shot pays one statevector sweep per fused
/// block instead of one per gate (or one chunk walk per run of several
/// blocks on a multi-chunk state: StateVector::applyFusedSweep).
///
/// Three fusion rules, applied greedily left to right:
///  1. chains of single-qubit gates on the same qubit -> one 2x2 matrix;
///  2. adjacent one-/two-qubit gates whose supports fit in a shared
///     two-qubit window -> one 4x4 matrix (StateVector::apply2);
///  3. runs of diagonal gates (Z/S/Sdg/T/Tdg/RZ/CZ) -> one diagonal-phase
///     table over up to FusedBlock::kMaxQubits qubits.
///
/// Soundness barriers — a run never extends across:
///  * any non-gate instruction (mz, reset, read_result, rt calls,
///    branches, classical ops): measurement and control flow observe the
///    state, so gate order around them is preserved;
///  * a gate with a non-constant operand (classically-controlled angle or
///    qubit): its value is only known per shot;
///  * a gate whose qubit operand is not a static QIR address: dynamic
///    handles and arena pointers resolve through runtime state;
///  * any jump target: control may enter there, so the instructions
///    before it must have executed exactly; a fused instruction sits at
///    its run's first offset and the rest are Nops, hence a run that a
///    branch could enter mid-way is never formed.
///
/// A run of blocks is a sequence of consecutive blocks with no unfused
/// gate between them, capped at interp::kMaxSweepBlocks; the barriers
/// above end it too.
#pragma once

#include "vm/bytecode.hpp"

namespace qirkit::vm {

struct FusionStats {
  std::uint64_t fusedOps = 0;    // source gate calls folded away
  std::uint64_t blocks = 0;      // fused blocks emitted
  std::uint64_t sweepRuns = 0;   // Op::Fused runs of two or more blocks
  /// Amplitude-array sweeps removed per execution of the fused code
  /// (fusedOps - blocks): the quantity the pass exists to minimize.
  [[nodiscard]] std::uint64_t sweepsSaved() const noexcept {
    return fusedOps - blocks;
  }
};

/// Run the fusion peephole over \p fn (in place), filling fn.fusedBlocks
/// and fn.fusedSweeps. \p externNames is the module's slot table (gate
/// recognition is by extern name). Must run after jump fixups; preserves
/// every instruction offset.
FusionStats fuseGates(CompiledFunction& fn,
                      const std::vector<std::string>& externNames);

/// Remove the Op::Nop padding the fusion pass leaves behind,
/// remapping every jump target (Jmp/JmpIf fields and switch tables) onto
/// the compacted offsets. Nops are pure lowering artifacts — they carry
/// no kStep flag — but before this pass they still flowed through the
/// dispatch loop on every execution, inflating the vm.dispatch.* per-
/// opcode-class counters (and wasting a dispatch round apiece) on hot
/// fused loops. No jump ever targets a Nop (the fusion pass refuses to
/// form a run past a jump target), so compaction preserves semantics and
/// accounting exactly. Returns the number of instructions removed.
std::uint64_t compactCode(CompiledFunction& fn);

struct SuperinstrStats {
  std::uint64_t cmpBr = 0;     // ICmp+JmpIf pairs fused
  std::uint64_t binStore = 0;  // IntBin+StoreInt pairs fused
  std::uint64_t loadBin = 0;   // LoadInt+IntBin pairs fused
  std::uint64_t pushCall = 0;  // PushArg* runs collapsed ahead of a call
  [[nodiscard]] std::uint64_t total() const noexcept {
    return cmpBr + binStore + loadBin + pushCall;
  }
};

/// The superinstruction peephole: rewrite hot opcode pairs into single
/// fused opcodes (Op::CmpBr/BinStore/LoadBin/PushCall). The replaced
/// span keeps its length — the head instruction is followed by Op::Ext
/// slots carrying the second sub-op's operands and flags — so every
/// code offset survives and no fixups are needed. A pair is only formed
/// when no jump targets its interior, and each sub-op's step/stat/fault
/// accounting is replayed exactly by the fused handler, so fused and
/// unfused execution are bit-compatible. Must run after compactCode
/// (the patterns are adjacency-based; Nop padding would hide them).
SuperinstrStats fuseSuperinstructions(CompiledFunction& fn);

} // namespace qirkit::vm
