/// \file fused.hpp
/// The fused-gate extension of the execution ABI. The bytecode compiler's
/// gate-fusion pass folds runs of adjacent `__quantum__qis__*` calls into
/// FusedBlock descriptors, grouped into runs of adjacent blocks; an engine
/// dispatches a whole run through a FusedGateHost when the bound runtime
/// provides one (the statevector runtime does), and otherwise replays the
/// original per-gate calls through the ordinary extern bindings — so a
/// runtime that has never heard of fusion (circuit recorder, stabilizer
/// backend) still observes the exact source gate sequence.
#pragma once

#include "interp/abi.hpp"

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace qirkit::interp {

/// One source `__quantum__qis__*` call preserved for replay: the extern
/// slot it was compiled to and its fully-evaluated (constant) arguments.
struct FusedReplayCall {
  std::uint32_t slot = 0;
  std::vector<RtValue> args;
};

/// A fused run of gates, precomposed at compile time.
///  * Unitary1 — matrix is a 2x2 (row-major, 4 entries) on qubits[0].
///  * Unitary2 — matrix is a 4x4 (row-major, 16 entries) on qubits[0..1];
///    local basis index bit j corresponds to qubits[j].
///  * Diagonal — matrix holds the 2^k diagonal phases over qubits[0..k-1],
///    indexed by the same bit convention.
/// Qubit entries are *static* QIR addresses in first-use order, so a host
/// allocating qubits on the fly (paper §IV.A) assigns the same simulator
/// indices the unfused gate sequence would have.
struct FusedBlock {
  enum class Kind : std::uint8_t { Unitary1, Unitary2, Diagonal };

  Kind kind = Kind::Unitary1;
  std::uint32_t sourceGates = 0;
  std::vector<std::uint64_t> qubits;
  std::vector<std::complex<double>> matrix;
  std::vector<FusedReplayCall> replay;

  /// Upper bound on qubits.size() (Diagonal blocks; unitaries use 1 or 2).
  static constexpr unsigned kMaxQubits = 6;
};

/// Upper bound on blocks per fused run: the fusion pass never groups more
/// (vm/fusion.hpp), so a host may size per-run scratch space by it.
inline constexpr std::size_t kMaxSweepBlocks = 16;

/// Optional fast path a runtime can register via
/// ExternalRegistry::bindFusedHost. An engine hands it each fused run —
/// 1 to kMaxSweepBlocks consecutive blocks, applied in order — so a host
/// backed by a dense state can apply a long run chunk-at-a-time
/// (StateVector::applyFusedSweep). Must be observably equivalent to
/// replaying each block's replay calls through the runtime's own extern
/// handlers (same state evolution, same statistics attribution for
/// block.sourceGates gates per block).
class FusedGateHost {
public:
  virtual ~FusedGateHost() = default;
  virtual void applyFusedSweep(std::span<const FusedBlock> blocks) = 0;

  /// One block is a run of length one. No engine calls this; it stays
  /// virtual only because bench/pipeline/replay.cpp overrides it and that
  /// file must keep compiling unchanged.
  virtual void applyFusedBlock(const FusedBlock& block) {
    applyFusedSweep({&block, 1});
  }
};

} // namespace qirkit::interp
