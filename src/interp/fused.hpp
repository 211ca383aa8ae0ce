/// \file fused.hpp
/// The fused-gate extension of the execution ABI. The bytecode compiler's
/// gate-fusion pass groups the gates of each straight-line region into
/// FusedBlock descriptors along qubit dataflow (vm/fusion.hpp); an engine
/// hands a region's blocks to a FusedGateHost when the bound runtime
/// provides one (the statevector runtime does), and otherwise executes the
/// region's original calls, which stay in the code — so a runtime that has
/// never heard of fusion (circuit recorder, stabilizer backend) still
/// observes the exact source gate sequence.
#pragma once

#include "interp/abi.hpp"
#include "sim/gates.hpp"

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace qirkit::interp {

/// A group of gates, precomposed at compile time: the owning form of a
/// sim::SweepGate. kind and matrix follow SweepGate's layout table (a 2x2,
/// a 4x4 or 2^k phases, row-major; empty for Swap), and qubits holds the
/// static QIR addresses a host resolves to the SweepGate's simulator
/// indices, in the same order. A block that holds one source gate keeps
/// that gate's own kernel (Unitary1, Controlled or Swap); only composed
/// blocks are Unitary2 or Diagonal.
///
/// The blocks of a region are ordered along qubit dataflow, not source
/// order, so the order in which they first touch a qubit can differ from
/// the order in which the source first used it. newQubits restores the
/// latter: it lists the static addresses whose source first use comes no
/// later than this block's last one and that no earlier block of the
/// region listed, in source first-use order. A host that allocates qubits
/// on the fly (paper §IV.A) resolves them, in order, before applying the
/// block, and so assigns the simulator indices the unfused gate sequence
/// would have.
struct FusedBlock {
  sim::SweepGate::Kind kind = sim::SweepGate::Kind::Unitary1;
  std::uint32_t sourceGates = 0;
  std::vector<std::uint64_t> qubits;
  std::vector<std::complex<double>> matrix;
  std::vector<std::uint64_t> newQubits;
};

/// Blocks a host applies per kernel sweep: a runtime sizes its per-sweep
/// scratch space by it and hands a longer region to the kernels in pieces.
inline constexpr std::size_t kMaxSweepBlocks = 16;

/// Optional fast path a runtime can register via
/// ExternalRegistry::bindFusedHost. An engine hands it the blocks of one
/// fused region, in order. Must be observably equivalent to executing the
/// region's source gate calls through the runtime's own extern handlers
/// (same state evolution, same qubit allocation order, same statistics
/// attribution for block.sourceGates gates per block).
class FusedGateHost {
public:
  virtual ~FusedGateHost() = default;
  virtual void applyFusedSweep(std::span<const FusedBlock> blocks) = 0;

  /// One block is a region of length one. No engine calls this; it stays
  /// virtual only because bench/pipeline/replay.cpp overrides it and that
  /// file must keep compiling unchanged.
  virtual void applyFusedBlock(const FusedBlock& block) {
    applyFusedSweep({&block, 1});
  }
};

} // namespace qirkit::interp
