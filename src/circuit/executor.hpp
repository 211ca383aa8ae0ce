/// \file executor.hpp
/// Direct execution of a Circuit on the statevector simulator — the
/// baseline the QIR runtime route is benchmarked against (E4), and the
/// semantic oracle for round-trip equivalence tests — and the one place a
/// gate kind meets a simulator: the kernel calls below serve these
/// executors, the QIR runtimes and the gate-fusion pass alike.
#pragma once

#include "circuit/circuit.hpp"
#include "sim/statevector.hpp"
#include "support/rng.hpp"

#include <map>
#include <span>
#include <string>

namespace qirkit::sim {
class StabilizerSimulator;
} // namespace qirkit::sim

namespace qirkit::circuit {

/// The 2x2 unitary of a one-qubit gate kind; \p angles holds its
/// opKindParams(kind) angles.
[[nodiscard]] sim::GateMatrix2 gateMatrix(OpKind kind, std::span<const double> angles) noexcept;

/// Apply the unitary \p kind to \p qubits (opKindArity(kind) of them)
/// with that gate's own kernel: one-qubit gates through apply1 with
/// gateMatrix, CX/CZ through applyControlled1, Swap and CCX through their
/// dedicated kernels.
void applyGate(sim::StateVector& state, OpKind kind, std::span<const std::uint32_t> qubits,
               std::span<const double> angles);

/// Apply the Clifford unitary \p kind (isClifford) to \p qubits of the
/// tableau. Callers reject non-Clifford kinds first, each with its own
/// error.
void applyGate(sim::StabilizerSimulator& state, OpKind kind,
               std::span<const std::uint32_t> qubits);

/// Result of one execution: final classical bits and final quantum state.
struct ExecutionResult {
  std::vector<bool> bits;
  sim::StateVector state;
};

/// Execute \p circuit once with measurement randomness seeded by \p seed.
[[nodiscard]] ExecutionResult execute(const Circuit& circuit, std::uint64_t seed = 1,
                                      qirkit::ThreadPool* pool = nullptr);

/// Execute \p circuit \p shots times; returns counts keyed by the bit
/// string (bit numBits-1 leftmost, OpenQASM convention).
[[nodiscard]] std::map<std::string, std::uint64_t>
sampleCounts(const Circuit& circuit, std::uint64_t shots, std::uint64_t seed = 1);

/// Format classical bits as a string, bit numBits-1 leftmost.
[[nodiscard]] std::string bitsToString(const std::vector<bool>& bits);

/// True if every operation of \p circuit is Clifford (isClifford).
[[nodiscard]] bool isCliffordCircuit(const Circuit& circuit);

/// Execute a Clifford circuit on the stabilizer simulator (polynomial in
/// qubit count — works far beyond the statevector limit). Conditions are
/// honored like in execute(). Throws SemanticError on non-Clifford gates.
[[nodiscard]] std::vector<bool> executeClifford(const Circuit& circuit,
                                                std::uint64_t seed = 1);

} // namespace qirkit::circuit
