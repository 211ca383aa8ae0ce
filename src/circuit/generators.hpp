/// \file generators.hpp
/// Workload generators for tests, examples, and the benchmark harness:
/// the circuit families the paper's motivating applications imply
/// (GHZ/Bell state preparation, QFT as an algorithm kernel, random
/// circuits as stress tests, hardware-efficient ansätze for the
/// variational workloads of §II.B).
#pragma once

#include "circuit/circuit.hpp"

#include <cstdint>

namespace qirkit::circuit {

/// Bell pair: H(0); CX(0,1); optional measurement — Fig. 1's circuit.
[[nodiscard]] Circuit bellPair(bool measured = true);

/// GHZ state on n qubits: H(0); CX(0,1); ...; CX(n-2,n-1).
[[nodiscard]] Circuit ghz(unsigned n, bool measured = true);

/// Quantum Fourier transform on n qubits (with final qubit-reversal swaps).
[[nodiscard]] Circuit qft(unsigned n, bool measured = false);

/// Random circuit: \p layers layers of random 1q rotations + random CX.
[[nodiscard]] Circuit randomCircuit(unsigned n, unsigned layers, std::uint64_t seed,
                                    bool measured = true);

/// Hardware-efficient variational ansatz: layers of RY/RZ + CX ladder,
/// parameters drawn deterministically from \p seed.
[[nodiscard]] Circuit hardwareEfficientAnsatz(unsigned n, unsigned layers,
                                              std::uint64_t seed);

/// Random adaptive circuit, the differential tests' feedback workload: 3-6
/// qubits of random rotations and CX around 1-4 mid-circuit measurements,
/// with gates conditioned on the bits measured so far (Condition) and
/// resets between them, then a measurement of every qubit. Bits
/// 0..k-1 hold the k mid-circuit outcomes, the rest the final readout.
[[nodiscard]] Circuit randomAdaptiveCircuit(std::uint64_t seed);

/// 3-qubit bit-flip repetition code: encode |psi> (prepared by RY(theta)
/// on qubit 0), inject an X error on \p errorQubit (or none if >= 3),
/// extract the syndrome into two ancillas, and apply classically
/// conditioned corrections — the §IV.B error-correction feedback workload.
/// Uses 5 qubits and 5 bits (2 syndrome + 3 data readout).
[[nodiscard]] Circuit repetitionCodeCycle(double theta, unsigned errorQubit);

} // namespace qirkit::circuit
