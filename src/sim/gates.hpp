/// \file gates.hpp
/// Gate matrices of the QIR quantum instruction set (qis), and SweepGate,
/// the descriptor a precomposed gate takes to the statevector kernels.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <span>

namespace qirkit::sim {

using Complex = std::complex<double>;

/// A dense 2x2 unitary.
struct GateMatrix2 {
  Complex m00, m01, m10, m11;
};

[[nodiscard]] GateMatrix2 gateH() noexcept;
[[nodiscard]] GateMatrix2 gateX() noexcept;
[[nodiscard]] GateMatrix2 gateY() noexcept;
[[nodiscard]] GateMatrix2 gateZ() noexcept;
[[nodiscard]] GateMatrix2 gateS() noexcept;
[[nodiscard]] GateMatrix2 gateSdg() noexcept;
[[nodiscard]] GateMatrix2 gateT() noexcept;
[[nodiscard]] GateMatrix2 gateTdg() noexcept;
[[nodiscard]] GateMatrix2 gateRX(double theta) noexcept;
[[nodiscard]] GateMatrix2 gateRY(double theta) noexcept;
[[nodiscard]] GateMatrix2 gateRZ(double theta) noexcept;
/// General single-qubit rotation U3(theta, phi, lambda) (OpenQASM `U`).
[[nodiscard]] GateMatrix2 gateU3(double theta, double phi, double lambda) noexcept;

/// Matrix product a*b (apply b first).
[[nodiscard]] GateMatrix2 matmul(const GateMatrix2& a, const GateMatrix2& b) noexcept;

/// Adjoint (conjugate transpose).
[[nodiscard]] GateMatrix2 adjoint(const GateMatrix2& g) noexcept;

/// Frobenius distance ||a-b|| up to global phase — used by tests.
[[nodiscard]] double distanceUpToPhase(const GateMatrix2& a, const GateMatrix2& b) noexcept;

/// A dense 4x4 unitary over a two-qubit window. Row/column index bit 0 is
/// window slot 0, bit 1 is window slot 1 — the convention shared by the
/// gate-fusion pass and StateVector::apply2.
struct GateMatrix4 {
  Complex m[4][4];
};

[[nodiscard]] GateMatrix4 identity4() noexcept;

/// Matrix product a*b (apply b first).
[[nodiscard]] GateMatrix4 matmul(const GateMatrix4& a, const GateMatrix4& b) noexcept;

/// Lift a single-qubit gate onto window slot \p slot (0 or 1): identity on
/// the other slot.
[[nodiscard]] GateMatrix4 embed2(const GateMatrix2& g, unsigned slot) noexcept;

/// Controlled single-qubit gate within the window: \p g acts on slot
/// \p target when slot \p control is 1 (CNOT = controlled X, CZ = Z).
[[nodiscard]] GateMatrix4 controlled4(const GateMatrix2& g, unsigned control,
                                      unsigned target) noexcept;

/// The two-qubit SWAP (slot-symmetric).
[[nodiscard]] GateMatrix4 swap4() noexcept;

/// Frobenius distance ||a-b|| up to global phase — used by tests.
[[nodiscard]] double distanceUpToPhase(const GateMatrix4& a, const GateMatrix4& b) noexcept;

/// One gate on its way to a statevector kernel (StateVector::
/// applyFusedSweep), with its qubits resolved to simulator indices and its
/// matrix a row-major table, never copied:
///
///   kind        qubits                        matrix
///   Unitary1    target                        2x2
///   Unitary2    q0, q1 (index bit j = q_j)    4x4, the GateMatrix4 layout
///   Diagonal    q_0 .. q_k-1, k <= kMaxQubits 2^k phases, index bit j = q_j
///   Controlled  control, target               2x2 applied to the target
///   Swap        a, b                          empty
///
/// The fusion pass emits its interp::FusedBlock tables in this layout, so
/// a host points matrix at the block it was handed; the table must outlive
/// the kernel call.
struct SweepGate {
  enum class Kind : std::uint8_t { Unitary1, Unitary2, Diagonal, Controlled, Swap };

  /// Upper bound on numQubits (Diagonal; the other kinds use 1 or 2).
  static constexpr unsigned kMaxQubits = 6;

  Kind kind = Kind::Unitary1;
  std::uint8_t numQubits = 0;
  std::array<unsigned, kMaxQubits> qubits{};
  std::span<const Complex> matrix{};
};

} // namespace qirkit::sim
