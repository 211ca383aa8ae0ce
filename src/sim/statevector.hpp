/// \file statevector.hpp
/// A dense statevector simulator — the classical simulation substrate the
/// paper's Ex. 5 integrates behind the QIR runtime (its Catalyst/Lightning
/// analog). Gate kernels optionally run multi-threaded over amplitude
/// chunks.
///
/// Qubits are indexed 0..n-1; basis state b has qubit q in state (b>>q)&1.
/// The simulator supports growing the register on the fly, which is how
/// the runtime supports *static* qubit addresses whose count is not
/// declared up front (paper §IV.A: "allocate qubits on the fly when it
/// encounters a new qubit address that is not yet part of the simulated
/// quantum state").
///
/// Kernel layout (DESIGN 7g): every gate kernel decomposes its pair-index
/// range into contiguous runs bounded by the lowest target-bit boundary,
/// so the inner loops stream over adjacent amplitudes (vectorizable, one
/// cache-line fetch per four f64 amplitudes) instead of striding. When the
/// lowest target qubit is 0, 1 or 2, apply2, applyControlled1 and
/// applyDiagonal take whole 8-index tiles instead of those short runs.
/// Runs of fused blocks can additionally be applied chunk-at-a-time via
/// applyFusedSweep, which walks each cache-sized chunk once for the whole
/// run instead of once per block.
#pragma once

#include "sim/gates.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

#include <complex>
#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

namespace qirkit {
class CancelToken;
} // namespace qirkit

namespace qirkit::sim {

/// Amplitude storage width. F64 (the default) is the reference precision;
/// F32 halves memory traffic for throughput-bound sampling workloads at
/// ~1e-7 relative error per gate (accumulating with circuit depth — the
/// executor therefore rejects it for feedback-dependent programs unless
/// forced). Measurement probabilities, norms, and sampling CDFs are always
/// accumulated in double regardless of the storage width.
enum class Precision : std::uint8_t { F64, F32 };

/// Telemetry hook for the shot executor: count one f32 shot batch against
/// sim.kernel.f32_batches.
void noteF32Batch() noexcept;

/// One gate of a fused sweep (applyFusedSweep), with qubit operands
/// already resolved to simulator indices. Matrices and phase tables stay
/// in double precision; kernels convert once per chunk. The diag/
/// diagQubits spans must outlive the applyFusedSweep call.
///  * Unitary1: m2 on q0 (apply1).
///  * Unitary2: m4 on (q0, q1) (apply2).
///  * Diagonal: diag over diagQubits (applyDiagonal).
///  * Controlled: m2 on q1 where q0 is set (applyControlled1).
///  * Swap: q0 and q1 (applySwap).
struct SweepGate {
  enum class Kind : std::uint8_t { Unitary1, Unitary2, Diagonal, Controlled, Swap };

  Kind kind = Kind::Unitary1;
  unsigned q0 = 0;
  unsigned q1 = 0; // Unitary2, Controlled, Swap
  GateMatrix2 m2{};
  GateMatrix4 m4{};
  std::span<const Complex> diag{};
  std::span<const unsigned> diagQubits{};
};

class StateVector {
public:
  /// Hard width cap: 2^30 amplitudes (16 GiB) is the largest state a
  /// single dense register may occupy.
  static constexpr unsigned kMaxQubits = 30;

  /// Predicted memory footprint of an n-qubit dense state, the quantity
  /// the service's admission guard budgets before letting a request run.
  /// \p numQubits is clamped to kMaxQubits (anything wider is rejected
  /// outright before the prediction matters).
  [[nodiscard]] static constexpr std::uint64_t
  predictedBytes(unsigned numQubits,
                 Precision precision = Precision::F64) noexcept {
    const unsigned n = numQubits > kMaxQubits ? kMaxQubits : numQubits;
    const std::uint64_t perAmp = precision == Precision::F32
                                     ? sizeof(std::complex<float>)
                                     : sizeof(Complex);
    return (std::uint64_t{1} << n) * perAmp;
  }

  /// Create an n-qubit register in |0...0>. If \p pool is non-null, gate
  /// kernels are parallelized across its workers once the state is large
  /// enough to amortize the fork/join.
  explicit StateVector(unsigned numQubits = 0, qirkit::ThreadPool* pool = nullptr,
                       Precision precision = Precision::F64);

  [[nodiscard]] unsigned numQubits() const noexcept { return numQubits_; }
  [[nodiscard]] std::uint64_t dimension() const noexcept {
    return std::uint64_t{1} << numQubits_;
  }
  [[nodiscard]] Precision precision() const noexcept { return precision_; }

  /// Reset to |0...0> keeping the current width.
  void resetAll();

  /// Append a fresh qubit in |0>; returns its index.
  unsigned addQubit();

  /// Collapse qubit \p q (measuring it), force it to |0>, and remove it
  /// from the register. Indices above \p q shift down by one.
  void removeQubit(unsigned q, SplitMix64& rng);

  // -- gates -------------------------------------------------------------
  void apply1(const GateMatrix2& gate, unsigned target);
  /// Generic two-qubit gate: one sweep over the dim/4 index pairs of the
  /// (q0, q1) window. Local basis index bit 0 is q0, bit 1 is q1 (the
  /// GateMatrix4 convention) — the target kernel of the fusion pass's
  /// two-qubit-window rule.
  void apply2(const GateMatrix4& gate, unsigned q0, unsigned q1);
  /// Diagonal gate over \p qubits: one multiply per amplitude, no pair
  /// indexing. diag holds the 2^k phases, indexed by bit j = qubits[j] —
  /// the target kernel of the fusion pass's diagonal-run rule.
  void applyDiagonal(std::span<const Complex> diag, std::span<const unsigned> qubits);
  /// Controlled single-qubit gate (CNOT = controlled X, CZ = controlled Z).
  void applyControlled1(const GateMatrix2& gate, unsigned control, unsigned target);
  /// Doubly-controlled X (Toffoli).
  void applyCCX(unsigned control1, unsigned control2, unsigned target);
  void applySwap(unsigned a, unsigned b);

  /// Apply a run of fused blocks, in order — the one kernel entry of the
  /// fused path, for runs of any length. A run of several gates walks the
  /// state one cache-sized chunk at a time: when every touched qubit lies
  /// below the chunk width, each gate's amplitude pairs are chunk-local,
  /// so applying all gates (in order) to chunk 0, then all to chunk 1, ...
  /// is exactly the sequential composition — but each chunk is loaded
  /// from memory once for the whole run instead of once per gate. Gates
  /// whose support exceeds the default chunk width widen the chunk
  /// (correctness never depends on the split). A single gate, or a run
  /// whose chunk spans the whole register, takes one kernel pass per gate
  /// instead. Both ways give bit-identical amplitudes.
  void applyFusedSweep(std::span<const SweepGate> gates);

  // -- measurement ---------------------------------------------------------
  /// Probability that measuring \p q yields 1.
  [[nodiscard]] double probabilityOfOne(unsigned q) const;
  /// Projective measurement of \p q; collapses and renormalizes.
  bool measure(unsigned q, SplitMix64& rng);
  /// Measure-and-correct to |0>.
  void resetQubit(unsigned q, SplitMix64& rng);
  /// Sample a full basis state without collapsing (for repeated shots).
  [[nodiscard]] std::uint64_t sample(SplitMix64& rng) const;
  /// Counts of \p shots independent samples, keyed by basis state. Routed
  /// through the sampleShots CDF path: one O(2^n) prefix sum for the whole
  /// batch instead of an O(2^n) linear scan per shot, and the two samplers
  /// cannot diverge (identical draws from \p rng, identical search).
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> sampleCounts(std::uint64_t shots,
                                                                    SplitMix64& rng) const;
  /// Batched sampling kernel for the shot executor's terminal-measurement
  /// fast path: builds the cumulative probability distribution once
  /// (O(2^n)), then draws \p shots basis states by binary search
  /// (O(shots log 2^n) = O(shots · n)), parallelized over the thread pool
  /// when the batch is large. All uniforms are pre-drawn sequentially from
  /// \p rng, so the result is independent of pool size and identical to a
  /// sequential run. The CDF is accumulated in double for both precisions.
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> sampleShots(std::uint64_t shots,
                                                                   SplitMix64& rng) const;

  // -- inspection --------------------------------------------------------
  /// Amplitude of \p basis, widened to double for f32 states.
  [[nodiscard]] Complex amplitude(std::uint64_t basis) const {
    if (precision_ == Precision::F32) {
      const std::complex<float> a = amplitudesF_[basis];
      return Complex{a.real(), a.imag()};
    }
    return amplitudes_[basis];
  }
  /// Raw f64 storage; only meaningful for Precision::F64 states (empty
  /// span otherwise).
  [[nodiscard]] std::span<const Complex> amplitudes() const noexcept {
    return amplitudes_;
  }
  /// Squared 2-norm (1 for a valid state, up to rounding).
  [[nodiscard]] double normSquared() const;
  /// Expectation value of Pauli Z on \p q.
  [[nodiscard]] double expectationZ(unsigned q) const {
    return 1.0 - 2.0 * probabilityOfOne(q);
  }
  /// Fidelity |<this|other>|^2 between equal-width states (any precision
  /// mix; the overlap accumulates in double).
  [[nodiscard]] double fidelity(const StateVector& other) const;

  /// Number of gate applications performed (for benchmarks).
  [[nodiscard]] std::uint64_t gateCount() const noexcept { return gateCount_; }

  /// Install (or clear, with nullptr) a cooperative cancellation token.
  /// Kernel sweeps probe it at entry and at chunk boundaries; an expired
  /// token makes the next sweep throw Error(ErrorCode::Deadline) from the
  /// calling thread, leaving the state unusable for the aborted shot. The
  /// token must outlive the simulator or be cleared first.
  void setCancelToken(const qirkit::CancelToken* token) noexcept {
    cancel_ = token;
  }

private:
  void forRange(std::uint64_t n,
                const std::function<void(std::uint64_t, std::uint64_t)>& body) const;
  /// Deterministic parallel sum reduction: [0, n) is split into fixed
  /// 4096-element blocks whose partial sums (computed by \p partial,
  /// possibly in parallel) are combined sequentially in block order. The
  /// summation tree depends only on n — never on the pool — so the result
  /// is bit-identical across pool sizes and sequential runs.
  double blockSum(std::uint64_t n,
                  const std::function<double(std::uint64_t, std::uint64_t)>& partial) const;
  void allocate(std::uint64_t dim);

  unsigned numQubits_;
  Precision precision_;
  std::vector<Complex> amplitudes_;               // F64 storage
  std::vector<std::complex<float>> amplitudesF_;  // F32 storage
  qirkit::ThreadPool* pool_;
  const qirkit::CancelToken* cancel_ = nullptr;
  std::uint64_t gateCount_ = 0;
};

} // namespace qirkit::sim
