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
/// Storage (DESIGN 7g): each state keeps its amplitudes in one buffer whose
/// capacity only grows. A caller that knows the width (the executor reads
/// §IV.A's required_num_qubits attribute) reserves it up front, so growth
/// zeroes the new upper half in place instead of moving the amplitudes,
/// and clear() returns to zero qubits without giving the buffer back.
/// Buffers of 2 MiB or more are advised for transparent huge pages.
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
#include <cstddef>
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
/// forced). Measurement probabilities, norms, and the sampler's running sums
/// are always accumulated in double regardless of the storage width.
enum class Precision : std::uint8_t { F64, F32 };

/// Telemetry hook for the shot executor: count one f32 shot batch against
/// sim.kernel.f32_batches.
void noteF32Batch() noexcept;

/// The outcome one uniform draw from \p rng selects for a qubit that reads
/// 1 with probability \p p1: StateVector::measure's draw, and the one each
/// shot makes on the shot executor's branching route.
[[nodiscard]] inline bool drawOutcome(double p1, SplitMix64& rng) noexcept {
  return rng.uniform() < p1;
}

/// Allocation of amplitude buffers: a buffer of 2 MiB or more is aligned
/// to 2 MiB and advised MADV_HUGEPAGE where the platform has it (failure
/// is ignored), so transparent huge pages can fault a state in 2 MiB
/// pieces rather than 4 KiB ones. Smaller buffers come from plain
/// operator new.
[[nodiscard]] void* allocateAmplitudes(std::size_t bytes);
void deallocateAmplitudes(void* buffer, std::size_t bytes) noexcept;

/// The std::vector allocator of StateVector's amplitudes.
template <typename T>
struct AmplitudeAllocator {
  using value_type = T;

  AmplitudeAllocator() = default;
  template <typename U>
  AmplitudeAllocator(const AmplitudeAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(allocateAmplitudes(n * sizeof(T)));
  }
  void deallocate(T* buffer, std::size_t n) noexcept {
    deallocateAmplitudes(buffer, n * sizeof(T));
  }
  template <typename U>
  bool operator==(const AmplitudeAllocator<U>&) const noexcept {
    return true;
  }
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

  /// Set the capacity to a \p numQubits-qubit state, so growing to that
  /// width moves no amplitude. Returns false, reserving nothing, when the
  /// width is above kMaxQubits or the buffer cannot be allocated.
  bool reserveQubits(unsigned numQubits) noexcept;

  /// Append a fresh qubit in |0>; returns its index. Within the capacity
  /// the register grows in place, zeroing only the new upper half; past it
  /// the buffer doubles and the amplitudes move (counted as
  /// sim.statevector.buffer_moves).
  unsigned addQubit();

  /// Return to what a freshly constructed zero-qubit simulator holds (one
  /// amplitude of 1, a zero gate count), keeping the buffer's capacity,
  /// the pool and the cancellation token.
  void clear();

  // -- gates -------------------------------------------------------------
  void apply1(const GateMatrix2& gate, unsigned target);
  /// Generic two-qubit gate: one sweep over the dim/4 index pairs of the
  /// (q0, q1) window. Local basis index bit 0 is q0, bit 1 is q1 (the
  /// GateMatrix4 convention) — the target kernel of the fusion pass's
  /// two-qubit-window rule.
  void apply2(const GateMatrix4& gate, unsigned q0, unsigned q1);
  /// Diagonal gate over at most SweepGate::kMaxQubits \p qubits: one
  /// multiply per amplitude, no pair indexing. diag holds the 2^k phases,
  /// indexed by bit j = qubits[j] — the target kernel of the fusion pass's
  /// diagonal-run rule.
  void applyDiagonal(std::span<const Complex> diag, std::span<const unsigned> qubits);
  /// Controlled single-qubit gate (CNOT = controlled X, CZ = controlled Z).
  void applyControlled1(const GateMatrix2& gate, unsigned control, unsigned target);
  /// Doubly-controlled X (Toffoli).
  void applyCCX(unsigned control1, unsigned control2, unsigned target);
  void applySwap(unsigned a, unsigned b);

  /// Apply a run of gates, in order — the one kernel entry of the fused
  /// path, for runs of any length. A run of several gates walks the
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
  /// Projective measurement of \p q: probabilityOfOne, one drawOutcome
  /// from \p rng, then collapse.
  bool measure(unsigned q, SplitMix64& rng);
  /// Project \p q onto \p outcome and renormalize, given \p p1 =
  /// probabilityOfOne(q). measure's second half: a caller that chose the
  /// outcome itself gets the amplitudes measure would leave.
  void collapse(unsigned q, bool outcome, double p1);
  /// Measure-and-correct to |0>.
  void resetQubit(unsigned q, SplitMix64& rng);
  /// Counts of \p shots basis states drawn without collapsing, keyed by
  /// basis state: the shot executor's terminal-measurement sampler, in two
  /// streaming passes and O(2^n + shots log shots) time with no 2^n array
  /// (DESIGN 7b). Pass 1 sums |a_i|^2 in index order, in double for both
  /// precisions. Each shot's uniform from \p rng is scaled by that total,
  /// in shot order; the draws are then sorted and handed to
  /// countSortedDraws' walk. Each draw lands on the basis state a binary
  /// search of the cumulative distribution would pick, whatever the pool.
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> sampleShots(std::uint64_t shots,
                                                                   SplitMix64& rng) const;
  /// sampleShots' second pass on chosen draws: for each of the ascending
  /// \p sortedDraws, count the first basis state whose running sum of
  /// |a_i|^2 (in index order) exceeds it, where upper_bound on the
  /// cumulative distribution lands; a draw at or past the total counts the
  /// last basis state. The running sums are recomputed, never stored:
  /// pass 1 keeps only the sum at every block end, and the walk rescans
  /// the blocks that hold a draw, on the pool when there are several.
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t>
  countSortedDraws(std::span<const double> sortedDraws) const;

  // -- inspection --------------------------------------------------------
  /// Amplitude of \p basis, widened to double for f32 states.
  [[nodiscard]] Complex amplitude(std::uint64_t basis) const {
    return withAmplitudes(*this, [basis](const auto& amps) {
      return Complex{amps[basis].real(), amps[basis].imag()};
    });
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
  /// forRange's defaults: pieces of 2^12 indices, and a pool only from
  /// 2^14 indices on, where the fork/join pays for itself.
  static constexpr std::uint64_t kRangeGrain = std::uint64_t{1} << 12;
  static constexpr std::uint64_t kRangeParallelMin = std::uint64_t{1} << 14;

  /// Call \p f with the amplitude buffer of the state's precision, the f64
  /// or the f32 one: the one place that picks between them.
  template <typename Self, typename F>
  static auto withAmplitudes(Self& self, F&& f) -> decltype(f(self.amplitudes_)) {
    if (self.precision_ == Precision::F32) {
      return f(self.amplitudesF_);
    }
    return f(self.amplitudes_);
  }
  /// |0...0> over the current width, in the buffer already held.
  void setZeroState();

  /// Run body(begin, end) over [0, n): on the pool in pieces of \p grain
  /// when there is one and n is at least \p minParallel, else in one call.
  /// The cancellation checkpoint runs first, on the calling thread (pool
  /// tasks must not throw); an expired token makes the pool skip the
  /// pieces not yet started.
  void forRange(std::uint64_t n,
                const std::function<void(std::uint64_t, std::uint64_t)>& body,
                std::uint64_t grain = kRangeGrain,
                std::uint64_t minParallel = kRangeParallelMin) const;
  /// The prologue of every kernel entry: count \p gates gate applications
  /// (gateCount, telemetry, SIMD lanes), then forRange(n) with
  /// kernel(amps, begin, end) on the amplitudes of the state's precision.
  template <typename Kernel>
  void runKernel(std::uint64_t gates, std::uint64_t n, const Kernel& kernel,
                 std::uint64_t grain = kRangeGrain,
                 std::uint64_t minParallel = kRangeParallelMin);
  /// One gate, one kernel pass over the whole state.
  void apply(const SweepGate& gate);
  /// Deterministic parallel sum reduction: [0, n) is split into fixed
  /// 4096-element blocks whose partial sums (computed by \p partial,
  /// possibly in parallel) are combined sequentially in block order. The
  /// summation tree depends only on n — never on the pool — so the result
  /// is bit-identical across pool sizes and sequential runs.
  double blockSum(std::uint64_t n,
                  const std::function<double(std::uint64_t, std::uint64_t)>& partial) const;
  /// Pass 1 of the sampler: the running sum of |a_i|^2 at every block end.
  [[nodiscard]] std::vector<double> blockEndSums() const;
  /// Pass 2 of the sampler over pass 1's \p blockEnds.
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t>
  countSortedDraws(std::span<const double> sortedDraws,
                   std::span<const double> blockEnds) const;

  unsigned numQubits_;
  Precision precision_;
  std::vector<Complex, AmplitudeAllocator<Complex>> amplitudes_; // F64 storage
  std::vector<std::complex<float>, AmplitudeAllocator<std::complex<float>>>
      amplitudesF_; // F32 storage
  qirkit::ThreadPool* pool_;
  const qirkit::CancelToken* cancel_ = nullptr;
  std::uint64_t gateCount_ = 0;
};

} // namespace qirkit::sim
