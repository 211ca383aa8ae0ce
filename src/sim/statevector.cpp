#include "sim/statevector.hpp"

#include "support/cancel.hpp"
#include "support/source_location.hpp"
#include "support/telemetry/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace qirkit::sim {

namespace {
telemetry::Counter g_svGates{"sim.statevector.gate_applications"};
telemetry::Counter g_svMeasurements{"sim.statevector.measurements"};
telemetry::MaxGauge g_svPeakBytes{"sim.statevector.peak_bytes"};
/// Fused runs that took the chunk-major path (one pass over each
/// cache-sized chunk for the whole gate run).
telemetry::Counter g_svBlockedSweeps{"sim.kernel.blocked_sweeps"};
/// Accumulated SIMD lane width of the vector-friendly kernel sweeps: one
/// 256-bit vector holds 4 f64 or 8 f32 complex components, so each sweep
/// adds 4 or 8. Stays 0 in scalar (QIRKIT_SIMD=OFF) builds.
telemetry::Counter g_svSimdLanes{"sim.kernel.simd_lanes"};
/// Shot batches executed against an f32 state (counted by the executor).
telemetry::Counter g_svF32Batches{"sim.kernel.f32_batches"};

constexpr unsigned kMaxQubits = StateVector::kMaxQubits;

/// Default chunk width of the fused-sweep path: 2^12 amplitudes is 64 KiB
/// of f64 (32 KiB of f32) state — small enough to stay cache-resident
/// across the whole gate run, large enough that the per-chunk dispatch
/// overhead vanishes.
constexpr unsigned kSweepChunkBits = 12;

#if defined(QIRKIT_SIMD)
inline void noteKernelSweeps(Precision precision, std::uint64_t sweeps) noexcept {
  g_svSimdLanes.add((precision == Precision::F32 ? 8 : 4) * sweeps);
}
#else
inline void noteKernelSweeps(Precision, std::uint64_t) noexcept {}
#endif

/// Insert a 0 bit at position \p pos of \p i (spreading higher bits up).
inline std::uint64_t insertZeroBit(std::uint64_t i, unsigned pos) noexcept {
  const std::uint64_t low = i & ((std::uint64_t{1} << pos) - 1);
  const std::uint64_t high = (i >> pos) << (pos + 1);
  return high | low;
}

template <typename Real>
inline std::complex<Real> toC(const Complex& z) noexcept {
  return {static_cast<Real>(z.real()), static_cast<Real>(z.imag())};
}

/// a*b by the textbook formula, without the nan/inf recovery branch the
/// library operator* carries (a call to __muldc3 on a nan product, which
/// blocks vectorization of every kernel loop). Gate matrices and state
/// amplitudes are finite, so the recovery path is dead here anyway.
template <typename Real>
inline std::complex<Real> cmul(const std::complex<Real>& a,
                               const std::complex<Real>& b) noexcept {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

// -- cache-blocked range kernels -----------------------------------------
//
// Each kernel covers a [begin, end) slice of the *compressed* index space
// (pair-subspace indices, as produced by insertZeroBit enumeration) and
// decomposes it into contiguous runs: consecutive compressed indices that
// differ only below the lowest target bit map to adjacent amplitudes, so
// the inner loops walk 2/4 contiguous streams — unit-stride loads the
// compiler can vectorize, one cache-line fetch per 4 f64 amplitudes —
// instead of striding pair by pair. Correctness never depends on where
// [begin, end) is cut: every compressed index is visited exactly once.

template <typename Real>
void apply1Range(std::complex<Real>* const amps, const GateMatrix2& gate,
                 unsigned target, std::uint64_t begin,
                 std::uint64_t end) noexcept {
  using C = std::complex<Real>;
  const C m00 = toC<Real>(gate.m00), m01 = toC<Real>(gate.m01),
          m10 = toC<Real>(gate.m10), m11 = toC<Real>(gate.m11);
  if (target == 0) {
    // Adjacent pairs (2i, 2i+1): a single contiguous stream.
    for (std::uint64_t i = begin; i < end; ++i) {
      const C a0 = amps[2 * i];
      const C a1 = amps[2 * i + 1];
      amps[2 * i] = cmul(m00, a0) + cmul(m01, a1);
      amps[2 * i + 1] = cmul(m10, a0) + cmul(m11, a1);
    }
    return;
  }
  const std::uint64_t bit = std::uint64_t{1} << target;
  std::uint64_t i = begin;
  while (i < end) {
    const std::uint64_t off = i & (bit - 1);
    const std::uint64_t run = std::min(end - i, bit - off);
    C* const p0 = amps + (((i >> target) << (target + 1)) | off);
    C* const p1 = p0 + bit;
    for (std::uint64_t k = 0; k < run; ++k) {
      const C a0 = p0[k];
      const C a1 = p1[k];
      p0[k] = cmul(m00, a0) + cmul(m01, a1);
      p1[k] = cmul(m10, a0) + cmul(m11, a1);
    }
    i += run;
  }
}

// -- tiles for a lowest qubit below kTileBits -------------------------------
//
// A lowest target bit of 0, 1 or 2 cuts the runs to 1, 2 or 4 amplitudes,
// so the run bookkeeping (index insertion, pointer setup, a loop of
// unknown length) costs more than the arithmetic. These kernels then take
// whole tiles of kTile consecutive compressed indices instead: a tile's
// runs sit at fixed offsets from one base, have a compile-time length, and
// fill whole cache lines. Each amplitude goes through the same run body
// either way, so in f64 both give identical amplitudes.

constexpr unsigned kTileBits = 3;
constexpr std::uint64_t kTile = std::uint64_t{1} << kTileBits;

/// True when [begin, end) is whole tiles and the lowest qubit \p lo is
/// below kTileBits, i.e. when the tile paths apply.
inline bool tiled(unsigned lo, std::uint64_t begin, std::uint64_t end) noexcept {
  return lo < kTileBits && ((begin | end) & (kTile - 1)) == 0;
}

/// forEachRun for a lowest qubit Lo below kTileBits: the run length 2^Lo
/// is a compile-time constant and the index insertion happens once per
/// tile of kTile compressed indices, not once per run.
template <unsigned Lo, typename Run>
inline void forEachTileRun(unsigned hi, std::uint64_t begin, std::uint64_t end,
                           Run&& run) {
  constexpr std::uint64_t kRun = std::uint64_t{1} << Lo;
  constexpr std::uint64_t kRuns = kTile / kRun;
  std::uint64_t off[kRuns];
  for (std::uint64_t r = 0; r < kRuns; ++r) {
    off[r] = insertZeroBit(insertZeroBit(r * kRun, Lo), hi);
  }
  for (std::uint64_t i = begin; i < end; i += kTile) {
    const std::uint64_t base = insertZeroBit(insertZeroBit(i, Lo), hi);
    for (std::uint64_t r = 0; r < kRuns; ++r) {
      run(base + off[r], kRun);
    }
  }
}

/// Calls run(offset, length) for every run of consecutive compressed
/// indices in [begin, end) whose groups are adjacent amplitudes: offset is
/// the run's first amplitude index with zero bits inserted at \p lo and
/// \p hi > lo. A lowest qubit below \p tileBelow (at most kTileBits)
/// goes through forEachTileRun.
template <typename Run>
inline void forEachRun(unsigned lo, unsigned hi, std::uint64_t begin,
                       std::uint64_t end, Run&& run, unsigned tileBelow = kTileBits) {
  if (lo < tileBelow && tiled(lo, begin, end)) {
    switch (lo) {
    case 0: forEachTileRun<0>(hi, begin, end, run); return;
    case 1: forEachTileRun<1>(hi, begin, end, run); return;
    default: forEachTileRun<2>(hi, begin, end, run); return;
    }
  }
  const std::uint64_t blo = std::uint64_t{1} << lo;
  std::uint64_t i = begin;
  while (i < end) {
    const std::uint64_t off = i & (blo - 1);
    const std::uint64_t len = std::min(end - i, blo - off);
    run(insertZeroBit(insertZeroBit(i, lo), hi), len);
    i += len;
  }
}

template <typename Real>
void apply2Range(std::complex<Real>* const amps, const GateMatrix4& gate,
                 unsigned q0, unsigned q1, std::uint64_t begin,
                 std::uint64_t end) noexcept {
  using C = std::complex<Real>;
  C m[4][4];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      m[r][c] = toC<Real>(gate.m[r][c]);
    }
  }
  const std::uint64_t b0 = std::uint64_t{1} << q0;
  const std::uint64_t b1 = std::uint64_t{1} << q1;
  const unsigned lo = q0 < q1 ? q0 : q1;
  const unsigned hi = q0 < q1 ? q1 : q0;
  forEachRun(lo, hi, begin, end, [&](std::uint64_t i00, std::uint64_t run) {
    C* const p00 = amps + i00;
    C* const p01 = amps + (i00 | b0);
    C* const p10 = amps + (i00 | b1);
    C* const p11 = amps + (i00 | b0 | b1);
    for (std::uint64_t k = 0; k < run; ++k) {
      const C a00 = p00[k];
      const C a01 = p01[k];
      const C a10 = p10[k];
      const C a11 = p11[k];
      p00[k] = cmul(m[0][0], a00) + cmul(m[0][1], a01) + cmul(m[0][2], a10) +
               cmul(m[0][3], a11);
      p01[k] = cmul(m[1][0], a00) + cmul(m[1][1], a01) + cmul(m[1][2], a10) +
               cmul(m[1][3], a11);
      p10[k] = cmul(m[2][0], a00) + cmul(m[2][1], a01) + cmul(m[2][2], a10) +
               cmul(m[2][3], a11);
      p11[k] = cmul(m[3][0], a00) + cmul(m[3][1], a01) + cmul(m[3][2], a10) +
               cmul(m[3][3], a11);
    }
  });
}

template <typename Real>
void applyControlled1Range(std::complex<Real>* const amps,
                           const GateMatrix2& gate, unsigned control,
                           unsigned target, std::uint64_t begin,
                           std::uint64_t end) noexcept {
  using C = std::complex<Real>;
  const C m00 = toC<Real>(gate.m00), m01 = toC<Real>(gate.m01),
          m10 = toC<Real>(gate.m10), m11 = toC<Real>(gate.m11);
  const std::uint64_t cbit = std::uint64_t{1} << control;
  const std::uint64_t tbit = std::uint64_t{1} << target;
  const unsigned lo = control < target ? control : target;
  const unsigned hi = control < target ? target : control;
  // Half the amplitudes stay put, so the 4-amplitude runs of a lowest
  // qubit 2 already stream well; tiles measured slower there.
  forEachRun(lo, hi, begin, end, [&](std::uint64_t i00, std::uint64_t run) {
    C* const p0 = amps + (i00 | cbit);
    C* const p1 = p0 + tbit;
    for (std::uint64_t k = 0; k < run; ++k) {
      const C a0 = p0[k];
      const C a1 = p1[k];
      p0[k] = cmul(m00, a0) + cmul(m01, a1);
      p1[k] = cmul(m10, a0) + cmul(m11, a1);
    }
  }, 2);
}

template <typename Real>
void applySwapRange(std::complex<Real>* const amps, unsigned a, unsigned b,
                    std::uint64_t begin, std::uint64_t end) noexcept {
  using C = std::complex<Real>;
  const std::uint64_t abit = std::uint64_t{1} << a;
  const std::uint64_t bbit = std::uint64_t{1} << b;
  const unsigned lo = a < b ? a : b;
  const unsigned hi = a < b ? b : a;
  const std::uint64_t blo = std::uint64_t{1} << lo;
  std::uint64_t i = begin;
  while (i < end) {
    const std::uint64_t off = i & (blo - 1);
    const std::uint64_t run = std::min(end - i, blo - off);
    const std::uint64_t i10 = insertZeroBit(insertZeroBit(i, lo), hi) | abit;
    C* const p = amps + i10;
    C* const q = amps + ((i10 ^ abit) | bbit);
    for (std::uint64_t k = 0; k < run; ++k) {
      std::swap(p[k], q[k]);
    }
    i += run;
  }
}

template <typename Real>
void applyCCXRange(std::complex<Real>* const amps, const unsigned (&pos)[3],
                   std::uint64_t c1, std::uint64_t c2, std::uint64_t tbit,
                   std::uint64_t begin, std::uint64_t end) noexcept {
  using C = std::complex<Real>;
  const std::uint64_t blo = std::uint64_t{1} << pos[0];
  std::uint64_t i = begin;
  while (i < end) {
    const std::uint64_t off = i & (blo - 1);
    const std::uint64_t run = std::min(end - i, blo - off);
    const std::uint64_t i0 =
        (insertZeroBit(insertZeroBit(insertZeroBit(i, pos[0]), pos[1]),
                       pos[2]) |
         c1) |
        c2;
    C* const p = amps + i0;
    C* const q = amps + (i0 | tbit);
    for (std::uint64_t k = 0; k < run; ++k) {
      std::swap(p[k], q[k]);
    }
    i += run;
  }
}

template <typename Real>
void applyDiagonalRange(std::complex<Real>* const amps,
                        const Complex* const table,
                        const unsigned* const shifts, std::size_t numBits,
                        std::uint64_t begin, std::uint64_t end) noexcept {
  using C = std::complex<Real>;
  // Within an aligned run of 2^qmin amplitudes only bits below qmin vary,
  // so every table-index bit (all at positions >= qmin) is constant: one
  // gather per run, then a pure stream of multiplies.
  unsigned qmin = shifts[0];
  for (std::size_t j = 1; j < numBits; ++j) {
    qmin = std::min(qmin, shifts[j]);
  }
  if (tiled(qmin, begin, end)) {
    // Table bits below kTileBits vary within every tile, always in the
    // same pattern; the others are constant over aligned runs of
    // 2^hmin amplitudes, hmin the lowest table qubit at or above
    // kTileBits. Per run: one tile of phases, then a stream of tiles.
    std::size_t lowIdx[kTile] = {};
    unsigned hmin = 63;
    for (std::size_t j = 0; j < numBits; ++j) {
      if (shifts[j] < kTileBits) {
        for (std::uint64_t k = 0; k < kTile; ++k) {
          lowIdx[k] |= ((k >> shifts[j]) & 1) << j;
        }
      } else {
        hmin = std::min(hmin, shifts[j]);
      }
    }
    const std::uint64_t runLen = std::uint64_t{1} << hmin;
    std::uint64_t i = begin;
    while (i < end) {
      const std::uint64_t run = std::min(end - i, runLen - (i & (runLen - 1)));
      std::size_t highIdx = 0;
      for (std::size_t j = 0; j < numBits; ++j) {
        if (shifts[j] >= kTileBits) {
          highIdx |= ((i >> shifts[j]) & 1) << j;
        }
      }
      C phase[kTile];
      for (std::uint64_t k = 0; k < kTile; ++k) {
        phase[k] = toC<Real>(table[highIdx | lowIdx[k]]);
      }
      C* const p = amps + i;
      for (std::uint64_t t = 0; t < run; t += kTile) {
        for (std::uint64_t k = 0; k < kTile; ++k) {
          p[t + k] = cmul(p[t + k], phase[k]);
        }
      }
      i += run;
    }
    return;
  }
  const std::uint64_t runLen = std::uint64_t{1} << qmin;
  std::uint64_t i = begin;
  while (i < end) {
    const std::uint64_t run = std::min(end - i, runLen - (i & (runLen - 1)));
    std::size_t idx = 0;
    for (std::size_t j = 0; j < numBits; ++j) {
      idx |= ((i >> shifts[j]) & 1) << j;
    }
    const C phase = toC<Real>(table[idx]);
    C* const p = amps + i;
    for (std::uint64_t k = 0; k < run; ++k) {
      p[k] = cmul(p[k], phase);
    }
    i += run;
  }
}

/// The fused-sweep inner driver: chunk-major, gate-minor. Every gate's
/// qubits lie below chunkBits, so each gate only mixes amplitudes within
/// one chunk — applying the whole run to chunk c before touching chunk
/// c+1 is exactly the sequential composition, with each chunk fetched
/// from memory once per run instead of once per gate.
template <typename Real>
void sweepChunkRange(std::complex<Real>* const amps,
                     std::span<const SweepGate> gates, unsigned chunkBits,
                     std::uint64_t beginChunk, std::uint64_t endChunk) {
  for (std::uint64_t c = beginChunk; c < endChunk; ++c) {
    for (const SweepGate& g : gates) {
      switch (g.kind) {
      case SweepGate::Kind::Unitary1: {
        const std::uint64_t half = std::uint64_t{1} << (chunkBits - 1);
        apply1Range(amps, g.m2, g.q0, c * half, (c + 1) * half);
        break;
      }
      case SweepGate::Kind::Unitary2: {
        const std::uint64_t quarter = std::uint64_t{1} << (chunkBits - 2);
        apply2Range(amps, g.m4, g.q0, g.q1, c * quarter, (c + 1) * quarter);
        break;
      }
      case SweepGate::Kind::Diagonal: {
        const std::uint64_t full = std::uint64_t{1} << chunkBits;
        unsigned shifts[64];
        for (std::size_t j = 0; j < g.diagQubits.size(); ++j) {
          shifts[j] = g.diagQubits[j];
        }
        applyDiagonalRange(amps, g.diag.data(), shifts, g.diagQubits.size(),
                           c * full, (c + 1) * full);
        break;
      }
      case SweepGate::Kind::Controlled: {
        const std::uint64_t quarter = std::uint64_t{1} << (chunkBits - 2);
        applyControlled1Range(amps, g.m2, g.q0, g.q1, c * quarter,
                              (c + 1) * quarter);
        break;
      }
      case SweepGate::Kind::Swap: {
        const std::uint64_t quarter = std::uint64_t{1} << (chunkBits - 2);
        applySwapRange(amps, g.q0, g.q1, c * quarter, (c + 1) * quarter);
        break;
      }
      }
    }
  }
}

} // namespace

void noteF32Batch() noexcept { g_svF32Batches.add(); }

StateVector::StateVector(unsigned numQubits, qirkit::ThreadPool* pool,
                         Precision precision)
    : numQubits_(numQubits), precision_(precision), pool_(pool) {
  if (numQubits > kMaxQubits) {
    throw qirkit::SemanticError("statevector limited to " +
                                std::to_string(kMaxQubits) + " qubits");
  }
  try {
    if (precision_ == Precision::F32) {
      amplitudesF_.assign(dimension(), std::complex<float>{});
      amplitudesF_[0] = 1.0F;
    } else {
      amplitudes_.assign(dimension(), Complex{});
      amplitudes_[0] = 1.0;
    }
  } catch (const std::bad_alloc&) {
    throw qirkit::Error(qirkit::ErrorCode::ResourceLimit,
                        "cannot allocate " +
                            std::to_string(predictedBytes(numQubits, precision_)) +
                            " bytes for a " + std::to_string(numQubits) +
                            "-qubit statevector");
  }
  g_svPeakBytes.updateMax(predictedBytes(numQubits_, precision_));
}

void StateVector::resetAll() {
  if (precision_ == Precision::F32) {
    std::fill(amplitudesF_.begin(), amplitudesF_.end(), std::complex<float>{});
    amplitudesF_[0] = 1.0F;
  } else {
    std::fill(amplitudes_.begin(), amplitudes_.end(), Complex{});
    amplitudes_[0] = 1.0;
  }
}

unsigned StateVector::addQubit() {
  if (numQubits_ >= kMaxQubits) {
    throw qirkit::SemanticError("statevector limited to " +
                                std::to_string(kMaxQubits) + " qubits");
  }
  ++numQubits_;
  try {
    if (precision_ == Precision::F32) {
      amplitudesF_.resize(dimension(), std::complex<float>{});
    } else {
      amplitudes_.resize(dimension(), Complex{}); // appended qubit is |0>
    }
  } catch (const std::bad_alloc&) {
    --numQubits_;
    throw qirkit::Error(qirkit::ErrorCode::ResourceLimit,
                        "cannot allocate " +
                            std::to_string(predictedBytes(numQubits_ + 1, precision_)) +
                            " bytes growing the statevector to " +
                            std::to_string(numQubits_ + 1) + " qubits");
  }
  g_svPeakBytes.updateMax(predictedBytes(numQubits_, precision_));
  return numQubits_ - 1;
}

void StateVector::removeQubit(unsigned q, SplitMix64& rng) {
  assert(q < numQubits_);
  if (measure(q, rng)) {
    apply1(gateX(), q); // force |0>
  }
  // Compact out bit q (all amplitudes with the bit set are now zero).
  const std::uint64_t half = dimension() >> 1;
  const auto compact = [&](auto& storage) {
    using C = typename std::decay_t<decltype(storage)>::value_type;
    std::vector<C> next(half);
    for (std::uint64_t i = 0; i < half; ++i) {
      next[i] = storage[insertZeroBit(i, q)];
    }
    storage = std::move(next);
  };
  if (precision_ == Precision::F32) {
    compact(amplitudesF_);
  } else {
    compact(amplitudes_);
  }
  --numQubits_;
}

void StateVector::forRange(
    std::uint64_t n,
    const std::function<void(std::uint64_t, std::uint64_t)>& body) const {
  // Cancellation checkpoint once per sweep, on the calling thread — pool
  // tasks must not throw. Armed-and-expired tokens additionally make the
  // parallel path skip remaining chunks (the state is abandoned anyway
  // once the next checkpoint throws).
  if (cancel_ != nullptr) {
    cancel_->checkpoint("statevector kernel");
  }
  if (pool_ != nullptr && n >= (std::uint64_t{1} << 14)) {
    const qirkit::CancelToken* const cancel = cancel_;
    qirkit::parallelForChunked(
        *pool_, n,
        [&body, cancel](std::uint64_t begin, std::uint64_t end) {
          if (cancel != nullptr && cancel->expired()) {
            return; // chunk-boundary bail-out; caller throws on next probe
          }
          body(begin, end);
        },
        std::uint64_t{1} << 12);
  } else {
    body(0, n);
  }
}

void StateVector::apply1(const GateMatrix2& gate, unsigned target) {
  assert(target < numQubits_);
  ++gateCount_;
  g_svGates.add();
  noteKernelSweeps(precision_, 1);
  const auto dispatch = [&](auto* const amps) {
    forRange(dimension() >> 1, [&](std::uint64_t begin, std::uint64_t end) {
      apply1Range(amps, gate, target, begin, end);
    });
  };
  if (precision_ == Precision::F32) {
    dispatch(amplitudesF_.data());
  } else {
    dispatch(amplitudes_.data());
  }
}

void StateVector::apply2(const GateMatrix4& gate, unsigned q0, unsigned q1) {
  assert(q0 < numQubits_ && q1 < numQubits_ && q0 != q1);
  ++gateCount_;
  g_svGates.add();
  noteKernelSweeps(precision_, 1);
  const auto dispatch = [&](auto* const amps) {
    forRange(dimension() >> 2, [&](std::uint64_t begin, std::uint64_t end) {
      apply2Range(amps, gate, q0, q1, begin, end);
    });
  };
  if (precision_ == Precision::F32) {
    dispatch(amplitudesF_.data());
  } else {
    dispatch(amplitudes_.data());
  }
}

void StateVector::applyDiagonal(std::span<const Complex> diag,
                                std::span<const unsigned> qubits) {
  assert(!qubits.empty() &&
         diag.size() == (std::size_t{1} << qubits.size()));
#ifndef NDEBUG
  for (const unsigned q : qubits) {
    assert(q < numQubits_);
  }
#endif
  ++gateCount_;
  g_svGates.add();
  noteKernelSweeps(precision_, 1);
  // Hoist the qubit list out of the span (one indirect load per qubit per
  // amplitude otherwise) and keep the phase table behind a raw pointer so
  // the stores to the amplitudes cannot force reloads of either.
  unsigned shifts[64];
  const std::size_t numBits = qubits.size();
  for (std::size_t j = 0; j < numBits; ++j) {
    shifts[j] = qubits[j];
  }
  const Complex* const table = diag.data();
  const auto dispatch = [&](auto* const amps) {
    forRange(dimension(), [&](std::uint64_t begin, std::uint64_t end) {
      applyDiagonalRange(amps, table, shifts, numBits, begin, end);
    });
  };
  if (precision_ == Precision::F32) {
    dispatch(amplitudesF_.data());
  } else {
    dispatch(amplitudes_.data());
  }
}

void StateVector::applyControlled1(const GateMatrix2& gate, unsigned control,
                                   unsigned target) {
  assert(control < numQubits_ && target < numQubits_ && control != target);
  ++gateCount_;
  g_svGates.add();
  noteKernelSweeps(precision_, 1);
  const auto dispatch = [&](auto* const amps) {
    forRange(dimension() >> 2, [&](std::uint64_t begin, std::uint64_t end) {
      applyControlled1Range(amps, gate, control, target, begin, end);
    });
  };
  if (precision_ == Precision::F32) {
    dispatch(amplitudesF_.data());
  } else {
    dispatch(amplitudes_.data());
  }
}

void StateVector::applyCCX(unsigned control1, unsigned control2, unsigned target) {
  assert(control1 != control2 && control1 != target && control2 != target);
  ++gateCount_;
  g_svGates.add();
  noteKernelSweeps(precision_, 1);
  const std::uint64_t c1 = std::uint64_t{1} << control1;
  const std::uint64_t c2 = std::uint64_t{1} << control2;
  const std::uint64_t tbit = std::uint64_t{1} << target;
  // Enumerate only the control1=1, control2=1, target=0 subspace.
  unsigned pos[3] = {control1, control2, target};
  if (pos[0] > pos[1]) {
    std::swap(pos[0], pos[1]);
  }
  if (pos[1] > pos[2]) {
    std::swap(pos[1], pos[2]);
  }
  if (pos[0] > pos[1]) {
    std::swap(pos[0], pos[1]);
  }
  const auto dispatch = [&](auto* const amps) {
    forRange(dimension() >> 3, [&](std::uint64_t begin, std::uint64_t end) {
      applyCCXRange(amps, pos, c1, c2, tbit, begin, end);
    });
  };
  if (precision_ == Precision::F32) {
    dispatch(amplitudesF_.data());
  } else {
    dispatch(amplitudes_.data());
  }
}

void StateVector::applySwap(unsigned a, unsigned b) {
  assert(a < numQubits_ && b < numQubits_);
  if (a == b) {
    return;
  }
  ++gateCount_;
  g_svGates.add();
  noteKernelSweeps(precision_, 1);
  // Enumerate only the a=1, b=0 subspace (dim/4), like the other
  // controlled kernels: each such index pairs with its a=0, b=1 partner.
  const auto dispatch = [&](auto* const amps) {
    forRange(dimension() >> 2, [&](std::uint64_t begin, std::uint64_t end) {
      applySwapRange(amps, a, b, begin, end);
    });
  };
  if (precision_ == Precision::F32) {
    dispatch(amplitudesF_.data());
  } else {
    dispatch(amplitudes_.data());
  }
}

void StateVector::applyFusedSweep(std::span<const SweepGate> gates) {
  unsigned maxQ = 0;
  for (const SweepGate& g : gates) {
    switch (g.kind) {
    case SweepGate::Kind::Unitary1:
      maxQ = std::max(maxQ, g.q0);
      break;
    case SweepGate::Kind::Unitary2:
    case SweepGate::Kind::Controlled:
    case SweepGate::Kind::Swap:
      maxQ = std::max(maxQ, std::max(g.q0, g.q1));
      break;
    case SweepGate::Kind::Diagonal:
      for (const unsigned q : g.diagQubits) {
        maxQ = std::max(maxQ, q);
      }
      break;
    }
  }
  assert(gates.empty() || maxQ < numQubits_);
  // Chunks must contain every touched qubit; a high-qubit gate widens the
  // chunk (fewer, larger chunks — still correct, less cache benefit).
  const unsigned chunkBits =
      std::min(std::max(kSweepChunkBits, maxQ + 1), numQubits_);
  const std::uint64_t numChunks = dimension() >> chunkBits;
  if (gates.size() < 2 || numChunks <= 1) {
    // One gate, or a run whose chunk spans the register: nothing to share
    // between gates, so each takes its own full (pool-parallel) pass.
    for (const SweepGate& g : gates) {
      switch (g.kind) {
      case SweepGate::Kind::Unitary1:
        apply1(g.m2, g.q0);
        break;
      case SweepGate::Kind::Unitary2:
        apply2(g.m4, g.q0, g.q1);
        break;
      case SweepGate::Kind::Diagonal:
        applyDiagonal(g.diag, g.diagQubits);
        break;
      case SweepGate::Kind::Controlled:
        applyControlled1(g.m2, g.q0, g.q1);
        break;
      case SweepGate::Kind::Swap:
        applySwap(g.q0, g.q1);
        break;
      }
    }
    return;
  }
  if (cancel_ != nullptr) {
    cancel_->checkpoint("statevector sweep");
  }
  gateCount_ += gates.size();
  g_svGates.add(gates.size());
  noteKernelSweeps(precision_, gates.size());
  g_svBlockedSweeps.add();
  const auto dispatch = [&](auto* const amps) {
    const auto body = [&](std::uint64_t beginChunk, std::uint64_t endChunk) {
      sweepChunkRange(amps, gates, chunkBits, beginChunk, endChunk);
    };
    if (pool_ != nullptr && dimension() >= (std::uint64_t{1} << 14)) {
      const qirkit::CancelToken* const cancel = cancel_;
      qirkit::parallelForChunked(
          *pool_, numChunks,
          [&body, cancel](std::uint64_t begin, std::uint64_t end) {
            if (cancel != nullptr && cancel->expired()) {
              return;
            }
            body(begin, end);
          },
          1);
    } else {
      body(0, numChunks);
    }
  };
  if (precision_ == Precision::F32) {
    dispatch(amplitudesF_.data());
  } else {
    dispatch(amplitudes_.data());
  }
}

double StateVector::blockSum(
    std::uint64_t n,
    const std::function<double(std::uint64_t, std::uint64_t)>& partial) const {
  constexpr std::uint64_t kBlock = std::uint64_t{1} << 12;
  if (n <= kBlock) {
    return partial(0, n);
  }
  const std::uint64_t numBlocks = (n + kBlock - 1) / kBlock;
  std::vector<double> partials(numBlocks);
  const auto runBlocks = [&](std::uint64_t beginBlock, std::uint64_t endBlock) {
    for (std::uint64_t b = beginBlock; b < endBlock; ++b) {
      partials[b] = partial(b * kBlock, std::min(n, (b + 1) * kBlock));
    }
  };
  if (pool_ != nullptr && n >= (std::uint64_t{1} << 14)) {
    qirkit::parallelForChunked(*pool_, numBlocks, runBlocks, 1);
  } else {
    runBlocks(0, numBlocks);
  }
  double total = 0;
  for (const double p : partials) {
    total += p;
  }
  return total;
}

double StateVector::probabilityOfOne(unsigned q) const {
  assert(q < numQubits_);
  const std::uint64_t bit = std::uint64_t{1} << q;
  // Enumerate only the q=1 half (ascending, so the term order matches a
  // full-dimension scan); partial sums reduce deterministically and always
  // accumulate in double, whatever the storage precision.
  const auto compute = [&](const auto* const amps) {
    return blockSum(dimension() >> 1, [&](std::uint64_t begin, std::uint64_t end) {
      double p = 0;
      for (std::uint64_t i = begin; i < end; ++i) {
        const auto a = amps[insertZeroBit(i, q) | bit];
        const double re = a.real();
        const double im = a.imag();
        p += re * re + im * im;
      }
      return p;
    });
  };
  return precision_ == Precision::F32 ? compute(amplitudesF_.data())
                                      : compute(amplitudes_.data());
}

bool StateVector::measure(unsigned q, SplitMix64& rng) {
  g_svMeasurements.add();
  const double p1 = probabilityOfOne(q);
  const bool outcome = rng.uniform() < p1;
  const double keep = outcome ? p1 : 1.0 - p1;
  const double scale = keep > 0 ? 1.0 / std::sqrt(keep) : 0.0;
  const std::uint64_t bit = std::uint64_t{1} << q;
  const auto collapse = [&](auto* const amps) {
    using C = std::decay_t<decltype(*amps)>;
    const auto s = static_cast<typename C::value_type>(scale);
    forRange(dimension(), [&](std::uint64_t begin, std::uint64_t end) {
      for (std::uint64_t i = begin; i < end; ++i) {
        const bool isOne = (i & bit) != 0;
        if (isOne == outcome) {
          amps[i] *= s;
        } else {
          amps[i] = C{};
        }
      }
    });
  };
  if (precision_ == Precision::F32) {
    collapse(amplitudesF_.data());
  } else {
    collapse(amplitudes_.data());
  }
  return outcome;
}

void StateVector::resetQubit(unsigned q, SplitMix64& rng) {
  if (measure(q, rng)) {
    apply1(gateX(), q);
  }
}

std::uint64_t StateVector::sample(SplitMix64& rng) const {
  const auto draw = [&](const auto* const amps) {
    double r = rng.uniform();
    for (std::uint64_t i = 0; i < dimension(); ++i) {
      const double re = amps[i].real();
      const double im = amps[i].imag();
      r -= re * re + im * im;
      if (r <= 0) {
        return i;
      }
    }
    return dimension() - 1;
  };
  return precision_ == Precision::F32 ? draw(amplitudesF_.data())
                                      : draw(amplitudes_.data());
}

std::map<std::uint64_t, std::uint64_t> StateVector::sampleCounts(std::uint64_t shots,
                                                                 SplitMix64& rng) const {
  return sampleShots(shots, rng);
}

std::map<std::uint64_t, std::uint64_t> StateVector::sampleShots(
    std::uint64_t shots, SplitMix64& rng) const {
  std::map<std::uint64_t, std::uint64_t> counts;
  if (shots == 0) {
    return counts;
  }
  // Cumulative probabilities, accumulated in double for both precisions.
  // The sum is sequential so the distribution is bit-identical regardless
  // of pool size; the per-shot searches below are the parallel part.
  std::vector<double> cdf(dimension());
  double total = 0;
  const auto buildCdf = [&](const auto* const amps) {
    for (std::uint64_t i = 0; i < dimension(); ++i) {
      const double re = amps[i].real();
      const double im = amps[i].imag();
      total += re * re + im * im;
      cdf[i] = total;
    }
  };
  if (precision_ == Precision::F32) {
    buildCdf(amplitudesF_.data());
  } else {
    buildCdf(amplitudes_.data());
  }
  // Pre-draw every uniform from the caller's stream (scaled by the actual
  // total to absorb rounding), then binary-search each shot independently.
  std::vector<double> draws(shots);
  for (std::uint64_t s = 0; s < shots; ++s) {
    draws[s] = rng.uniform() * total;
  }
  std::vector<std::uint64_t> basis(shots);
  forRange(shots, [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t s = begin; s < end; ++s) {
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), draws[s]);
      basis[s] = it == cdf.end() ? dimension() - 1
                                 : static_cast<std::uint64_t>(it - cdf.begin());
    }
  });
  for (std::uint64_t s = 0; s < shots; ++s) {
    ++counts[basis[s]];
  }
  return counts;
}

double StateVector::normSquared() const {
  const auto compute = [&](const auto* const amps) {
    return blockSum(dimension(), [&](std::uint64_t begin, std::uint64_t end) {
      double n = 0;
      for (std::uint64_t i = begin; i < end; ++i) {
        const double re = amps[i].real();
        const double im = amps[i].imag();
        n += re * re + im * im;
      }
      return n;
    });
  };
  return precision_ == Precision::F32 ? compute(amplitudesF_.data())
                                      : compute(amplitudes_.data());
}

double StateVector::fidelity(const StateVector& other) const {
  assert(numQubits_ == other.numQubits_);
  Complex overlap = 0;
  for (std::uint64_t i = 0; i < dimension(); ++i) {
    overlap += std::conj(amplitude(i)) * other.amplitude(i);
  }
  return std::norm(overlap);
}

} // namespace qirkit::sim
