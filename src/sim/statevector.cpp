#include "sim/statevector.hpp"

#include "support/cancel.hpp"
#include "support/source_location.hpp"
#include "support/telemetry/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <new>
#include <stdexcept>
#include <type_traits>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

namespace qirkit::sim {

namespace {
telemetry::Counter g_svGates{"sim.statevector.gate_applications"};
telemetry::Counter g_svMeasurements{"sim.statevector.measurements"};
telemetry::MaxGauge g_svPeakBytes{"sim.statevector.peak_bytes"};
/// Fused runs that took the chunk-major path (one pass over each
/// cache-sized chunk for the whole gate run).
telemetry::Counter g_svBlockedSweeps{"sim.kernel.blocked_sweeps"};
/// Accumulated SIMD lane width of the vector-friendly kernel sweeps: each
/// sweep adds 4 (f64) or 8 (f32). Stays 0 in scalar (QIRKIT_SIMD=OFF)
/// builds.
telemetry::Counter g_svSimdLanes{"sim.kernel.simd_lanes"};
/// Shot batches executed against an f32 state (counted by the executor).
telemetry::Counter g_svF32Batches{"sim.kernel.f32_batches"};
/// Register growths past the buffer's capacity, which moved every
/// amplitude into a new buffer (growth within a reservation moves none).
telemetry::Counter g_svBufferMoves{"sim.statevector.buffer_moves"};

constexpr unsigned kMaxQubits = StateVector::kMaxQubits;

/// Default chunk width of the fused-sweep path: 2^12 amplitudes is 64 KiB
/// of f64 (32 KiB of f32) state — small enough to stay cache-resident
/// across the whole gate run, large enough that the per-chunk dispatch
/// overhead vanishes.
constexpr unsigned kSweepChunkBits = 12;

/// Amplitudes per block of the sampler's running sums: pass 1 keeps the
/// sum at every block end, and pass 2 rescans only the blocks holding a
/// draw.
constexpr std::uint64_t kSampleBlock = std::uint64_t{1} << 12;

/// |a|^2 in double, the sampler's one term for both passes and both
/// precisions. On FMA targets it is spelled as the fused multiply-add the
/// compiler forms for `re * re + im * im`, so every pass rounds each term
/// the same way, whatever the surrounding loop lets the compiler contract.
template <typename Real>
inline double probability(const std::complex<Real>& a) noexcept {
  const double re = a.real();
  const double im = a.imag();
#if defined(__FMA__)
  return std::fma(re, re, im * im);
#else
  return re * re + im * im;
#endif
}

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
//
// The kernels with arithmetic stay out of line (gnu::noinline). Inlined
// into their one caller, applyRange, each would be vectorized and
// FMA-contracted in that caller's context; out of line, a kernel is
// compiled once, so it rounds the same whichever path calls it and
// whatever else changes around it.

template <typename Real>
[[gnu::noinline]] void apply1Range(std::complex<Real>* const amps,
                                   const Complex* const gate, unsigned target,
                                   std::uint64_t begin, std::uint64_t end) noexcept {
  using C = std::complex<Real>;
  const C m00 = toC<Real>(gate[0]), m01 = toC<Real>(gate[1]),
          m10 = toC<Real>(gate[2]), m11 = toC<Real>(gate[3]);
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
[[gnu::noinline]] void apply2Range(std::complex<Real>* const amps,
                                   const Complex* const gate, unsigned q0, unsigned q1,
                                   std::uint64_t begin, std::uint64_t end) noexcept {
  using C = std::complex<Real>;
  C m[4][4];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      m[r][c] = toC<Real>(gate[r * 4 + c]);
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
[[gnu::noinline]] void applyControlled1Range(std::complex<Real>* const amps,
                                             const Complex* const gate,
                                             unsigned control, unsigned target,
                                             std::uint64_t begin,
                                             std::uint64_t end) noexcept {
  using C = std::complex<Real>;
  const C m00 = toC<Real>(gate[0]), m01 = toC<Real>(gate[1]),
          m10 = toC<Real>(gate[2]), m11 = toC<Real>(gate[3]);
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

/// Enumerates only the a=1, b=0 subspace (dim/4), like the controlled
/// kernels: each such index pairs with its a=0, b=1 partner.
template <typename Real>
[[gnu::noinline]] void applySwapRange(std::complex<Real>* const amps, unsigned a,
                                      unsigned b, std::uint64_t begin,
                                      std::uint64_t end) noexcept {
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
[[gnu::noinline]] void applyDiagonalRange(std::complex<Real>* const amps,
                                          const Complex* const table,
                                          const unsigned* const shifts,
                                          std::size_t numBits, std::uint64_t begin,
                                          std::uint64_t end) noexcept {
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

/// log2 of the amplitudes one index of a kind's range kernel stands for:
/// a pair (Unitary1), a quad (Unitary2, Controlled, Swap) or one amplitude
/// (Diagonal). Indexed by SweepGate::Kind.
constexpr unsigned kIndexBits[] = {1, 2, 0, 2, 2};

inline unsigned indexBits(const SweepGate& gate) noexcept {
  return kIndexBits[static_cast<std::size_t>(gate.kind)];
}

/// The one kind -> range-kernel switch: \p gate over [begin, end) of its
/// kernel's index space, dimension >> indexBits(gate).
template <typename Real>
void applyRange(std::complex<Real>* const amps, const SweepGate& gate,
                std::uint64_t begin, std::uint64_t end) noexcept {
  const Complex* const m = gate.matrix.data();
  const unsigned* const q = gate.qubits.data();
  switch (gate.kind) {
  case SweepGate::Kind::Unitary1:
    apply1Range(amps, m, q[0], begin, end);
    return;
  case SweepGate::Kind::Unitary2:
    apply2Range(amps, m, q[0], q[1], begin, end);
    return;
  case SweepGate::Kind::Diagonal:
    applyDiagonalRange(amps, m, q, gate.numQubits, begin, end);
    return;
  case SweepGate::Kind::Controlled:
    applyControlled1Range(amps, m, q[0], q[1], begin, end);
    return;
  case SweepGate::Kind::Swap:
    applySwapRange(amps, q[0], q[1], begin, end);
    return;
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
                     std::uint64_t beginChunk, std::uint64_t endChunk) noexcept {
  for (std::uint64_t c = beginChunk; c < endChunk; ++c) {
    for (const SweepGate& gate : gates) {
      const unsigned bits = chunkBits - indexBits(gate);
      applyRange(amps, gate, c << bits, (c + 1) << bits);
    }
  }
}

} // namespace

void noteF32Batch() noexcept { g_svF32Batches.add(); }

namespace {
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

std::size_t hugePageRounded(std::size_t bytes) noexcept {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}
} // namespace

void* allocateAmplitudes(std::size_t bytes) {
  if (bytes < kHugePageBytes) {
    return ::operator new(bytes);
  }
  const std::size_t rounded = hugePageRounded(bytes);
  void* const buffer = ::operator new(rounded, std::align_val_t{kHugePageBytes});
#if defined(MADV_HUGEPAGE)
  (void)::madvise(buffer, rounded, MADV_HUGEPAGE); // advice only
#endif
  return buffer;
}

void deallocateAmplitudes(void* buffer, std::size_t bytes) noexcept {
  if (bytes < kHugePageBytes) {
    ::operator delete(buffer, bytes);
    return;
  }
  ::operator delete(buffer, hugePageRounded(bytes), std::align_val_t{kHugePageBytes});
}

StateVector::StateVector(unsigned numQubits, qirkit::ThreadPool* pool,
                         Precision precision)
    : numQubits_(numQubits), precision_(precision), pool_(pool) {
  if (numQubits > kMaxQubits) {
    throw qirkit::SemanticError("statevector limited to " +
                                std::to_string(kMaxQubits) + " qubits");
  }
  try {
    setZeroState();
  } catch (const std::bad_alloc&) {
    throw qirkit::Error(qirkit::ErrorCode::ResourceLimit,
                        "cannot allocate " +
                            std::to_string(predictedBytes(numQubits, precision_)) +
                            " bytes for a " + std::to_string(numQubits) +
                            "-qubit statevector");
  }
  g_svPeakBytes.updateMax(predictedBytes(numQubits_, precision_));
}

void StateVector::setZeroState() {
  withAmplitudes(*this, [&](auto& amps) {
    amps.assign(dimension(), {});
    amps[0] = 1;
  });
}

bool StateVector::reserveQubits(unsigned numQubits) noexcept {
  if (numQubits > kMaxQubits) {
    return false;
  }
  try {
    withAmplitudes(*this,
                   [&](auto& amps) { amps.reserve(std::uint64_t{1} << numQubits); });
  } catch (const std::exception&) { // bad_alloc, or length_error past max_size
    return false;
  }
  return true;
}

unsigned StateVector::addQubit() {
  if (numQubits_ >= kMaxQubits) {
    throw qirkit::SemanticError("statevector limited to " +
                                std::to_string(kMaxQubits) + " qubits");
  }
  const std::uint64_t dim = dimension() << 1;
  try {
    withAmplitudes(*this, [&](auto& amps) {
      const bool moves = amps.capacity() < dim;
      amps.resize(dim); // the appended qubit is |0>: the upper half is zero
      if (moves) {
        g_svBufferMoves.add();
      }
    });
  } catch (const std::bad_alloc&) {
    throw qirkit::Error(qirkit::ErrorCode::ResourceLimit,
                        "cannot allocate " +
                            std::to_string(predictedBytes(numQubits_ + 1, precision_)) +
                            " bytes growing the statevector to " +
                            std::to_string(numQubits_ + 1) + " qubits");
  }
  ++numQubits_;
  g_svPeakBytes.updateMax(predictedBytes(numQubits_, precision_));
  return numQubits_ - 1;
}

void StateVector::clear() {
  numQubits_ = 0;
  gateCount_ = 0;
  setZeroState();
}

void StateVector::forRange(
    std::uint64_t n, const std::function<void(std::uint64_t, std::uint64_t)>& body,
    std::uint64_t grain, std::uint64_t minParallel) const {
  if (cancel_ != nullptr) {
    cancel_->checkpoint("statevector kernel");
  }
  if (pool_ != nullptr && n >= minParallel) {
    const qirkit::CancelToken* const cancel = cancel_;
    qirkit::parallelForChunked(
        *pool_, n,
        [&body, cancel](std::uint64_t begin, std::uint64_t end) {
          if (cancel != nullptr && cancel->expired()) {
            return; // the caller throws at its next checkpoint
          }
          body(begin, end);
        },
        grain);
  } else {
    body(0, n);
  }
}

template <typename Kernel>
void StateVector::runKernel(std::uint64_t gates, std::uint64_t n, const Kernel& kernel,
                            std::uint64_t grain, std::uint64_t minParallel) {
  gateCount_ += gates;
  g_svGates.add(gates);
  withAmplitudes(*this, [&](auto& amps) {
    auto* const data = amps.data();
#if defined(QIRKIT_SIMD)
    // Complex components per 256-bit vector: 4 in f64, 8 in f32.
    g_svSimdLanes.add(64 / sizeof(*data) * gates);
#endif
    forRange(
        n, [&](std::uint64_t begin, std::uint64_t end) { kernel(data, begin, end); },
        grain, minParallel);
  });
}

void StateVector::apply(const SweepGate& gate) {
#ifndef NDEBUG
  for (unsigned j = 0; j < gate.numQubits; ++j) {
    assert(gate.qubits[j] < numQubits_);
  }
#endif
  runKernel(1, dimension() >> indexBits(gate),
            [&](auto* const amps, std::uint64_t begin, std::uint64_t end) {
              applyRange(amps, gate, begin, end);
            });
}

void StateVector::apply1(const GateMatrix2& gate, unsigned target) {
  const Complex m[] = {gate.m00, gate.m01, gate.m10, gate.m11};
  apply({.kind = SweepGate::Kind::Unitary1,
         .numQubits = 1,
         .qubits = {target},
         .matrix = m});
}

void StateVector::apply2(const GateMatrix4& gate, unsigned q0, unsigned q1) {
  assert(q0 != q1);
  Complex m[16];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      m[r * 4 + c] = gate.m[r][c];
    }
  }
  apply({.kind = SweepGate::Kind::Unitary2,
         .numQubits = 2,
         .qubits = {q0, q1},
         .matrix = m});
}

void StateVector::applyDiagonal(std::span<const Complex> diag,
                                std::span<const unsigned> qubits) {
  assert(!qubits.empty() && diag.size() == (std::size_t{1} << qubits.size()));
  if (qubits.size() > SweepGate::kMaxQubits) {
    throw std::invalid_argument("applyDiagonal: more than " +
                                std::to_string(SweepGate::kMaxQubits) + " qubits");
  }
  SweepGate gate{.kind = SweepGate::Kind::Diagonal,
                 .numQubits = static_cast<std::uint8_t>(qubits.size()),
                 .matrix = diag};
  std::copy(qubits.begin(), qubits.end(), gate.qubits.begin());
  apply(gate);
}

void StateVector::applyControlled1(const GateMatrix2& gate, unsigned control,
                                   unsigned target) {
  assert(control != target);
  const Complex m[] = {gate.m00, gate.m01, gate.m10, gate.m11};
  apply({.kind = SweepGate::Kind::Controlled,
         .numQubits = 2,
         .qubits = {control, target},
         .matrix = m});
}

void StateVector::applyCCX(unsigned control1, unsigned control2, unsigned target) {
  assert(control1 != control2 && control1 != target && control2 != target);
  const std::uint64_t c1 = std::uint64_t{1} << control1;
  const std::uint64_t c2 = std::uint64_t{1} << control2;
  const std::uint64_t tbit = std::uint64_t{1} << target;
  // Enumerate only the control1=1, control2=1, target=0 subspace.
  unsigned pos[3] = {control1, control2, target};
  std::sort(std::begin(pos), std::end(pos));
  runKernel(1, dimension() >> 3,
            [&](auto* const amps, std::uint64_t begin, std::uint64_t end) {
              applyCCXRange(amps, pos, c1, c2, tbit, begin, end);
            });
}

void StateVector::applySwap(unsigned a, unsigned b) {
  if (a == b) {
    return;
  }
  apply({.kind = SweepGate::Kind::Swap, .numQubits = 2, .qubits = {a, b}});
}

void StateVector::applyFusedSweep(std::span<const SweepGate> gates) {
  unsigned maxQ = 0;
  for (const SweepGate& gate : gates) {
    for (unsigned j = 0; j < gate.numQubits; ++j) {
      maxQ = std::max(maxQ, gate.qubits[j]);
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
    for (const SweepGate& gate : gates) {
      apply(gate);
    }
    return;
  }
  g_svBlockedSweeps.add();
  // Pool pieces of one chunk each, on the pool from 2^14 amplitudes on.
  runKernel(
      gates.size(), numChunks,
      [&](auto* const amps, std::uint64_t beginChunk, std::uint64_t endChunk) {
        sweepChunkRange(amps, gates, chunkBits, beginChunk, endChunk);
      },
      1, kRangeParallelMin >> chunkBits);
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
  return withAmplitudes(*this, [&](const auto& amps) {
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
  });
}

bool StateVector::measure(unsigned q, SplitMix64& rng) {
  const double p1 = probabilityOfOne(q);
  const bool outcome = drawOutcome(p1, rng);
  collapse(q, outcome, p1);
  return outcome;
}

void StateVector::collapse(unsigned q, bool outcome, double p1) {
  g_svMeasurements.add();
  const double keep = outcome ? p1 : 1.0 - p1;
  const double scale = keep > 0 ? 1.0 / std::sqrt(keep) : 0.0;
  const std::uint64_t bit = std::uint64_t{1} << q;
  withAmplitudes(*this, [&](auto& buffer) {
    using C = typename std::decay_t<decltype(buffer)>::value_type;
    C* const amps = buffer.data();
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
  });
}

void StateVector::resetQubit(unsigned q, SplitMix64& rng) {
  if (measure(q, rng)) {
    apply1(gateX(), q);
  }
}

std::vector<double> StateVector::blockEndSums() const {
  const std::uint64_t block = std::min(dimension(), kSampleBlock);
  std::vector<double> ends(dimension() / block);
  withAmplitudes(*this, [&](const auto& amps) {
    // One running sum in index order: the cumulative distribution's
    // entries, of which only every block's last is kept.
    double running = 0;
    for (std::uint64_t b = 0; b < ends.size(); ++b) {
      for (std::uint64_t i = b * block; i < (b + 1) * block; ++i) {
        running += probability(amps[i]);
      }
      ends[b] = running;
    }
  });
  return ends;
}

std::map<std::uint64_t, std::uint64_t>
StateVector::countSortedDraws(std::span<const double> sortedDraws,
                              std::span<const double> blockEnds) const {
  if (cancel_ != nullptr) {
    cancel_->checkpoint("statevector sampler");
  }
  const std::uint64_t block = dimension() / blockEnds.size();
  // A draw's basis state lies in the first block whose end sum exceeds it.
  // Group the draws by that block; the ones past the total take the last
  // basis state.
  struct Segment {
    std::uint64_t block;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Segment> segments;
  std::vector<std::uint64_t> basis(sortedDraws.size(), dimension() - 1);
  std::uint64_t b = 0;
  for (std::size_t d = 0; d < sortedDraws.size(); ++d) {
    while (b < blockEnds.size() && !(sortedDraws[d] < blockEnds[b])) {
      ++b;
    }
    if (b == blockEnds.size()) {
      break;
    }
    if (segments.empty() || segments.back().block != b) {
      segments.push_back({b, d, d});
    }
    segments.back().end = d + 1;
  }
  // Rescan each block from the previous block's end sum: the additions of
  // pass 1 in the same order, so the running sums are pass 1's bit for bit.
  const auto walk = [&](std::size_t first, std::size_t last) {
    withAmplitudes(*this, [&](const auto& amps) {
      for (std::size_t k = first; k < last; ++k) {
        const Segment& seg = segments[k];
        double running = seg.block == 0 ? 0.0 : blockEnds[seg.block - 1];
        std::size_t d = seg.begin;
        const std::uint64_t end = (seg.block + 1) * block;
        for (std::uint64_t i = seg.block * block; i < end && d < seg.end; ++i) {
          running += probability(amps[i]);
          while (d < seg.end && sortedDraws[d] < running) {
            basis[d++] = i;
          }
        }
      }
    });
  };
  if (pool_ != nullptr && segments.size() > 1 &&
      segments.size() * block >= (std::uint64_t{1} << 14)) {
    qirkit::parallelForChunked(*pool_, segments.size(), walk, 1);
  } else {
    walk(0, segments.size());
  }
  // Ascending draws land on ascending basis states, so each count goes
  // at the end of the map.
  std::map<std::uint64_t, std::uint64_t> counts;
  for (const std::uint64_t i : basis) {
    ++counts.emplace_hint(counts.end(), i, 0)->second;
  }
  return counts;
}

std::map<std::uint64_t, std::uint64_t>
StateVector::countSortedDraws(std::span<const double> sortedDraws) const {
  return countSortedDraws(sortedDraws, blockEndSums());
}

std::map<std::uint64_t, std::uint64_t> StateVector::sampleShots(
    std::uint64_t shots, SplitMix64& rng) const {
  if (shots == 0) {
    return {};
  }
  const std::vector<double> blockEnds = blockEndSums();
  // Every uniform comes from the caller's stream in shot order, scaled by
  // the actual total to absorb rounding; the counts do not depend on which
  // shot drew which value, so the draws are sorted for one forward walk.
  std::vector<double> draws(shots);
  for (double& draw : draws) {
    draw = rng.uniform() * blockEnds.back();
  }
  std::sort(draws.begin(), draws.end());
  return countSortedDraws(draws, blockEnds);
}

double StateVector::normSquared() const {
  return withAmplitudes(*this, [&](const auto& amps) {
    return blockSum(dimension(), [&](std::uint64_t begin, std::uint64_t end) {
      double n = 0;
      for (std::uint64_t i = begin; i < end; ++i) {
        const double re = amps[i].real();
        const double im = amps[i].imag();
        n += re * re + im * im;
      }
      return n;
    });
  });
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
