#include "sim/statevector.hpp"

#include "circuit/generators.hpp"
#include "interp/interpreter.hpp"
#include "qir/exporter.hpp"
#include "runtime/runtime.hpp"
#include "support/source_location.hpp"
#include "vm/compiler.hpp"
#include "vm/vm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numbers>

namespace qirkit::sim {
namespace {

constexpr double kEps = 1e-12;

TEST(Gates, AreUnitary) {
  const GateMatrix2 gates[] = {gateH(),      gateX(),      gateY(),
                               gateZ(),      gateS(),      gateT(),
                               gateRX(0.7),  gateRY(1.3),  gateRZ(2.1),
                               gateU3(0.3, 0.9, 1.7)};
  for (const GateMatrix2& g : gates) {
    const GateMatrix2 product = matmul(adjoint(g), g);
    EXPECT_NEAR(std::abs(product.m00 - Complex{1.0}), 0, kEps);
    EXPECT_NEAR(std::abs(product.m11 - Complex{1.0}), 0, kEps);
    EXPECT_NEAR(std::abs(product.m01), 0, kEps);
    EXPECT_NEAR(std::abs(product.m10), 0, kEps);
  }
}

TEST(Gates, AdjointPairsCancel) {
  EXPECT_NEAR(distanceUpToPhase(matmul(gateS(), gateSdg()), {1, 0, 0, 1}), 0, kEps);
  EXPECT_NEAR(distanceUpToPhase(matmul(gateT(), gateTdg()), {1, 0, 0, 1}), 0, kEps);
  EXPECT_NEAR(distanceUpToPhase(matmul(gateH(), gateH()), {1, 0, 0, 1}), 0, kEps);
}

TEST(Gates, DecompositionsMatch) {
  // S = T^2, Z = S^2, X = H Z H.
  EXPECT_NEAR(distanceUpToPhase(matmul(gateT(), gateT()), gateS()), 0, kEps);
  EXPECT_NEAR(distanceUpToPhase(matmul(gateS(), gateS()), gateZ()), 0, kEps);
  EXPECT_NEAR(distanceUpToPhase(matmul(gateH(), matmul(gateZ(), gateH())), gateX()),
              0, kEps);
  // RZ(pi) ~ Z up to phase; U3(theta,0,0) = RY(theta).
  EXPECT_NEAR(distanceUpToPhase(gateRZ(std::numbers::pi), gateZ()), 0, 1e-9);
  EXPECT_NEAR(distanceUpToPhase(gateU3(0.8, 0, 0), gateRY(0.8)), 0, 1e-9);
}

TEST(StateVectorTest, StartsInGroundState) {
  const StateVector sv(3);
  EXPECT_EQ(sv.numQubits(), 3U);
  EXPECT_EQ(sv.dimension(), 8U);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - Complex{1.0}), 0, kEps);
  EXPECT_NEAR(sv.normSquared(), 1.0, kEps);
}

TEST(StateVectorTest, HadamardCreatesEqualSuperposition) {
  StateVector sv(1);
  sv.apply1(gateH(), 0);
  EXPECT_NEAR(sv.probabilityOfOne(0), 0.5, kEps);
  EXPECT_NEAR(sv.normSquared(), 1.0, kEps);
}

TEST(StateVectorTest, BellStateCorrelations) {
  StateVector sv(2);
  sv.apply1(gateH(), 0);
  sv.applyControlled1(gateX(), 0, 1);
  EXPECT_NEAR(std::norm(sv.amplitude(0b00)), 0.5, kEps);
  EXPECT_NEAR(std::norm(sv.amplitude(0b11)), 0.5, kEps);
  EXPECT_NEAR(std::norm(sv.amplitude(0b01)), 0.0, kEps);
  SplitMix64 rng(3);
  const bool first = sv.measure(0, rng);
  const bool second = sv.measure(1, rng);
  EXPECT_EQ(first, second);
}

TEST(StateVectorTest, XOnArbitraryQubitFlipsThatBit) {
  for (unsigned q = 0; q < 4; ++q) {
    StateVector sv(4);
    sv.apply1(gateX(), q);
    EXPECT_NEAR(std::norm(sv.amplitude(std::uint64_t{1} << q)), 1.0, kEps);
  }
}

TEST(StateVectorTest, CnotOnlyFiresWhenControlSet) {
  StateVector sv(2);
  sv.applyControlled1(gateX(), 0, 1); // control |0>: no-op
  EXPECT_NEAR(std::norm(sv.amplitude(0)), 1.0, kEps);
  sv.apply1(gateX(), 0);
  sv.applyControlled1(gateX(), 0, 1); // control |1>: flips target
  EXPECT_NEAR(std::norm(sv.amplitude(0b11)), 1.0, kEps);
}

TEST(StateVectorTest, ToffoliTruthTable) {
  for (unsigned input = 0; input < 8; ++input) {
    StateVector sv(3);
    for (unsigned bit = 0; bit < 3; ++bit) {
      if ((input >> bit) & 1) {
        sv.apply1(gateX(), bit);
      }
    }
    sv.applyCCX(0, 1, 2);
    const unsigned expected =
        (input & 0b011) == 0b011 ? (input ^ 0b100) : input;
    EXPECT_NEAR(std::norm(sv.amplitude(expected)), 1.0, kEps) << "input " << input;
  }
}

TEST(StateVectorTest, SwapExchangesAmplitudes) {
  StateVector sv(2);
  sv.apply1(gateX(), 0); // |01>
  sv.applySwap(0, 1);
  EXPECT_NEAR(std::norm(sv.amplitude(0b10)), 1.0, kEps);
}

TEST(StateVectorTest, MeasurementStatisticsMatchBornRule) {
  // RY(theta)|0> has P(1) = sin^2(theta/2).
  const double theta = 1.234;
  StateVector sv(1);
  sv.apply1(gateRY(theta), 0);
  const double expected = std::sin(theta / 2) * std::sin(theta / 2);
  EXPECT_NEAR(sv.probabilityOfOne(0), expected, kEps);

  SplitMix64 rng(11);
  unsigned ones = 0;
  const unsigned shots = 20000;
  for (unsigned s = 0; s < shots; ++s) {
    StateVector copy(1);
    copy.apply1(gateRY(theta), 0);
    if (copy.measure(0, rng)) {
      ++ones;
    }
  }
  EXPECT_NEAR(static_cast<double>(ones) / shots, expected, 0.02);
}

TEST(StateVectorTest, MeasurementCollapsesAndRenormalizes) {
  StateVector sv(2);
  sv.apply1(gateH(), 0);
  sv.applyControlled1(gateX(), 0, 1);
  SplitMix64 rng(5);
  const bool outcome = sv.measure(0, rng);
  EXPECT_NEAR(sv.normSquared(), 1.0, kEps);
  EXPECT_NEAR(sv.probabilityOfOne(1), outcome ? 1.0 : 0.0, kEps);
}

TEST(StateVectorTest, MeasureIsDrawThenCollapse) {
  // Shot branching chooses outcomes itself and collapses with the same
  // arithmetic: both ways must leave bit-identical amplitudes.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
    StateVector measured(3);
    measured.apply1(gateRY(1.1), 0);
    measured.applyControlled1(gateX(), 0, 1);
    measured.apply1(gateRX(0.4), 2);
    StateVector collapsed = measured;
    SplitMix64 rng(seed);
    SplitMix64 same(seed);
    const bool outcome = measured.measure(1, rng);
    const double p1 = collapsed.probabilityOfOne(1);
    ASSERT_EQ(drawOutcome(p1, same), outcome);
    collapsed.collapse(1, outcome, p1);
    for (std::uint64_t i = 0; i < measured.dimension(); ++i) {
      EXPECT_EQ(measured.amplitude(i), collapsed.amplitude(i)) << i;
    }
  }
}

TEST(StateVectorTest, ResetForcesGround) {
  StateVector sv(1);
  sv.apply1(gateH(), 0);
  SplitMix64 rng(5);
  sv.resetQubit(0, rng);
  EXPECT_NEAR(std::norm(sv.amplitude(0)), 1.0, kEps);
}

TEST(StateVectorTest, AddQubitGrowsRegisterInGroundState) {
  StateVector sv(1);
  sv.apply1(gateX(), 0);
  const unsigned q = sv.addQubit();
  EXPECT_EQ(q, 1U);
  EXPECT_EQ(sv.numQubits(), 2U);
  EXPECT_NEAR(std::norm(sv.amplitude(0b01)), 1.0, kEps);
  EXPECT_NEAR(sv.probabilityOfOne(1), 0.0, kEps);
}

TEST(StateVectorTest, SampleMatchesAmplitudes) {
  StateVector sv(2);
  sv.apply1(gateH(), 0);
  sv.applyControlled1(gateX(), 0, 1);
  SplitMix64 rng(123);
  const auto counts = sv.sampleShots(10000, rng);
  EXPECT_EQ(counts.count(0b01), 0U);
  EXPECT_EQ(counts.count(0b10), 0U);
  EXPECT_NEAR(static_cast<double>(counts.at(0b00)) / 10000, 0.5, 0.03);
}

TEST(StateVectorTest, SampleShotsMatchesBornRuleAndPreservesState) {
  StateVector sv(2);
  sv.apply1(gateH(), 0);
  sv.applyControlled1(gateX(), 0, 1); // Bell: only |00> and |11>
  SplitMix64 rng(123);
  const auto counts = sv.sampleShots(10000, rng);
  std::uint64_t total = 0;
  for (const auto& [basis, count] : counts) {
    EXPECT_TRUE(basis == 0b00 || basis == 0b11) << basis;
    total += count;
  }
  EXPECT_EQ(total, 10000U);
  EXPECT_NEAR(static_cast<double>(counts.at(0b00)) / 10000, 0.5, 0.03);
  // Sampling is non-destructive: the state is untouched (no collapse).
  EXPECT_NEAR(std::norm(sv.amplitude(0b00)), 0.5, kEps);
  EXPECT_NEAR(std::norm(sv.amplitude(0b11)), 0.5, kEps);
}

TEST(StateVectorTest, SampleShotsIsDeterministicAndPoolIndependent) {
  ThreadPool pool(4);
  StateVector seq(10);
  StateVector par(10, &pool);
  for (unsigned q = 0; q < 10; ++q) {
    seq.apply1(gateH(), q);
    par.apply1(gateH(), q);
  }
  SplitMix64 rngA(7);
  SplitMix64 rngB(7);
  const auto a = seq.sampleShots(5000, rngA);
  const auto b = par.sampleShots(5000, rngB);
  // Same seed => identical histogram, regardless of the worker pool: the
  // uniform draws are pre-drawn sequentially and each block's rescan is
  // pure. This is what keeps batched sampling engine- and jobs-stable.
  EXPECT_EQ(a, b);
}

TEST(StateVectorTest, FidelityOfIdenticalStatesIsOne) {
  StateVector a(3);
  StateVector b(3);
  for (unsigned q = 0; q < 3; ++q) {
    a.apply1(gateH(), q);
    b.apply1(gateH(), q);
  }
  EXPECT_NEAR(a.fidelity(b), 1.0, kEps);
  b.apply1(gateZ(), 0);
  EXPECT_LT(a.fidelity(b), 1.0);
}

TEST(StateVectorTest, ParallelKernelsMatchSequential) {
  ThreadPool pool(4);
  StateVector seq(16);
  StateVector par(16, &pool);
  SplitMix64 gateRng(77);
  for (int step = 0; step < 50; ++step) {
    const auto target = static_cast<unsigned>(gateRng.below(16));
    auto control = static_cast<unsigned>(gateRng.below(16));
    if (control == target) {
      control = (control + 1) % 16;
    }
    switch (gateRng.below(3)) {
    case 0:
      seq.apply1(gateH(), target);
      par.apply1(gateH(), target);
      break;
    case 1:
      seq.apply1(gateRZ(0.3), target);
      par.apply1(gateRZ(0.3), target);
      break;
    default:
      seq.applyControlled1(gateX(), control, target);
      par.applyControlled1(gateX(), control, target);
      break;
    }
  }
  EXPECT_NEAR(seq.fidelity(par), 1.0, 1e-9);
}

TEST(StateVectorTest, QubitLimitIsEnforced) {
  EXPECT_THROW(StateVector sv(31), qirkit::SemanticError);
}

TEST(StateVectorTest, GateCountIsTracked) {
  StateVector sv(2);
  sv.apply1(gateH(), 0);
  sv.applyControlled1(gateX(), 0, 1);
  sv.applySwap(0, 1);
  EXPECT_EQ(sv.gateCount(), 3U);
}

/// Property sweep: on every basis state, H^2 = I, X^2 = I, CX^2 = I.
class SelfInverseProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(SelfInverseProperty, DoubleApplicationIsIdentity) {
  const unsigned basis = GetParam();
  StateVector sv(3);
  for (unsigned bit = 0; bit < 3; ++bit) {
    if ((basis >> bit) & 1) {
      sv.apply1(gateX(), bit);
    }
  }
  StateVector reference = sv;
  sv.apply1(gateH(), 0);
  sv.apply1(gateH(), 0);
  sv.applyControlled1(gateX(), 1, 2);
  sv.applyControlled1(gateX(), 1, 2);
  sv.applyCCX(0, 1, 2);
  sv.applyCCX(0, 1, 2);
  EXPECT_NEAR(sv.fidelity(reference), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllBasisStates, SelfInverseProperty,
                         ::testing::Range(0U, 8U));

// ---------------------------------------------------------------------------
// Kernel differential suite: every blocked/vectorized kernel vs a naive
// scalar reference on randomized gates, targets, and controls. The
// reference is deliberately textbook — strided std::complex loops, no run
// decomposition, no blocking — so any indexing or vectorization bug in
// the production kernels shows up as an amplitude mismatch.
// ---------------------------------------------------------------------------

/// Naive reference statevector. Bit conventions mirror StateVector's:
/// basis state b has qubit q in state (b>>q)&1; multi-qubit local indices
/// use bit j = j-th qubit argument.
struct NaiveState {
  unsigned n;
  std::vector<std::complex<double>> amps;

  explicit NaiveState(unsigned numQubits)
      : n(numQubits), amps(std::size_t{1} << numQubits) {
    amps[0] = 1.0;
  }

  void apply1(const GateMatrix2& g, unsigned q) {
    const std::uint64_t bit = 1ULL << q;
    for (std::uint64_t i = 0; i < amps.size(); ++i) {
      if ((i & bit) == 0) {
        const std::complex<double> a0 = amps[i];
        const std::complex<double> a1 = amps[i | bit];
        amps[i] = g.m00 * a0 + g.m01 * a1;
        amps[i | bit] = g.m10 * a0 + g.m11 * a1;
      }
    }
  }

  void apply2(const GateMatrix4& g, unsigned q0, unsigned q1) {
    const std::uint64_t b0 = 1ULL << q0;
    const std::uint64_t b1 = 1ULL << q1;
    for (std::uint64_t i = 0; i < amps.size(); ++i) {
      if ((i & b0) == 0 && (i & b1) == 0) {
        const std::uint64_t idx[4] = {i, i | b0, i | b1, i | b0 | b1};
        std::complex<double> in[4];
        for (int k = 0; k < 4; ++k) {
          in[k] = amps[idx[k]];
        }
        for (int r = 0; r < 4; ++r) {
          std::complex<double> acc = 0.0;
          for (int c = 0; c < 4; ++c) {
            acc += g.m[r][c] * in[c];
          }
          amps[idx[r]] = acc;
        }
      }
    }
  }

  void applyControlled1(const GateMatrix2& g, unsigned control, unsigned target) {
    const std::uint64_t cbit = 1ULL << control;
    const std::uint64_t tbit = 1ULL << target;
    for (std::uint64_t i = 0; i < amps.size(); ++i) {
      if ((i & cbit) != 0 && (i & tbit) == 0) {
        const std::complex<double> a0 = amps[i];
        const std::complex<double> a1 = amps[i | tbit];
        amps[i] = g.m00 * a0 + g.m01 * a1;
        amps[i | tbit] = g.m10 * a0 + g.m11 * a1;
      }
    }
  }

  void applyDiagonal(std::span<const Complex> diag,
                     std::span<const unsigned> qubits) {
    for (std::uint64_t i = 0; i < amps.size(); ++i) {
      std::size_t idx = 0;
      for (std::size_t j = 0; j < qubits.size(); ++j) {
        idx |= ((i >> qubits[j]) & 1U) << j;
      }
      amps[i] *= diag[idx];
    }
  }

  void applySwap(unsigned a, unsigned b) {
    const std::uint64_t abit = 1ULL << a;
    const std::uint64_t bbit = 1ULL << b;
    for (std::uint64_t i = 0; i < amps.size(); ++i) {
      if ((i & abit) != 0 && (i & bbit) == 0) {
        std::swap(amps[i], amps[(i & ~abit) | bbit]);
      }
    }
  }

  void applyCCX(unsigned c1, unsigned c2, unsigned t) {
    const std::uint64_t c1bit = 1ULL << c1;
    const std::uint64_t c2bit = 1ULL << c2;
    const std::uint64_t tbit = 1ULL << t;
    for (std::uint64_t i = 0; i < amps.size(); ++i) {
      if ((i & c1bit) != 0 && (i & c2bit) != 0 && (i & tbit) == 0) {
        std::swap(amps[i], amps[i | tbit]);
      }
    }
  }
};

GateMatrix2 randomUnitary2(SplitMix64& rng) {
  const double a = rng.uniform() * 2 * std::numbers::pi;
  const double b = rng.uniform() * 2 * std::numbers::pi;
  const double c = rng.uniform() * 2 * std::numbers::pi;
  return matmul(gateRZ(a), matmul(gateRX(b), gateRZ(c)));
}

GateMatrix4 randomUnitary4(SplitMix64& rng) {
  // Entangling: two independent local unitaries around a CZ-like
  // controlled phase, so the 4x4 has no product structure.
  const GateMatrix4 local = matmul(embed2(randomUnitary2(rng), 1),
                                   embed2(randomUnitary2(rng), 0));
  const GateMatrix4 phase =
      controlled4(gateRZ(rng.uniform() * 2 * std::numbers::pi), 0, 1);
  return matmul(embed2(randomUnitary2(rng), 0), matmul(phase, local));
}

std::vector<Complex> randomPhases(SplitMix64& rng, std::size_t k) {
  std::vector<Complex> diag(std::size_t{1} << k);
  for (Complex& d : diag) {
    const double theta = rng.uniform() * 2 * std::numbers::pi;
    d = Complex(std::cos(theta), std::sin(theta));
  }
  return diag;
}

void expectAmplitudesNear(const StateVector& sv, const NaiveState& ref,
                          double tol, unsigned n, int step) {
  for (std::uint64_t i = 0; i < ref.amps.size(); ++i) {
    const Complex got = sv.amplitude(i);
    ASSERT_NEAR(got.real(), ref.amps[i].real(), tol)
        << "qubits=" << n << " step=" << step << " amp=" << i;
    ASSERT_NEAR(got.imag(), ref.amps[i].imag(), tol)
        << "qubits=" << n << " step=" << step << " amp=" << i;
  }
}

/// Randomized differential run: \p steps random gates per register width,
/// compared amplitude-by-amplitude after every gate (so the first
/// divergence is attributed to the kernel that caused it).
void runKernelDifferential(Precision precision, double tol) {
  SplitMix64 rng(2024);
  for (unsigned n = 2; n <= 12; n += 2) {
    StateVector sv(n, nullptr, precision);
    NaiveState ref(n);
    for (int step = 0; step < 30; ++step) {
      const auto q0 = static_cast<unsigned>(rng.below(n));
      auto q1 = static_cast<unsigned>(rng.below(n));
      if (q1 == q0) {
        q1 = (q1 + 1) % n;
      }
      switch (rng.below(n >= 3 ? 6 : 5)) {
      case 0: {
        const GateMatrix2 g = randomUnitary2(rng);
        sv.apply1(g, q0);
        ref.apply1(g, q0);
        break;
      }
      case 1: {
        const GateMatrix4 g = randomUnitary4(rng);
        sv.apply2(g, q0, q1);
        ref.apply2(g, q0, q1);
        break;
      }
      case 2: {
        const GateMatrix2 g = randomUnitary2(rng);
        sv.applyControlled1(g, q0, q1);
        ref.applyControlled1(g, q0, q1);
        break;
      }
      case 3: {
        const auto k = static_cast<std::size_t>(1 + rng.below(std::min(n, 6U)));
        std::vector<unsigned> qubits;
        for (unsigned q = 0; q < n; ++q) {
          qubits.push_back(q);
        }
        for (std::size_t j = qubits.size() - 1; j > 0; --j) {
          std::swap(qubits[j], qubits[rng.below(j + 1)]);
        }
        qubits.resize(k);
        const std::vector<Complex> diag = randomPhases(rng, k);
        sv.applyDiagonal(diag, qubits);
        ref.applyDiagonal(diag, qubits);
        break;
      }
      case 4:
        sv.applySwap(q0, q1);
        ref.applySwap(q0, q1);
        break;
      default: {
        auto q2 = static_cast<unsigned>(rng.below(n));
        while (q2 == q0 || q2 == q1) {
          q2 = (q2 + 1) % n;
        }
        sv.applyCCX(q0, q1, q2);
        ref.applyCCX(q0, q1, q2);
        break;
      }
      }
      expectAmplitudesNear(sv, ref, tol, n, step);
    }
  }
}

/// Deterministic coverage of the 8-index tile paths, which the random
/// draws above do not guarantee: every kernel with its lowest qubit at 0,
/// 1, 2 and at a high qubit, each qubit pair in both orders, then phase
/// tables of 1 to 6 qubits that include qubit 0. On 14 qubits sequentially;
/// on a pool, 16 qubits, so that every kernel's range (2^14 groups for
/// the two-qubit kernels) is split across the workers, in whole tiles.
void runTileKernels(Precision precision, double tol, ThreadPool* pool) {
  const unsigned n = pool == nullptr ? 14 : 16;
  StateVector sv(n, pool, precision);
  NaiveState ref(n);
  SplitMix64 rng(31);
  for (unsigned q = 0; q < n; ++q) {
    const GateMatrix2 g = randomUnitary2(rng);
    sv.apply1(g, q);
    ref.apply1(g, q);
  }
  int step = 0;
  for (const unsigned lo : {0U, 1U, 2U, 9U}) {
    for (const unsigned hi : {lo + 1, lo + 3, n - 1}) {
      for (const auto& [a, b] : {std::pair{lo, hi}, std::pair{hi, lo}}) {
        const GateMatrix4 u4 = randomUnitary4(rng);
        sv.apply2(u4, a, b);
        ref.apply2(u4, a, b);
        expectAmplitudesNear(sv, ref, tol, n, step++);
        const GateMatrix2 u2 = randomUnitary2(rng);
        sv.applyControlled1(u2, a, b);
        ref.applyControlled1(u2, a, b);
        expectAmplitudesNear(sv, ref, tol, n, step++);
        const std::vector<Complex> diag = randomPhases(rng, 2);
        const unsigned qubits[] = {a, b};
        sv.applyDiagonal(diag, qubits);
        ref.applyDiagonal(diag, qubits);
        expectAmplitudesNear(sv, ref, tol, n, step++);
      }
      // Mix qubit lo again, then restart the reference from the kernel's
      // state so that f32 rounding does not accumulate across groups.
      sv.apply1(randomUnitary2(rng), lo);
      for (std::uint64_t i = 0; i < sv.dimension(); ++i) {
        ref.amps[i] = sv.amplitude(i);
      }
    }
  }
  for (std::size_t k = 1; k <= 6; ++k) {
    std::vector<unsigned> qubits = {0};
    while (qubits.size() < k) {
      const auto q = static_cast<unsigned>(rng.below(n));
      if (std::find(qubits.begin(), qubits.end(), q) == qubits.end()) {
        qubits.push_back(q);
      }
    }
    std::swap(qubits[0], qubits[k - 1]); // qubit 0 need not be bit 0
    const std::vector<Complex> diag = randomPhases(rng, k);
    sv.applyDiagonal(diag, qubits);
    ref.applyDiagonal(diag, qubits);
    expectAmplitudesNear(sv, ref, tol, n, step++);
  }
}

TEST(KernelDifferential, TileKernelsMatchNaiveReferenceF64) {
  runTileKernels(Precision::F64, 1e-12, nullptr);
  ThreadPool pool(2);
  runTileKernels(Precision::F64, 1e-12, &pool);
}

TEST(KernelDifferential, TileKernelsMatchNaiveReferenceF32) {
  runTileKernels(Precision::F32, 1e-5, nullptr);
  ThreadPool pool(2);
  runTileKernels(Precision::F32, 1e-5, &pool);
}

/// In f64 the tile paths return the amplitudes the run loops do, bit for
/// bit: each kernel on (lo, hi) with lo below 3 against the same kernel on
/// (9, hi) — run loops — of a copy whose qubits lo and 9 are exchanged.
/// (f32 is left out: there the compiler rounds the vectorized run loops
/// and the scalar short runs differently, tiles or not.)
TEST(KernelDifferential, TileKernelsMatchRunLoopsBitwiseF64) {
  constexpr unsigned n = 14;
  SplitMix64 rng(77);
  for (const unsigned lo : {0U, 1U, 2U}) {
    for (const unsigned hi : {5U, 13U}) {
      StateVector tiles(n);
      StateVector runs(n);
      for (unsigned q = 0; q < n; ++q) {
        const GateMatrix2 g = randomUnitary2(rng);
        tiles.apply1(g, q);
        runs.apply1(g, q);
      }
      runs.applySwap(lo, 9);
      const GateMatrix4 u4 = randomUnitary4(rng);
      const GateMatrix2 u2 = randomUnitary2(rng);
      const std::vector<Complex> diag = randomPhases(rng, 2);
      tiles.apply2(u4, lo, hi);
      runs.apply2(u4, 9, hi);
      tiles.apply2(u4, hi, lo);
      runs.apply2(u4, hi, 9);
      tiles.applyControlled1(u2, lo, hi);
      runs.applyControlled1(u2, 9, hi);
      tiles.applyControlled1(u2, hi, lo);
      runs.applyControlled1(u2, hi, 9);
      const unsigned tileQubits[] = {lo, hi};
      const unsigned runQubits[] = {9, hi};
      tiles.applyDiagonal(diag, tileQubits);
      runs.applyDiagonal(diag, runQubits);
      runs.applySwap(lo, 9);
      for (std::uint64_t i = 0; i < tiles.dimension(); ++i) {
        ASSERT_EQ(tiles.amplitude(i), runs.amplitude(i))
            << "lo=" << lo << " hi=" << hi << " amp=" << i;
      }
    }
  }
}

TEST(KernelDifferential, BlockedKernelsMatchNaiveReferenceF64) {
  runKernelDifferential(Precision::F64, 1e-12);
}

TEST(KernelDifferential, BlockedKernelsMatchNaiveReferenceF32) {
  runKernelDifferential(Precision::F32, 1e-5);
}

/// A run of fused gates plus the tables their matrix spans point into (the
/// inner vectors' buffers, which stay put when the outer vector grows).
struct SweepRun {
  std::vector<SweepGate> gates;
  std::vector<std::vector<Complex>> tables;

  /// Append a random gate of \p kind on qubits below \p n; a nonzero
  /// \p fixedQubit pins a Unitary1's target instead.
  void add(SweepGate::Kind kind, SplitMix64& rng, unsigned n,
           unsigned fixedQubit = 0) {
    SweepGate gate;
    gate.kind = kind;
    std::vector<Complex> table;
    switch (kind) {
    case SweepGate::Kind::Unitary1: {
      gate.numQubits = 1;
      gate.qubits[0] =
          fixedQubit != 0 ? fixedQubit : static_cast<unsigned>(rng.below(n));
      const GateMatrix2 m = randomUnitary2(rng);
      table = {m.m00, m.m01, m.m10, m.m11};
      break;
    }
    case SweepGate::Kind::Unitary2: {
      gate.numQubits = 2;
      gate.qubits[0] = static_cast<unsigned>(rng.below(n));
      gate.qubits[1] = static_cast<unsigned>(rng.below(n));
      if (gate.qubits[1] == gate.qubits[0]) {
        gate.qubits[1] = (gate.qubits[1] + 1) % n;
      }
      const GateMatrix4 m = randomUnitary4(rng);
      table.assign(&m.m[0][0], &m.m[0][0] + 16);
      break;
    }
    case SweepGate::Kind::Diagonal: {
      const std::size_t k = 1 + rng.below(4);
      gate.numQubits = static_cast<std::uint8_t>(k);
      for (std::size_t j = 0; j < k; ++j) {
        unsigned q = static_cast<unsigned>(rng.below(n));
        while (std::find(gate.qubits.begin(), gate.qubits.begin() + j, q) !=
               gate.qubits.begin() + j) {
          q = (q + 1) % n;
        }
        gate.qubits[j] = q;
      }
      table = randomPhases(rng, k);
      break;
    }
    case SweepGate::Kind::Controlled:
    case SweepGate::Kind::Swap: {
      gate.numQubits = 2;
      gate.qubits[0] = static_cast<unsigned>(rng.below(n));
      gate.qubits[1] =
          (gate.qubits[0] + 1 + static_cast<unsigned>(rng.below(n - 1))) % n;
      const GateMatrix2 m = randomUnitary2(rng);
      if (kind == SweepGate::Kind::Controlled) {
        table = {m.m00, m.m01, m.m10, m.m11};
      }
      break;
    }
    }
    tables.push_back(std::move(table));
    gate.matrix = tables.back();
    gates.push_back(gate);
  }
};

/// applyFusedSweep (optionally on a pool) vs the same gates applied one
/// sequential full pass each: the amplitudes must be bit-identical.
void expectSweepMatchesPerGatePasses(Precision precision, unsigned n,
                                     ThreadPool* pool,
                                     std::span<const SweepGate> gates) {
  StateVector swept(n, pool, precision);
  StateVector perGate(n, nullptr, precision);
  for (unsigned q = 0; q < n; ++q) {
    swept.apply1(gateH(), q);
    perGate.apply1(gateH(), q);
  }
  swept.applyFusedSweep(gates);
  for (const SweepGate& gate : gates) {
    const std::span<const Complex> m = gate.matrix;
    const unsigned q0 = gate.qubits[0];
    const unsigned q1 = gate.qubits[1];
    switch (gate.kind) {
    case SweepGate::Kind::Unitary1:
      perGate.apply1({m[0], m[1], m[2], m[3]}, q0);
      break;
    case SweepGate::Kind::Unitary2: {
      GateMatrix4 m4;
      std::copy(m.begin(), m.end(), &m4.m[0][0]);
      perGate.apply2(m4, q0, q1);
      break;
    }
    case SweepGate::Kind::Diagonal:
      perGate.applyDiagonal(m, {gate.qubits.data(), gate.numQubits});
      break;
    case SweepGate::Kind::Controlled:
      perGate.applyControlled1({m[0], m[1], m[2], m[3]}, q0, q1);
      break;
    case SweepGate::Kind::Swap:
      perGate.applySwap(q0, q1);
      break;
    }
  }
  for (std::uint64_t i = 0; i < swept.dimension(); ++i) {
    ASSERT_EQ(swept.amplitude(i), perGate.amplitude(i))
        << "amp=" << i << " n=" << n << " gates=" << gates.size();
  }
}

void runSweepDifferential(Precision precision) {
  // A random run on a 14-qubit register (one chunk is kSweepChunkBits =
  // 12 qubits); gate 5, when it is a Unitary1, sits on the top qubit.
  // This draw reaches qubit 13, so the run's chunk spans the register.
  {
    SplitMix64 rng(4242);
    SweepRun run;
    for (int i = 0; i < 8; ++i) {
      run.add(static_cast<SweepGate::Kind>(rng.below(3)), rng, 14,
              i == 5 ? 13 : 0);
    }
    expectSweepMatchesPerGatePasses(precision, 14, nullptr, run.gates);
  }
  // Every qubit below 12 on a 14-qubit register: four chunks, so the run
  // takes the chunk-major path, sequentially and on a pool. Then each of
  // its gates alone (the draw holds every kind): a run of length one.
  {
    SplitMix64 rng(1212);
    SweepRun run;
    for (int i = 0; i < 12; ++i) {
      run.add(static_cast<SweepGate::Kind>(rng.below(3)), rng, 12);
    }
    expectSweepMatchesPerGatePasses(precision, 14, nullptr, run.gates);
    ThreadPool pool(2);
    expectSweepMatchesPerGatePasses(precision, 14, &pool, run.gates);
    for (const SweepGate& gate : run.gates) {
      expectSweepMatchesPerGatePasses(precision, 14, nullptr, {&gate, 1});
    }
  }
  // A top-qubit member widens the run's chunk to the whole register, so
  // the run takes per-gate passes — pool-parallel on 16 qubits.
  {
    SplitMix64 rng(777);
    ThreadPool pool(2);
    SweepRun run;
    for (int i = 0; i < 12; ++i) {
      run.add(static_cast<SweepGate::Kind>(rng.below(3)), rng, 16);
    }
    run.add(SweepGate::Kind::Unitary1, rng, 16, 15);
    expectSweepMatchesPerGatePasses(precision, 16, &pool, run.gates);
  }
}

TEST(KernelDifferential, FusedSweepMatchesPerGatePassesF64) {
  runSweepDifferential(Precision::F64);
}

TEST(KernelDifferential, FusedSweepMatchesPerGatePassesF32) {
  runSweepDifferential(Precision::F32);
}

TEST(KernelDifferential, F32SamplingMatchesF64Distribution) {
  // The two widths simulate the same rotation-dense circuit; the sampled
  // histograms must agree statistically (identical RNG draws walk the
  // same CDF, so only rounding-induced boundary crossings can differ).
  const unsigned n = 8;
  StateVector f64(n, nullptr, Precision::F64);
  StateVector f32(n, nullptr, Precision::F32);
  SplitMix64 gateRng(99);
  for (int step = 0; step < 20; ++step) {
    const GateMatrix2 g = randomUnitary2(gateRng);
    const auto q = static_cast<unsigned>(gateRng.below(n));
    f64.apply1(g, q);
    f32.apply1(g, q);
    const auto c = static_cast<unsigned>(gateRng.below(n));
    if (c != q) {
      f64.applyControlled1(gateX(), c, q);
      f32.applyControlled1(gateX(), c, q);
    }
  }
  constexpr std::uint64_t kShots = 20000;
  SplitMix64 rngA(7);
  SplitMix64 rngB(7);
  const auto histA = f64.sampleShots(kShots, rngA);
  const auto histB = f32.sampleShots(kShots, rngB);
  // Total-variation distance between the two empirical histograms; with
  // identical draws it measures pure rounding effects, far below noise.
  std::uint64_t diff = 0;
  for (const auto& [basis, count] : histA) {
    const auto it = histB.find(basis);
    const std::uint64_t other = it == histB.end() ? 0 : it->second;
    diff += count > other ? count - other : other - count;
  }
  for (const auto& [basis, count] : histB) {
    if (histA.find(basis) == histA.end()) {
      diff += count;
    }
  }
  EXPECT_LT(static_cast<double>(diff) / (2.0 * kShots), 0.01);
}

// ---------------------------------------------------------------------------
// The streaming sampler against the sampler it replaced: a cumulative
// distribution of 2^n doubles and one upper_bound per draw. The reference
// sums re*re + im*im in index order, as sampleShots' first pass does. This
// file is compiled without FMA, so on a complex f64 state its sums may
// differ from the sampler's in the last bit; random draws never land in
// that gap, and draws placed exactly on a running sum use f32 or real
// states, whose terms round the same with or without FMA.
// ---------------------------------------------------------------------------

std::vector<double> referenceCdf(const StateVector& sv) {
  std::vector<double> cdf(sv.dimension());
  double total = 0;
  for (std::uint64_t i = 0; i < sv.dimension(); ++i) {
    const Complex a = sv.amplitude(i);
    total += a.real() * a.real() + a.imag() * a.imag();
    cdf[i] = total;
  }
  return cdf;
}

std::map<std::uint64_t, std::uint64_t> referenceCounts(const std::vector<double>& cdf,
                                                       std::span<const double> draws) {
  std::map<std::uint64_t, std::uint64_t> counts;
  for (const double draw : draws) {
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), draw);
    ++counts[it == cdf.end() ? cdf.size() - 1
                             : static_cast<std::uint64_t>(it - cdf.begin())];
  }
  return counts;
}

/// What the replaced sampleShots drew: uniforms in shot order, scaled by
/// the CDF's last entry.
std::map<std::uint64_t, std::uint64_t> referenceSample(const StateVector& sv,
                                                       std::uint64_t shots,
                                                       std::uint64_t seed) {
  const std::vector<double> cdf = referenceCdf(sv);
  SplitMix64 rng(seed);
  std::vector<double> draws(shots);
  for (double& draw : draws) {
    draw = rng.uniform() * cdf.back();
  }
  return referenceCounts(cdf, draws);
}

enum class Shape { Random, Ghz, Real };

/// Random: complex amplitudes everywhere. Ghz: two nonzero amplitudes, so
/// almost every running sum repeats its predecessor. Real: RY and CX only.
StateVector sampledState(Shape shape, unsigned n, Precision precision,
                         ThreadPool* pool = nullptr) {
  StateVector sv(n, pool, precision);
  SplitMix64 rng(31);
  switch (shape) {
  case Shape::Random:
    for (int step = 0; step < 40; ++step) {
      const auto q = static_cast<unsigned>(rng.below(n));
      sv.apply1(randomUnitary2(rng), q);
      sv.applyControlled1(gateX(), q, (q + 1) % n);
    }
    break;
  case Shape::Ghz:
    sv.apply1(gateH(), 0);
    for (unsigned q = 1; q < n; ++q) {
      sv.applyControlled1(gateX(), q - 1, q);
    }
    break;
  case Shape::Real:
    for (unsigned q = 0; q < n; ++q) {
      sv.apply1(gateRY(0.3 + 0.2 * q), q);
      sv.applyControlled1(gateX(), q, (q + 3) % n);
    }
    break;
  }
  return sv;
}

TEST(StreamingSampler, MatchesTheCdfReference) {
  ThreadPool pool(4);
  for (const Precision precision : {Precision::F64, Precision::F32}) {
    for (const Shape shape : {Shape::Random, Shape::Ghz, Shape::Real}) {
      // 2^15 amplitudes are 8 blocks of running sums, so the pooled walk
      // splits its blocks over the workers.
      const StateVector seq = sampledState(shape, 15, precision);
      const StateVector par = sampledState(shape, 15, precision, &pool);
      for (const std::uint64_t shots : {std::uint64_t{1}, std::uint64_t{4096}}) {
        SCOPED_TRACE(testing::Message()
                     << (precision == Precision::F32 ? "f32" : "f64") << " shape "
                     << static_cast<int>(shape) << " shots " << shots);
        const auto reference = referenceSample(seq, shots, 17);
        SplitMix64 rngSeq(17);
        SplitMix64 rngPar(17);
        EXPECT_EQ(seq.sampleShots(shots, rngSeq), reference);
        EXPECT_EQ(par.sampleShots(shots, rngPar), reference);
      }
    }
  }
}

TEST(StreamingSampler, DrawOnARunningSumTakesTheNextState) {
  // upper_bound picks the first entry strictly above the draw: a draw
  // equal to a running sum belongs to the next state with any probability,
  // past GHZ's runs of zeros and across block ends (2^12 amplitudes).
  ThreadPool pool(2);
  const std::pair<Shape, Precision> cases[] = {{Shape::Random, Precision::F32},
                                               {Shape::Ghz, Precision::F64},
                                               {Shape::Ghz, Precision::F32},
                                               {Shape::Real, Precision::F64}};
  for (const auto& [shape, precision] : cases) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(testing::Message() << "shape " << static_cast<int>(shape)
                                      << (precision == Precision::F32 ? " f32" : " f64")
                                      << (p != nullptr ? " pool" : ""));
      const StateVector sv = sampledState(shape, 14, precision, p);
      const std::vector<double> cdf = referenceCdf(sv);
      std::vector<double> draws = {0.0, cdf.back(),
                                   std::nextafter(cdf.back(), 2.0), 2.0};
      for (const std::uint64_t i : {0UL, 1UL, 2UL, 4094UL, 4095UL, 4096UL, 8191UL,
                                    8192UL, 12000UL, 16382UL}) {
        draws.push_back(cdf[i]);
        draws.push_back(std::nextafter(cdf[i], -1.0));
        draws.push_back(std::nextafter(cdf[i], 2.0));
      }
      std::ranges::sort(draws);
      EXPECT_EQ(sv.countSortedDraws(draws), referenceCounts(cdf, draws));
    }
  }
}

// ---------------------------------------------------------------------------
// Storage: one buffer per state. A reservation moves no amplitude, clear()
// keeps the buffer, and neither changes a single amplitude or draw.
// ---------------------------------------------------------------------------

TEST(StateVectorStorage, ReservedGrowthStaysInOneBuffer) {
  for (const Precision precision : {Precision::F64, Precision::F32}) {
    StateVector sv(0, nullptr, precision);
    ASSERT_TRUE(sv.reserveQubits(17)); // 2 MiB of f64: the huge-page path
    const Complex* const buffer = sv.amplitudes().data(); // null for f32
    for (unsigned q = 0; q < 17; ++q) {
      sv.addQubit();
      sv.apply1(gateH(), q);
    }
    EXPECT_EQ(sv.amplitudes().data(), buffer);
    EXPECT_NEAR(sv.normSquared(), 1.0, 1e-6);
    sv.clear();
    EXPECT_EQ(sv.amplitudes().data(), buffer);
    EXPECT_EQ(sv.numQubits(), 0U);
    EXPECT_EQ(sv.gateCount(), 0U);
    EXPECT_EQ(sv.amplitude(0), Complex{1.0});
    for (unsigned q = 0; q < 5; ++q) {
      sv.addQubit();
    }
    // The upper halves were zeroed as the register grew back in place.
    for (std::uint64_t i = 1; i < sv.dimension(); ++i) {
      EXPECT_EQ(sv.amplitude(i), Complex{}) << i;
    }
  }
  StateVector sv;
  EXPECT_FALSE(sv.reserveQubits(StateVector::kMaxQubits + 1));
  EXPECT_TRUE(sv.reserveQubits(0));
}

/// One run of a circuit on a deferred-measurement runtime, as the
/// executor's sampling path runs it.
struct RuntimeRun {
  std::vector<Complex> amplitudes;
  std::map<std::string, std::uint64_t> histogram;
  std::uint64_t gates = 0;
};

RuntimeRun runDeferred(const ir::Module& module, unsigned reserve, Precision precision) {
  runtime::QuantumRuntime rt(1, nullptr, precision);
  rt.setMeasurementMode(runtime::QuantumRuntime::MeasurementMode::Defer);
  if (reserve != 0) {
    EXPECT_TRUE(rt.state().reserveQubits(reserve));
  }
  vm::Vm machine(vm::compileModule(module));
  rt.bind(machine);
  machine.runEntryPoint();
  RuntimeRun run;
  for (std::uint64_t i = 0; i < rt.state().dimension(); ++i) {
    run.amplitudes.push_back(rt.state().amplitude(i));
  }
  SplitMix64 rng(5);
  run.histogram = rt.sampleRecordedHistogram(4096, rng);
  run.gates = rt.state().gateCount();
  return run;
}

bool sameBits(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

TEST(StateVectorStorage, ReservedAndUnreservedRuntimesAgreeBitForBit) {
  ir::Context ctx;
  const std::pair<circuit::Circuit, Precision> programs[] = {
      {circuit::qft(17, /*measured=*/true), Precision::F64},
      {circuit::qft(12, /*measured=*/true), Precision::F32},
      {circuit::randomCircuit(14, 20, 3), Precision::F64},
      {circuit::randomCircuit(13, 20, 4), Precision::F32}};
  for (const auto& [c, precision] : programs) {
    SCOPED_TRACE(c.summary());
    const auto m = qir::exportCircuit(ctx, c, {});
    const RuntimeRun grown = runDeferred(*m, 0, precision);
    const RuntimeRun reserved = runDeferred(*m, c.numQubits(), precision);
    // A reservation wider than the program changes nothing either.
    const RuntimeRun wider = runDeferred(*m, c.numQubits() + 2, precision);
    for (const RuntimeRun* run : {&reserved, &wider}) {
      EXPECT_TRUE(sameBits(grown.amplitudes, run->amplitudes));
      EXPECT_EQ(grown.histogram, run->histogram);
      EXPECT_EQ(grown.gates, run->gates);
    }
  }
}

TEST(StateVectorStorage, ResetRuntimeMatchesAFreshOne) {
  // Twelve qubits leave nonzero amplitudes all over the kept buffer; the
  // three-qubit program after reset must still start from |000> and
  // count only its own gates.
  ir::Context ctx;
  circuit::Circuit wide(12, 0);
  for (std::uint32_t q = 0; q < 12; ++q) {
    wide.h(q);
    wide.ry(0.1 * (q + 1), q);
  }
  circuit::Circuit narrow(3, 0);
  narrow.ry(0.7, 0);
  narrow.cx(0, 1);
  narrow.rx(0.4, 2);
  const auto wideModule = qir::exportCircuit(ctx, wide, {});
  const auto narrowModule = qir::exportCircuit(ctx, narrow, {});
  for (const Precision precision : {Precision::F64, Precision::F32}) {
    runtime::QuantumRuntime reused(3, nullptr, precision);
    interp::Interpreter wideRun(*wideModule);
    reused.bind(wideRun);
    wideRun.runEntryPoint();
    ASSERT_EQ(reused.state().numQubits(), 12U);
    reused.reset(3);
    interp::Interpreter narrowRun(*narrowModule);
    reused.bind(narrowRun);
    narrowRun.runEntryPoint();

    runtime::QuantumRuntime fresh(3, nullptr, precision);
    interp::Interpreter freshRun(*narrowModule);
    fresh.bind(freshRun);
    freshRun.runEntryPoint();

    ASSERT_EQ(reused.state().numQubits(), 3U);
    EXPECT_EQ(reused.state().gateCount(), fresh.state().gateCount());
    std::vector<Complex> a;
    std::vector<Complex> b;
    for (std::uint64_t i = 0; i < 8; ++i) {
      a.push_back(reused.state().amplitude(i));
      b.push_back(fresh.state().amplitude(i));
    }
    EXPECT_TRUE(sameBits(a, b));
  }
}

} // namespace
} // namespace qirkit::sim
