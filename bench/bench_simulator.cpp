/// E9 — Ex. 5 substrate: the statevector simulator behind the runtime
/// (the Lightning analog). Exponential scaling in qubit count and
/// thread-pool speedup of the gate kernels.
#include "sim/stabilizer.hpp"
#include "sim/statevector.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

#include <benchmark/benchmark.h>

#include <iostream>
#include <thread>

#include "bench_report.hpp"

namespace {

using namespace qirkit;

/// One brick layer: H on every qubit, then a CX ladder.
void applyLayer(sim::StateVector& state) {
  for (unsigned q = 0; q < state.numQubits(); ++q) {
    state.apply1(sim::gateH(), q);
  }
  for (unsigned q = 0; q + 1 < state.numQubits(); ++q) {
    state.applyControlled1(sim::gateX(), q, q + 1);
  }
}

void BM_LayerSequential(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  sim::StateVector sv(n);
  for (auto _ : state) {
    applyLayer(sv);
    benchmark::DoNotOptimize(sv.amplitude(0));
  }
  state.counters["qubits"] = n;
  state.counters["amplitudes"] = static_cast<double>(sv.dimension());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * (2U * n - 1U)));
}
BENCHMARK(BM_LayerSequential)
    ->Arg(10)
    ->Arg(14)
    ->Arg(18)
    ->Arg(20)
    ->Arg(22)
    ->Unit(benchmark::kMillisecond);

void BM_LayerThreaded(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  ThreadPool pool(threads);
  sim::StateVector sv(n, &pool);
  for (auto _ : state) {
    applyLayer(sv);
    benchmark::DoNotOptimize(sv.amplitude(0));
  }
  state.counters["qubits"] = n;
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_LayerThreaded)
    ->ArgsProduct({{18, 20, 22},
                   {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

/// The same H+CX layer on the stabilizer simulator: polynomial scaling
/// lets it run hundreds of qubits where the dense simulator stops at 30 —
/// the "classical simulation techniques" swap of Ex. 5.
void BM_StabilizerLayer(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  sim::StabilizerSimulator sv(n);
  for (auto _ : state) {
    for (unsigned q = 0; q < n; ++q) {
      sv.h(q);
    }
    for (unsigned q = 0; q + 1 < n; ++q) {
      sv.cx(q, q + 1);
    }
    benchmark::DoNotOptimize(sv.gateCount());
  }
  state.counters["qubits"] = n;
}
BENCHMARK(BM_StabilizerLayer)
    ->Arg(22)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_Measurement(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  SplitMix64 rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    sim::StateVector sv(n);
    applyLayer(sv);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sv.measure(0, rng));
  }
  state.counters["qubits"] = n;
}
BENCHMARK(BM_Measurement)->Arg(10)->Arg(16)->Arg(20)->Unit(benchmark::kMicrosecond);

/// The gate-fusion kernels vs the gate-by-gate sweeps they replace. Each
/// mode applies the same unitary (a 3-rotation chain per qubit):
///   0: three apply1 sweeps per qubit (what unfused execution does),
///   1: one precomposed apply1 per qubit (fusion rule 1),
///   2: one precomposed apply2 per qubit pair folding all six gates
///      (fusion rule 2 — 6 sweeps become 1),
///   3: one applyDiagonal per 6-qubit group vs six RZ sweeps (rule 3;
///      timed side is the fused one, mode 4 is its unfused reference).
void BM_Fusion(benchmark::State& state) {
  const auto mode = static_cast<int>(state.range(0));
  const auto n = static_cast<unsigned>(state.range(1));
  sim::StateVector sv(n);
  applyLayer(sv); // spread population so kernels see a dense state
  const sim::GateMatrix2 chain = sim::matmul(
      sim::gateRZ(0.3), sim::matmul(sim::gateRX(0.7), sim::gateRZ(0.1)));
  sim::GateMatrix4 window = sim::matmul(
      sim::embed2(chain, 1), sim::embed2(chain, 0));
  std::vector<sim::Complex> diag(1U << 6, 1.0);
  for (unsigned bit = 0; bit < 6; ++bit) {
    const sim::GateMatrix2 rz = sim::gateRZ(0.2 + 0.1 * bit);
    for (std::size_t i = 0; i < diag.size(); ++i) {
      diag[i] *= ((i >> bit) & 1) != 0 ? rz.m11 : rz.m00;
    }
  }
  for (auto _ : state) {
    switch (mode) {
    case 0:
      for (unsigned q = 0; q < n; ++q) {
        sv.apply1(sim::gateRZ(0.1), q);
        sv.apply1(sim::gateRX(0.7), q);
        sv.apply1(sim::gateRZ(0.3), q);
      }
      break;
    case 1:
      for (unsigned q = 0; q < n; ++q) {
        sv.apply1(chain, q);
      }
      break;
    case 2:
      for (unsigned q = 0; q + 1 < n; q += 2) {
        sv.apply2(window, q, q + 1);
      }
      break;
    case 3:
      for (unsigned q = 0; q + 6 <= n; q += 6) {
        const unsigned qubits[] = {q, q + 1, q + 2, q + 3, q + 4, q + 5};
        sv.applyDiagonal(diag, qubits);
      }
      break;
    default:
      for (unsigned q = 0; q + 6 <= n; q += 6) {
        for (unsigned bit = 0; bit < 6; ++bit) {
          sv.apply1(sim::gateRZ(0.2 + 0.1 * bit), q + bit);
        }
      }
      break;
    }
    benchmark::DoNotOptimize(sv.amplitude(0));
  }
  static const char* const kModeNames[] = {"unfused_1q", "fused_1q", "fused_2q",
                                           "fused_diag", "unfused_diag"};
  state.SetLabel(kModeNames[mode]);
  state.counters["qubits"] = n;
}
BENCHMARK(BM_Fusion)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {18, 22}})
    ->Unit(benchmark::kMillisecond);

/// The cache-blocked kernels (DESIGN 7g) on a rotation-dense gate mix:
/// one low-qubit 2x2 chain, one high-qubit 2x2 chain, one 4x4 window,
/// one 6-qubit diagonal per iteration. amps_per_sec is amplitudes
/// touched per wall second (gates x 2^n / time) — the bandwidth-style
/// figure the blocking and vectorization exist to raise. Args are
/// (qubits, precision): precision 0 = f64, 1 = f32 (half the memory
/// traffic per amplitude).
void BM_Kernel(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const sim::Precision precision =
      state.range(1) == 0 ? sim::Precision::F64 : sim::Precision::F32;
  sim::StateVector sv(n, nullptr, precision);
  for (unsigned q = 0; q < n; ++q) {
    sv.apply1(sim::gateH(), q); // spread population
  }
  const sim::GateMatrix2 chain = sim::matmul(
      sim::gateRZ(0.3), sim::matmul(sim::gateRX(0.7), sim::gateRZ(0.1)));
  const sim::GateMatrix4 window =
      sim::matmul(sim::embed2(chain, 1), sim::embed2(chain, 0));
  std::vector<sim::Complex> diag(1U << 6, 1.0);
  for (unsigned bit = 0; bit < 6; ++bit) {
    const sim::GateMatrix2 rz = sim::gateRZ(0.2 + 0.1 * bit);
    for (std::size_t i = 0; i < diag.size(); ++i) {
      diag[i] *= ((i >> bit) & 1) != 0 ? rz.m11 : rz.m00;
    }
  }
  constexpr std::uint64_t kGatesPerIter = 4;
  for (auto _ : state) {
    sv.apply1(chain, 0);
    sv.apply1(chain, n - 1);
    sv.apply2(window, 1, 2);
    const unsigned dq[] = {0, 1, 2, 3, 4, 5};
    sv.applyDiagonal(diag, dq);
    benchmark::DoNotOptimize(sv.amplitude(0));
  }
  state.SetLabel(precision == sim::Precision::F32 ? "f32" : "f64");
  state.counters["qubits"] = n;
  state.counters["amps_per_sec"] = benchmark::Counter(
      static_cast<double>(kGatesPerIter) * static_cast<double>(sv.dimension()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Kernel)
    ->ArgsProduct({{16, 20, 24, 28}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// Each kernel with its lowest qubit at 0, 1, 2 or 8 on 20 qubits: the
/// 8-index tile paths (lowest qubit below 3) against the run loops the
/// higher qubits take. Args are (kernel, lowest qubit q):
///   0: apply2, a dense 4x4 on (q, 12);
///   1: applyControlled1, X with control q and target 12;
///   2: applyDiagonal, a phase table over (q, 12, 14, 16);
///   3: apply1, a 2x2 on q (no tile path; the reference a 4x4 is
///      weighed against).
void BM_KernelByLowestQubit(benchmark::State& state) {
  const auto kernel = static_cast<int>(state.range(0));
  const auto q = static_cast<unsigned>(state.range(1));
  constexpr unsigned n = 20;
  sim::StateVector sv(n);
  for (unsigned k = 0; k < n; ++k) {
    sv.apply1(sim::gateH(), k);
  }
  const sim::GateMatrix2 chain = sim::matmul(
      sim::gateRZ(0.3), sim::matmul(sim::gateRX(0.7), sim::gateRZ(0.1)));
  const sim::GateMatrix4 window = sim::matmul(
      sim::controlled4(sim::gateRZ(0.4), 0, 1),
      sim::matmul(sim::embed2(chain, 1), sim::embed2(chain, 0)));
  std::vector<sim::Complex> diag(1U << 4);
  for (std::size_t i = 0; i < diag.size(); ++i) {
    diag[i] = std::polar(1.0, 0.1 + 0.3 * static_cast<double>(i));
  }
  const unsigned dq[] = {q, 12, 14, 16};
  for (auto _ : state) {
    switch (kernel) {
    case 0:
      sv.apply2(window, q, 12);
      break;
    case 1:
      sv.applyControlled1(sim::gateX(), q, 12);
      break;
    case 2:
      sv.applyDiagonal(diag, dq);
      break;
    default:
      sv.apply1(chain, q);
      break;
    }
    benchmark::DoNotOptimize(sv.amplitude(0));
  }
  static const char* const kKernelNames[] = {"apply2", "controlled1", "diagonal",
                                             "apply1"};
  state.SetLabel(kKernelNames[kernel]);
  state.counters["qubits"] = n;
  state.counters["lowest_qubit"] = q;
  state.counters["amps_per_sec"] = benchmark::Counter(
      static_cast<double>(sv.dimension()), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_KernelByLowestQubit)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2, 8}})
    ->Unit(benchmark::kMillisecond);

/// applyFusedSweep (one chunk walk for the whole run) vs the same blocks
/// applied as separate full-state passes. Mode 0 = per-gate passes,
/// mode 1 = sweep; the gap is pure memory traffic saved.
void BM_KernelSweep(benchmark::State& state) {
  const auto mode = static_cast<int>(state.range(0));
  const auto n = static_cast<unsigned>(state.range(1));
  sim::StateVector sv(n);
  for (unsigned q = 0; q < n; ++q) {
    sv.apply1(sim::gateH(), q);
  }
  const sim::GateMatrix2 chain = sim::matmul(
      sim::gateRZ(0.3), sim::matmul(sim::gateRX(0.7), sim::gateRZ(0.1)));
  std::vector<sim::SweepGate> gates;
  for (unsigned q = 0; q < 8; ++q) {
    sim::SweepGate gate;
    gate.kind = sim::SweepGate::Kind::Unitary1;
    gate.q0 = q;
    gate.m2 = chain;
    gates.push_back(gate);
  }
  for (auto _ : state) {
    if (mode == 0) {
      for (const sim::SweepGate& gate : gates) {
        sv.apply1(gate.m2, gate.q0);
      }
    } else {
      sv.applyFusedSweep(gates);
    }
    benchmark::DoNotOptimize(sv.amplitude(0));
  }
  state.SetLabel(mode == 0 ? "per_gate" : "sweep");
  state.counters["qubits"] = n;
  state.counters["sweep_gates"] = static_cast<double>(gates.size());
}
BENCHMARK(BM_KernelSweep)
    ->ArgsProduct({{0, 1}, {18, 22}})
    ->Unit(benchmark::kMillisecond);

void BM_SampleShots(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  sim::StateVector sv(n);
  applyLayer(sv);
  SplitMix64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sv.sample(rng));
  }
  state.counters["qubits"] = n;
}
BENCHMARK(BM_SampleShots)->Arg(10)->Arg(16)->Arg(20)->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char** argv) {
  std::cout << "# E9: statevector simulator scaling (hardware threads: "
            << std::thread::hardware_concurrency() << ")\n\n";
  return qirkit::bench::runAndReport(&argc, argv, "bench_simulator");
}
