/// E2 — §III.B, Ex. 4: loop unrolling with statically known bounds.
/// "Since QIR builds on the LLVM infrastructure, it is straight forward to
/// unroll any loops with statically known bounds … an optimization pass
/// does not have to handle the FOR-loop, but sees only the [N] individual
/// Hadamard gates." Measures pipeline cost vs N and asserts the resulting
/// gate count equals N, and the cost of a nested OpenQASM 3 loop (the
/// bench_pipeline layered6 shape), which the unroller takes one nesting
/// level per pipeline sweep.
#include "ir/parser.hpp"
#include "qasm/qasm3.hpp"
#include "qir/compile.hpp"
#include "qir/importer.hpp"

#include "workloads.hpp"

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_report.hpp"

namespace {

using namespace qirkit;

void BM_UnrollPipeline(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const std::string text = bench::ex4LoopProgram(n);
  std::size_t gates = 0;
  std::size_t instructionsAfter = 0;
  for (auto _ : state) {
    ir::Context ctx;
    auto module = ir::parseModule(ctx, text);
    qir::transformDirect(*module);
    instructionsAfter = module->instructionCount();
    gates = qir::importFromModule(*module).gateCount();
    benchmark::DoNotOptimize(gates);
  }
  if (gates != n) {
    state.SkipWithError("unrolled gate count does not match the loop bound");
  }
  state.counters["N"] = n;
  state.counters["gates"] = static_cast<double>(gates);
  state.counters["instructions_after"] = static_cast<double>(instructionsAfter);
}
BENCHMARK(BM_UnrollPipeline)
    ->Arg(10)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// The unroll pass alone (loop already in SSA form via mem2reg + SCCP).
void BM_UnrollPassOnly(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const std::string text = bench::ex4LoopProgram(n);
  for (auto _ : state) {
    state.PauseTiming();
    ir::Context ctx;
    auto module = ir::parseModule(ctx, text);
    passes::PassManager prep;
    prep.add(passes::createMem2RegPass());
    prep.run(*module);
    state.ResumeTiming();
    passes::PassManager pm;
    pm.add(passes::createLoopUnrollPass());
    pm.run(*module);
    benchmark::DoNotOptimize(module->instructionCount());
  }
  state.counters["N"] = n;
}
BENCHMARK(BM_UnrollPassOnly)
    ->Arg(10)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/// bench_pipeline's layered6 program with \p layers outer iterations: an
/// outer FOR loop around two inner loops whose variable drives the qubit
/// index and the angle, then a measurement-conditioned X.
std::string layeredQasm3(unsigned layers) {
  std::string s = "OPENQASM 3;\ninclude \"stdgates.inc\";\nqubit[6] q;\nbit[6] c;\n"
                  "for int layer in [0:" +
                  std::to_string(layers - 1) +
                  "] {\n  for int i in [0:5] {\n    ry(pi * (layer + 3) / 16) q[i];\n"
                  "  }\n  for int i in [0:4] {\n    cx q[i], q[i+1];\n  }\n}\n"
                  "c[0] = measure q[0];\nif (c[0] == 1) {\n  x q[0];\n}\n"
                  "for int i in [0:5] {\n  c[i] = measure q[i];\n}\n";
  return s;
}

/// The full pipeline on the nested loop: every loop unrolls, leaving
/// 11 gates per layer plus the conditioned X.
void BM_UnrollNested(benchmark::State& state) {
  const auto layers = static_cast<unsigned>(state.range(0));
  const std::string text = layeredQasm3(layers);
  std::size_t instructionsBefore = 0;
  std::size_t instructionsAfter = 0;
  std::size_t blocksAfter = 0;
  std::size_t sweeps = 0;
  for (auto _ : state) {
    ir::Context ctx;
    auto module = qasm::compileQasm3(ctx, text);
    instructionsBefore = module->instructionCount();
    sweeps = qir::transformDirect(*module);
    instructionsAfter = module->instructionCount();
    blocksAfter = module->entryPoint()->blocks().size();
    benchmark::DoNotOptimize(instructionsAfter);
  }
  state.counters["layers"] = layers;
  state.counters["instructions_before"] = static_cast<double>(instructionsBefore);
  state.counters["instructions_after"] = static_cast<double>(instructionsAfter);
  state.counters["blocks_after"] = static_cast<double>(blocksAfter);
  state.counters["sweeps"] = static_cast<double>(sweeps);
}
BENCHMARK(BM_UnrollNested)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
  std::cout << "# E2 (paper III.B / Ex. 4): FOR-loop unrolling, N = 10..4096\n";
  {
    ir::Context ctx;
    auto module = ir::parseModule(ctx, bench::ex4LoopProgram(10));
    const std::size_t before = module->instructionCount();
    qir::transformDirect(*module);
    const auto c = qir::importFromModule(*module);
    std::cout << "N=10: " << before << " instructions (4 blocks) -> "
              << module->instructionCount()
              << " instructions (1 block), circuit sees " << c.gateCount()
              << " H gates on " << c.numQubits() << " qubits\n\n";
  }
  return qirkit::bench::runAndReport(&argc, argv, "bench_loop_unroll");
}
