/// E4 — §III.C, Ex. 5: executing QIR programs. Interpreted QIR dispatching
/// into the simulator-backed runtime vs direct circuit simulation vs the
/// bytecode VM (compile once via the content-addressed cache, execute
/// many). Expectation: the runtime route pays an interpretation overhead
/// per gate that shrinks (relatively) as qubit count grows and kernels
/// dominate; the VM removes most of the per-shot dispatch overhead, so
/// multi-shot batches (the realistic sampling workload) run well ahead of
/// the tree-walker.
#include "circuit/executor.hpp"
#include "circuit/generators.hpp"
#include "ir/parser.hpp"
#include "runtime/runtime.hpp"
#include "vm/cache.hpp"
#include "vm/executor.hpp"
#include "vm/vm.hpp"

#include "workloads.hpp"

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "bench_report.hpp"

namespace {

using namespace qirkit;

circuit::Circuit workload(int kind, unsigned n) {
  return kind == 0 ? circuit::ghz(n, true) : circuit::qft(n, true);
}

const char* workloadName(int kind) { return kind == 0 ? "ghz" : "qft"; }

void BM_DirectSimulation(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const auto n = static_cast<unsigned>(state.range(1));
  const circuit::Circuit c = workload(kind, n);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::execute(c, seed++));
  }
  state.SetLabel(workloadName(kind));
  state.counters["qubits"] = n;
  state.counters["gates"] = static_cast<double>(c.gateCount());
}
BENCHMARK(BM_DirectSimulation)
    ->ArgsProduct({{0, 1}, {4, 8, 12, 16}})
    ->Unit(benchmark::kMicrosecond);

void BM_InterpretedQIR(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const auto n = static_cast<unsigned>(state.range(1));
  static std::map<std::pair<int, unsigned>, std::string> cache;
  auto& text = cache[{kind, n}];
  if (text.empty()) {
    text = bench::qirTextFor(workload(kind, n), qir::Addressing::Static, true);
  }
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, text);
  std::uint64_t seed = 1;
  std::uint64_t interpInstructions = 0;
  std::uint64_t gates = 0;
  for (auto _ : state) {
    const runtime::RunResult result = runtime::runQIRModule(*module, seed++);
    interpInstructions = result.interpStats.instructionsExecuted;
    gates = result.stats.gatesApplied;
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(workloadName(kind));
  state.counters["qubits"] = n;
  state.counters["interp_insts_per_gate"] =
      gates > 0 ? static_cast<double>(interpInstructions) / static_cast<double>(gates)
                : 0.0;
}
BENCHMARK(BM_InterpretedQIR)
    ->ArgsProduct({{0, 1}, {4, 8, 12, 16}})
    ->Unit(benchmark::kMicrosecond);

void BM_BytecodeVM(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const auto n = static_cast<unsigned>(state.range(1));
  const std::string text =
      bench::qirTextFor(workload(kind, n), qir::Addressing::Static, true);
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, text);
  // Compile once (through the cache, as the CLI does); per "shot" only
  // the runtime and the VM's memory are reset.
  vm::Vm machine(vm::CompileCache::global().getOrCompile(*module));
  runtime::QuantumRuntime rt(0, nullptr);
  rt.bind(machine);
  std::uint64_t seed = 1;
  std::uint64_t gates = 0;
  for (auto _ : state) {
    rt.reset(seed++);
    machine.reset();
    machine.runEntryPoint();
    gates = rt.stats().gatesApplied;
    benchmark::DoNotOptimize(rt.outputBitString());
  }
  state.SetLabel(workloadName(kind));
  state.counters["qubits"] = n;
  state.counters["gates"] = static_cast<double>(gates);
}
BENCHMARK(BM_BytecodeVM)
    ->ArgsProduct({{0, 1}, {4, 8, 12, 16}})
    ->Unit(benchmark::kMicrosecond);

/// The acceptance workload: a 100-shot batch, one histogram — VM vs
/// interpreter through the same executor entry point.
void BM_ShotBatch(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const auto n = static_cast<unsigned>(state.range(1));
  const auto engine =
      state.range(2) == 0 ? vm::Engine::Interp : vm::Engine::Vm;
  const std::string text =
      bench::qirTextFor(workload(kind, n), qir::Addressing::Static, true);
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, text);
  vm::ShotOptions options;
  options.shots = 100;
  options.engine = engine;
  // This benchmark measures the per-shot engines, so it pins resim; the
  // auto default would route these terminal workloads to the sampling
  // fast path (measured separately by BM_ExecMode below).
  options.execMode = vm::ExecMode::Resim;
  for (auto _ : state) {
    options.seed += options.shots; // fresh shots each iteration
    benchmark::DoNotOptimize(vm::runShots(*module, options));
  }
  state.SetLabel(std::string(workloadName(kind)) + "/" +
                 vm::engineName(engine));
  state.counters["qubits"] = n;
  state.counters["shots"] = static_cast<double>(options.shots);
}
BENCHMARK(BM_ShotBatch)
    ->ArgsProduct({{0, 1}, {4, 8}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// The execution-mode acceptance workload: 1024 shots of a 14-qubit GHZ
/// state through the same executor entry point, per-shot resimulation vs
/// the terminal-measurement sampling fast path (simulate once, sample N).
/// Resim costs O(shots * gates * 2^n), sampling O(gates * 2^n + shots * n):
/// the shots_per_second counters are the headline comparison. At 14 qubits
/// the one resim iteration stays under a second; the gap only widens with
/// width.
void BM_ExecMode(benchmark::State& state) {
  const vm::ExecMode mode =
      state.range(0) == 0 ? vm::ExecMode::Resim : vm::ExecMode::Sample;
  constexpr unsigned kQubits = 14;
  constexpr std::uint64_t kShots = 1024;
  static std::string text; // built once, shared by both rows
  if (text.empty()) {
    text = bench::qirTextFor(circuit::ghz(kQubits, true),
                             qir::Addressing::Static, true);
  }
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, text);
  vm::ShotOptions options;
  options.shots = kShots;
  options.execMode = mode;
  std::uint64_t shotsCompleted = 0;
  for (auto _ : state) {
    options.seed += kShots;
    const vm::ShotBatchResult result = vm::runShots(*module, options);
    shotsCompleted += result.completedShots;
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(std::string("ghz/") + vm::execModeName(mode));
  state.counters["qubits"] = kQubits;
  state.counters["shots"] = static_cast<double>(kShots);
  state.counters["shots_per_second"] = benchmark::Counter(
      static_cast<double>(shotsCompleted), benchmark::Counter::kIsRate);
}
// Resim re-simulates the 14-qubit state 1024 times — one iteration is
// plenty (and keeps the smoke run inside CI budgets).
BENCHMARK(BM_ExecMode)
    ->Arg(0)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecMode)->Arg(1)->Unit(benchmark::kMillisecond);

/// The gate-fusion acceptance workload: per-shot resimulation of a
/// rotation-dense 16-qubit circuit (four constant-angle rotations per
/// qubit per layer — a generic Euler unitary plus one — then a CX
/// ladder), fused vs unfused bytecode on the VM. The static export turns every operand
/// into a compile-time constant, so the fusion pass folds each rotation
/// chain into a single 2x2 sweep (rule 1: 4 sweeps -> 1); the
/// shots_per_second ratio between the two rows is the headline number
/// (expected >= 2x).
circuit::Circuit rotationDense(unsigned n, unsigned layers) {
  circuit::Circuit c(n, n);
  for (unsigned layer = 0; layer < layers; ++layer) {
    for (unsigned q = 0; q < n; ++q) {
      c.rz(0.1 + 0.01 * q, q);
      c.rx(0.7 + 0.02 * layer, q);
      c.ry(0.4 + 0.03 * q, q);
      c.rz(0.3, q);
    }
    for (unsigned q = 0; q + 1 < n; ++q) {
      c.cx(q, q + 1);
    }
  }
  for (unsigned q = 0; q < n; ++q) {
    c.measure(q, q);
  }
  return c;
}

void BM_FusionResim(benchmark::State& state) {
  const bool fusion = state.range(0) != 0;
  constexpr unsigned kQubits = 16;
  constexpr unsigned kLayers = 8;
  constexpr std::uint64_t kShots = 32;
  static std::string text;
  if (text.empty()) {
    text = bench::qirTextFor(rotationDense(kQubits, kLayers),
                             qir::Addressing::Static, true);
  }
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, text);
  vm::Vm machine(vm::compileModule(*module, {.fuseGates = fusion}));
  runtime::QuantumRuntime rt(0, nullptr);
  rt.bind(machine);
  std::uint64_t seed = 1;
  std::uint64_t shotsCompleted = 0;
  for (auto _ : state) {
    for (std::uint64_t shot = 0; shot < kShots; ++shot) {
      rt.reset(seed++);
      machine.reset();
      machine.runEntryPoint();
      benchmark::DoNotOptimize(rt.outputBitString());
    }
    shotsCompleted += kShots;
  }
  state.SetLabel(fusion ? "rotdense/fused" : "rotdense/unfused");
  state.counters["qubits"] = kQubits;
  state.counters["shots"] = static_cast<double>(kShots);
  state.counters["shots_per_second"] = benchmark::Counter(
      static_cast<double>(shotsCompleted), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FusionResim)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// Instruction throughput of the bytecode VM's dispatch loop on four
/// programs: a pure-classical spin loop (dispatch-dominated, but a short
/// repeating opcode cycle today's indirect-branch predictors memorize), a
/// dispatch-stress loop whose LCG-driven branching makes the opcode stream
/// unpredictable, the paper's Ex. 4 FOR loop (classical loop skeleton
/// around 1-arg gate calls), and the §IV.B feedback program (straight-line
/// classical chain). One row per program; instr_per_sec counts the
/// step-counted instructions that retired.
void BM_Dispatch(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  static std::map<int, std::string> texts;
  auto& text = texts[kind];
  if (text.empty()) {
    text = kind == 0   ? bench::classicalSpinProgram(4096)
           : kind == 1 ? bench::dispatchStressProgram(4096)
           : kind == 2 ? bench::ex4LoopProgram(8)
                       : bench::feedbackProgram(512);
  }
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, text);
  vm::Vm machine(vm::compileModule(*module));
  runtime::QuantumRuntime rt(0, nullptr);
  rt.bind(machine);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    rt.reset(seed++);
    machine.reset();
    benchmark::DoNotOptimize(machine.runEntryPoint());
  }
  state.SetLabel(kind == 0   ? "spin"
                 : kind == 1 ? "stress"
                 : kind == 2 ? "ex4loop"
                             : "feedback");
  // Vm stats accumulate across runs: this is the batch total.
  state.counters["instr_per_sec"] = benchmark::Counter(
      static_cast<double>(machine.stats().instructionsExecuted),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Dispatch)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char** argv) {
  std::cout << "# E4 (paper III.C / Ex. 5): interpreted QIR + runtime vs "
               "direct circuit simulation vs bytecode VM\n\n";
  return qirkit::bench::runAndReport(&argc, argv, "bench_execute");
}
