/// Differential testing of the bytecode VM against the tree-walking
/// interpreter — the reference semantics. Random classical programs
/// (raw and optimized, i.e. phi-heavy after mem2reg) must return
/// identical values; quantum programs must produce identical recorded
/// output, runtime statistics, and engine statistics; the instruction
/// budget must reject a runaway program at the identical step with the
/// identical diagnostic. Plus compile-cache and batched-executor
/// behaviour.
#include "circuit/generators.hpp"
#include "interp/interpreter.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "passes/pass.hpp"
#include "qir/exporter.hpp"
#include "runtime/runtime.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "vm/cache.hpp"
#include "vm/compiler.hpp"
#include "vm/executor.hpp"
#include "vm/vm.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

namespace qirkit {
namespace {

using interp::RtValue;

/// Random classical function generator (same shape as differential_test:
/// four memory slots, data-dependent branches, a bounded loop). After
/// mem2reg the loop and branch joins become phi nodes, exercising the
/// VM's edge-move lowering.
class ProgramGenerator {
public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    const unsigned bodyBlocks = 2 + static_cast<unsigned>(rng_.below(4));
    std::string s = "define i64 @f(i64 %arg0, i64 %arg1) {\nentry:\n";
    for (unsigned slot = 0; slot < kSlots; ++slot) {
      s += "  %s" + std::to_string(slot) + " = alloca i64, align 8\n";
      s += "  store i64 " + pickSeedValue() + ", ptr %s" + std::to_string(slot) +
           ", align 8\n";
    }
    s += "  br label %b0\n";
    for (unsigned block = 0; block < bodyBlocks; ++block) {
      s += emitBodyBlock(block, bodyBlocks);
    }
    s += emitLoop(bodyBlocks);
    s += emitFinal();
    s += "}\n";
    return s;
  }

private:
  static constexpr unsigned kSlots = 4;

  std::string pickSeedValue() {
    switch (rng_.below(3)) {
    case 0: return std::to_string(static_cast<std::int64_t>(rng_.below(100)) - 50);
    case 1: return "%arg0";
    default: return "%arg1";
    }
  }

  std::string slot() { return "%s" + std::to_string(rng_.below(kSlots)); }

  std::string freshValue() { return "%v" + std::to_string(nextValue_++); }

  const char* pickOp() {
    static const char* const ops[] = {"add", "sub", "mul", "and", "or",
                                      "xor", "shl", "ashr", "lshr"};
    return ops[rng_.below(std::size(ops))];
  }

  std::string emitComputation() {
    const std::string a = freshValue();
    const std::string b = freshValue();
    std::string s;
    s += "  " + a + " = load i64, ptr " + slot() + ", align 8\n";
    s += "  " + b + " = load i64, ptr " + slot() + ", align 8\n";
    const std::string op = pickOp();
    const std::string r = freshValue();
    if (op == "shl" || op == "ashr" || op == "lshr") {
      const std::string amount = freshValue();
      s += "  " + amount + " = and i64 " + b + ", 7\n";
      s += "  " + r + " = " + op + " i64 " + a + ", " + amount + "\n";
    } else {
      s += "  " + r + " = " + op + " i64 " + a + ", " + b + "\n";
    }
    s += "  store i64 " + r + ", ptr " + slot() + ", align 8\n";
    return s;
  }

  std::string emitBodyBlock(unsigned index, unsigned bodyBlocks) {
    std::string s = "b" + std::to_string(index) + ":\n";
    const unsigned computations = 1 + static_cast<unsigned>(rng_.below(4));
    for (unsigned i = 0; i < computations; ++i) {
      s += emitComputation();
    }
    const std::string next = "b" + std::to_string(index + 1);
    const std::string later =
        index + 2 < bodyBlocks
            ? "b" + std::to_string(index + 2 + rng_.below(bodyBlocks - index - 2 + 1))
            : next;
    const std::string target =
        later == "b" + std::to_string(bodyBlocks) ? next : later;
    if (rng_.below(3) == 0 || next == target) {
      s += "  br label %" + next + "\n";
    } else {
      const std::string v = freshValue();
      const std::string c = freshValue();
      s += "  " + v + " = load i64, ptr " + slot() + ", align 8\n";
      s += "  " + c + " = icmp " + (rng_.below(2) == 0 ? "slt" : "sge") + " i64 " +
           v + ", " + std::to_string(static_cast<std::int64_t>(rng_.below(20)) - 10) +
           "\n";
      s += "  br i1 " + c + ", label %" + next + ", label %" + target + "\n";
    }
    return s;
  }

  std::string emitLoop(unsigned bodyBlocks) {
    const std::string pre = "b" + std::to_string(bodyBlocks);
    const unsigned trips = 1 + static_cast<unsigned>(rng_.below(8));
    std::string s = pre + ":\n";
    s += "  %lc = alloca i64, align 8\n";
    s += "  store i64 0, ptr %lc, align 8\n";
    s += "  br label %loop.header\n";
    s += "loop.header:\n";
    s += "  %li = load i64, ptr %lc, align 8\n";
    s += "  %lcond = icmp slt i64 %li, " + std::to_string(trips) + "\n";
    s += "  br i1 %lcond, label %loop.body, label %final\n";
    s += "loop.body:\n";
    s += emitComputation();
    s += "  %li2 = load i64, ptr %lc, align 8\n";
    s += "  %lnext = add i64 %li2, 1\n";
    s += "  store i64 %lnext, ptr %lc, align 8\n";
    s += "  br label %loop.header\n";
    return s;
  }

  std::string emitFinal() {
    std::string s = "final:\n";
    std::string acc;
    for (unsigned slotIndex = 0; slotIndex < kSlots; ++slotIndex) {
      const std::string v = freshValue();
      s += "  " + v + " = load i64, ptr %s" + std::to_string(slotIndex) +
           ", align 8\n";
      if (acc.empty()) {
        acc = v;
      } else {
        const std::string sum = freshValue();
        s += "  " + sum + " = xor i64 " + acc + ", " + v + "\n";
        acc = sum;
      }
    }
    s += "  ret i64 " + acc + "\n";
    return s;
  }

  SplitMix64 rng_;
  unsigned nextValue_ = 0;
};

std::int64_t runInterp(const ir::Module& m, std::int64_t a, std::int64_t b) {
  interp::Interpreter interp(m);
  interp.setStepLimit(1 << 22);
  return interp
      .run(*m.getFunction("f"),
           {{RtValue::makeInt(a), RtValue::makeInt(b)}})
      .i;
}

std::int64_t runVm(const ir::Module& m, std::int64_t a, std::int64_t b) {
  vm::Vm machine(vm::compileModule(m));
  machine.setStepLimit(1 << 22);
  return machine.run("f", {{RtValue::makeInt(a), RtValue::makeInt(b)}}).i;
}

// ---------------------------------------------------------------------------
// Classical differential: raw and optimized (phi-heavy) random programs.
// ---------------------------------------------------------------------------

class VmClassicalDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VmClassicalDifferential, MatchesInterpreterOnRandomPrograms) {
  const std::uint64_t seed = GetParam();
  const std::string program = ProgramGenerator(seed).generate();

  ir::Context ctxRaw;
  const auto raw = ir::parseModule(ctxRaw, program);
  ir::verifyModuleOrThrow(*raw);

  // The optimized form replaces the memory slots with SSA registers and
  // phi nodes — the interesting case for bytecode edge moves.
  ir::Context ctxOpt;
  auto optimized = ir::parseModule(ctxOpt, program);
  passes::PassManager pm;
  passes::addFullPipeline(pm);
  pm.runToFixpoint(*optimized);

  const std::int64_t inputs[][2] = {{0, 0},    {1, -1},  {42, 7},
                                    {-100, 3}, {1 << 20, -(1 << 19)}};
  for (const auto& [a, b] : inputs) {
    const std::int64_t reference = runInterp(*raw, a, b);
    EXPECT_EQ(runVm(*raw, a, b), reference)
        << "raw, seed " << seed << " inputs (" << a << ", " << b << ")";
    EXPECT_EQ(runVm(*optimized, a, b), reference)
        << "optimized, seed " << seed << " inputs (" << a << ", " << b << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmClassicalDifferential,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------------------------
// Quantum differential: identical recorded results, runtime stats, and
// engine stats on exported circuits.
// ---------------------------------------------------------------------------

struct QuantumRun {
  std::vector<std::pair<std::string, bool>> output;
  runtime::RuntimeStats runtimeStats;
  interp::InterpStats engineStats;
};

QuantumRun runQuantumInterp(const ir::Module& m, std::uint64_t seed) {
  interp::Interpreter interp(m);
  runtime::QuantumRuntime rt(seed);
  rt.bind(interp);
  interp.runEntryPoint();
  return {rt.recordedOutput(), rt.stats(), interp.stats()};
}

QuantumRun runQuantumVm(const ir::Module& m, std::uint64_t seed) {
  vm::Vm machine(vm::compileModule(m));
  runtime::QuantumRuntime rt(seed);
  rt.bind(machine);
  machine.runEntryPoint();
  return {rt.recordedOutput(), rt.stats(), machine.stats()};
}

void expectSameQuantumRun(const ir::Module& m, std::uint64_t seed) {
  const QuantumRun a = runQuantumInterp(m, seed);
  const QuantumRun b = runQuantumVm(m, seed);
  EXPECT_EQ(a.output, b.output) << "seed " << seed;
  EXPECT_EQ(a.runtimeStats.gatesApplied, b.runtimeStats.gatesApplied);
  EXPECT_EQ(a.runtimeStats.measurements, b.runtimeStats.measurements);
  EXPECT_EQ(a.runtimeStats.dynamicQubitsAllocated,
            b.runtimeStats.dynamicQubitsAllocated);
  EXPECT_EQ(a.runtimeStats.staticQubitsAllocated,
            b.runtimeStats.staticQubitsAllocated);
  EXPECT_EQ(a.engineStats.instructionsExecuted, b.engineStats.instructionsExecuted);
  EXPECT_EQ(a.engineStats.internalCalls, b.engineStats.internalCalls);
  EXPECT_EQ(a.engineStats.externalCalls, b.engineStats.externalCalls);
  EXPECT_EQ(a.engineStats.blocksEntered, b.engineStats.blocksEntered);
}

TEST(VmQuantumDifferential, ExportedCircuitsMatchInterpreter) {
  ir::Context ctx;
  const auto bell = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  const auto ghz = qir::exportCircuit(ctx, circuit::ghz(5, true), {});
  const auto qft = qir::exportCircuit(ctx, circuit::qft(4, true), {});
  qir::ExportOptions dynamicOptions;
  dynamicOptions.addressing = qir::Addressing::Dynamic;
  const auto dynamicGhz =
      qir::exportCircuit(ctx, circuit::ghz(4, true), dynamicOptions);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    expectSameQuantumRun(*bell, seed);
    expectSameQuantumRun(*ghz, seed);
    expectSameQuantumRun(*qft, seed);
    expectSameQuantumRun(*dynamicGhz, seed);
  }
}

TEST(VmQuantumDifferential, RandomCircuitsMatchInterpreter) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ir::Context ctx;
    const auto m = qir::exportCircuit(
        ctx, circuit::randomCircuit(4, 6, seed, true), {});
    expectSameQuantumRun(*m, seed);
    expectSameQuantumRun(*m, seed + 100);
  }
}

// ---------------------------------------------------------------------------
// Step budget parity: both engines reject a runaway program at the same
// step with the same diagnostic.
// ---------------------------------------------------------------------------

TEST(VmStepBudget, RejectsAtSameStepWithSameMessage) {
  const std::string program = ProgramGenerator(7).generate();
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, program);
  const std::array<RtValue, 2> argStorage{RtValue::makeInt(13),
                                          RtValue::makeInt(-5)};
  const std::span<const RtValue> args{argStorage};

  interp::Interpreter probe(*m);
  probe.run(*m->getFunction("f"), args);
  const std::uint64_t steps = probe.stats().instructionsExecuted;
  ASSERT_GT(steps, 10U);

  for (const std::uint64_t limit : {steps, steps - 1, steps / 2}) {
    interp::Interpreter interp(*m);
    interp.setStepLimit(limit);
    vm::Vm machine(vm::compileModule(*m));
    machine.setStepLimit(limit);

    std::string interpError;
    std::string vmError;
    try {
      interp.run(*m->getFunction("f"), args);
    } catch (const interp::TrapError& e) {
      interpError = e.what();
    }
    try {
      machine.run("f", args);
    } catch (const interp::TrapError& e) {
      vmError = e.what();
    }
    EXPECT_EQ(interpError, vmError) << "limit " << limit;
    if (limit < steps) {
      EXPECT_EQ(vmError,
                "step limit exceeded (" + std::to_string(limit) + ")");
      // The engines agree on *when* the trap fires, not just that it does.
      EXPECT_EQ(interp.stats().instructionsExecuted,
                machine.stats().instructionsExecuted);
    } else {
      EXPECT_TRUE(vmError.empty());
    }
  }
}

TEST(VmStepBudget, ArithmeticTrapMessagesMatch) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
define i64 @f(i64 %a, i64 %b) {
entry:
  %q = sdiv i64 %a, %b
  ret i64 %q
}
)");
  const std::array<RtValue, 2> argStorage{RtValue::makeInt(4),
                                          RtValue::makeInt(0)};
  const std::span<const RtValue> args{argStorage};
  std::string interpError;
  std::string vmError;
  try {
    interp::Interpreter interp(*m);
    interp.run(*m->getFunction("f"), args);
  } catch (const interp::TrapError& e) {
    interpError = e.what();
  }
  try {
    vm::Vm machine(vm::compileModule(*m));
    machine.run("f", args);
  } catch (const interp::TrapError& e) {
    vmError = e.what();
  }
  EXPECT_FALSE(interpError.empty());
  EXPECT_EQ(interpError, vmError);
}

// ---------------------------------------------------------------------------
// Compile cache.
// ---------------------------------------------------------------------------

TEST(VmCompileCache, SecondLookupHitsAndSharesTheModule) {
  vm::CompileCache cache;
  const std::string program = ProgramGenerator(3).generate();
  ir::Context ctxA;
  const auto first = cache.getOrCompile(*ir::parseModule(ctxA, program));
  // A different Context parsing the same text is the cross-invocation
  // case: content addressing must hit.
  ir::Context ctxB;
  const auto second = cache.getOrCompile(*ir::parseModule(ctxB, program));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().hits, 1U);
  EXPECT_EQ(cache.stats().misses, 1U);
  EXPECT_EQ(cache.size(), 1U);

  const std::string other = ProgramGenerator(4).generate();
  ir::Context ctxC;
  const auto third = cache.getOrCompile(*ir::parseModule(ctxC, other));
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(cache.stats().misses, 2U);
}

// ---------------------------------------------------------------------------
// Batched shot executor.
// ---------------------------------------------------------------------------

TEST(VmShotExecutor, VmAndInterpreterHistogramsAreIdentical) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(4, true), {});
  vm::ShotOptions options;
  options.shots = 64;
  options.seed = 9;
  options.engine = vm::Engine::Interp;
  const vm::ShotBatchResult interpBatch = vm::runShots(*m, options);
  options.engine = vm::Engine::Vm;
  const vm::ShotBatchResult vmBatch = vm::runShots(*m, options);

  EXPECT_EQ(interpBatch.histogram, vmBatch.histogram);
  std::uint64_t total = 0;
  for (const auto& [bits, count] : vmBatch.histogram) {
    EXPECT_EQ(bits.size(), 4U);
    EXPECT_TRUE(bits == "0000" || bits == "1111") << bits;
    total += count;
  }
  EXPECT_EQ(total, 64U);
  EXPECT_EQ(interpBatch.lastShotStats.gatesApplied,
            vmBatch.lastShotStats.gatesApplied);
  EXPECT_EQ(interpBatch.lastShotStats.measurements,
            vmBatch.lastShotStats.measurements);
  EXPECT_EQ(interpBatch.lastShotEngineStats.instructionsExecuted,
            vmBatch.lastShotEngineStats.instructionsExecuted);
}

TEST(VmShotExecutor, ParallelAndSequentialHistogramsAreIdentical) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(3, true), {});
  vm::ShotOptions options;
  options.shots = 100;
  options.seed = 21;
  const vm::ShotBatchResult sequential = vm::runShots(*m, options);
  options.pool = &ThreadPool::global();
  const vm::ShotBatchResult parallel = vm::runShots(*m, options);
  EXPECT_EQ(sequential.histogram, parallel.histogram);
}

TEST(VmShotExecutor, CacheEliminatesRecompilationAcrossBatches) {
  ir::Context ctx;
  const std::string text =
      ir::printModule(*qir::exportCircuit(ctx, circuit::bellPair(true), {}));
  vm::CompileCache store;
  const vm::CompileCache::Lookup first = store.getOrLoad(text);
  const vm::CompileCache::Lookup second = store.getOrLoad(text);
  // The second lookup reuses the first's program, bytecode included.
  EXPECT_STREQ(first.outcome, "miss");
  EXPECT_STREQ(second.outcome, "hit");
  ASSERT_EQ(first.program, second.program);
  ASSERT_NE(first.program->bytecode, nullptr);

  vm::ShotOptions options;
  options.shots = 4;
  options.seed = 77;
  const vm::ShotBatchResult a = vm::runShots(*first.program, options);
  const vm::ShotBatchResult b = vm::runShots(*second.program, options);
  EXPECT_EQ(a.engineUsed, vm::Engine::Vm);
  EXPECT_EQ(a.histogram, b.histogram);
  // A store batch answers what a batch over the bare module answers.
  EXPECT_EQ(a.histogram, vm::runShots(*first.program->module, options).histogram);
}

// ---------------------------------------------------------------------------
// Bytecode introspection.
// ---------------------------------------------------------------------------

TEST(VmBytecode, DisassemblyListsCompiledFunctions) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  const auto compiled = vm::compileModule(*m);
  EXPECT_GE(compiled->entryIndex, 0);
  EXPECT_GT(compiled->instructionCount(), 0U);
  EXPECT_FALSE(compiled->externNames.empty());
  const std::string listing = compiled->disassemble();
  EXPECT_NE(listing.find("call.ext"), std::string::npos);
  EXPECT_NE(listing.find("[step]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Dispatch differential: the token-threaded loop with superinstructions
// must be bit-compatible with the reference switch loop — same values,
// same histograms, same step accounting, same traps, same fault-drill
// and deadline behaviour. The switch loop is compiled explicitly
// (DispatchMode::Switch) in every build, so both loops are tested
// wherever the suite runs.
// ---------------------------------------------------------------------------

/// The two engine configurations under comparison. Reference = switch
/// loop on plain opcodes; fast = threaded loop on superinstruction-mined
/// code (the executor's Threaded pairing).
vm::CompileOptions referenceConfig() {
  return {.fuseGates = true,
          .dispatch = vm::DispatchMode::Switch,
          .superinstructions = false};
}

vm::CompileOptions threadedConfig() {
  return {.fuseGates = true,
          .dispatch = vm::DispatchMode::Threaded,
          .superinstructions = true};
}

TEST(VmDispatchDifferential, ClassicalProgramsBitCompatible) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string program = ProgramGenerator(seed).generate();
    ir::Context ctx;
    const auto m = ir::parseModule(ctx, program);
    const std::int64_t inputs[][2] = {{0, 0}, {42, 7}, {-100, 3}};
    for (const auto& [a, b] : inputs) {
      vm::Vm reference(vm::compileModule(*m, referenceConfig()));
      reference.setStepLimit(1 << 22);
      vm::Vm threaded(vm::compileModule(*m, threadedConfig()));
      threaded.setStepLimit(1 << 22);
      const std::array<RtValue, 2> argStorage{RtValue::makeInt(a),
                                              RtValue::makeInt(b)};
      const std::span<const RtValue> args{argStorage};
      EXPECT_EQ(reference.run("f", args).i, threaded.run("f", args).i)
          << "seed " << seed << " inputs (" << a << ", " << b << ")";
      EXPECT_EQ(reference.stats().instructionsExecuted,
                threaded.stats().instructionsExecuted);
      EXPECT_EQ(reference.stats().blocksEntered, threaded.stats().blocksEntered);
      EXPECT_EQ(reference.stats().internalCalls, threaded.stats().internalCalls);
    }
  }
}

QuantumRun runQuantumVmWith(const ir::Module& m, std::uint64_t seed,
                            const vm::CompileOptions& options) {
  vm::Vm machine(vm::compileModule(m, options));
  runtime::QuantumRuntime rt(seed);
  rt.bind(machine);
  machine.runEntryPoint();
  return {rt.recordedOutput(), rt.stats(), machine.stats()};
}

TEST(VmDispatchDifferential, QuantumProgramsBitCompatible) {
  ir::Context ctx;
  const auto ghz = qir::exportCircuit(ctx, circuit::ghz(5, true), {});
  const auto qft = qir::exportCircuit(ctx, circuit::qft(4, true), {});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const ir::Module* m : {ghz.get(), qft.get()}) {
      const QuantumRun a = runQuantumVmWith(*m, seed, referenceConfig());
      const QuantumRun b = runQuantumVmWith(*m, seed, threadedConfig());
      EXPECT_EQ(a.output, b.output) << "seed " << seed;
      EXPECT_EQ(a.runtimeStats.gatesApplied, b.runtimeStats.gatesApplied);
      EXPECT_EQ(a.runtimeStats.measurements, b.runtimeStats.measurements);
      EXPECT_EQ(a.engineStats.instructionsExecuted,
                b.engineStats.instructionsExecuted);
      EXPECT_EQ(a.engineStats.externalCalls, b.engineStats.externalCalls);
      EXPECT_EQ(a.engineStats.blocksEntered, b.engineStats.blocksEntered);
    }
  }
}

TEST(VmDispatchDifferential, StepBudgetParityIncludingProbeStrides) {
  const std::string program = ProgramGenerator(11).generate();
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, program);
  const std::array<RtValue, 2> argStorage{RtValue::makeInt(13),
                                          RtValue::makeInt(-5)};
  const std::span<const RtValue> args{argStorage};

  vm::Vm probe(vm::compileModule(*m, referenceConfig()));
  probe.setStepLimit(1 << 22);
  probe.run("f", args);
  const std::uint64_t steps = probe.stats().instructionsExecuted;
  ASSERT_GT(steps, 10U);

  // Limits straddling superinstruction pairs and the credit-refresh
  // boundaries: the trap must fire on the identical instruction with the
  // identical message, and the stats must agree on how many retired.
  for (const std::uint64_t limit :
       {steps, steps - 1, steps - 2, steps / 2, steps / 2 + 1, std::uint64_t{1}}) {
    vm::Vm reference(vm::compileModule(*m, referenceConfig()));
    reference.setStepLimit(limit);
    vm::Vm threaded(vm::compileModule(*m, threadedConfig()));
    threaded.setStepLimit(limit);
    std::string referenceError;
    std::string threadedError;
    try {
      reference.run("f", args);
    } catch (const interp::TrapError& e) {
      referenceError = e.what();
    }
    try {
      threaded.run("f", args);
    } catch (const interp::TrapError& e) {
      threadedError = e.what();
    }
    EXPECT_EQ(referenceError, threadedError) << "limit " << limit;
    EXPECT_EQ(reference.stats().instructionsExecuted,
              threaded.stats().instructionsExecuted)
        << "limit " << limit;
    if (limit < steps) {
      EXPECT_EQ(threadedError,
                "step limit exceeded (" + std::to_string(limit) + ")");
    }
  }
}

TEST(VmDispatchDifferential, CancelledRunsTrapOnBothLoops) {
  // An already-expired deadline must stop both loops at a cancellation
  // checkpoint. The threaded loop hoists the probe to stride boundaries;
  // expiry is still observed (just never later than a stride's worth of
  // steps after the switch loop would have seen it).
  // Checkpoints are strided (every kCancelStrideSteps steps), so the
  // program must spin long enough inside ONE call to cross a stride.
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
define i64 @f(i64 %n) {
entry:
  br label %head
head:
  %i = phi i64 [ 0, %entry ], [ %next, %head ]
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, %n
  br i1 %c, label %head, label %exit
exit:
  ret i64 %next
}
)");
  const std::array<RtValue, 1> argStorage{RtValue::makeInt(1 << 20)};
  const std::span<const RtValue> args{argStorage};
  for (const vm::CompileOptions& config : {referenceConfig(), threadedConfig()}) {
    vm::Vm machine(vm::compileModule(*m, config));
    machine.setStepLimit(1ULL << 40);
    CancelToken token;
    token.cancel();
    machine.setCancelToken(&token);
    bool cancelled = false;
    try {
      machine.run("f", args);
    } catch (const Error& e) {
      cancelled = e.code() == ErrorCode::Deadline;
    }
    EXPECT_TRUE(cancelled) << "dispatch "
                           << vm::dispatchModeName(config.dispatch);
    // Strided polling means the trap lands within one stride of the start.
    EXPECT_LE(machine.stats().instructionsExecuted, 8U * 1024U);
  }
}

TEST(VmDispatchDifferential, FaultDrillsAgreeAcrossDispatchModes) {
  // With injection armed, Threaded modules take the switch loop (its
  // preamble carries the per-step probes), so a drill must fire on the
  // same probe and classify the same way regardless of the compiled loop.
  const std::string program = ProgramGenerator(9).generate();
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, program);
  const std::array<RtValue, 2> argStorage{RtValue::makeInt(3),
                                          RtValue::makeInt(8)};
  const std::span<const RtValue> args{argStorage};
  std::array<std::string, 2> errors;
  std::array<std::uint64_t, 2> probes{};
  std::size_t slot = 0;
  for (const vm::CompileOptions& config : {referenceConfig(), threadedConfig()}) {
    fault::Plan plan;
    plan.site = fault::Site::VmDispatch;
    plan.at = 40;
    const fault::ScopedPlan scoped(plan);
    vm::Vm machine(vm::compileModule(*m, config));
    machine.setStepLimit(1 << 22);
    try {
      machine.run("f", args);
    } catch (const Error& e) {
      errors[slot] = e.what();
    }
    probes[slot] = fault::FaultInjector::instance().probeCount(
        fault::Site::VmDispatch);
    ++slot;
  }
  EXPECT_FALSE(errors[0].empty());
  EXPECT_EQ(errors[0], errors[1]);
  EXPECT_EQ(probes[0], probes[1]);
}

TEST(VmShotExecutor, DeadlineYieldsPartialResults) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(3, true), {});
  CancelToken token;
  token.cancel(); // expired before the batch starts
  vm::ShotOptions options;
  options.shots = 50;
  options.seed = 3;
  options.cancel = &token;
  const vm::ShotBatchResult result = vm::runShots(*m, options);
  EXPECT_TRUE(result.deadlineExceeded);
  EXPECT_LT(result.completedShots, 50U);
}

TEST(VmCompileCache, DispatchFlipNeverReusesAStaleModule) {
  vm::CompileCache cache;
  const std::string program = ProgramGenerator(6).generate();
  ir::Context ctx;
  const auto parsed = ir::parseModule(ctx, program);
  const auto reference = cache.getOrCompile(*parsed, referenceConfig());
  const auto threaded = cache.getOrCompile(*parsed, threadedConfig());
  // Different dispatch/superinstruction options must occupy distinct
  // entries — the compiled code shapes differ.
  EXPECT_NE(reference.get(), threaded.get());
  EXPECT_EQ(reference->dispatch, vm::DispatchMode::Switch);
  EXPECT_EQ(threaded->dispatch, vm::DispatchMode::Threaded);
  EXPECT_EQ(cache.stats().misses, 2U);
  // Repeating each lookup hits its own entry.
  EXPECT_EQ(cache.getOrCompile(*parsed, referenceConfig()).get(),
            reference.get());
  EXPECT_EQ(cache.getOrCompile(*parsed, threadedConfig()).get(),
            threaded.get());
  EXPECT_EQ(cache.stats().hits, 2U);
}

TEST(VmDispatch, BuildDefaultIsTheBestAvailableLoop) {
  const vm::DispatchMode mode = vm::defaultDispatchMode();
  if (vm::threadedDispatchAvailable()) {
    EXPECT_EQ(mode, vm::DispatchMode::Threaded);
  } else {
    EXPECT_EQ(mode, vm::DispatchMode::Switch);
  }
  EXPECT_STREQ(vm::dispatchModeName(vm::DispatchMode::Switch), "switch");
  EXPECT_STREQ(vm::dispatchModeName(vm::DispatchMode::Threaded), "threaded");
}

} // namespace
} // namespace qirkit
