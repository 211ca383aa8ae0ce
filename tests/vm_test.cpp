/// Differential testing of the bytecode VM against the tree-walking
/// interpreter — the reference semantics. Random classical programs
/// (raw and optimized, i.e. phi-heavy after mem2reg) must return
/// identical values; quantum programs must produce identical recorded
/// output, runtime statistics, and engine statistics; the instruction
/// budget must reject a runaway program at the identical step with the
/// identical diagnostic, and a mismatched argument count with the same
/// classified error. Plus compile-cache and batched-executor behaviour,
/// cancellation, and the dispatch loop's vm.dispatch.* counts.
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
#include "support/parallel.hpp"
#include "support/telemetry/telemetry.hpp"
#include "vm/cache.hpp"
#include "vm/compiler.hpp"
#include "vm/executor.hpp"
#include "vm/vm.hpp"

#include "program_generator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>

namespace qirkit {
namespace {

using interp::RtValue;

using test::ProgramGenerator;

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

/// Registers hold integers sign-extended and memory holds them in LLVM's
/// layout: a stored i1 true is the byte 1, and an i1 loaded from the byte
/// 1 is the -1 that `i1 true` is, so a switch on it takes the case.
TEST(VmMemory, IntegerLoadsAreCanonicalAndStoresUseLlvmLayout) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
@one = internal constant [1 x i8] c"\01"
define i64 @f(i64 %a, i64 %b) {
entry:
  %slot = alloca i64
  store i1 true, ptr %slot
  %byte = load i8, ptr %slot
  %wide = sext i8 %byte to i64
  %v = load i1, ptr @one
  switch i1 %v, label %miss [ i1 true, label %hit ]
hit:
  ret i64 %wide
miss:
  ret i64 -100
}
)");
  ir::verifyModuleOrThrow(*m);
  EXPECT_EQ(runInterp(*m, 0, 0), 1);
  EXPECT_EQ(runVm(*m, 0, 0), 1);
}

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

  for (const std::uint64_t limit : {steps, steps - 1, steps - 2, steps / 2,
                                    steps / 2 + 1, std::uint64_t{1}}) {
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

TEST(VmBytecode, EveryOpcodeHasADistinctMnemonic) {
  std::set<std::string> mnemonics;
  for (std::size_t op = 0; op < vm::kNumOps; ++op) {
    mnemonics.insert(vm::opName(static_cast<vm::Op>(op)));
  }
  EXPECT_EQ(mnemonics.size(), vm::kNumOps);
}

// ---------------------------------------------------------------------------
// Argument counts: a function runs only with as many arguments as it has
// parameters, on either engine, and the mismatch is one classified error.
// ---------------------------------------------------------------------------

/// The error \p run throws (empty when it returns), and its code.
template <typename Run>
std::pair<std::string, ErrorCode> errorOf(Run run) {
  try {
    run();
  } catch (const Error& e) {
    return {e.what(), e.code()};
  }
  return {};
}

TEST(VmArguments, BothEnginesRejectAMismatchedArgumentCount) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
define i64 @f(i64 %a, i64 %b) {
entry:
  %s = add i64 %a, %b
  ret i64 %s
}
)");
  const std::array<RtValue, 3> argStorage{
      RtValue::makeInt(1), RtValue::makeInt(2), RtValue::makeInt(3)};
  for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    const std::span<const RtValue> args{argStorage.data(), count};
    interp::Interpreter interp(*m);
    vm::Vm machine(vm::compileModule(*m));
    const auto interpError =
        errorOf([&] { interp.run(*m->getFunction("f"), args); });
    const auto vmError = errorOf([&] { machine.run("f", args); });
    EXPECT_EQ(interpError, vmError) << count << " arguments";
    EXPECT_EQ(vmError.second, ErrorCode::Semantic) << count << " arguments";
    EXPECT_NE(vmError.first.find("@f takes 2 parameter(s) but was called with " +
                                 std::to_string(count) + " argument(s)"),
              std::string::npos)
        << vmError.first;
    // Nothing ran: the check precedes the frame.
    EXPECT_EQ(interp.stats().instructionsExecuted, 0U);
    EXPECT_EQ(machine.stats().instructionsExecuted, 0U);
  }
}

TEST(VmArguments, AnEntryPointWithParametersIsRejectedByBothEngines) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
define void @main(i64 %n) #0 {
entry:
  %c = icmp eq i64 %n, 0
  br i1 %c, label %measure, label %flip
flip:
  call void @__quantum__qis__x__body(ptr null)
  br label %measure
measure:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)");
  interp::Interpreter interp(*m);
  runtime::QuantumRuntime interpRt(1);
  interpRt.bind(interp);
  vm::Vm machine(vm::compileModule(*m));
  runtime::QuantumRuntime vmRt(1);
  vmRt.bind(machine);
  const auto interpError = errorOf([&] { interp.runEntryPoint(); });
  const auto vmError = errorOf([&] { machine.runEntryPoint(); });
  EXPECT_EQ(interpError, vmError);
  EXPECT_EQ(vmError.second, ErrorCode::Semantic);
  EXPECT_NE(vmError.first.find("QIR entry points take none"), std::string::npos)
      << vmError.first;
  EXPECT_EQ(vmRt.stats().measurements, 0U);
}

// ---------------------------------------------------------------------------
// Cancellation: an expired token stops the dispatch loop at its first
// strided checkpoint.
// ---------------------------------------------------------------------------

TEST(VmCancellation, ExpiredTokenStopsWithinOneStride) {
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
  vm::Vm machine(vm::compileModule(*m));
  machine.setStepLimit(1ULL << 40);
  CancelToken token;
  token.cancel();
  machine.setCancelToken(&token);
  EXPECT_EQ(errorOf([&] { machine.run("f", args); }).second,
            ErrorCode::Deadline);
  EXPECT_GT(machine.stats().instructionsExecuted, 0U);
  EXPECT_LE(machine.stats().instructionsExecuted, vm::kCancelStrideSteps);
}

// ---------------------------------------------------------------------------
// Dispatch differential: the per-step preamble (step budget, then the
// strided cancel checkpoint) traps on the same instruction as the
// interpreter's, at limits on either side of the checkpoint strides.
// ---------------------------------------------------------------------------

TEST(VmDispatchDifferential, StepBudgetParityIncludingProbeStrides) {
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
  const std::array<RtValue, 1> argStorage{RtValue::makeInt(1000)};
  const std::span<const RtValue> args{argStorage};
  // Armed with a deadline no run reaches, so every stride boundary runs a
  // real checkpoint on both engines without stopping either.
  CancelToken token;
  token.setDeadlineNs(CancelToken::nowNs() + 3'600'000'000'000ULL);

  interp::Interpreter probe(*m);
  probe.run(*m->getFunction("f"), args);
  const std::uint64_t steps = probe.stats().instructionsExecuted;
  constexpr std::uint64_t stride = vm::kCancelStrideSteps;
  ASSERT_GT(steps, 2 * stride + 1);

  for (const std::uint64_t limit :
       {steps, steps - 1, steps - 2, steps / 2, steps / 2 + 1, std::uint64_t{1},
        stride - 1, stride, stride + 1, 2 * stride - 1, 2 * stride,
        2 * stride + 1}) {
    interp::Interpreter interp(*m);
    interp.setStepLimit(limit);
    interp.setCancelToken(&token);
    vm::Vm machine(vm::compileModule(*m));
    machine.setStepLimit(limit);
    machine.setCancelToken(&token);
    const auto interpError =
        errorOf([&] { interp.run(*m->getFunction("f"), args); });
    const auto vmError = errorOf([&] { machine.run("f", args); });
    EXPECT_EQ(interpError, vmError) << "limit " << limit;
    EXPECT_EQ(interp.stats().instructionsExecuted,
              machine.stats().instructionsExecuted)
        << "limit " << limit;
    if (limit < steps) {
      EXPECT_EQ(vmError.first,
                "step limit exceeded (" + std::to_string(limit) + ")");
      EXPECT_EQ(vmError.second, ErrorCode::StepBudgetExceeded);
      EXPECT_EQ(machine.stats().instructionsExecuted, limit);
    } else {
      EXPECT_TRUE(vmError.first.empty()) << vmError.first;
      EXPECT_EQ(machine.stats().instructionsExecuted, steps);
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch counters: QIRKIT_VM_OPS's class column is the only definition of
// the vm.dispatch.* counts, so pin them on a program whose dispatches can
// be counted by hand.
// ---------------------------------------------------------------------------

TEST(VmDispatchCounters, CountEveryClassOnAFeedbackLoop) {
  // Unoptimized, so every IR instruction below lowers to one VM
  // instruction, plus one PushArg per call operand and one Op::Fused head
  // in front of entry's four gates (two single-qubit blocks).
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__t__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() #0 {
entry:
  %i = alloca i64, align 8
  store i64 0, ptr %i, align 8
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__t__body(ptr null)
  call void @__quantum__qis__h__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__t__body(ptr inttoptr (i64 1 to ptr))
  br label %loop
loop:
  %n = load i64, ptr %i, align 8
  %next = add i64 %n, 1
  store i64 %next, ptr %i, align 8
  %more = icmp slt i64 %next, 3
  br i1 %more, label %loop, label %measure
measure:
  call void @__quantum__qis__x__body(ptr inttoptr (i64 2 to ptr))
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 2 to ptr), ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  %wide = zext i1 %r to i64
  br i1 %r, label %flip, label %done
flip:
  call void @__quantum__qis__x__body(ptr null)
  br label %done
done:
  ret void
}
attributes #0 = { "entry_point" }
)");
  const auto compiled = vm::compileModule(*m);
  ASSERT_EQ(compiled->functions[0].fusedSweeps.size(), 1U)
      << compiled->disassemble();
  ASSERT_EQ(compiled->functions[0].fusedSweeps[0].blockCount, 2U);

  telemetry::setEnabled(true);
  telemetry::resetAll();
  vm::Vm machine(compiled);
  runtime::QuantumRuntime rt(1);
  rt.bind(machine);
  machine.runEntryPoint();
  const auto count = [](const char* name) {
    return telemetry::counterValue(std::string("vm.dispatch.") + name);
  };
  // The loop body runs three times; x then mz on q2 reads 1, so the
  // branch takes %flip.
  EXPECT_EQ(count("data"), 1U);       // zext
  EXPECT_EQ(count("arithmetic"), 6U); // (add, icmp) x 3
  EXPECT_EQ(count("memory"), 8U);     // alloca, store; (load, store) x 3
  // br entry, br loop x 3, br measure, br flip, ret
  EXPECT_EQ(count("control_flow"), 7U);
  EXPECT_EQ(count("call_internal"), 5U); // PushArgs: x 1, mz 2, read 1, x 1
  EXPECT_EQ(count("call_external"), 4U); // x, mz, read_result, x
  EXPECT_EQ(count("fused"), 2U);         // one head applying two blocks
  telemetry::resetAll();
  telemetry::setEnabled(false);
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

} // namespace
} // namespace qirkit
