#include "circuit/executor.hpp"
#include "circuit/generators.hpp"
#include "ir/parser.hpp"
#include "qir/exporter.hpp"
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

namespace qirkit::runtime {
namespace {

using circuit::Circuit;

std::unique_ptr<ir::Module> parseQIR(ir::Context& ctx, const char* text) {
  return ir::parseModule(ctx, text);
}

TEST(Runtime, BellProgramProducesCorrelatedOutput) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    interp::Interpreter interp(*m);
    QuantumRuntime rt(seed);
    rt.bind(interp);
    interp.runEntryPoint();
    const std::string bits = rt.outputBitString();
    EXPECT_TRUE(bits == "00" || bits == "11") << bits;
  }
}

TEST(Runtime, DynamicAndStaticAddressingAgree) {
  // §IV.A: both addressing styles must execute identically.
  const Circuit c = circuit::ghz(4, true);
  ir::Context ctx;
  qir::ExportOptions dynamicOptions;
  dynamicOptions.addressing = qir::Addressing::Dynamic;
  const auto dynamicModule = qir::exportCircuit(ctx, c, dynamicOptions);
  const auto staticModule = qir::exportCircuit(ctx, c, {});
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    interp::Interpreter i1(*dynamicModule);
    QuantumRuntime r1(seed);
    r1.bind(i1);
    i1.runEntryPoint();
    interp::Interpreter i2(*staticModule);
    QuantumRuntime r2(seed);
    r2.bind(i2);
    i2.runEntryPoint();
    EXPECT_EQ(r1.outputBitString(), r2.outputBitString()) << "seed " << seed;
  }
}

TEST(Runtime, OnTheFlyStaticAllocation) {
  // §IV.A: "allocate qubits on the fly when it encounters a new qubit
  // address that is not yet part of the simulated quantum state."
  ir::Context ctx;
  const auto m = parseQIR(ctx, R"(
declare void @__quantum__qis__x__body(ptr)
define void @main() #0 {
  call void @__quantum__qis__x__body(ptr null)
  call void @__quantum__qis__x__body(ptr inttoptr (i64 5 to ptr))
  call void @__quantum__qis__x__body(ptr inttoptr (i64 5 to ptr))
  ret void
}
attributes #0 = { "entry_point" }
)");
  interp::Interpreter interp(*m);
  QuantumRuntime rt(1);
  rt.bind(interp);
  interp.runEntryPoint();
  // Two distinct static addresses -> two simulator qubits, not six.
  EXPECT_EQ(rt.stats().staticQubitsAllocated, 2U);
  EXPECT_EQ(rt.state().numQubits(), 2U);
  EXPECT_NEAR(rt.state().probabilityOfOne(0), 1.0, 1e-12); // X once
  EXPECT_NEAR(rt.state().probabilityOfOne(1), 0.0, 1e-12); // X twice
}

TEST(Runtime, SpecStyleHandleLoadAlsoWorks) {
  // The QIR spec loads the %Qubit* handle out of the array element before
  // passing it; the paper's Ex. 2 passes the element pointer directly.
  // Both must execute.
  ir::Context ctx;
  const auto m = parseQIR(ctx, R"(
declare ptr @__quantum__rt__qubit_allocate_array(i64)
declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)
declare void @__quantum__qis__x__body(ptr)
define void @main() #0 {
  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  %e = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, i64 1)
  %h = load ptr, ptr %e, align 8
  call void @__quantum__qis__x__body(ptr %h)
  call void @__quantum__qis__x__body(ptr %e)
  ret void
}
attributes #0 = { "entry_point" }
)");
  interp::Interpreter interp(*m);
  QuantumRuntime rt(1);
  rt.bind(interp);
  interp.runEntryPoint();
  // Both calls hit qubit 1: X twice = identity.
  EXPECT_NEAR(rt.state().probabilityOfOne(1), 0.0, 1e-12);
  EXPECT_EQ(rt.stats().gatesApplied, 2U);
}

TEST(Runtime, AdaptiveFeedbackExecutes) {
  // measure |1>, conditionally flip back: X; mz; if(r) X -> final |0>.
  ir::Context ctx;
  const auto m = parseQIR(ctx, R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__x__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %r, label %then, label %continue
then:
  call void @__quantum__qis__x__body(ptr null)
  br label %continue
continue:
  ret void
}
attributes #0 = { "entry_point" }
)");
  interp::Interpreter interp(*m);
  QuantumRuntime rt(1);
  rt.bind(interp);
  interp.runEntryPoint();
  EXPECT_NEAR(rt.state().probabilityOfOne(0), 0.0, 1e-12);
  EXPECT_EQ(rt.stats().measurements, 1U);
}

TEST(Runtime, QubitReleaseInvalidatesHandle) {
  ir::Context ctx;
  const auto m = parseQIR(ctx, R"(
declare ptr @__quantum__rt__qubit_allocate()
declare void @__quantum__rt__qubit_release(ptr)
declare void @__quantum__qis__x__body(ptr)
define void @main() #0 {
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__qis__x__body(ptr %q)
  ret void
}
attributes #0 = { "entry_point" }
)");
  // Every backend shares the ABI's release, the recorder included.
  const auto traps = [&](auto& rt) {
    interp::Interpreter interp(*m);
    rt.bind(interp);
    EXPECT_THROW(interp.runEntryPoint(), interp::TrapError);
  };
  QuantumRuntime dense(1);
  traps(dense);
  CliffordRuntime clifford(2);
  traps(clifford);
  RecordingRuntime recorder;
  traps(recorder);
}

TEST(Runtime, TwoQubitGateAllocatesStaticOperandsLeftToRight) {
  // First use is source order: the control, 5, is seen before the
  // target, 7, so it gets simulator qubit 0 — as on the fused path.
  ir::Context ctx;
  const auto m = parseQIR(ctx, R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
define void @main() #0 {
  call void @__quantum__qis__cnot__body(ptr inttoptr (i64 5 to ptr), ptr inttoptr (i64 7 to ptr))
  call void @__quantum__qis__x__body(ptr inttoptr (i64 5 to ptr))
  ret void
}
attributes #0 = { "entry_point" }
)");
  interp::Interpreter interp(*m);
  QuantumRuntime rt(1);
  rt.bind(interp);
  interp.runEntryPoint();
  EXPECT_NEAR(rt.state().probabilityOfOne(0), 1.0, 1e-12);
  EXPECT_NEAR(rt.state().probabilityOfOne(1), 0.0, 1e-12);
}

TEST(Runtime, ResultConstantsAndEquality) {
  ir::Context ctx;
  const auto m = parseQIR(ctx, R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare ptr @__quantum__rt__result_get_one()
declare i1 @__quantum__rt__result_equal(ptr, ptr)
define i1 @main() #0 {
  call void @__quantum__qis__x__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %one = call ptr @__quantum__rt__result_get_one()
  %eq = call i1 @__quantum__rt__result_equal(ptr null, ptr %one)
  ret i1 %eq
}
attributes #0 = { "entry_point" }
)");
  interp::Interpreter interp(*m);
  QuantumRuntime rt(1);
  rt.bind(interp);
  EXPECT_EQ(interp.runEntryPoint().i, -1); // i1 true, canonically sign-extended
}

TEST(Runtime, RunQIRModuleConvenience) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(3, true), {});
  const RunResult result = runQIRModule(*m, 7);
  EXPECT_EQ(result.stats.measurements, 3U);
  EXPECT_EQ(result.output.size(), 3U);
  EXPECT_GT(result.interpStats.instructionsExecuted, 0U);
}

TEST(Runtime, RecordedOutputLabelsComeFromGlobals) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  interp::Interpreter interp(*m);
  QuantumRuntime rt(1);
  rt.bind(interp);
  interp.runEntryPoint();
  ASSERT_EQ(rt.recordedOutput().size(), 2U);
  EXPECT_EQ(rt.recordedOutput()[0].first, "r0");
  EXPECT_EQ(rt.recordedOutput()[1].first, "r1");
}

TEST(RecordingRuntimeTest, TraceReconstructsCircuit) {
  // §III.C orthogonality: swapping the runtime turns execution into
  // circuit reconstruction.
  const Circuit original = circuit::qft(3, true);
  ir::Context ctx;
  qir::ExportOptions options;
  options.addressing = qir::Addressing::Dynamic;
  options.recordOutput = false;
  const auto m = qir::exportCircuit(ctx, original, options);
  interp::Interpreter interp(*m);
  RecordingRuntime rt;
  rt.bind(interp);
  interp.runEntryPoint();
  EXPECT_EQ(rt.recorded(), original);
}

TEST(RecordingRuntimeTest, TraceExecutesClassicalLoops) {
  // A QIR FOR-loop (Ex. 4) traced through the recording runtime yields the
  // unrolled gate sequence without any compiler pass.
  ir::Context ctx;
  const auto m = parseQIR(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 10
  br i1 %c, label %body, label %exit
body:
  %p = inttoptr i64 %i to ptr
  call void @__quantum__qis__h__body(ptr %p)
  %next = add i64 %i, 1
  br label %header
exit:
  ret void
}
attributes #0 = { "entry_point" }
)");
  interp::Interpreter interp(*m);
  RecordingRuntime rt;
  rt.bind(interp);
  interp.runEntryPoint();
  EXPECT_EQ(rt.recorded().gateCount(), 10U);
  EXPECT_EQ(rt.recorded().numQubits(), 10U);
}


TEST(Runtime, AttributeBasedPreallocationMatchesOnTheFly) {
  // §IV.A offers two strategies for static addresses: infer the count
  // "via an attribute in the QIR file" or allocate on the fly. Both must
  // execute identically.
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(4, true), {});
  ASSERT_EQ(m->entryPoint()->getAttribute("required_num_qubits"), "4");

  interp::Interpreter onTheFlyInterp(*m);
  QuantumRuntime onTheFly(7);
  onTheFly.bind(onTheFlyInterp);
  onTheFlyInterp.runEntryPoint();

  interp::Interpreter preallocInterp(*m);
  QuantumRuntime prealloc(7);
  EXPECT_EQ(prealloc.preallocateFromAttributes(*m), 4U);
  prealloc.bind(preallocInterp);
  EXPECT_EQ(prealloc.state().numQubits(), 4U); // reserved before execution
  preallocInterp.runEntryPoint();

  EXPECT_EQ(onTheFly.outputBitString(), prealloc.outputBitString());
  // The pre-allocating runtime reports no on-the-fly allocations.
  EXPECT_EQ(prealloc.stats().staticQubitsAllocated, 0U);
  EXPECT_EQ(onTheFly.stats().staticQubitsAllocated, 4U);
}

TEST(Runtime, PreallocationWithoutAttributeIsANoOp) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
define void @main() {
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
)");
  QuantumRuntime rt(1);
  EXPECT_EQ(rt.preallocateFromAttributes(*m), 0U);
  EXPECT_EQ(rt.state().numQubits(), 0U);
}


TEST(CliffordRuntimeTest, HundredQubitGHZThroughQIR) {
  // Ex. 5's "integrating classical simulation techniques": the same QIR
  // program, a polynomially scaling backend — 100 qubits, far beyond the
  // dense simulator's cap.
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(100, true), {});
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    interp::Interpreter interp(*m);
    CliffordRuntime rt(100, seed);
    rt.bind(interp);
    interp.runEntryPoint();
    const bool first = rt.resultValue(0);
    for (unsigned bit = 1; bit < 100; ++bit) {
      ASSERT_EQ(rt.resultValue(bit), first) << "bit " << bit;
    }
    EXPECT_EQ(rt.stats().gatesApplied, 100U);
  }
}

TEST(CliffordRuntimeTest, MatchesStatevectorRuntimeOnCliffordPrograms) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(5, true), {});
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    interp::Interpreter denseInterp(*m);
    QuantumRuntime dense(seed);
    dense.bind(denseInterp);
    denseInterp.runEntryPoint();
    interp::Interpreter cliffordInterp(*m);
    CliffordRuntime clifford(5, seed);
    clifford.bind(cliffordInterp);
    cliffordInterp.runEntryPoint();
    // Both are GHZ: all-equal bits; the first bit is an independent coin
    // per backend, so compare correlation structure, not the coin.
    const bool denseFirst = dense.resultValue(0);
    const bool clifFirst = clifford.resultValue(0);
    for (unsigned bit = 1; bit < 5; ++bit) {
      EXPECT_EQ(dense.resultValue(bit), denseFirst);
      EXPECT_EQ(clifford.resultValue(bit), clifFirst);
    }
  }
}

/// A Clifford program that calls every rt function a backend used to
/// miss: result_get_one/zero, result_equal, array_get_size_1d, qubit and
/// array allocate/release, array_get_element_ptr_1d and
/// result_record_output. Deterministic: it records 1, 1, 0.
constexpr const char* kRtSurfaceProgram = R"(
declare ptr @__quantum__rt__qubit_allocate()
declare void @__quantum__rt__qubit_release(ptr)
declare ptr @__quantum__rt__qubit_allocate_array(i64)
declare void @__quantum__rt__qubit_release_array(ptr)
declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)
declare i64 @__quantum__rt__array_get_size_1d(ptr)
declare ptr @__quantum__rt__result_get_one()
declare ptr @__quantum__rt__result_get_zero()
declare i1 @__quantum__rt__result_equal(ptr, ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() #0 {
entry:
  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  %n = call i64 @__quantum__rt__array_get_size_1d(ptr %a)
  %last = sub i64 %n, 1
  %e0 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, i64 0)
  %e1 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, i64 %last)
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__x__body(ptr %e0)
  call void @__quantum__qis__cnot__body(ptr %e0, ptr %e1)
  call void @__quantum__qis__mz__body(ptr %e0, ptr null)
  call void @__quantum__qis__mz__body(ptr %e1, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr %q, ptr inttoptr (i64 2 to ptr))
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__rt__qubit_release_array(ptr %a)
  %one = call ptr @__quantum__rt__result_get_one()
  %zero = call ptr @__quantum__rt__result_get_zero()
  %isOne = call i1 @__quantum__rt__result_equal(ptr null, ptr %one)
  %isZero = call i1 @__quantum__rt__result_equal(ptr inttoptr (i64 2 to ptr), ptr %zero)
  %both = and i1 %isOne, %isZero
  br i1 %both, label %record, label %done
record:
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 1 to ptr), ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 2 to ptr), ptr null)
  br label %done
done:
  ret void
}
attributes #0 = { "entry_point" }
)";

TEST(CliffordRuntimeTest, EveryRuntimeAnswersTheWholeRtSurface) {
  ir::Context ctx;
  const auto m = parseQIR(ctx, kRtSurfaceProgram);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    interp::Interpreter denseInterp(*m);
    QuantumRuntime dense(seed);
    dense.bind(denseInterp);
    denseInterp.runEntryPoint();
    interp::Interpreter cliffordInterp(*m);
    CliffordRuntime clifford(3, seed);
    clifford.bind(cliffordInterp);
    cliffordInterp.runEntryPoint();
    EXPECT_EQ(dense.outputBitString(), "110");
    EXPECT_EQ(clifford.recordedOutput(), dense.recordedOutput());
  }
  // The recorder writes no outcomes, so result_equal(r0, one) is false
  // and nothing is recorded — but every call has a binding.
  interp::Interpreter recorderInterp(*m);
  RecordingRuntime recorder;
  recorder.bind(recorderInterp);
  recorderInterp.runEntryPoint();
  EXPECT_EQ(recorder.recorded().countKind(circuit::OpKind::Measure), 3U);
  EXPECT_EQ(recorder.recorded().numQubits(), 3U);
  EXPECT_TRUE(recorder.recordedOutput().empty());
}

TEST(CliffordRuntimeTest, EveryRuntimeReadsResultGetOneAsOneAndGetZeroAsZero) {
  // x runs when read_result(result_get_one()) is true and would run again
  // if read_result(result_get_zero()) were; then q0 is measured and the
  // constants are recorded around the measured result.
  ir::Context ctx;
  const auto m = parseQIR(ctx, R"(
declare ptr @__quantum__rt__result_get_one()
declare ptr @__quantum__rt__result_get_zero()
declare i1 @__quantum__qis__read_result__body(ptr)
declare i1 @__quantum__rt__result_equal(ptr, ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() #0 {
entry:
  %one = call ptr @__quantum__rt__result_get_one()
  %zero = call ptr @__quantum__rt__result_get_zero()
  %isOne = call i1 @__quantum__qis__read_result__body(ptr %one)
  br i1 %isOne, label %flip, label %check
flip:
  call void @__quantum__qis__x__body(ptr null)
  br label %check
check:
  %isZero = call i1 @__quantum__qis__read_result__body(ptr %zero)
  %same = call i1 @__quantum__rt__result_equal(ptr %one, ptr %zero)
  %wrong = or i1 %isZero, %same
  br i1 %wrong, label %flipBack, label %done
flipBack:
  call void @__quantum__qis__x__body(ptr null)
  br label %done
done:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr %one, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr %zero, ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)");
  interp::Interpreter denseInterp(*m);
  QuantumRuntime dense(1);
  dense.bind(denseInterp);
  denseInterp.runEntryPoint();
  EXPECT_EQ(dense.outputBitString(), "110");

  interp::Interpreter cliffordInterp(*m);
  CliffordRuntime clifford(1, 1);
  clifford.bind(cliffordInterp);
  cliffordInterp.runEntryPoint();
  EXPECT_EQ(clifford.outputBitString(), "110");

  // The recorder writes no outcomes, so its measured result reads 0; the
  // constants still read 1 and 0, and the one x is recorded.
  interp::Interpreter recorderInterp(*m);
  RecordingRuntime recorder;
  recorder.bind(recorderInterp);
  recorderInterp.runEntryPoint();
  EXPECT_EQ(recorder.outputBitString(), "100");
  EXPECT_EQ(recorder.recorded().countKind(circuit::OpKind::X), 1U);
}

TEST(CliffordRuntimeTest, StaticAndDynamicQubitsNeverShareATableauQubit) {
  // Static ids take tableau qubits at first use, like every other
  // runtime, so a later qubit_allocate gets a fresh one in |0>.
  ir::Context ctx;
  const auto m = parseQIR(ctx, R"(
declare ptr @__quantum__rt__qubit_allocate()
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
define void @main() #0 {
  call void @__quantum__qis__x__body(ptr null)
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__mz__body(ptr %q, ptr inttoptr (i64 5 to ptr))
  ret void
}
attributes #0 = { "entry_point" }
)");
  interp::Interpreter denseInterp(*m);
  QuantumRuntime dense(1);
  dense.bind(denseInterp);
  denseInterp.runEntryPoint();
  EXPECT_FALSE(dense.resultValue(5));

  interp::Interpreter cliffordInterp(*m);
  CliffordRuntime clifford(2, 1);
  clifford.bind(cliffordInterp);
  cliffordInterp.runEntryPoint();
  EXPECT_FALSE(clifford.resultValue(5));

  interp::Interpreter recorderInterp(*m);
  RecordingRuntime recorder;
  recorder.bind(recorderInterp);
  recorderInterp.runEntryPoint();
  EXPECT_FALSE(recorder.resultValue(5));
  circuit::Circuit expected(2, 1);
  expected.x(0);
  expected.measure(1, 0);
  EXPECT_EQ(recorder.recorded(), expected);
}

TEST(CliffordRuntimeTest, RejectsNonCliffordInstructions) {
  ir::Context ctx;
  circuit::Circuit c(1, 0);
  c.t(0);
  qir::ExportOptions options;
  options.recordOutput = false;
  const auto m = qir::exportCircuit(ctx, c, options);
  interp::Interpreter interp(*m);
  CliffordRuntime rt(1);
  rt.bind(interp);
  EXPECT_THROW(interp.runEntryPoint(), interp::TrapError);
}

TEST(CliffordRuntimeTest, DynamicAllocationWithinBudget) {
  ir::Context ctx;
  qir::ExportOptions options;
  options.addressing = qir::Addressing::Dynamic;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(6, true), options);
  interp::Interpreter interp(*m);
  CliffordRuntime rt(6, 3);
  rt.bind(interp);
  interp.runEntryPoint();
  EXPECT_EQ(rt.stats().dynamicQubitsAllocated, 6U);
  // A second allocation beyond the budget traps.
  interp::Interpreter interp2(*m);
  CliffordRuntime small(3, 3);
  small.bind(interp2);
  EXPECT_THROW(interp2.runEntryPoint(), interp::TrapError);
}

/// Property: interpreted QIR execution and direct circuit simulation have
/// identical measurement statistics for deterministic circuits, and
/// identical statevectors generally.
class ExecutionEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecutionEquivalence, InterpretedQIRMatchesDirectSimulation) {
  const std::uint64_t seed = GetParam();
  const Circuit c = circuit::randomCircuit(4, 4, seed, /*measured=*/false);
  ir::Context ctx;
  qir::ExportOptions options;
  options.recordOutput = false;
  const auto m = qir::exportCircuit(ctx, c, options);

  interp::Interpreter interp(*m);
  QuantumRuntime rt(1);
  rt.bind(interp);
  interp.runEntryPoint();

  const auto direct = circuit::execute(c, 1);
  EXPECT_NEAR(rt.state().fidelity(direct.state), 1.0, 1e-9) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutionEquivalence,
                         ::testing::Range<std::uint64_t>(1, 11));

} // namespace
} // namespace qirkit::runtime
