/// Execution-mode test suite: the terminal-measurement shot analysis
/// (vm/shot_analysis.hpp) and the two routes it gates in the batched
/// executor. Covers the classification verdicts, determinism of each mode
/// per (mode, seed) across engines and thread pools, statistical
/// sample-vs-resim agreement, the auto-mode routing decision, the usage
/// error for forcing sample on a feedback program, graceful degradation
/// to per-shot resim when sampling faults, and shot branching: auto on a
/// feedback program answers exactly as per-shot resim and the reference
/// interpreter on generated and corpus programs, traps, an armed fault
/// injector and a deadline included. A program no shot can run is one
/// error for the batch, raised before any engine runs.
#include "circuit/generators.hpp"
#include "ir/parser.hpp"
#include "qasm/load.hpp"
#include "qasm/qasm3.hpp"
#include "qir/exporter.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/telemetry.hpp"
#include "vm/executor.hpp"
#include "vm/shot_analysis.hpp"

#include "workloads.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace qirkit {
namespace {

std::unique_ptr<ir::Module> parse(ir::Context& ctx, const std::string& text) {
  return ir::parseModule(ctx, text);
}

/// Measure-then-feedback: a branch condition depends on a measurement.
constexpr const char* kFeedbackProgram = R"(
@lbl.r1 = internal constant [3 x i8] c"r1\00"
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %r, label %flip, label %done
flip:
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  br label %done
done:
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 1 to ptr), ptr @lbl.r1)
  ret void
}
attributes #0 = { "entry_point" }
)";

std::uint64_t histogramTotal(const std::map<std::string, std::uint64_t>& h) {
  std::uint64_t total = 0;
  for (const auto& [bits, count] : h) {
    total += count;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Static classification.
// ---------------------------------------------------------------------------

TEST(ShotAnalysis, BellAndGhzAreTerminal) {
  ir::Context ctx;
  const auto bell = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  EXPECT_EQ(vm::analyzeShotProfile(*bell).profile, vm::ShotProfile::Terminal);
  const auto ghz = qir::exportCircuit(ctx, circuit::ghz(5, true), {});
  EXPECT_EQ(vm::analyzeShotProfile(*ghz).profile, vm::ShotProfile::Terminal);
}

TEST(ShotAnalysis, BranchOnMeasurementIsFeedbackDependent) {
  ir::Context ctx;
  const auto m = parse(ctx, kFeedbackProgram);
  const vm::ShotAnalysis a = vm::analyzeShotProfile(*m);
  EXPECT_EQ(a.profile, vm::ShotProfile::FeedbackDependent);
  EXPECT_NE(a.reason.find("branch"), std::string::npos) << a.reason;
}

TEST(ShotAnalysis, GateOnMeasuredQubitIsFeedbackDependent) {
  ir::Context ctx;
  const auto m = parse(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)");
  const vm::ShotAnalysis a = vm::analyzeShotProfile(*m);
  EXPECT_EQ(a.profile, vm::ShotProfile::FeedbackDependent);
  EXPECT_NE(a.reason.find("after"), std::string::npos) << a.reason;
}

TEST(ShotAnalysis, GateOnOtherQubitAfterMeasurementIsTerminal) {
  // Deferring q0's measurement past an X on q1 commutes: per-qubit
  // ordering, not a global measurement barrier.
  ir::Context ctx;
  const auto m = parse(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))
  ret void
}
attributes #0 = { "entry_point" }
)");
  EXPECT_EQ(vm::analyzeShotProfile(*m).profile, vm::ShotProfile::Terminal);
}

TEST(ShotAnalysis, ResetOfFreshQubitIsTerminalButAfterGateIsNot) {
  ir::Context ctx;
  const auto fresh = parse(ctx, R"(
declare void @__quantum__qis__reset__body(ptr)
declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__reset__body(ptr null)
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)");
  EXPECT_EQ(vm::analyzeShotProfile(*fresh).profile, vm::ShotProfile::Terminal);

  const auto dirty = parse(ctx, R"(
declare void @__quantum__qis__reset__body(ptr)
declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__reset__body(ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)");
  const vm::ShotAnalysis a = vm::analyzeShotProfile(*dirty);
  EXPECT_EQ(a.profile, vm::ShotProfile::FeedbackDependent);
  EXPECT_NE(a.reason.find("reset"), std::string::npos) << a.reason;
}

TEST(ShotAnalysis, CallShorterThanItsQirSignatureIsFeedbackDependent) {
  // The loader rejects such a declaration; a module built without it
  // still gets a verdict instead of a read past the call's operands.
  ir::Context ctx;
  const auto m = parse(ctx, R"(
declare void @__quantum__qis__h__body()
declare void @__quantum__qis__mz__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body()
  call void @__quantum__qis__mz__body(ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)");
  const vm::ShotAnalysis a = vm::analyzeShotProfile(*m);
  EXPECT_EQ(a.profile, vm::ShotProfile::FeedbackDependent);
  EXPECT_NE(a.reason.find("@__quantum__qis__h__body is called with 0 arguments"),
            std::string::npos)
      << a.reason;
}

TEST(ShotAnalysis, UnknownExternalIsFeedbackDependent) {
  // An opaque external could observe or perturb anything; stay safe.
  ir::Context ctx;
  const auto m = parse(ctx, R"(
declare void @mystery_callback()
declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @mystery_callback()
  ret void
}
attributes #0 = { "entry_point" }
)");
  EXPECT_EQ(vm::analyzeShotProfile(*m).profile,
            vm::ShotProfile::FeedbackDependent);
}

// ---------------------------------------------------------------------------
// Executor routing and output equivalence.
// ---------------------------------------------------------------------------

TEST(ExecMode, AutoSamplesTerminalPrograms) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  vm::ShotOptions opts;
  opts.shots = 500;
  opts.seed = 5;
  const vm::ShotBatchResult result = vm::runShots(*m, opts);
  EXPECT_TRUE(result.sampled);
  EXPECT_FALSE(result.sampleFallback);
  EXPECT_EQ(result.completedShots, 500U);
  EXPECT_EQ(result.failedShots, 0U);
  EXPECT_EQ(histogramTotal(result.histogram), 500U);
  for (const auto& [bits, count] : result.histogram) {
    EXPECT_TRUE(bits == "00" || bits == "11") << bits; // Bell correlations
  }
  // The representative stats survive the sampling path.
  EXPECT_EQ(result.lastShotStats.gatesApplied, 2U);
  EXPECT_EQ(result.lastShotStats.measurements, 2U);
}

TEST(ExecMode, AutoBranchesFeedbackPrograms) {
  // One h + mz: every shot takes one of two outcome paths.
  ir::Context ctx;
  const auto m = parse(ctx, kFeedbackProgram);
  vm::ShotOptions opts;
  opts.shots = 100;
  opts.seed = 5;
  const vm::ShotBatchResult result = vm::runShots(*m, opts);
  EXPECT_FALSE(result.sampled);
  EXPECT_FALSE(result.sampleFallback);
  EXPECT_TRUE(result.branched);
  EXPECT_EQ(result.branchPaths, 2U);
  EXPECT_EQ(result.completedShots, 100U);
  EXPECT_EQ(histogramTotal(result.histogram), 100U);
}

TEST(ExecMode, ForcingSampleOnFeedbackProgramIsUsageError) {
  ir::Context ctx;
  const auto m = parse(ctx, kFeedbackProgram);
  vm::ShotOptions opts;
  opts.shots = 10;
  opts.execMode = vm::ExecMode::Sample;
  try {
    (void)vm::runShots(*m, opts);
    FAIL() << "expected a usage error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Usage);
    EXPECT_NE(std::string(e.what()).find("measurement-terminal"),
              std::string::npos);
  }
}

/// An entry point that takes a parameter: QIR entry points take none.
constexpr const char* kParameterizedEntryProgram = R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main(i64 %n) #0 {
entry:
  %c = icmp eq i64 %n, 0
  br i1 %c, label %measure, label %flip
flip:
  call void @__quantum__qis__x__body(ptr null)
  br label %measure
measure:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}
attributes #0 = { "entry_point" "required_num_qubits"="1" "required_num_results"="1" }
)";

/// No entry point: neither an "entry_point" function nor a @main.
constexpr const char* kNoEntryProgram = R"(
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @helper() {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}
)";

TEST(ExecMode, ProgramNoShotCanRunFailsOnceBeforeAnyEngineRuns) {
  // A --max-failed-shots that covers every shot must not turn either into
  // an empty histogram.
  struct Case {
    const char* program;
    ErrorCode code;
    const char* message;
  };
  const Case cases[] = {
      {kParameterizedEntryProgram, ErrorCode::Semantic,
       "@main takes 1 parameter(s) but was called with 0 argument(s) (QIR "
       "entry points take none)"},
      {kNoEntryProgram, ErrorCode::Trap, "module has no executable entry point"},
  };
  const char* const untouched[] = {
      "shots.completed", "shots.failed", "shots.sample_fallbacks",
      "shots.sample_mode_batches", "shots.branch_batches",
      "shots.analysis.terminal", "shots.analysis.feedback_dependent",
      "vm.dispatch.data", "vm.dispatch.arithmetic", "vm.dispatch.memory",
      "vm.dispatch.control_flow", "vm.dispatch.call_internal",
      "vm.dispatch.call_external", "vm.dispatch.fused"};
  telemetry::setEnabled(true);
  for (const Case& c : cases) {
    ir::Context ctx;
    const auto m = parse(ctx, c.program);
    for (const vm::Engine engine : {vm::Engine::Vm, vm::Engine::Interp}) {
      for (const vm::ExecMode mode :
           {vm::ExecMode::Auto, vm::ExecMode::Resim, vm::ExecMode::Sample}) {
        SCOPED_TRACE(std::string(c.message) + " on " + vm::engineName(engine) +
                     "/" + vm::execModeName(mode));
        telemetry::resetAll();
        vm::ShotOptions opts;
        opts.shots = 4;
        opts.seed = 1;
        opts.engine = engine;
        opts.execMode = mode;
        opts.maxFailedShots = opts.shots;
        try {
          (void)vm::runShots(*m, opts);
          ADD_FAILURE() << "expected one error for the batch";
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), c.code);
          EXPECT_EQ(e.message(), c.message);
        }
        for (const char* counter : untouched) {
          EXPECT_EQ(telemetry::counterValue(counter), 0U) << counter;
        }
      }
    }
  }
  telemetry::resetAll();
  telemetry::setEnabled(false);
}

TEST(ExecMode, ForcedResimNeverSamples) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  vm::ShotOptions opts;
  opts.shots = 50;
  opts.execMode = vm::ExecMode::Resim;
  const vm::ShotBatchResult result = vm::runShots(*m, opts);
  EXPECT_FALSE(result.sampled);
  EXPECT_EQ(result.completedShots, 50U);
}

// ---------------------------------------------------------------------------
// The f32 state (ShotOptions::precision).
// ---------------------------------------------------------------------------

TEST(Precision, F32SamplingMatchesF64OnTerminalProgram) {
  // Same seed -> identical uniform draws walking two CDFs that differ
  // only by f32 rounding (~1e-7), so the histograms agree up to draws
  // that land within rounding distance of an outcome boundary.
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(4, true), {});
  vm::ShotOptions opts;
  opts.shots = 2000;
  opts.seed = 11;
  const vm::ShotBatchResult f64 = vm::runShots(*m, opts);
  opts.precision = sim::Precision::F32;
  const vm::ShotBatchResult f32 = vm::runShots(*m, opts);
  ASSERT_TRUE(f64.sampled);
  ASSERT_TRUE(f32.sampled);
  EXPECT_EQ(histogramTotal(f32.histogram), 2000U);
  for (const auto& [bits, count] : f32.histogram) {
    EXPECT_TRUE(bits == "0000" || bits == "1111") << bits;
  }
  for (const char* bits : {"0000", "1111"}) {
    const auto a = f64.histogram.find(bits);
    const auto b = f32.histogram.find(bits);
    const double ca = a == f64.histogram.end() ? 0.0 : double(a->second);
    const double cb = b == f32.histogram.end() ? 0.0 : double(b->second);
    EXPECT_NEAR(ca, cb, 5.0) << bits;
  }
}

TEST(Precision, F32FusionResimMatchesF64) {
  // The fused VM kernels under per-shot resim at reduced width: the same
  // seeded measurement draws land on probabilities that differ from f64
  // only by rounding, so per-outcome counts track within a few shots.
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(3, true), {});
  vm::ShotOptions opts;
  opts.shots = 300;
  opts.seed = 17;
  opts.execMode = vm::ExecMode::Resim;
  const vm::ShotBatchResult f64 = vm::runShots(*m, opts);
  opts.precision = sim::Precision::F32;
  const vm::ShotBatchResult f32 = vm::runShots(*m, opts);
  ASSERT_FALSE(f64.sampled);
  ASSERT_FALSE(f32.sampled);
  EXPECT_EQ(histogramTotal(f32.histogram), 300U);
  for (const char* bits : {"000", "111"}) {
    const auto a = f64.histogram.find(bits);
    const auto b = f32.histogram.find(bits);
    const double ca = a == f64.histogram.end() ? 0.0 : double(a->second);
    const double cb = b == f32.histogram.end() ? 0.0 : double(b->second);
    EXPECT_NEAR(ca, cb, 3.0) << bits;
  }
}

TEST(Precision, F32OnFeedbackProgramIsUsageError) {
  ir::Context ctx;
  const auto m = parse(ctx, kFeedbackProgram);
  vm::ShotOptions opts;
  opts.shots = 10;
  opts.precision = sim::Precision::F32;
  try {
    (void)vm::runShots(*m, opts);
    FAIL() << "expected a usage error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Usage);
    EXPECT_NE(std::string(e.what()).find("--force-f32"), std::string::npos)
        << e.what();
  }
}

TEST(Precision, ForceF32AdmitsFeedbackPrograms) {
  ir::Context ctx;
  const auto m = parse(ctx, kFeedbackProgram);
  vm::ShotOptions opts;
  opts.shots = 50;
  opts.seed = 9;
  opts.precision = sim::Precision::F32;
  opts.forceF32 = true;
  const vm::ShotBatchResult result = vm::runShots(*m, opts);
  EXPECT_FALSE(result.sampled);
  EXPECT_EQ(result.completedShots, 50U);
  EXPECT_EQ(histogramTotal(result.histogram), 50U);
}

TEST(ExecMode, SampledHistogramIsDeterministicAcrossEnginesAndPools) {
  ir::Context ctx;
  // The second program's first gate uses two fresh static qubits: the
  // VM's fused block and the interpreter's call must number them alike.
  const std::unique_ptr<ir::Module> modules[] = {
      qir::exportCircuit(ctx, circuit::ghz(4, true), {}), parse(ctx, R"(
declare void @__quantum__qis__ry__body(double, ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__cnot__body(ptr inttoptr (i64 5 to ptr), ptr inttoptr (i64 7 to ptr))
  call void @__quantum__qis__ry__body(double 0.7, ptr inttoptr (i64 5 to ptr))
  call void @__quantum__qis__ry__body(double 1.9, ptr inttoptr (i64 7 to ptr))
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 5 to ptr), ptr null)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 7 to ptr), ptr inttoptr (i64 1 to ptr))
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 1 to ptr), ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)")};
  for (const auto& m : modules) {
    const auto runWith = [&](vm::Engine engine, ThreadPool* pool) {
      vm::ShotOptions opts;
      opts.shots = 1000;
      opts.seed = 21;
      opts.engine = engine;
      opts.pool = pool;
      const vm::ShotBatchResult result = vm::runShots(*m, opts);
      EXPECT_TRUE(result.sampled);
      return result.histogram;
    };
    const auto reference = runWith(vm::Engine::Vm, nullptr);
    EXPECT_EQ(histogramTotal(reference), 1000U);
    EXPECT_EQ(reference, runWith(vm::Engine::Vm, nullptr)); // repeatable
    EXPECT_EQ(reference, runWith(vm::Engine::Interp, nullptr));
    ThreadPool pool(4);
    EXPECT_EQ(reference, runWith(vm::Engine::Vm, &pool));
    EXPECT_EQ(reference, runWith(vm::Engine::Interp, &pool));
  }
}

TEST(ExecMode, SampleAgreesWithResimStatistically) {
  // Both modes draw from the identical Born distribution; on a GHZ state
  // each mode splits shots between the two legal outcomes. A 5-sigma
  // band on n=4000, p=1/2 keeps this deterministic-seed test robust.
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(3, true), {});
  vm::ShotOptions opts;
  opts.shots = 4000;
  opts.seed = 33;

  opts.execMode = vm::ExecMode::Sample;
  const vm::ShotBatchResult sampled = vm::runShots(*m, opts);
  opts.execMode = vm::ExecMode::Resim;
  const vm::ShotBatchResult resim = vm::runShots(*m, opts);

  ASSERT_TRUE(sampled.sampled);
  ASSERT_FALSE(resim.sampled);
  for (const auto* result : {&sampled, &resim}) {
    EXPECT_EQ(histogramTotal(result->histogram), 4000U);
    for (const auto& [bits, count] : result->histogram) {
      EXPECT_TRUE(bits == "000" || bits == "111") << bits;
    }
  }
  const double sigma = std::sqrt(4000.0 * 0.5 * 0.5);
  const auto countOf = [](const vm::ShotBatchResult& r, const char* bits) {
    const auto it = r.histogram.find(bits);
    return it == r.histogram.end() ? 0.0 : static_cast<double>(it->second);
  };
  EXPECT_NEAR(countOf(sampled, "000"), countOf(resim, "000"), 5 * sigma);
  EXPECT_NEAR(countOf(sampled, "111"), countOf(resim, "111"), 5 * sigma);
}

TEST(ExecMode, SamplingFaultDegradesToResimAndCompletesEveryShot) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});

  fault::Plan plan;
  plan.site = fault::Site::RuntimeCall;
  plan.at = 1; // fires inside the single sampling simulation
  const fault::ScopedPlan scoped(plan);

  vm::ShotOptions opts;
  opts.shots = 40;
  opts.seed = 9;
  const vm::ShotBatchResult result = vm::runShots(*m, opts);
  EXPECT_FALSE(result.sampled);
  EXPECT_TRUE(result.sampleFallback);
  EXPECT_NE(result.sampleFallbackReason.find("injected-fault"),
            std::string::npos)
      << result.sampleFallbackReason;
  EXPECT_EQ(result.completedShots, 40U);
  EXPECT_EQ(result.failedShots, 0U);
  EXPECT_EQ(histogramTotal(result.histogram), 40U);
}

TEST(ExecMode, ResimIsDeterministicPerSeed) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  vm::ShotOptions opts;
  opts.shots = 200;
  opts.seed = 17;
  opts.execMode = vm::ExecMode::Resim;
  const auto a = vm::runShots(*m, opts);
  const auto b = vm::runShots(*m, opts);
  EXPECT_EQ(a.histogram, b.histogram);
  opts.seed = 18;
  // A different seed legitimately reshuffles outcomes (not asserted
  // unequal — Bell has only two outcomes — but the run must succeed).
  EXPECT_EQ(histogramTotal(vm::runShots(*m, opts).histogram), 200U);
}

TEST(ExecMode, ConstantResultsRecordTheSameWhenSampled) {
  // result_get_one() recorded next to a measured result: the sampled
  // histogram reads it as 1, as the per-shot result table does.
  ir::Context ctx;
  const auto m = parse(ctx, R"(
declare ptr @__quantum__rt__result_get_one()
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() #0 {
entry:
  %one = call ptr @__quantum__rt__result_get_one()
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr %one, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)");
  vm::ShotOptions opts;
  opts.shots = 400;
  opts.seed = 3;
  const vm::ShotBatchResult sampled = vm::runShots(*m, opts);
  opts.execMode = vm::ExecMode::Resim;
  const vm::ShotBatchResult resim = vm::runShots(*m, opts);
  ASSERT_TRUE(sampled.sampled);
  for (const auto* result : {&sampled, &resim}) {
    EXPECT_EQ(histogramTotal(result->histogram), 400U);
    for (const auto& [bits, count] : result->histogram) {
      EXPECT_TRUE(bits == "10" || bits == "11") << bits;
    }
  }
}

// ---------------------------------------------------------------------------
// Shot branching: auto on the VM runs a feedback program once per
// measurement-outcome path, and must answer exactly as per-shot resim.
// ---------------------------------------------------------------------------

/// Everything a batch reports that the execution route must not change.
/// Failure records come in shot order whatever order a pool's chunks
/// merge in, so they are compared as kept.
std::string batchReport(const vm::ShotBatchResult& r) {
  std::ostringstream out;
  out << "completed " << r.completedShots << ", failed " << r.failedShots
      << ", unstarted " << r.unstartedShots << ", retries " << r.retryAttempts
      << ", rescued " << r.interpFallbackShots << "\nlast shot: gates "
      << r.lastShotStats.gatesApplied << ", measurements "
      << r.lastShotStats.measurements << ", dynamic qubits "
      << r.lastShotStats.dynamicQubitsAllocated << ", static qubits "
      << r.lastShotStats.staticQubitsAllocated << ", arrays "
      << r.lastShotStats.arraysCreated << "\n";
  for (const auto& [bits, count] : r.histogram) {
    out << bits << ": " << count << "\n";
  }
  for (const auto& [code, count] : r.failureCounts) {
    out << errorCodeName(code) << " x" << count << "\n";
  }
  for (const vm::ShotFailure& f : r.failures) {
    out << "shot " << f.shot << " " << errorCodeName(f.code)
        << (f.transient ? " transient: " : ": ") << f.message << "\n";
  }
  return out.str();
}

std::string engineReport(const interp::InterpStats& s) {
  std::ostringstream out;
  out << "instructions " << s.instructionsExecuted << ", internal calls "
      << s.internalCalls << ", external calls " << s.externalCalls << ", blocks "
      << s.blocksEntered;
  return out.str();
}

vm::ShotBatchResult runRoute(const ir::Module& m, vm::Engine engine, vm::ExecMode mode,
                             ThreadPool* pool, std::uint64_t seed, std::uint64_t shots,
                             std::uint64_t maxFailedShots = 0) {
  vm::ShotOptions opts;
  opts.engine = engine;
  opts.execMode = mode;
  opts.pool = pool;
  opts.seed = seed;
  opts.shots = shots;
  opts.maxFailedShots = maxFailedShots;
  return vm::runShots(m, opts);
}

/// \p n qubits, each put in superposition, measured and flipped back on a
/// 1, then a final measurement: up to 2^n paths, so with 2^n shots or
/// fewer most shots take their own.
circuit::Circuit everyShotItsOwnPath(unsigned n) {
  circuit::Circuit c(n, 2 * n);
  for (std::uint32_t q = 0; q < n; ++q) {
    c.h(q);
    c.measure(q, q);
    c.add({circuit::OpKind::X, {q}, {}, 0, circuit::Condition{q, 1, 1}});
  }
  for (std::uint32_t q = 0; q < n; ++q) {
    c.measure(q, n + q);
  }
  return c;
}

/// tools/test_cli.sh's rus.qasm3, a loop of terminal measurements.
constexpr const char* kCliQasm3 = R"(OPENQASM 3;
qubit[3] q;
bit[3] c;
h q[0];
for int i in [0:1] {
  cx q[i], q[i+1];
}
for int i in [0:2] {
  c[i] = measure q[i];
}
)";

struct NamedModule {
  std::string name;
  std::unique_ptr<ir::Module> module;
};

/// The generated programs of seeds 1-10 in both addressing modes, and the
/// feedback_shots corpus shapes: repcode, feedback64 and layered6 as
/// `run` loads them, and the as-written CLI OpenQASM 3 program.
std::vector<NamedModule> branchingPrograms(ir::Context& ctx) {
  std::vector<NamedModule> all;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const circuit::Circuit c = circuit::randomAdaptiveCircuit(seed);
    for (const qir::Addressing addressing :
         {qir::Addressing::Static, qir::Addressing::Dynamic}) {
      all.push_back({"adaptive/" + std::to_string(seed) +
                         (addressing == qir::Addressing::Static ? "/static" : "/dynamic"),
                     qir::exportCircuit(ctx, c, {.addressing = addressing})});
    }
  }
  const auto load = [&](const std::string& text) {
    return qasm::loadProgram(ctx, text, {}, qir::Addressing::Static);
  };
  all.push_back({"repcode", load(bench::qirTextFor(circuit::repetitionCodeCycle(1.1, 2),
                                                   qir::Addressing::Static, true))});
  all.push_back({"feedback64", load(bench::feedbackProgram(64))});
  all.push_back({"layered6", load(bench::layeredQasm3(16, 3))});
  all.push_back({"rus.qasm3", qasm::compileQasm3(ctx, kCliQasm3)});
  return all;
}

TEST(ShotBranching, AnswersAsPerShotResimAndTheInterpreter) {
  ir::Context ctx;
  ThreadPool pool(2);
  std::size_t terminal = 0;
  for (const NamedModule& program : branchingPrograms(ctx)) {
    SCOPED_TRACE(program.name);
    const ir::Module& m = *program.module;
    if (vm::analyzeShotProfile(m).profile == vm::ShotProfile::Terminal) {
      // Auto samples it; the per-shot routes still agree bit for bit.
      ++terminal;
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        EXPECT_TRUE(runRoute(m, vm::Engine::Vm, vm::ExecMode::Auto, nullptr, seed, 150).sampled);
        EXPECT_EQ(batchReport(runRoute(m, vm::Engine::Vm, vm::ExecMode::Resim, &pool, seed, 150)),
                  batchReport(runRoute(m, vm::Engine::Interp, vm::ExecMode::Resim, nullptr,
                                       seed, 150)));
      }
      continue;
    }
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + (p != nullptr ? " pool" : ""));
        constexpr std::uint64_t kShots = 150;
        const vm::ShotBatchResult branch =
            runRoute(m, vm::Engine::Vm, vm::ExecMode::Auto, p, seed, kShots);
        const vm::ShotBatchResult resim =
            runRoute(m, vm::Engine::Vm, vm::ExecMode::Resim, p, seed, kShots);
        const vm::ShotBatchResult interp =
            runRoute(m, vm::Engine::Interp, vm::ExecMode::Auto, p, seed, kShots);
        ASSERT_TRUE(branch.branched);
        EXPECT_FALSE(resim.branched);
        EXPECT_FALSE(interp.branched);
        EXPECT_GE(branch.branchPaths, 1U);
        EXPECT_LE(branch.branchPaths, kShots);
        EXPECT_EQ(batchReport(branch), batchReport(resim));
        EXPECT_EQ(batchReport(branch), batchReport(interp));
        EXPECT_EQ(engineReport(branch.lastShotEngineStats),
                  engineReport(resim.lastShotEngineStats));
        EXPECT_EQ(engineReport(branch.lastShotEngineStats),
                  engineReport(interp.lastShotEngineStats));
      }
    }
  }
  EXPECT_EQ(terminal, 1U); // rus.qasm3 measures only at the end
}

TEST(ShotBranching, RunsOncePerPathAcrossWindows) {
  // feedbackProgram's one h + mz takes two paths per window of 65 536
  // shots; a batch one window and a bit long runs four, and the last
  // shot's stats come from the second window.
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, bench::feedbackProgram(8));
  constexpr std::uint64_t kShots = (std::uint64_t{1} << 16) + 1000;
  const vm::ShotBatchResult branch =
      runRoute(*m, vm::Engine::Vm, vm::ExecMode::Auto, nullptr, 5, kShots);
  const vm::ShotBatchResult resim =
      runRoute(*m, vm::Engine::Vm, vm::ExecMode::Resim, nullptr, 5, kShots);
  ASSERT_TRUE(branch.branched);
  EXPECT_EQ(branch.branchPaths, 4U);
  EXPECT_EQ(batchReport(branch), batchReport(resim));
  EXPECT_EQ(engineReport(branch.lastShotEngineStats),
            engineReport(resim.lastShotEngineStats));
}

TEST(ShotBranching, DistinctPathsStayWithinOneExecutionPerShot) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, everyShotItsOwnPath(12), {});
  constexpr std::uint64_t kShots = 1024;
  const vm::ShotBatchResult branch =
      runRoute(*m, vm::Engine::Vm, vm::ExecMode::Auto, nullptr, 9, kShots);
  const vm::ShotBatchResult resim =
      runRoute(*m, vm::Engine::Vm, vm::ExecMode::Resim, nullptr, 9, kShots);
  ASSERT_TRUE(branch.branched);
  EXPECT_EQ(branch.branchPaths, branch.histogram.size()); // one path per outcome
  EXPECT_LT(branch.branchPaths, kShots);
  EXPECT_EQ(batchReport(branch), batchReport(resim));
}

/// `sdiv 1, %z` on a measured bit: the shots that measured 0 trap.
constexpr const char* kSDivTrap = R"(
@lbl = internal constant [2 x i8] c"r\00"
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  %z = zext i1 %r to i64
  %d = sdiv i64 1, %z
  call void @__quantum__rt__result_record_output(ptr null, ptr @lbl)
  ret void
}
attributes #0 = { "entry_point" }
)";

TEST(ShotBranching, TrappingPathRerunsItsShotsOneByOne) {
  ir::Context ctx;
  const auto m = parse(ctx, kSDivTrap);
  ThreadPool pool(2);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    // About 40 of 80 shots fail, past the 32 records a batch keeps: the
    // lowest-numbered ones, sequential or pooled.
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      constexpr std::uint64_t shots = 80;
      const vm::ShotBatchResult branch =
          runRoute(*m, vm::Engine::Vm, vm::ExecMode::Auto, p, seed, shots, shots);
      const vm::ShotBatchResult resim =
          runRoute(*m, vm::Engine::Vm, vm::ExecMode::Resim, p, seed, shots, shots);
      ASSERT_TRUE(branch.branched);
      EXPECT_GT(branch.failedShots, 0U);
      EXPECT_EQ(batchReport(branch), batchReport(resim));
    }
    // Not tolerated: both routes throw the first failing shot's message.
    std::string messages[2];
    for (const vm::ExecMode mode : {vm::ExecMode::Auto, vm::ExecMode::Resim}) {
      try {
        (void)runRoute(*m, vm::Engine::Vm, mode, nullptr, seed, 80);
        ADD_FAILURE() << "expected the batch to throw";
      } catch (const Error& e) {
        messages[mode == vm::ExecMode::Auto ? 0 : 1] = e.what();
      }
    }
    EXPECT_EQ(messages[0], messages[1]);
    EXPECT_NE(messages[0].find("shot "), std::string::npos) << messages[0];
  }
}

TEST(ShotBranching, FailureRecordsKeepTheLowestShotsWhateverTheMergeOrder) {
  // Two chunks' records merged in either order keep the 32 lowest shots,
  // ascending.
  const auto chunk = [](std::uint64_t first) {
    std::vector<vm::ShotFailure> records;
    for (std::uint64_t shot = first; shot < first + 40; shot += 2) {
      records.push_back({shot, ErrorCode::Trap, false, "trap " + std::to_string(shot)});
    }
    return records;
  };
  vm::ShotBatchResult inOrder;
  inOrder.keepFailures(chunk(0));
  inOrder.keepFailures(chunk(40));
  vm::ShotBatchResult reversed;
  reversed.keepFailures(chunk(40));
  reversed.keepFailures(chunk(0));
  ASSERT_EQ(inOrder.failures.size(), vm::ShotBatchResult::kMaxFailureRecords);
  for (std::size_t i = 0; i < inOrder.failures.size(); ++i) {
    EXPECT_EQ(inOrder.failures[i].shot, 2 * i);
    EXPECT_EQ(reversed.failures[i].shot, 2 * i);
    EXPECT_EQ(reversed.failures[i].message, inOrder.failures[i].message);
  }

  // Through the executor: the same records, and the same thrown shot, on
  // one thread and on pools of two and four.
  ir::Context ctx;
  const auto m = parse(ctx, kSDivTrap);
  ThreadPool two(2);
  ThreadPool four(4);
  for (const vm::ExecMode mode : {vm::ExecMode::Auto, vm::ExecMode::Resim}) {
    std::string reports[3];
    std::string messages[3];
    ThreadPool* const pools[] = {nullptr, &two, &four};
    for (std::size_t k = 0; k < 3; ++k) {
      ThreadPool* const p = pools[k];
      const vm::ShotBatchResult batch = runRoute(*m, vm::Engine::Vm, mode, p, 3, 80, 80);
      ASSERT_GT(batch.failedShots, vm::ShotBatchResult::kMaxFailureRecords);
      reports[k] = batchReport(batch);
      try {
        (void)runRoute(*m, vm::Engine::Vm, mode, p, 3, 80);
        ADD_FAILURE() << "expected the batch to throw";
      } catch (const Error& e) {
        messages[k] = e.what();
      }
    }
    EXPECT_EQ(reports[1], reports[0]);
    EXPECT_EQ(reports[2], reports[0]);
    EXPECT_EQ(messages[1], messages[0]);
    EXPECT_EQ(messages[2], messages[0]);
    EXPECT_NE(messages[0].find("shot 3 failed"), std::string::npos) << messages[0];
  }
}

TEST(ShotBranching, ArmedFaultInjectorKeepsThePerShotLoop) {
  // Probe counts are per execution, so only the per-shot loop reproduces
  // which shot an armed plan hits.
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::repetitionCodeCycle(0.7, 1), {});
  fault::Plan plan;
  plan.site = fault::Site::RuntimeCall;
  plan.every = 9;
  plan.seed = 4;
  vm::ShotOptions opts;
  opts.shots = 120;
  opts.seed = 2;
  opts.retries = 2;
  opts.maxFailedShots = 120;
  const auto run = [&](vm::ExecMode mode) {
    const fault::ScopedPlan scoped(plan);
    opts.execMode = mode;
    return vm::runShots(*m, opts);
  };
  const vm::ShotBatchResult autoMode = run(vm::ExecMode::Auto);
  const vm::ShotBatchResult resim = run(vm::ExecMode::Resim);
  EXPECT_FALSE(autoMode.branched);
  EXPECT_GT(autoMode.retryAttempts, 0U);
  EXPECT_EQ(batchReport(autoMode), batchReport(resim));
}

TEST(ShotBranching, DeadlineCountsEveryShotOnce) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, everyShotItsOwnPath(10), {});
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    CancelToken token;
    token.setTimeoutNs(50'000'000); // a fraction of the batch
    vm::ShotOptions opts;
    opts.shots = 2'000'000;
    opts.pool = p;
    opts.cancel = &token;
    const vm::ShotBatchResult batch = vm::runShots(*m, opts);
    EXPECT_TRUE(batch.branched);
    EXPECT_TRUE(batch.deadlineExceeded);
    EXPECT_GT(batch.completedShots, 0U);
    EXPECT_GT(batch.unstartedShots, 0U);
    EXPECT_EQ(batch.completedShots + batch.failedShots + batch.unstartedShots, opts.shots);
    EXPECT_EQ(histogramTotal(batch.histogram), batch.completedShots);
  }
}

// ---------------------------------------------------------------------------
// Declared width: an entry point's required_num_qubits and
// required_num_results bound the static addresses a run may touch, on both
// engines and every route
// ---------------------------------------------------------------------------

/// An entry point that declares \p declared qubits and applies h to static
/// qubits 0..touched-1.
std::string hOnStaticQubits(unsigned touched, unsigned declared) {
  std::string text = "declare void @__quantum__qis__h__body(ptr)\n"
                     "define void @main() #0 {\nentry:\n";
  for (unsigned q = 0; q < touched; ++q) {
    text += "  call void @__quantum__qis__h__body(ptr " +
            (q == 0 ? std::string("null")
                    : "inttoptr (i64 " + std::to_string(q) + " to ptr)") +
            ")\n";
  }
  return text + "  ret void\n}\nattributes #0 = { \"entry_point\" \"required_num_qubits\"=\"" +
         std::to_string(declared) + "\" }\n";
}

/// Run \p shots of \p m with every shot tolerated, and expect each to have
/// trapped with \p message: the bound survives the runtime's per-shot reset.
void expectEveryShotTraps(const ir::Module& m, const std::string& message,
                          std::uint64_t shots = 4) {
  for (const vm::Engine engine : {vm::Engine::Vm, vm::Engine::Interp}) {
    for (const vm::ExecMode mode :
         {vm::ExecMode::Auto, vm::ExecMode::Resim, vm::ExecMode::Sample}) {
      SCOPED_TRACE(std::string(vm::engineName(engine)) + "/" + vm::execModeName(mode));
      vm::ShotBatchResult batch;
      try {
        batch = runRoute(m, engine, mode, nullptr, 1, shots, shots);
      } catch (const Error& e) {
        // Sampling a program the analysis cannot prove terminal is a
        // usage error before any shot runs.
        EXPECT_EQ(mode, vm::ExecMode::Sample) << e.what();
        continue;
      }
      EXPECT_EQ(batch.failedShots, shots);
      ASSERT_FALSE(batch.failures.empty());
      for (const vm::ShotFailure& failure : batch.failures) {
        EXPECT_EQ(failure.code, ErrorCode::TrapInvalidQubit);
        EXPECT_EQ(failure.message, message);
      }
    }
  }
}

TEST(DeclaredWidth, AStaticQubitPastTheDeclaredWidthTraps) {
  ir::Context ctx;
  // Two qubits declared (what the serve memory guard charges), 22 touched:
  // the third address traps instead of growing a 64 MiB state.
  const auto under = parse(ctx, hOnStaticQubits(22, 2));
  expectEveryShotTraps(*under,
                       "static qubit address 2 is past the 2 qubits the entry point declares");
}

TEST(DeclaredWidth, AStaticResultPastTheDeclaredResultsTraps) {
  for (const char* call :
       {"call void @__quantum__qis__mz__body(ptr null, ptr inttoptr (i64 2 to ptr))",
        "%r = call i1 @__quantum__qis__read_result__body(ptr inttoptr (i64 2 to ptr))"}) {
    SCOPED_TRACE(call);
    ir::Context ctx;
    const auto m = parse(ctx, std::string("declare void @__quantum__qis__mz__body(ptr, ptr)\n"
                                          "declare i1 @__quantum__qis__read_result__body(ptr)\n"
                                          "define void @main() #0 {\nentry:\n  ") +
                                  call +
                                  "\n  ret void\n}\nattributes #0 = { \"entry_point\" "
                                  "\"required_num_qubits\"=\"1\" "
                                  "\"required_num_results\"=\"2\" }\n");
    expectEveryShotTraps(*m,
                         "static result address 2 is past the 2 results the entry point declares");
  }
}

TEST(DeclaredWidth, AnOpenQasm3LoopPastItsRegisterTraps) {
  // 40 001 iterations stay a loop (past the unroll budget), so the loader
  // cannot check q[i / 20000]; the last iteration addresses q[2].
  ir::Context ctx;
  const auto m = qasm::loadProgram(ctx,
                                   "OPENQASM 3;\nqubit[2] q;\nbit[2] c;\n"
                                   "for int i in [0:40000] {\n  rz(0.001) q[i / 20000];\n}\n"
                                   "c[0] = measure q[0];\nc[1] = measure q[1];\n",
                                   {}, qir::Addressing::Static);
  expectEveryShotTraps(*m, "static qubit address 2 is past the 2 qubits the entry point declares",
                       2);
}

} // namespace
} // namespace qirkit
