/// Execution-mode test suite: the terminal-measurement shot analysis
/// (vm/shot_analysis.hpp) and the sampling fast path it gates in the
/// batched executor. Covers the classification verdicts, determinism of
/// each mode per (mode, seed) across engines and thread pools,
/// statistical sample-vs-resim agreement, the auto-mode routing
/// decision, the usage error for forcing sample on a feedback program,
/// and graceful degradation to per-shot resim when sampling faults.
#include "circuit/generators.hpp"
#include "ir/parser.hpp"
#include "qir/exporter.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"
#include "vm/executor.hpp"
#include "vm/shot_analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>

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

TEST(ExecMode, AutoKeepsFeedbackProgramsOnResim) {
  ir::Context ctx;
  const auto m = parse(ctx, kFeedbackProgram);
  vm::ShotOptions opts;
  opts.shots = 100;
  opts.seed = 5;
  const vm::ShotBatchResult result = vm::runShots(*m, opts);
  EXPECT_FALSE(result.sampled);
  EXPECT_FALSE(result.sampleFallback);
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

} // namespace
} // namespace qirkit
