/// "Same program, faster": `qasm::loadProgram`, the loader of `run` and
/// `serve`, hands every consumer the module after the classical pipeline
/// (qir::transformDirect). These tests run the module as written (the
/// frontends alone) against the loaded one over the benchmark corpus
/// shapes, the programs of examples/ and the CLI test's OpenQASM 3
/// program, and check that optimization changes no answer:
///  * where the shot analysis gives both modules the same verdict, the
///    `qirkit run` stdout (histogram, gates and measurements per shot) is
///    identical for seeds 1-10 on the VM, on a pool of two and on the
///    interpreter;
///  * a program only the optimized module proves measurement-terminal
///    samples, and agrees with the as-written resimulation statistically;
///  * run-time traps survive optimization, and the shot analysis routes a
///    program whose trap depends on a measurement to resimulation;
///  * recursion, a loop too long to unroll and a module the verifier
///    rejects load fast and run as written.
#include "circuit/generators.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "passes/loop_info.hpp"
#include "qasm/load.hpp"
#include "qasm/parser.hpp"
#include "qasm/qasm3.hpp"
#include "qir/exporter.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "vm/executor.hpp"
#include "vm/shot_analysis.hpp"

#include "workloads.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

namespace qirkit {
namespace {

/// The module a frontend produces, before any pass runs.
std::unique_ptr<ir::Module> loadAsWritten(ir::Context& ctx, const std::string& text) {
  switch (qasm::classifySource(text)) {
  case qasm::SourceFormat::Qasm3:
    return qasm::compileQasm3(ctx, text);
  case qasm::SourceFormat::Qasm2:
    return qir::exportCircuit(ctx, qasm::parse(text),
                              {.addressing = qir::Addressing::Static});
  case qasm::SourceFormat::Qir:
    break;
  }
  return ir::parseModule(ctx, text);
}

std::unique_ptr<ir::Module> loadOptimized(ir::Context& ctx, const std::string& text) {
  return qasm::loadProgram(ctx, text, {}, qir::Addressing::Static);
}

/// What `qirkit run` prints on stdout, plus the failed-shot tally.
std::string runStdout(const vm::ShotBatchResult& r, std::uint64_t shots) {
  std::ostringstream out;
  out << "shots: " << shots << ", gates/shot: " << r.lastShotStats.gatesApplied
      << ", measurements/shot: " << r.lastShotStats.measurements << "\n";
  for (const auto& [bits, count] : r.histogram) {
    out << (bits.empty() ? "(no recorded output)" : bits) << ": " << count << "\n";
  }
  out << "failed: " << r.failedShots;
  for (const auto& [code, count] : r.failureCounts) {
    out << " " << errorCodeName(code) << " x" << count;
  }
  return out.str();
}

enum class Mode { Default, Jobs2, Interp };

vm::ShotBatchResult runMode(const ir::Module& module, Mode mode, std::uint64_t shots,
                            std::uint64_t seed,
                            vm::ExecMode execMode = vm::ExecMode::Auto) {
  static ThreadPool pool(2);
  vm::ShotOptions options;
  options.shots = shots;
  options.seed = seed;
  options.maxFailedShots = shots;
  options.execMode = execMode;
  if (mode == Mode::Jobs2) {
    options.pool = &pool;
  }
  if (mode == Mode::Interp) {
    options.engine = vm::Engine::Interp;
  }
  return vm::runShots(module, options);
}

/// examples/openqasm3_frontend.cpp.
constexpr const char* kOpenQasm3Example = R"(OPENQASM 3;
include "stdgates.inc";
qubit[4] q;
bit[4] c;
for int layer in [0:2] {
  for int i in [0:3] {
    ry(pi * (layer + 1) / 8) q[i];
  }
  for int i in [0:2] {
    cx q[i], q[i+1];
  }
}
c[0] = measure q[0];
if (c[0] == 1) {
  x q[0];
}
for int i in [0:3] {
  c[i] = measure q[i];
}
)";

/// examples/compile_to_target.cpp: dynamic allocation and a loop of H.
constexpr const char* kCompileToTargetExample = R"(
declare ptr @__quantum__rt__qubit_allocate_array(i64)
declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare ptr @__quantum__rt__array_create_1d(i32, i64)

define void @main() #0 {
entry:
  %q = alloca ptr, align 8
  %0 = call ptr @__quantum__rt__qubit_allocate_array(i64 6)
  store ptr %0, ptr %q, align 8
  %c = alloca ptr, align 8
  %1 = call ptr @__quantum__rt__array_create_1d(i32 1, i64 6)
  store ptr %1, ptr %c, align 8
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %cond = icmp slt i64 %i, 6
  br i1 %cond, label %body, label %entangle
body:
  %2 = load ptr, ptr %q, align 8
  %3 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %2, i64 %i)
  call void @__quantum__qis__h__body(ptr %3)
  %next = add i64 %i, 1
  br label %header
entangle:
  %4 = load ptr, ptr %q, align 8
  %5 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %4, i64 0)
  %6 = load ptr, ptr %q, align 8
  %7 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %6, i64 5)
  call void @__quantum__qis__cnot__body(ptr %5, ptr %7)
  %8 = load ptr, ptr %q, align 8
  %9 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %8, i64 0)
  %10 = load ptr, ptr %c, align 8
  %11 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %10, i64 0)
  call void @__quantum__qis__mz__body(ptr %9, ptr %11)
  ret void
}
attributes #0 = { "entry_point" }
)";

/// tools/test_cli.sh's rus.qasm3.
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

/// examples/variational_loop.cpp: the variational loop, then mz.
std::string variationalExample() {
  std::string text = bench::variationalLoopProgram(16, 4);
  const std::string exit = "exit:\n";
  text.insert(text.find(exit) + exit.size(),
              "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n");
  return text;
}

struct Program {
  std::string name;
  std::string text;
};

std::vector<Program> programs() {
  std::vector<Program> all = {
      {"repcode", bench::qirTextFor(circuit::repetitionCodeCycle(1.1, 2),
                                    qir::Addressing::Static, true)},
      {"feedback64", bench::feedbackProgram(64)},
      {"layered6", bench::layeredQasm3(16, 3)},
      // The corpus compiles ex4LoopProgram(64), which addresses 64 qubits;
      // running it needs a simulable size.
      {"ex4loop8", bench::ex4LoopProgram(8)},
      {"variational32x8", bench::variationalLoopProgram(32, 8)},
      {"openqasm3_frontend", kOpenQasm3Example},
      {"compile_to_target", kCompileToTargetExample},
      {"variational_loop", variationalExample()},
      {"quickstart",
       bench::qirTextFor(circuit::bellPair(true), qir::Addressing::Dynamic, true)},
      {"rus.qasm3", kCliQasm3},
      // Measured inside a loop: only unrolled does the shot analysis tell
      // the qubits apart, so only the optimized module samples.
      {"measure_loop", "OPENQASM 3;\nqubit[4] q;\nbit[4] c;\nfor int i in [0:3] {\n"
                       "  h q[i];\n  c[i] = measure q[i];\n}\n"},
  };
  for (unsigned errorQubit = 0; errorQubit <= 3; ++errorQubit) {
    all.push_back({"error_correction_feedback/" + std::to_string(errorQubit),
                   bench::qirTextFor(
                       circuit::repetitionCodeCycle(std::numbers::pi, errorQubit),
                       qir::Addressing::Static, false)});
  }
  return all;
}

/// Both modules sample, or both resimulate: every answer is identical.
/// Only the optimized module is terminal: it samples, and each outcome's
/// count stays within the 5-sigma band of ExecMode's statistical test of
/// the as-written module's resimulation.
TEST(OptimizedRun, SameAnswerAsTheProgramAsWritten) {
  std::size_t newlyTerminal = 0;
  for (const Program& p : programs()) {
    SCOPED_TRACE(p.name);

    ir::Context ctx;
    const auto written = loadAsWritten(ctx, p.text);
    const auto optimized = loadOptimized(ctx, p.text);
    const vm::ShotProfile before = vm::analyzeShotProfile(*written).profile;
    const vm::ShotProfile after = vm::analyzeShotProfile(*optimized).profile;
    if (before == after) {
      for (const Mode mode : {Mode::Default, Mode::Jobs2, Mode::Interp}) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
          EXPECT_EQ(runStdout(runMode(*written, mode, 200, seed), 200),
                    runStdout(runMode(*optimized, mode, 200, seed), 200))
              << "mode " << static_cast<int>(mode) << " seed " << seed;
        }
      }
      continue;
    }
    ASSERT_EQ(before, vm::ShotProfile::FeedbackDependent);
    ASSERT_EQ(after, vm::ShotProfile::Terminal);
    ++newlyTerminal;
    constexpr std::uint64_t kShots = 4000;
    const vm::ShotBatchResult sampled = runMode(*optimized, Mode::Default, kShots, 1);
    const vm::ShotBatchResult resim = runMode(*written, Mode::Default, kShots, 1);
    EXPECT_TRUE(sampled.sampled);
    EXPECT_FALSE(resim.sampled);
    EXPECT_EQ(sampled.lastShotStats.gatesApplied, resim.lastShotStats.gatesApplied);
    const double band = 5 * std::sqrt(kShots * 0.5 * 0.5);
    std::map<std::string, std::pair<double, double>> counts;
    for (const auto& [bits, count] : sampled.histogram) {
      counts[bits].first = static_cast<double>(count);
    }
    for (const auto& [bits, count] : resim.histogram) {
      counts[bits].second = static_cast<double>(count);
    }
    for (const auto& [bits, pair] : counts) {
      EXPECT_NEAR(pair.first, pair.second, band) << bits;
    }
  }
  EXPECT_EQ(newlyTerminal, 1U); // measure_loop
}

/// `sdiv 1, %z` on a measured bit: an unused instruction that traps in the
/// shots that measured 0, which DCE used to delete.
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

/// `shl 1, 64 * bit`: an unused shift that traps in the shots that
/// measured 1. The shot analysis used to let it sample.
constexpr const char* kShlTrap = R"(
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
  %s = mul i64 %z, 64
  %d = shl i64 1, %s
  call void @__quantum__rt__result_record_output(ptr null, ptr @lbl)
  ret void
}
attributes #0 = { "entry_point" }
)";

/// A load through `select %r, ptr null, ptr %slot`: an unused load that
/// traps out of bounds in the shots that measured 1.
constexpr const char* kLoadTrap = R"(
@lbl = internal constant [2 x i8] c"r\00"
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() #0 {
entry:
  %slot = alloca i64
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  %p = select i1 %r, ptr null, ptr %slot
  %v = load i64, ptr %p
  call void @__quantum__rt__result_record_output(ptr null, ptr @lbl)
  ret void
}
attributes #0 = { "entry_point" }
)";

/// An unused `load i64, ptr null`: every shot fails as written, so every
/// shot fails optimized.
constexpr const char* kNullLoad = R"(
@lbl = internal constant [2 x i8] c"r\00"
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %v = load i64, ptr null
  call void @__quantum__rt__result_record_output(ptr null, ptr @lbl)
  ret void
}
attributes #0 = { "entry_point" }
)";

TEST(OptimizedRun, RunTimeTrapsSurviveOptimization) {
  const std::vector<std::pair<const char*, ErrorCode>> dependent = {
      {kSDivTrap, ErrorCode::TrapArithmetic},
      {kShlTrap, ErrorCode::TrapArithmetic},
      {kLoadTrap, ErrorCode::TrapOutOfBounds},
  };
  for (const auto& [text, code] : dependent) {
    ir::Context ctx;
    const auto written = loadAsWritten(ctx, text);
    const auto optimized = loadOptimized(ctx, text);
    const vm::ShotAnalysis analysis = vm::analyzeShotProfile(*optimized);
    EXPECT_EQ(analysis.profile, vm::ShotProfile::FeedbackDependent);
    EXPECT_NE(analysis.reason.find("possibly-trapping"), std::string::npos)
        << analysis.reason;
    for (const Mode mode : {Mode::Default, Mode::Jobs2, Mode::Interp}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const vm::ShotBatchResult asWritten = runMode(*written, mode, 100, seed);
        const vm::ShotBatchResult loaded = runMode(*optimized, mode, 100, seed);
        EXPECT_GT(loaded.failedShots, 0U);
        EXPECT_LT(loaded.failedShots, 100U);
        EXPECT_EQ(loaded.failureCounts.at(code), loaded.failedShots);
        EXPECT_EQ(runStdout(asWritten, 100), runStdout(loaded, 100));
        // Auto takes the resimulation path, so it equals forced Resim.
        EXPECT_EQ(runStdout(loaded, 100),
                  runStdout(runMode(*optimized, mode, 100, seed, vm::ExecMode::Resim),
                            100));
      }
    }
  }

  ir::Context ctx;
  const auto written = loadAsWritten(ctx, kNullLoad);
  const auto optimized = loadOptimized(ctx, kNullLoad);
  for (const Mode mode : {Mode::Default, Mode::Jobs2, Mode::Interp}) {
    const vm::ShotBatchResult asWritten = runMode(*written, mode, 20, 1);
    const vm::ShotBatchResult loaded = runMode(*optimized, mode, 20, 1);
    EXPECT_EQ(loaded.failedShots, 20U);
    EXPECT_EQ(loaded.failureCounts.at(ErrorCode::TrapOutOfBounds), 20U);
    EXPECT_EQ(runStdout(asWritten, 20), runStdout(loaded, 20));
  }
}

/// `@f` applies a gate and calls itself, so every shot overflows the call
/// stack. The inliner never inlines a callee that can reach itself, so the
/// loader returns at once and the optimized module fails the same shots.
constexpr const char* kSelfRecursive = R"(
declare void @__quantum__qis__h__body(ptr)
define void @f() {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @f()
  ret void
}
define void @main() #0 {
entry:
  call void @f()
  ret void
}
attributes #0 = { "entry_point" }
)";

TEST(OptimizedRun, RecursionLoadsFastAndFailsTheSameShots) {
  ir::Context ctx;
  const auto start = std::chrono::steady_clock::now();
  const auto optimized = loadOptimized(ctx, kSelfRecursive);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  const auto written = loadAsWritten(ctx, kSelfRecursive);
  for (const Mode mode : {Mode::Default, Mode::Jobs2, Mode::Interp}) {
    const vm::ShotBatchResult asWritten = runMode(*written, mode, 20, 1);
    const vm::ShotBatchResult loaded = runMode(*optimized, mode, 20, 1);
    EXPECT_EQ(loaded.failedShots, 20U);
    EXPECT_EQ(loaded.failureCounts.at(ErrorCode::ResourceLimit), 20U);
    EXPECT_EQ(runStdout(asWritten, 20), runStdout(loaded, 20));
  }
}

/// The passes assume well-formed IR, so the loader hands a module the
/// verifier rejects to the engines as written. The VM refuses to compile
/// it, and the interpreter it falls back to traps: at the end of a block
/// without a terminator, and at a bitcast between different types, whose
/// double would otherwise read 0.0 and take the branch LLVM does not.
constexpr const char* kUnterminated = R"(
declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
}
attributes #0 = { "entry_point" }
)";

constexpr const char* kTypeChangingBitcast = R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() #0 {
entry:
  %x = add i64 4607182418800017408, 0
  %d = bitcast i64 %x to double
  %c = fcmp oeq double %d, 1.0
  br i1 %c, label %one, label %done
one:
  call void @__quantum__qis__x__body(ptr null)
  br label %done
done:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)";

TEST(OptimizedRun, ModuleTheVerifierRejectsRunsAsWritten) {
  for (const char* text : {kUnterminated, kTypeChangingBitcast}) {
    ir::Context ctx;
    const auto loaded = loadOptimized(ctx, text);
    EXPECT_FALSE(ir::verifyModule(*loaded).empty());
    EXPECT_EQ(loaded->instructionCount(), loadAsWritten(ctx, text)->instructionCount());
    for (const Mode mode : {Mode::Default, Mode::Jobs2, Mode::Interp}) {
      const vm::ShotBatchResult result = runMode(*loaded, mode, 4, 1);
      EXPECT_EQ(result.degradedToInterp, mode != Mode::Interp);
      EXPECT_EQ(result.failedShots, 4U);
      EXPECT_EQ(result.failureCounts.at(ErrorCode::Trap), 4U);
    }
  }
}

/// A QASM 3 loop of 65 536 iterations x 8 gates: unrolled it would hold
/// about 800 000 instructions, past kMaxExpandedModuleSize, so the loader
/// leaves it a loop, quickly, and it runs on the VM as written.
std::string longLoop() {
  std::string s = "OPENQASM 3;\nqubit[8] q;\nbit[8] c;\nfor int i in [0:65535] {\n";
  for (unsigned k = 0; k < 8; ++k) {
    s += "  rz(0.001) q[" + std::to_string(k) + "];\n";
  }
  return s + "}\nfor int i in [0:7] {\n  c[i] = measure q[i];\n}\n";
}

TEST(OptimizedRun, LoopPastTheUnrollBudgetLoadsFastAndStaysALoop) {
  const std::string text = longLoop();
  ir::Context ctx;
  const auto start = std::chrono::steady_clock::now();
  const auto optimized = loadOptimized(ctx, text);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(passes::findNaturalLoops(*optimized->entryPoint()).size(), 1U);

  const auto written = loadAsWritten(ctx, text);
  EXPECT_EQ(runStdout(runMode(*optimized, Mode::Default, 1, 5), 1),
            runStdout(runMode(*written, Mode::Interp, 1, 5), 1));
}

/// A program that flips qubit 0 when \p decide (a cast, then the i1 %ok
/// or a switch) says so and measures it. With \p inLoop, the cast reads
/// %n, which a loop of \p trips iterations past the unroll budget counts
/// up to, so the engines evaluate it at run time; otherwise %n is the
/// literal \p trips and the folder evaluates it.
std::string castFeedback(bool inLoop, std::int64_t trips, std::string decide) {
  const std::string n = inLoop ? "%n" : std::to_string(trips);
  for (std::size_t at = decide.find("%n"); at != std::string::npos;
       at = decide.find("%n", at + n.size())) {
    decide.replace(at, 2, n);
  }
  if (decide.find("switch") == std::string::npos) {
    decide += "  br i1 %ok, label %flip, label %meas\n";
  }
  const std::string loop = "  br label %loop\nloop:\n"
                           "  %i = phi i64 [ 0, %entry ], [ %n, %loop ]\n"
                           "  %n = add i64 %i, 1\n"
                           "  %more = icmp slt i64 %n, " +
                           std::to_string(trips) +
                           "\n"
                           "  br i1 %more, label %loop, label %done\ndone:\n";
  return R"(@lbl = internal constant [2 x i8] c"r\00"
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() #0 {
entry:
)" + (inLoop ? loop : std::string()) +
         decide + R"(flip:
  call void @__quantum__qis__x__body(ptr null)
  br label %meas
meas:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr @lbl)
  ret void
}
attributes #0 = { "entry_point" "required_num_qubits"="1" "required_num_results"="1" }
)";
}

/// The engines and the folder used to compute these casts differently:
/// uitofp read a sign-extended i8, i1 true was 1 in an engine register
/// and -1 in a constant, and fptosi wrapped in the folder but left 300
/// in an i8 register. Each twin now gives one histogram on both engines.
TEST(OptimizedRun, CastsOfRunTimeValuesAgreeWithTheirFoldedTwins) {
  struct Twin {
    std::int64_t trips;
    const char* decide;
    const char* histogram;
  };
  const Twin twins[] = {
      {40000,
       "  %t = trunc i64 %n to i8\n  %u = sub i8 %t, 65\n"
       "  %f = uitofp i8 %u to double\n  %ok = fcmp oeq double %f, 255.0\n",
       "1: 10"},
      {40000,
       "  %p = icmp sgt i64 %n, 5\n  %s = sext i1 %p to i64\n"
       "  %ok = icmp eq i64 %s, -1\n",
       "1: 10"},
      {40000,
       "  %p = icmp sgt i64 %n, 5\n"
       "  switch i1 %p, label %meas [ i1 true, label %flip ]\n",
       "1: 10"},
      {38400,
       "  %d = sitofp i64 %n to double\n  %f = fmul double %d, 0.0078125\n"
       "  %b = fptosi double %f to i8\n  %w = sext i8 %b to i64\n"
       "  %ok = icmp eq i64 %w, 300\n",
       "0: 10"},
  };
  for (const Twin& twin : twins) {
    for (const bool inLoop : {true, false}) {
      ir::Context ctx;
      const auto module = loadOptimized(ctx, castFeedback(inLoop, twin.trips, twin.decide));
      EXPECT_EQ(passes::findNaturalLoops(*module->entryPoint()).size(), inLoop ? 1U : 0U);
      for (const Mode mode : {Mode::Default, Mode::Interp}) {
        const std::string out = runStdout(runMode(*module, mode, 10, 1), 10);
        EXPECT_NE(out.find(std::string("\n") + twin.histogram + "\nfailed: 0"),
                  std::string::npos)
            << twin.decide << (inLoop ? "in a loop" : "folded") << "\n"
            << out;
      }
    }
  }
}

} // namespace
} // namespace qirkit
