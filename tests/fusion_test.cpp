/// Tests for the gate-fusion engine: GateMatrix4 composition helpers and
/// the fused statevector kernels (apply2 / applyDiagonal / the subspace
/// applySwap), the compile-time fusion pass (the frontier rule, exact
/// diagonals, barriers, why a gate stayed a plain call), VM dispatch
/// parity (stats, step budget, fault drills, the fall-through into the
/// original calls), the reordering contracts (first-use qubit order),
/// cache keying by compile options, and the fused-vs-unfused differential
/// on random circuits (identical histograms, fidelity >= 1 - 1e-10).
#include "circuit/generators.hpp"
#include "interp/interpreter.hpp"
#include "ir/parser.hpp"
#include "qir/exporter.hpp"
#include "runtime/runtime.hpp"
#include "support/faultinject.hpp"
#include "support/rng.hpp"
#include "vm/cache.hpp"
#include "vm/compiler.hpp"
#include "vm/executor.hpp"
#include "vm/fusion.hpp"
#include "vm/vm.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <string>

namespace qirkit {
namespace {

using interp::RtValue;
using sim::Complex;
using sim::GateMatrix2;
using sim::GateMatrix4;
using sim::StateVector;

// ---------------------------------------------------------------------------
// Matrix composition helpers and fused kernels
// ---------------------------------------------------------------------------

/// A 3-qubit state with population in every basis state.
StateVector scrambledState() {
  StateVector sv(3);
  sv.apply1(sim::gateH(), 0);
  sv.apply1(sim::gateRY(0.3), 1);
  sv.apply1(sim::gateRX(1.1), 2);
  sv.applyControlled1(sim::gateX(), 0, 1);
  sv.apply1(sim::gateT(), 2);
  sv.applyControlled1(sim::gateX(), 1, 2);
  return sv;
}

void expectSameState(const StateVector& a, const StateVector& b, double tol) {
  ASSERT_EQ(a.numQubits(), b.numQubits());
  for (std::uint64_t i = 0; i < a.dimension(); ++i) {
    EXPECT_NEAR(std::abs(a.amplitude(i) - b.amplitude(i)), 0.0, tol)
        << "basis state " << i;
  }
}

TEST(FusionMatrix, Embed2MatchesApply1) {
  for (const unsigned slot : {0U, 1U}) {
    StateVector direct = scrambledState();
    StateVector fused = scrambledState();
    const unsigned q0 = 0;
    const unsigned q1 = 2;
    direct.apply1(sim::gateRY(0.7), slot == 0 ? q0 : q1);
    fused.apply2(sim::embed2(sim::gateRY(0.7), slot), q0, q1);
    expectSameState(direct, fused, 1e-12);
  }
}

TEST(FusionMatrix, Controlled4MatchesApplyControlled1) {
  for (const bool flip : {false, true}) {
    StateVector direct = scrambledState();
    StateVector fused = scrambledState();
    const unsigned control = flip ? 2 : 1;
    const unsigned target = flip ? 1 : 2;
    direct.applyControlled1(sim::gateX(), control, target);
    // Window (q0=1, q1=2): slot of qubit 1 is 0, slot of qubit 2 is 1.
    fused.apply2(sim::controlled4(sim::gateX(), flip ? 1 : 0, flip ? 0 : 1), 1, 2);
    expectSameState(direct, fused, 1e-12);
  }
}

TEST(FusionMatrix, Swap4MatchesApplySwap) {
  StateVector direct = scrambledState();
  StateVector fused = scrambledState();
  direct.applySwap(0, 2);
  fused.apply2(sim::swap4(), 0, 2);
  expectSameState(direct, fused, 1e-12);
}

TEST(FusionMatrix, MatmulComposesRightToLeft) {
  // matmul(a, b) applies b first — the composition order the pass uses.
  const GateMatrix4 a = sim::controlled4(sim::gateX(), 0, 1);
  const GateMatrix4 b = sim::embed2(sim::gateH(), 0);
  StateVector sequential = scrambledState();
  sequential.apply2(b, 0, 1);
  sequential.apply2(a, 0, 1);
  StateVector composed = scrambledState();
  composed.apply2(sim::matmul(a, b), 0, 1);
  expectSameState(sequential, composed, 1e-12);
}

TEST(FusionMatrix, DistanceUpToPhaseSeesThroughGlobalPhase) {
  const GateMatrix4 a = sim::embed2(sim::gateT(), 1);
  GateMatrix4 b = a;
  const Complex phase = std::polar(1.0, 1.234);
  for (auto& row : b.m) {
    for (auto& entry : row) {
      entry *= phase;
    }
  }
  EXPECT_LT(sim::distanceUpToPhase(a, b), 1e-12);
  EXPECT_GT(sim::distanceUpToPhase(a, sim::swap4()), 0.1);
}

TEST(FusionKernel, ApplyDiagonalMatchesGateSequence) {
  StateVector direct = scrambledState();
  direct.apply1(sim::gateZ(), 0);
  direct.apply1(sim::gateS(), 1);
  direct.apply1(sim::gateRZ(0.4), 2);
  direct.applyControlled1(sim::gateZ(), 0, 2);

  // Compose the same run into one phase table: bit j of the index is
  // qubits[j].
  const unsigned qubits[] = {0, 1, 2};
  std::vector<Complex> diag(8, 1.0);
  const auto fold1 = [&diag](const GateMatrix2& g, unsigned bit) {
    for (std::size_t i = 0; i < diag.size(); ++i) {
      diag[i] *= ((i >> bit) & 1) != 0 ? g.m11 : g.m00;
    }
  };
  fold1(sim::gateZ(), 0);
  fold1(sim::gateS(), 1);
  fold1(sim::gateRZ(0.4), 2);
  for (std::size_t i = 0; i < diag.size(); ++i) {
    if ((i & 1) != 0 && ((i >> 2) & 1) != 0) {
      diag[i] = -diag[i]; // CZ(0, 2)
    }
  }
  StateVector fused = scrambledState();
  fused.applyDiagonal(diag, qubits);
  expectSameState(direct, fused, 1e-12);
}

TEST(FusionKernel, SampleCountsMatchesSampleShots) {
  const StateVector sv = scrambledState();
  SplitMix64 rngA(42);
  SplitMix64 rngB(42);
  EXPECT_EQ(sv.sampleCounts(500, rngA), sv.sampleShots(500, rngB));
}

// ---------------------------------------------------------------------------
// The fusion pass: rules and barriers, observed through the disassembly
// ---------------------------------------------------------------------------

std::size_t countSubstr(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Fused blocks of \p kind in the module's first function.
std::size_t countBlocks(const vm::BytecodeModule& module,
                        interp::FusedBlock::Kind kind) {
  std::size_t n = 0;
  for (const interp::FusedBlock& block : module.functions[0].fusedBlocks) {
    n += block.kind == kind ? 1 : 0;
  }
  return n;
}

std::shared_ptr<const vm::BytecodeModule> compileText(const std::string& text,
                                                      bool fusion = true) {
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, text);
  return vm::compileModule(*module, vm::CompileOptions{.fuseGates = fusion});
}

const std::string kGateDecls = R"(
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__z__body(ptr)
declare void @__quantum__qis__s__body(ptr)
declare void @__quantum__qis__t__body(ptr)
declare void @__quantum__qis__rx__body(double, ptr)
declare void @__quantum__qis__rz__body(double, ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__cz__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__qis__reset__body(ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
)";

std::string entryPoint(const std::string& body) {
  return kGateDecls + "define void @main() #0 {\nentry:\n" + body +
         "  ret void\n}\nattributes #0 = { \"entry_point\" }\n";
}

TEST(FusionPass, SingleQubitChainFusesToOneBlock) {
  const auto compiled = compileText(entryPoint(R"(
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__rx__body(double 0.5, ptr null)
  call void @__quantum__qis__h__body(ptr null)
)"));
  const std::string listing = compiled->disassemble();
  EXPECT_EQ(countSubstr(listing, "fused"), 1U) << listing;
  // The source calls stay behind the fused head for the slow path.
  EXPECT_EQ(countSubstr(listing, "call.ext"), 3U) << listing;
  ASSERT_EQ(compiled->functions.size(), 1U);
  ASSERT_EQ(compiled->functions[0].fusedBlocks.size(), 1U);
  const interp::FusedBlock& block = compiled->functions[0].fusedBlocks[0];
  EXPECT_EQ(block.sourceGates, 3U);
  // H RX(0.5) H == RZ(0.5) up to global phase, and the composed 2x2's
  // off-diagonal entries cancel exactly: a one-qubit phase table.
  EXPECT_EQ(block.kind, interp::FusedBlock::Kind::Diagonal);
  ASSERT_EQ(block.matrix.size(), 2U);
  const GateMatrix2 got{block.matrix[0], 0.0, 0.0, block.matrix[1]};
  EXPECT_LT(sim::distanceUpToPhase(got, sim::gateRZ(0.5)), 1e-12);
}

TEST(FusionPass, NonDiagonalChainStaysAUnitary) {
  const auto compiled = compileText(entryPoint(R"(
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__rx__body(double 0.5, ptr null)
)"));
  ASSERT_EQ(compiled->functions[0].fusedBlocks.size(), 1U);
  const interp::FusedBlock& block = compiled->functions[0].fusedBlocks[0];
  EXPECT_EQ(block.kind, interp::FusedBlock::Kind::Unitary1);
  ASSERT_EQ(block.matrix.size(), 4U);
  const GateMatrix2 got{block.matrix[0], block.matrix[1], block.matrix[2],
                        block.matrix[3]};
  EXPECT_LT(sim::distanceUpToPhase(got, sim::matmul(sim::gateRX(0.5), sim::gateH())),
            1e-12);
}

TEST(FusionPass, TwoQubitWindowFusesMixedGates) {
  const auto compiled = compileText(entryPoint(R"(
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__h__body(ptr inttoptr (i64 1 to ptr))
)"));
  const std::string listing = compiled->disassemble();
  EXPECT_EQ(countSubstr(listing, "fused"), 1U) << listing;
  EXPECT_EQ(countSubstr(listing, "call.ext"), 3U) << listing;
  ASSERT_EQ(compiled->functions[0].fusedBlocks.size(), 1U);
  const interp::FusedBlock& block = compiled->functions[0].fusedBlocks[0];
  EXPECT_EQ(block.kind, interp::FusedBlock::Kind::Unitary2);
  EXPECT_EQ(block.qubits, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(block.sourceGates, 3U);
}

TEST(FusionPass, DiagonalRunFusesAcrossManyQubits) {
  // Five diagonal gates over three qubits: too wide for a 4x4 window but
  // one diagonal block.
  const auto compiled = compileText(entryPoint(R"(
  call void @__quantum__qis__z__body(ptr null)
  call void @__quantum__qis__s__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__cz__body(ptr null, ptr inttoptr (i64 2 to ptr))
  call void @__quantum__qis__t__body(ptr inttoptr (i64 2 to ptr))
  call void @__quantum__qis__rz__body(double 0.25, ptr null)
)"));
  const std::string listing = compiled->disassemble();
  EXPECT_EQ(countSubstr(listing, "fused"), 1U) << listing;
  EXPECT_EQ(countSubstr(listing, "call.ext"), 5U) << listing;
  ASSERT_EQ(compiled->functions[0].fusedBlocks.size(), 1U);
  const interp::FusedBlock& block = compiled->functions[0].fusedBlocks[0];
  EXPECT_EQ(block.kind, interp::FusedBlock::Kind::Diagonal);
  EXPECT_EQ(block.sourceGates, 5U);
  ASSERT_EQ(block.qubits.size(), 3U);
  EXPECT_EQ(block.matrix.size(), 8U);
}

TEST(FusionPass, MeasurementIsABarrier) {
  const auto compiled = compileText(entryPoint(R"(
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__x__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__x__body(ptr null)
)"));
  const std::string listing = compiled->disassemble();
  EXPECT_EQ(countBlocks(*compiled, interp::FusedBlock::Kind::Unitary1), 2U);
  // One run on each side of the measurement.
  EXPECT_EQ(compiled->functions[0].fusedSweeps.size(), 2U) << listing;
  EXPECT_EQ(countSubstr(listing, "@__quantum__qis__mz__body"), 1U) << listing;
}

TEST(FusionPass, ResetIsABarrier) {
  const auto compiled = compileText(entryPoint(R"(
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__x__body(ptr null)
  call void @__quantum__qis__reset__body(ptr null)
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__x__body(ptr null)
)"));
  EXPECT_EQ(countBlocks(*compiled, interp::FusedBlock::Kind::Unitary1), 2U);
  EXPECT_EQ(compiled->functions[0].fusedSweeps.size(), 2U)
      << compiled->disassemble();
}

TEST(FusionPass, WindowOverlapBreaksRuns) {
  // CX ladder: (0,1), (1,2), (2,3). Each CX is the only gate its block
  // can take and nothing is diagonal: fusing would save no kernel pass,
  // so the region keeps its plain calls, with no fused head.
  const auto compiled = compileText(entryPoint(R"(
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__cnot__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 2 to ptr))
  call void @__quantum__qis__cnot__body(ptr inttoptr (i64 2 to ptr), ptr inttoptr (i64 3 to ptr))
)"));
  const std::string listing = compiled->disassemble();
  EXPECT_EQ(countSubstr(listing, "fused"), 0U) << listing;
  EXPECT_EQ(countSubstr(listing, "call.ext"), 3U) << listing;
  EXPECT_TRUE(compiled->functions[0].fusedBlocks.empty());
}

TEST(FusionPass, ClassicallyControlledGatesStaySeparate) {
  // The branch terminators (and the read_result call feeding them) are
  // barriers; gates in different blocks never fuse together.
  const auto compiled = compileText(kGateDecls + R"(
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %r, label %flip, label %done
flip:
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__z__body(ptr inttoptr (i64 1 to ptr))
  br label %done
done:
  ret void
}
attributes #0 = { "entry_point" }
)");
  const std::string listing = compiled->disassemble();
  // Only the X;Z pair inside %flip forms a run (single-qubit chain).
  EXPECT_EQ(countBlocks(*compiled, interp::FusedBlock::Kind::Unitary1), 1U)
      << listing;
  ASSERT_EQ(compiled->functions[0].fusedBlocks.size(), 1U);
  const interp::FusedBlock& block = compiled->functions[0].fusedBlocks[0];
  EXPECT_EQ(block.sourceGates, 2U);
}

TEST(FusionPass, DynamicQubitHandlesPreventFusion) {
  // Dynamic addressing: qubit operands come from qubit_allocate calls,
  // not the constant pool, so the pass must leave everything alone.
  ir::Context ctx;
  qir::ExportOptions options;
  options.addressing = qir::Addressing::Dynamic;
  const auto module = qir::exportCircuit(ctx, circuit::ghz(4, false), options);
  const auto compiled = vm::compileModule(*module);
  EXPECT_EQ(countSubstr(compiled->disassemble(), "fused"), 0U);
}

TEST(FusionPass, GhzLadderFusesOnlyTheFrontWindow) {
  // ghz(4): H q0; CX(0,1); CX(1,2); CX(2,3) — the H+first CX share a
  // window, the ladder tail does not: each of its CXs is a block of one
  // gate that keeps the controlled kernel.
  ir::Context ctx;
  const auto module = qir::exportCircuit(ctx, circuit::ghz(4, false), {});
  const auto compiled = vm::compileModule(*module);
  EXPECT_EQ(countBlocks(*compiled, interp::FusedBlock::Kind::Unitary2), 1U);
  EXPECT_EQ(countBlocks(*compiled, interp::FusedBlock::Kind::Controlled), 2U)
      << compiled->disassemble();
  EXPECT_EQ(compiled->functions[0].fusedSweeps.size(), 1U);
}

TEST(FusionPass, StatsCountFoldedGatesAndBlocks) {
  ir::Context ctx;
  const auto module = qir::exportCircuit(ctx, circuit::qft(5, false), {});
  const auto reference = vm::compileModule(*module, {.fuseGates = false});
  vm::CompiledFunction fn = reference->functions[0];
  const vm::FusionStats stats = vm::fuseGates(fn, reference->externNames);
  EXPECT_GT(stats.blocks, 0U);
  EXPECT_GT(stats.fusedOps, stats.blocks);
  EXPECT_EQ(stats.sweepsSaved(), stats.fusedOps - stats.blocks);
  std::uint64_t folded = 0;
  for (const interp::FusedBlock& block : fn.fusedBlocks) {
    folded += block.sourceGates;
  }
  EXPECT_EQ(folded, stats.fusedOps);
  // The calls stay; each region only gains its Op::Fused head.
  EXPECT_EQ(fn.code.size(), reference->functions[0].code.size() + stats.regions);
  EXPECT_EQ(fn.fusedSweeps.size(), stats.regions);
}

// ---------------------------------------------------------------------------
// Run grouping: adjacent fused blocks share one Op::Fused instruction,
// which a host may apply chunk-at-a-time.
// ---------------------------------------------------------------------------

/// Diagonal run over q0..q2, then a non-diagonal single-qubit chain on
/// q3: two fused blocks in one region — exactly one run.
const char* const kSweepBody = R"(
  call void @__quantum__qis__z__body(ptr null)
  call void @__quantum__qis__s__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__cz__body(ptr null, ptr inttoptr (i64 2 to ptr))
  call void @__quantum__qis__h__body(ptr inttoptr (i64 3 to ptr))
  call void @__quantum__qis__rx__body(double 0.5, ptr inttoptr (i64 3 to ptr))
  call void @__quantum__qis__x__body(ptr inttoptr (i64 3 to ptr))
)";

TEST(SweepPlan, AdjacentFusedBlocksFormOneSweep) {
  const auto compiled = compileText(entryPoint(kSweepBody));
  const std::string listing = compiled->disassemble();
  // One fused line for the run, listing each block's kind and qubits.
  EXPECT_EQ(countSubstr(listing, "fused"), 1U) << listing;
  EXPECT_NE(listing.find("2 blocks, 6 gates: diag(q0 q1 q2) u1(q3)"),
            std::string::npos)
      << listing;
  ASSERT_EQ(compiled->functions[0].fusedSweeps.size(), 1U);
  const vm::FusedSweepRun& run = compiled->functions[0].fusedSweeps[0];
  EXPECT_EQ(run.firstBlock, 0U);
  EXPECT_EQ(run.blockCount, 2U);
  EXPECT_EQ(run.totalGates, 6U);
  ASSERT_EQ(compiled->functions[0].fusedBlocks.size(), 2U);
}

TEST(SweepPlan, JumpTargetBetweenBlocksIsABarrier) {
  // Control may enter %next directly, so the two blocks must stay in
  // separate runs — a run spanning the label would skip its second member
  // on that entry path.
  const auto compiled = compileText(kGateDecls + R"(
define void @main() #0 {
entry:
  call void @__quantum__qis__z__body(ptr null)
  call void @__quantum__qis__s__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__cz__body(ptr null, ptr inttoptr (i64 2 to ptr))
  br label %next
next:
  call void @__quantum__qis__h__body(ptr inttoptr (i64 3 to ptr))
  call void @__quantum__qis__rx__body(double 0.5, ptr inttoptr (i64 3 to ptr))
  call void @__quantum__qis__h__body(ptr inttoptr (i64 3 to ptr))
  ret void
}
attributes #0 = { "entry_point" }
)");
  const std::vector<vm::FusedSweepRun>& runs = compiled->functions[0].fusedSweeps;
  ASSERT_EQ(runs.size(), 2U) << compiled->disassemble();
  for (std::uint32_t r = 0; r < 2; ++r) {
    EXPECT_EQ(runs[r].firstBlock, r);
    EXPECT_EQ(runs[r].blockCount, 1U);
    EXPECT_EQ(runs[r].totalGates, 3U);
  }
}

TEST(SweepPlan, OneRegionIsOneRunPastTheSweepCap) {
  // 17 two-gate chains on q0..q16: 17 single-qubit blocks, one more than
  // a host applies per kernel sweep. The region is still one run; the
  // runtime hands the kernels 16 blocks and then 1.
  std::string body;
  for (unsigned q = 0; q < 17; ++q) {
    const std::string qubit =
        "ptr inttoptr (i64 " + std::to_string(q) + " to ptr)";
    body += "  call void @__quantum__qis__h__body(" + qubit + ")\n" +
            "  call void @__quantum__qis__x__body(" + qubit + ")\n";
  }
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, entryPoint(body));
  const auto compiled = vm::compileModule(*module);
  const vm::CompiledFunction& fn = compiled->functions[0];
  ASSERT_EQ(fn.fusedBlocks.size(), 17U) << compiled->disassemble();
  ASSERT_EQ(fn.fusedSweeps.size(), 1U);
  EXPECT_EQ(fn.fusedSweeps[0].blockCount, 17U);
  EXPECT_EQ(fn.fusedSweeps[0].totalGates, 34U);
  EXPECT_GT(fn.fusedSweeps[0].blockCount, interp::kMaxSweepBlocks);

  vm::Vm fusedVm(compiled);
  runtime::QuantumRuntime fusedRt(1);
  fusedRt.bind(fusedVm);
  fusedVm.runEntryPoint();
  vm::Vm plainVm(vm::compileModule(*module, {.fuseGates = false}));
  runtime::QuantumRuntime plainRt(1);
  plainRt.bind(plainVm);
  plainVm.runEntryPoint();
  expectSameState(fusedRt.state(), plainRt.state(), 1e-12);
  EXPECT_EQ(fusedRt.stats().gatesApplied, 34U);
}

// ---------------------------------------------------------------------------
// VM dispatch parity: stats, step budget, replay for hosts without kernels
// ---------------------------------------------------------------------------

struct QuantumRun {
  std::vector<std::pair<std::string, bool>> output;
  runtime::RuntimeStats runtimeStats;
  interp::InterpStats engineStats;
};

QuantumRun runVm(const ir::Module& m, std::uint64_t seed, bool fusion) {
  vm::Vm machine(vm::compileModule(m, vm::CompileOptions{.fuseGates = fusion}));
  runtime::QuantumRuntime rt(seed);
  rt.bind(machine);
  machine.runEntryPoint();
  return {rt.recordedOutput(), rt.stats(), machine.stats()};
}

TEST(FusionVm, StatsMatchUnfusedExecution) {
  ir::Context ctx;
  const auto module = qir::exportCircuit(ctx, circuit::qft(4, true), {});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const QuantumRun fused = runVm(*module, seed, true);
    const QuantumRun unfused = runVm(*module, seed, false);
    EXPECT_EQ(fused.output, unfused.output) << "seed " << seed;
    EXPECT_EQ(fused.runtimeStats.gatesApplied, unfused.runtimeStats.gatesApplied);
    EXPECT_EQ(fused.runtimeStats.measurements, unfused.runtimeStats.measurements);
    EXPECT_EQ(fused.runtimeStats.staticQubitsAllocated,
              unfused.runtimeStats.staticQubitsAllocated);
    EXPECT_EQ(fused.engineStats.instructionsExecuted,
              unfused.engineStats.instructionsExecuted);
    EXPECT_EQ(fused.engineStats.externalCalls, unfused.engineStats.externalCalls);
    EXPECT_EQ(fused.engineStats.blocksEntered, unfused.engineStats.blocksEntered);
  }
}

TEST(FusionVm, StepLimitTrapsMidBlockWithIdenticalAccounting) {
  const std::string program = entryPoint(R"(
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__x__body(ptr null)
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__x__body(ptr null)
)");
  for (const std::uint64_t limit : {1ULL, 2ULL, 3ULL}) {
    auto runWith = [&](bool fusion) {
      ir::Context ctx;
      vm::Vm machine(
          vm::compileModule(*ir::parseModule(ctx, program),
                            vm::CompileOptions{.fuseGates = fusion}));
      runtime::QuantumRuntime rt(1);
      rt.bind(machine);
      machine.setStepLimit(limit);
      std::string message;
      try {
        machine.runEntryPoint();
      } catch (const interp::TrapError& e) {
        message = e.what();
      }
      return std::make_tuple(message, machine.stats().instructionsExecuted,
                             machine.stats().externalCalls);
    };
    EXPECT_EQ(runWith(true), runWith(false)) << "limit " << limit;
  }
}

TEST(FusionVm, RecordingRuntimeSeesEveryGateViaReplay) {
  // The recording runtime has no fused kernels; the VM must replay the
  // folded calls so the reconstructed circuit is identical.
  ir::Context ctx;
  const auto module = qir::exportCircuit(ctx, circuit::qft(4, false), {});
  vm::Vm fusedVm(vm::compileModule(*module));
  EXPECT_FALSE(fusedVm.module().functions[0].fusedBlocks.empty());
  runtime::RecordingRuntime fusedRecorder;
  fusedRecorder.bind(fusedVm);
  fusedVm.runEntryPoint();

  interp::Interpreter interp(*module);
  runtime::RecordingRuntime reference;
  reference.bind(interp);
  interp.runEntryPoint();

  EXPECT_EQ(fusedRecorder.recorded(), reference.recorded());
}

TEST(FusionVm, RebindingARecorderDisablesTheKernelPath) {
  // A QuantumRuntime bound first must not leave a stale fused host behind
  // when a recorder takes over the same VM.
  ir::Context ctx;
  const auto module = qir::exportCircuit(ctx, circuit::ghz(3, false), {});
  vm::Vm machine(vm::compileModule(*module));
  runtime::QuantumRuntime rt(1);
  rt.bind(machine);
  machine.runEntryPoint();
  runtime::RecordingRuntime recorder;
  recorder.bind(machine);
  machine.runEntryPoint();
  EXPECT_EQ(recorder.recorded().ops().size(), circuit::ghz(3, false).ops().size());
}

/// kSweepBody plus a measurement whose outcome steers a branch: if the
/// swept state drifted from the unfused one, seed-matched outcomes (and
/// with them gatesApplied) would diverge.
const char* const kSweepThenMeasureBody = R"(
  call void @__quantum__qis__z__body(ptr null)
  call void @__quantum__qis__s__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__cz__body(ptr null, ptr inttoptr (i64 2 to ptr))
  call void @__quantum__qis__h__body(ptr inttoptr (i64 3 to ptr))
  call void @__quantum__qis__rx__body(double 0.5, ptr inttoptr (i64 3 to ptr))
  call void @__quantum__qis__h__body(ptr inttoptr (i64 3 to ptr))
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 3 to ptr), ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %r, label %flip, label %done
flip:
  call void @__quantum__qis__x__body(ptr null)
  br label %done
done:
  ret void
}
attributes #0 = { "entry_point" }
)";

std::string sweepThenMeasureProgram() {
  return kGateDecls + "define void @main() #0 {\nentry:\n" + kSweepThenMeasureBody;
}

TEST(SweepVm, SweptExecutionMatchesUnfusedStatsAndOutcomes) {
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, sweepThenMeasureProgram());
  ASSERT_FALSE(vm::compileModule(*module)->functions[0].fusedSweeps.empty());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const QuantumRun fused = runVm(*module, seed, true);
    const QuantumRun unfused = runVm(*module, seed, false);
    EXPECT_EQ(fused.runtimeStats.gatesApplied, unfused.runtimeStats.gatesApplied)
        << "seed " << seed;
    EXPECT_EQ(fused.runtimeStats.measurements, unfused.runtimeStats.measurements);
    EXPECT_EQ(fused.engineStats.instructionsExecuted,
              unfused.engineStats.instructionsExecuted);
    EXPECT_EQ(fused.engineStats.externalCalls, unfused.engineStats.externalCalls);
    EXPECT_EQ(fused.engineStats.blocksEntered, unfused.engineStats.blocksEntered);
  }
}

TEST(SweepVm, StepLimitTrapsMidSweepWithIdenticalAccounting) {
  // Limits 1..5 land inside the sweep's 6 gates; the VM must fall back to
  // interruptible per-block execution with the same partial credit the
  // unfused program would report.
  const std::string program = entryPoint(kSweepBody);
  for (const std::uint64_t limit : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    auto runWith = [&](bool fusion) {
      ir::Context ctx;
      vm::Vm machine(
          vm::compileModule(*ir::parseModule(ctx, program),
                            vm::CompileOptions{.fuseGates = fusion}));
      runtime::QuantumRuntime rt(1);
      rt.bind(machine);
      machine.setStepLimit(limit);
      std::string message;
      try {
        machine.runEntryPoint();
      } catch (const interp::TrapError& e) {
        message = e.what();
      }
      return std::make_tuple(message, machine.stats().instructionsExecuted,
                             machine.stats().externalCalls);
    };
    EXPECT_EQ(runWith(true), runWith(false)) << "limit " << limit;
  }
}

TEST(SweepVm, RecordingRuntimeSeesEveryGateThroughASweep) {
  // The recorder has no fused host, so Op::Fused must replay each member
  // block's folded source gates in order.
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, entryPoint(kSweepBody));
  vm::Vm machine(vm::compileModule(*module));
  ASSERT_FALSE(machine.module().functions[0].fusedSweeps.empty());
  runtime::RecordingRuntime recorder;
  recorder.bind(machine);
  machine.runEntryPoint();

  interp::Interpreter interp(*module);
  runtime::RecordingRuntime reference;
  reference.bind(interp);
  interp.runEntryPoint();
  EXPECT_EQ(recorder.recorded(), reference.recorded());
}

// ---------------------------------------------------------------------------
// Reordering contracts: blocks follow qubit dataflow, not source order, yet
// every observer sees what the unfused program does.
// ---------------------------------------------------------------------------

/// H on q0, RX on q1, then CZ(q0, q2): the CZ block absorbs q0's block and
/// so lands after q1's, while the source first uses q0, q1, q2 in that
/// order. A host that numbered qubits in block order would give q1 index
/// 0 and q0 index 1, and the sampled outcomes 01 and 10 (q2 stays 0)
/// would swap places in the sampling CDF.
const char* const kReorderBody = R"(
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__rx__body(double 1.1, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__cz__body(ptr null, ptr inttoptr (i64 2 to ptr))
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 2 to ptr), ptr inttoptr (i64 2 to ptr))
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 1 to ptr), ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 2 to ptr), ptr null)
)";

std::string reorderProgram() {
  return "declare void @__quantum__rt__result_record_output(ptr, ptr)\n" +
         entryPoint(kReorderBody);
}

TEST(FusionReorder, BlockOrderDiffersFromFirstUseOrder) {
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, reorderProgram());
  const auto compiled = vm::compileModule(*module);
  const vm::CompiledFunction& fn = compiled->functions[0];
  ASSERT_EQ(fn.fusedBlocks.size(), 2U) << compiled->disassemble();
  // q1's lone RX first, then the CZ block that absorbed q0's H.
  EXPECT_EQ(fn.fusedBlocks[0].qubits, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(fn.fusedBlocks[1].qubits, (std::vector<std::uint64_t>{0, 2}));
  // newQubits restores the source's first-use order.
  EXPECT_EQ(fn.fusedBlocks[0].newQubits, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(fn.fusedBlocks[1].newQubits, (std::vector<std::uint64_t>{2}));
}

TEST(FusionReorder, HistogramsMatchTheInterpreterPerSeed) {
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, reorderProgram());
  for (const vm::ExecMode mode : {vm::ExecMode::Sample, vm::ExecMode::Resim}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      vm::ShotOptions opts;
      opts.shots = 64;
      opts.seed = seed;
      opts.execMode = mode;
      opts.useCompileCache = false;
      opts.interpFallback = false;
      const vm::ShotBatchResult fused = vm::runShots(*module, opts);
      opts.engine = vm::Engine::Interp;
      const vm::ShotBatchResult reference = vm::runShots(*module, opts);
      EXPECT_EQ(fused.histogram, reference.histogram)
          << "seed " << seed << " resim " << (mode == vm::ExecMode::Resim);
      EXPECT_EQ(fused.failures.size(), 0U);
    }
  }
}

TEST(FusionReorder, RecordingRuntimeSeesTheInterpretersGateSequence) {
  // No fused host: every Op::Fused head falls through into the original
  // calls, so a random circuit's many reordered blocks change nothing.
  ir::Context ctx;
  const auto module =
      qir::exportCircuit(ctx, circuit::randomCircuit(6, 8, 11, false), {});
  vm::Vm machine(vm::compileModule(*module));
  ASSERT_FALSE(machine.module().functions[0].fusedBlocks.empty());
  runtime::RecordingRuntime recorder;
  recorder.bind(machine);
  machine.runEntryPoint();

  interp::Interpreter interp(*module);
  runtime::RecordingRuntime reference;
  reference.bind(interp);
  interp.runEntryPoint();
  EXPECT_EQ(recorder.recorded(), reference.recorded());
}

TEST(FusionReorder, EveryStepLimitAcrossTheRegionMatchesUnfused) {
  const std::string program = reorderProgram();
  for (std::uint64_t limit = 1; limit <= 10; ++limit) {
    auto runWith = [&](bool fusion) {
      ir::Context ctx;
      vm::Vm machine(vm::compileModule(*ir::parseModule(ctx, program),
                                       vm::CompileOptions{.fuseGates = fusion}));
      runtime::QuantumRuntime rt(1);
      rt.bind(machine);
      machine.setStepLimit(limit);
      std::string message;
      try {
        machine.runEntryPoint();
      } catch (const interp::TrapError& e) {
        message = e.what();
      }
      return std::make_tuple(message, machine.stats().instructionsExecuted,
                             machine.stats().externalCalls, rt.recordedOutput(),
                             rt.stats().gatesApplied);
    };
    EXPECT_EQ(runWith(true), runWith(false)) << "limit " << limit;
  }
}

TEST(FusionReorder, FaultDrillFailsTheSameShotAsUnfused) {
  // Injection arms the slow path: the region's own calls run, probe and
  // fail exactly as unfused code does.
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, reorderProgram());
  fault::Plan plan;
  plan.site = fault::Site::RuntimeCall;
  plan.at = 3 * 9 + 2; // nine runtime calls per shot: shot 3, second call
  const auto runWith = [&](bool fusion) {
    const fault::ScopedPlan scoped(plan);
    vm::ShotOptions opts;
    opts.shots = 8;
    opts.seed = 5;
    opts.execMode = vm::ExecMode::Resim;
    opts.useCompileCache = false;
    opts.interpFallback = false;
    opts.maxFailedShots = 8;
    if (!fusion) {
      opts.engine = vm::Engine::Interp;
    }
    return vm::runShots(*module, opts);
  };
  const vm::ShotBatchResult fused = runWith(true);
  const vm::ShotBatchResult reference = runWith(false);
  ASSERT_EQ(fused.failures.size(), 1U);
  ASSERT_EQ(reference.failures.size(), 1U);
  EXPECT_EQ(fused.failures[0].shot, reference.failures[0].shot);
  EXPECT_EQ(fused.failures[0].code, reference.failures[0].code);
  EXPECT_EQ(fused.failures[0].message, reference.failures[0].message);
  EXPECT_EQ(fused.failedShots, reference.failedShots);
  EXPECT_EQ(fused.histogram, reference.histogram);
}

TEST(FusionPass, QftControlledPhasesBecomePhaseTables) {
  // qft(8): every CP window but the one that also takes the next H is
  // exactly diagonal, and adjacent ones merge into tables of up to
  // kMaxQubits qubits.
  ir::Context ctx;
  const auto module = qir::exportCircuit(ctx, circuit::qft(8, false), {});
  const auto compiled = vm::compileModule(*module);
  const vm::CompiledFunction& fn = compiled->functions[0];
  std::size_t tables = 0;
  std::uint32_t tableGates = 0;
  for (const interp::FusedBlock& block : fn.fusedBlocks) {
    if (block.kind == interp::FusedBlock::Kind::Diagonal) {
      ++tables;
      tableGates += block.sourceGates;
      EXPECT_LE(block.qubits.size(), interp::FusedBlock::kMaxQubits);
      EXPECT_EQ(block.matrix.size(), std::size_t{1} << block.qubits.size());
    }
  }
  // 8 targets: the 6+5+...+1 = 21 CP windows that skip the next H, five
  // source gates each, in 6+5+4+3+2+1 groups, the first of two tables.
  EXPECT_EQ(tableGates, 21U * 5U) << compiled->disassemble();
  EXPECT_EQ(tables, 7U) << compiled->disassemble();
  EXPECT_EQ(countBlocks(*compiled, interp::FusedBlock::Kind::Unitary2), 7U);
  EXPECT_EQ(countBlocks(*compiled, interp::FusedBlock::Kind::Swap), 4U);
}

TEST(FusionPass, CountsWhyEachGateStayedAPlainCall) {
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__rz__body(double, ptr)
declare void @__quantum__qis__ccx__body(ptr, ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare ptr @__quantum__rt__qubit_allocate()
define void @main(double %theta) #0 {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__rz__body(double %theta, ptr null)
  call void @__quantum__qis__ccx__body(ptr null, ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 2 to ptr))
  call void @__quantum__qis__x__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__x__body(ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)");
  const auto reference = vm::compileModule(*module, {.fuseGates = false});
  vm::CompiledFunction fn = reference->functions[0];
  const vm::FusionStats stats = vm::fuseGates(fn, reference->externNames);
  const auto unfused = [&](vm::UnfusedReason reason) {
    return stats.unfused[static_cast<std::size_t>(reason)];
  };
  EXPECT_EQ(unfused(vm::UnfusedReason::DynamicQubit), 1U); // h %q
  EXPECT_EQ(unfused(vm::UnfusedReason::NonConstant), 1U);  // rz %theta
  EXPECT_EQ(unfused(vm::UnfusedReason::UnknownGate), 1U);  // ccx
  EXPECT_EQ(unfused(vm::UnfusedReason::Lone), 1U);         // x before mz
  EXPECT_EQ(stats.fusedOps, 2U);                           // h; x after mz
  EXPECT_EQ(stats.blocks, 1U);
}

// ---------------------------------------------------------------------------
// Compile cache keying
// ---------------------------------------------------------------------------

TEST(FusionCache, FusionOptionIsPartOfTheKey) {
  ir::Context ctx;
  const auto module = qir::exportCircuit(ctx, circuit::qft(4, false), {});
  vm::CompileCache cache;
  const auto fused = cache.getOrCompile(*module);
  const auto unfused = cache.getOrCompile(*module, {.fuseGates = false});
  EXPECT_EQ(cache.stats().misses, 2U);
  EXPECT_EQ(cache.stats().hits, 0U);
  EXPECT_FALSE(fused->functions[0].fusedBlocks.empty());
  EXPECT_TRUE(unfused->functions[0].fusedBlocks.empty());
  // Each configuration hits its own entry afterwards.
  cache.getOrCompile(*module);
  cache.getOrCompile(*module, {.fuseGates = false});
  EXPECT_EQ(cache.stats().hits, 2U);
}

// ---------------------------------------------------------------------------
// Differential: fused vs unfused on random circuits
// ---------------------------------------------------------------------------

TEST(FusionDifferential, RandomCircuitStatesStayFaithful) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ir::Context ctx;
    const auto module = qir::exportCircuit(
        ctx, circuit::randomCircuit(5, 8, seed, false), {});

    vm::Vm fusedVm(vm::compileModule(*module));
    runtime::QuantumRuntime fusedRt(seed);
    fusedRt.bind(fusedVm);
    fusedVm.runEntryPoint();

    vm::Vm plainVm(vm::compileModule(*module, {.fuseGates = false}));
    runtime::QuantumRuntime plainRt(seed);
    plainRt.bind(plainVm);
    plainVm.runEntryPoint();

    EXPECT_GE(fusedRt.state().fidelity(plainRt.state()), 1.0 - 1e-10)
        << "seed " << seed;
  }
}

TEST(FusionDifferential, ResimHistogramsAreIdenticalPerSeed) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ir::Context ctx;
    const auto module = qir::exportCircuit(
        ctx, circuit::randomCircuit(4, 6, seed, true), {});
    vm::ShotOptions opts;
    opts.shots = 50;
    opts.seed = seed * 977;
    opts.execMode = vm::ExecMode::Resim;
    opts.useCompileCache = false;
    opts.interpFallback = false;
    const vm::ShotBatchResult fused = vm::runShots(*module, opts);
    opts.engine = vm::Engine::Interp; // the reference engine never fuses
    const vm::ShotBatchResult unfused = vm::runShots(*module, opts);
    EXPECT_EQ(fused.histogram, unfused.histogram) << "seed " << seed;
    EXPECT_EQ(fused.failures.size(), 0U);
  }
}

TEST(FusionDifferential, SamplingPathMatchesToo) {
  ir::Context ctx;
  const auto module = qir::exportCircuit(ctx, circuit::qft(4, true), {});
  vm::ShotOptions opts;
  opts.shots = 200;
  opts.seed = 13;
  opts.execMode = vm::ExecMode::Sample;
  opts.useCompileCache = false;
  opts.interpFallback = false;
  const vm::ShotBatchResult fused = vm::runShots(*module, opts);
  opts.engine = vm::Engine::Interp;
  const vm::ShotBatchResult unfused = vm::runShots(*module, opts);
  EXPECT_EQ(fused.histogram, unfused.histogram);
}

// ---------------------------------------------------------------------------
// Nop compaction: the padding the fusion pass leaves behind must never
// reach the dispatch loop (it used to inflate the vm.dispatch.* per-class
// counters on every shot), and jump targets must survive the remapping.
// ---------------------------------------------------------------------------

TEST(FusionCompaction, CompiledModulesCarryNoNopsAndBranchesStillWork) {
  // Branch-heavy feedback program with a fusible chain inside one arm:
  // compaction must remap the branch targets across the removed padding.
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__z__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %r, label %flip, label %done
flip:
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__z__body(ptr inttoptr (i64 1 to ptr))
  br label %done
done:
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))
  ret void
}
attributes #0 = { "entry_point" }
)");
  const auto compiled = vm::compileModule(*m);
  EXPECT_EQ(countSubstr(compiled->disassemble(), "nop"), 0U)
      << compiled->disassemble();
  const auto unfused = vm::compileModule(*m, {.fuseGates = false});
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    vm::Vm fusedVm(compiled);
    runtime::QuantumRuntime fusedRt(seed);
    fusedRt.bind(fusedVm);
    fusedVm.runEntryPoint();
    vm::Vm plainVm(unfused);
    runtime::QuantumRuntime plainRt(seed);
    plainRt.bind(plainVm);
    plainVm.runEntryPoint();
    EXPECT_EQ(fusedRt.recordedOutput(), plainRt.recordedOutput())
        << "seed " << seed;
    EXPECT_EQ(fusedVm.stats().instructionsExecuted,
              plainVm.stats().instructionsExecuted);
  }
}

// ---------------------------------------------------------------------------
// Superinstruction mining (fuseSuperinstructions): hot pairs collapse,
// interiors that are jump targets are refused, semantics are preserved.
// ---------------------------------------------------------------------------

const char* const kSumLoop = R"(
define i64 @f(i64 %n) {
entry:
  %acc = alloca i64, align 8
  %tmp = alloca i64, align 8
  store i64 0, ptr %acc, align 8
  br label %head
head:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %cur = load i64, ptr %acc, align 8
  %sum = add i64 %cur, %i
  store i64 %sum, ptr %acc, align 8
  %tw = mul i64 %i, 3
  store i64 %tw, ptr %tmp, align 8
  %next = add i64 %i, 1
  br label %head
exit:
  %r = load i64, ptr %acc, align 8
  ret i64 %r
}
)";

TEST(FusionSuperinstr, MinesHotPairsIntoFusedOpcodes) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, kSumLoop);
  const auto mined = vm::compileModule(
      *m, {.dispatch = vm::DispatchMode::Threaded, .superinstructions = true});
  const std::string listing = mined->disassemble();
  EXPECT_GE(countSubstr(listing, "cmp.br"), 1U) << listing;
  EXPECT_GE(countSubstr(listing, "load.bin"), 1U) << listing;
  EXPECT_GE(countSubstr(listing, "bin.store"), 1U) << listing;
  const auto plain = vm::compileModule(*m, {.superinstructions = false});
  // Same span length: superinstructions keep their pair's footprint (head
  // + ext slots), so offsets need no fixups.
  EXPECT_EQ(mined->instructionCount(), plain->instructionCount());
}

TEST(FusionSuperinstr, PairsPreserveValuesAndStepAccounting) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, kSumLoop);
  const auto mined = vm::compileModule(
      *m, {.dispatch = vm::DispatchMode::Threaded, .superinstructions = true});
  const auto plain = vm::compileModule(*m, {.superinstructions = false});
  for (const std::int64_t n : {0, 1, 7, 100}) {
    vm::Vm fast(mined);
    vm::Vm reference(plain);
    const std::array<RtValue, 1> arg{RtValue::makeInt(n)};
    EXPECT_EQ(fast.run("f", {arg}).i, reference.run("f", {arg}).i) << n;
    EXPECT_EQ(fast.stats().instructionsExecuted,
              reference.stats().instructionsExecuted)
        << n;
    EXPECT_EQ(fast.stats().blocksEntered, reference.stats().blocksEntered) << n;
  }
}

TEST(FusionSuperinstr, MinesMultiArgExternCallsIntoPushCall) {
  // mz takes two arguments: its PushArg pair collapses into one PushCall
  // that falls through to the untouched call.ext.
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
declare void @__quantum__qis__mz__body(ptr, ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)");
  const auto mined = vm::compileModule(
      *m, {.dispatch = vm::DispatchMode::Threaded, .superinstructions = true});
  const std::string listing = mined->disassemble();
  EXPECT_GE(countSubstr(listing, "push.call"), 1U) << listing;
  EXPECT_GE(countSubstr(listing, "call.ext"), 1U) << listing;
}

TEST(FusionSuperinstr, RefusesPairsWhoseInteriorIsAJumpTarget) {
  // Hand-built bytecode: a jump lands exactly on the JmpIf, so fusing
  // ICmp+JmpIf would make control enter an Ext slot. The miner must
  // leave the pair alone.
  vm::CompiledFunction fn;
  fn.numRegs = 3;
  vm::Inst icmp;
  icmp.op = vm::Op::ICmp;
  icmp.a = 0;
  icmp.b = 1;
  icmp.c = 2;
  icmp.d = 64;
  vm::Inst jmpif;
  jmpif.op = vm::Op::JmpIf;
  jmpif.a = 0;
  jmpif.b = 3;
  jmpif.c = 3;
  vm::Inst jmp;
  jmp.op = vm::Op::Jmp;
  jmp.a = 1; // targets the JmpIf: pair interior
  vm::Inst ret;
  ret.op = vm::Op::RetVoid;
  fn.code = {icmp, jmpif, jmp, ret};
  EXPECT_EQ(vm::fuseSuperinstructions(fn).total(), 0U);
  EXPECT_EQ(fn.code[0].op, vm::Op::ICmp);
  EXPECT_EQ(fn.code[1].op, vm::Op::JmpIf);

  // Positive control: without the interior jump the pair fuses.
  fn.code = {icmp, jmpif, ret, ret};
  EXPECT_EQ(vm::fuseSuperinstructions(fn).total(), 1U);
  EXPECT_EQ(fn.code[0].op, vm::Op::CmpBr);
  EXPECT_EQ(fn.code[1].op, vm::Op::Ext);
}

} // namespace
} // namespace qirkit
