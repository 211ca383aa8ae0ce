#include "interp/interpreter.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "qasm/load.hpp"
#include "qasm/qasm3.hpp"
#include "qir/compile.hpp"
#include "qir/importer.hpp"
#include "qir/profiles.hpp"
#include "runtime/runtime.hpp"
#include "support/source_location.hpp"

#include <gtest/gtest.h>

namespace qirkit::qasm {
namespace {

std::unique_ptr<ir::Module> compile(ir::Context& ctx, const char* source) {
  auto module = compileQasm3(ctx, source);
  ir::verifyModuleOrThrow(*module);
  return module;
}

TEST(Qasm3, BellProgramLowersToQIR) {
  ir::Context ctx;
  const auto m = compile(ctx, R"(
OPENQASM 3;
include "stdgates.inc";
qubit[2] q;
bit[2] c;
h q[0];
cx q[0], q[1];
c[0] = measure q[0];
c[1] = measure q[1];
)");
  EXPECT_EQ(m->entryPoint()->getAttribute("required_num_qubits"), "2");
  const circuit::Circuit c = qir::importFromModule(*m);
  EXPECT_EQ(c, circuit::Circuit([] {
              circuit::Circuit b(2, 2);
              b.h(0);
              b.cx(0, 1);
              b.measure(0, 0);
              b.measure(1, 1);
              return b;
            }()));
}

TEST(Qasm3, ForLoopLowersToIRLoopAndUnrolls) {
  // The §II.B story: the QASM3 FOR loop becomes an IR loop; the classical
  // pipeline unrolls it without any quantum-specific loop handling.
  ir::Context ctx;
  auto m = compile(ctx, R"(
OPENQASM 3;
qubit[8] q;
for int i in [0:7] {
  h q[i];
}
)");
  // Before optimization: a real loop (4+ blocks).
  EXPECT_GE(m->entryPoint()->blocks().size(), 4U);
  qir::transformDirect(*m);
  ir::verifyModuleOrThrow(*m);
  const circuit::Circuit c = qir::importFromModule(*m);
  EXPECT_EQ(c.gateCount(), 8U);
  EXPECT_EQ(c.numQubits(), 8U);
}

TEST(Qasm3, LoopVariableInAngleExpressions) {
  ir::Context ctx;
  auto m = compile(ctx, R"(
OPENQASM 3;
qubit[1] q;
for int i in [0:3] {
  rz(pi * i / 4) q[0];
}
)");
  qir::transformDirect(*m);
  const circuit::Circuit c = qir::importFromModule(*m);
  ASSERT_EQ(c.size(), 4U);
  EXPECT_NEAR(c.op(0).params[0], 0.0, 1e-12);
  EXPECT_NEAR(c.op(3).params[0], 3 * std::numbers::pi / 4, 1e-12);
}

TEST(Qasm3, NestedLoops) {
  ir::Context ctx;
  auto m = compile(ctx, R"(
OPENQASM 3;
qubit[4] q;
for int i in [0:1] {
  for int j in [2:3] {
    cx q[i], q[j];
  }
}
)");
  qir::transformDirect(*m);
  const circuit::Circuit c = qir::importFromModule(*m);
  EXPECT_EQ(c.countKind(circuit::OpKind::CX), 4U);
}

TEST(Qasm3, IfOnMeasurementBecomesAdaptiveProfile) {
  ir::Context ctx;
  auto m = compile(ctx, R"(
OPENQASM 3;
qubit[1] q;
bit[1] c;
x q[0];
c[0] = measure q[0];
if (c[0] == 1) {
  x q[0];
}
c[0] = measure q[0];
)");
  qir::transformDirect(*m);
  EXPECT_EQ(qir::detectProfile(*m), qir::Profile::Adaptive);
  // Execute: X, measure 1, conditioned X -> final measurement must be 0.
  const runtime::RunResult result = runtime::runQIRModule(*m, 5);
  EXPECT_EQ(result.stats.measurements, 2U);
  interp::Interpreter interp(*m);
  runtime::QuantumRuntime rt(5);
  rt.bind(interp);
  interp.runEntryPoint();
  EXPECT_FALSE(rt.resultValue(0)); // last write to result 0 is the final mz
}

TEST(Qasm3, BareBitCondition) {
  ir::Context ctx;
  auto m = compile(ctx, R"(
OPENQASM 3;
qubit[1] q;
bit[1] c;
c[0] = measure q[0];
if (c[0]) x q[0];
)");
  qir::transformDirect(*m);
  const circuit::Circuit c = qir::importFromModule(*m);
  ASSERT_EQ(c.size(), 2U);
  ASSERT_TRUE(c.op(1).condition.has_value());
  EXPECT_EQ(c.op(1).condition->value, 1U);
}

TEST(Qasm3, UGateLowersToRotations) {
  ir::Context ctx;
  auto m = compile(ctx, R"(
OPENQASM 3;
qubit[1] q;
U(pi/2, 0, pi) q[0];
)");
  const circuit::Circuit c = qir::importFromModule(*m);
  ASSERT_EQ(c.size(), 3U);
  EXPECT_EQ(c.op(0).kind, circuit::OpKind::RZ);
  EXPECT_EQ(c.op(1).kind, circuit::OpKind::RY);
}

TEST(Qasm3, ResetAndMultipleRegisters) {
  ir::Context ctx;
  auto m = compile(ctx, R"(
OPENQASM 3;
qubit[2] a;
qubit[2] b;
bit[2] c;
h a[0];
cx a[0], b[1];
reset a[1];
c[0] = measure b[1];
)");
  const circuit::Circuit c = qir::importFromModule(*m);
  EXPECT_EQ(c.numQubits(), 4U); // a -> 0..1, b -> 2..3
  EXPECT_EQ(c.op(1).qubits[1], 3U);
  EXPECT_EQ(c.countKind(circuit::OpKind::Reset), 1U);
}

TEST(Qasm3, Errors) {
  ir::Context ctx;
  EXPECT_THROW((void)compileQasm3(ctx, "qubit[1] q;"), ParseError); // no header
  EXPECT_THROW((void)compileQasm3(ctx, "OPENQASM 3; h q[0];"), ParseError);
  EXPECT_THROW((void)compileQasm3(ctx, "OPENQASM 3; qubit[1] q; frob q[0];"),
               ParseError);
  EXPECT_THROW((void)compileQasm3(ctx,
                                  "OPENQASM 3; qubit[1] q; bit[1] c; h c[0];"),
               ParseError); // classical register as qubit
  EXPECT_THROW((void)compileQasm3(ctx, "OPENQASM 3; include \"other.inc\";"),
               ParseError);
}

/// The error code and location loading \p source fails with.
std::pair<ErrorCode, SourceLoc> loadFailure(const std::string& source) {
  ir::Context ctx;
  try {
    (void)loadProgram(ctx, source, "", qir::Addressing::Static);
  } catch (const Error& e) {
    return {e.code(), e.loc()};
  }
  ADD_FAILURE() << "expected a failure for: " << source;
  return {ErrorCode::Internal, {}};
}

const std::string kTwoQubitsOneBit = "OPENQASM 3;\nqubit[2] q;\nbit[1] c;\n";

TEST(Qasm3, ConstantIndicesAreCheckedAtTheIndex) {
  // Once measured into a result nothing records, or run on a third qubit.
  EXPECT_EQ(loadFailure(kTwoQubitsOneBit + "x q[0];\nc[3] = measure q[0];"),
            std::make_pair(ErrorCode::Parse, SourceLoc{5, 3}));
  EXPECT_EQ(loadFailure(kTwoQubitsOneBit + "h q[5];"),
            std::make_pair(ErrorCode::Parse, SourceLoc{4, 5}));
  // Folded arithmetic is constant too, and is reported where it starts.
  EXPECT_EQ(loadFailure(kTwoQubitsOneBit + "cx q[0], q[3 - 2 * 2];"),
            std::make_pair(ErrorCode::Parse, SourceLoc{4, 12}));
  for (const char* bad : {"reset q[2];", "c[0] = measure q[2];", "if (c[1]) x q[0];",
                          "while (c[1] == 0) { x q[0]; }", "U(0, 0, 0) q[2];"}) {
    EXPECT_EQ(loadFailure(kTwoQubitsOneBit + bad).first, ErrorCode::Parse) << bad;
  }
  // A bit register is not a qubit register, nor the other way round.
  EXPECT_EQ(loadFailure(kTwoQubitsOneBit + "h c[0];"),
            std::make_pair(ErrorCode::Parse, SourceLoc{4, 3}));
  EXPECT_EQ(loadFailure(kTwoQubitsOneBit + "qubit[1] c;"),
            std::make_pair(ErrorCode::Parse, SourceLoc{4, 10}));
}

TEST(Qasm3, LoopComputedAddressesAreCheckedAfterThePipeline) {
  // The unrolled loop addresses q[2..5] of a 2-qubit register.
  EXPECT_EQ(loadFailure(kTwoQubitsOneBit + "for int i in [0:5] {\n  h q[i];\n}").first,
            ErrorCode::Semantic);
  // mz's result operand, and read_result's.
  EXPECT_EQ(loadFailure(kTwoQubitsOneBit +
                        "for int i in [0:1] {\n  c[i] = measure q[i];\n}")
                .first,
            ErrorCode::Semantic);
  EXPECT_EQ(loadFailure(kTwoQubitsOneBit + "c[0] = measure q[0];\n"
                                           "for int i in [1:1] {\n  if (c[i]) x q[0];\n}")
                .first,
            ErrorCode::Semantic);
  // In range, the same loops load.
  ir::Context ctx;
  EXPECT_NO_THROW((void)loadProgram(
      ctx, kTwoQubitsOneBit + "for int i in [0:1] {\n  h q[i];\n  c[0] = measure q[i];\n}",
      "", qir::Addressing::Static));
}

TEST(Qasm3, RegisterWidthsAreBounded) {
  // 2^32 + 1 once truncated to one qubit.
  EXPECT_EQ(loadFailure("OPENQASM 3;\nqubit[4294967297] q;"),
            std::make_pair(ErrorCode::Semantic, SourceLoc{2, 7}));
  EXPECT_EQ(loadFailure("OPENQASM 3;\nbit[40000] c;").first, ErrorCode::Semantic);
  EXPECT_EQ(loadFailure("OPENQASM 3;\nqubit[32768] q;\nqubit[1] r;").first,
            ErrorCode::Semantic);
  ir::Context ctx;
  EXPECT_EQ(compileQasm3(ctx, "OPENQASM 3;\nbit[32768] c;")
                ->entryPoint()
                ->getAttribute("required_num_results"),
            "32768");
}

TEST(Qasm3, AcceptsLeadingDotRealsAndRejectsOpenQasm2Tokens) {
  ir::Context ctx;
  const auto m = compile(ctx, "OPENQASM 3; // c\nqubit[1] q;\nrz(.5) q[0];");
  EXPECT_EQ(qir::importFromModule(*m).op(0).params[0], 0.5);
  EXPECT_THROW((void)compileQasm3(ctx, "OPENQASM 3; qubit[1] q; bit[1] c; h q[0] -> c[0];"),
               ParseError);
  EXPECT_THROW((void)compileQasm3(ctx, "OPENQASM 3; qubit[1] q; rz(2^2) q[0];"),
               ParseError);
}

TEST(Qasm3, EndToEndGHZThroughLoop) {
  ir::Context ctx;
  auto m = compile(ctx, R"(
OPENQASM 3;
qubit[5] q;
bit[5] c;
h q[0];
for int i in [0:3] {
  cx q[i], q[i+1];
}
for int i in [0:4] {
  c[i] = measure q[i];
}
)");
  qir::transformDirect(*m);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    interp::Interpreter interp(*m);
    runtime::QuantumRuntime rt(seed);
    rt.bind(interp);
    interp.runEntryPoint();
    const bool first = rt.resultValue(0);
    for (unsigned bit = 1; bit < 5; ++bit) {
      EXPECT_EQ(rt.resultValue(bit), first) << "seed " << seed;
    }
  }
}


TEST(Qasm3, WhileLoopRepeatUntilSuccess) {
  // Repeat-until-success: keep re-preparing until the measurement is 0.
  // Unbounded — inexpressible in the flat circuit IR (the importer rejects
  // it), but executable through the runtime.
  ir::Context ctx;
  auto m = compile(ctx, R"(
OPENQASM 3;
qubit[1] q;
bit[1] c;
h q[0];
c[0] = measure q[0];
while (c[0] == 1) {
  reset q[0];
  h q[0];
  c[0] = measure q[0];
}
)");
  EXPECT_THROW((void)qir::importFromModule(*m), ParseError);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    interp::Interpreter interp(*m);
    runtime::QuantumRuntime rt(seed);
    rt.bind(interp);
    interp.runEntryPoint();
    EXPECT_FALSE(rt.resultValue(0)) << "seed " << seed; // loop exits on 0
    EXPECT_GE(rt.stats().measurements, 1U);
  }
}

} // namespace
} // namespace qirkit::qasm
