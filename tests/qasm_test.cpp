#include "circuit/executor.hpp"
#include "circuit/generators.hpp"
#include "ir/context.hpp"
#include "qasm/load.hpp"
#include "qasm/parser.hpp"
#include "qasm/printer.hpp"
#include "support/source_location.hpp"

#include <gtest/gtest.h>

#include <numbers>

namespace qirkit::qasm {
namespace {

using circuit::Circuit;
using circuit::Condition;
using circuit::OpKind;

/// Fig. 1 (top left): the paper's OpenQASM 2.0 Bell program, verbatim.
TEST(QasmParser, PaperFig1BellProgram) {
  const Circuit c = parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0], q[1];
measure q -> c;
)");
  EXPECT_EQ(c.numQubits(), 2U);
  EXPECT_EQ(c.numBits(), 2U);
  ASSERT_EQ(c.size(), 4U);
  EXPECT_EQ(c.op(0).kind, OpKind::H);
  EXPECT_EQ(c.op(1).kind, OpKind::CX);
  EXPECT_EQ(c.op(2).kind, OpKind::Measure);
  EXPECT_EQ(c.op(3).kind, OpKind::Measure);
  EXPECT_EQ(c, circuit::bellPair(true));
}

TEST(QasmParser, GateBroadcastOverRegister) {
  const Circuit c = parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q;
)");
  EXPECT_EQ(c.countKind(OpKind::H), 3U);
}

TEST(QasmParser, TwoQubitBroadcast) {
  const Circuit c = parse(R"(
OPENQASM 2.0;
qreg a[3];
qreg b[3];
CX a, b;
)");
  EXPECT_EQ(c.countKind(OpKind::CX), 3U);
  EXPECT_EQ(c.op(0).qubits[0], 0U);
  EXPECT_EQ(c.op(0).qubits[1], 3U); // registers flattened in order
}

TEST(QasmParser, AngleExpressions) {
  const Circuit c = parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
rz(pi/2) q[0];
rx(-pi) q[0];
ry(2*pi/4 + 0.5) q[0];
rz(cos(0)) q[0];
)");
  EXPECT_NEAR(c.op(0).params[0], std::numbers::pi / 2, 1e-12);
  EXPECT_NEAR(c.op(1).params[0], -std::numbers::pi, 1e-12);
  EXPECT_NEAR(c.op(2).params[0], std::numbers::pi / 2 + 0.5, 1e-12);
  EXPECT_NEAR(c.op(3).params[0], 1.0, 1e-12);
}

TEST(QasmParser, UserGateDefinitionsAreInlined) {
  const Circuit c = parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
gate bell a, b {
  h a;
  cx a, b;
}
qreg q[4];
bell q[0], q[1];
bell q[2], q[3];
)");
  EXPECT_EQ(c.countKind(OpKind::H), 2U);
  EXPECT_EQ(c.countKind(OpKind::CX), 2U);
  EXPECT_EQ(c.op(2).qubits[0], 2U);
}

TEST(QasmParser, ParameterizedUserGates) {
  const Circuit c = parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
gate wiggle(theta) a {
  rz(theta/2) a;
  rz(theta/2) a;
}
qreg q[1];
wiggle(1.0) q[0];
)");
  ASSERT_EQ(c.size(), 2U);
  EXPECT_NEAR(c.op(0).params[0], 0.5, 1e-12);
}

TEST(QasmParser, NestedUserGates) {
  const Circuit c = parse(R"(
OPENQASM 2.0;
gate inner a { U(0, 0, 0) a; }
gate outer a { inner a; inner a; }
qreg q[1];
outer q[0];
)");
  EXPECT_EQ(c.countKind(OpKind::U3), 2U);
}

TEST(QasmParser, U1U2MapToRotations) {
  const Circuit c = parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
u1(0.5) q[0];
u2(0.1, 0.2) q[0];
u3(0.1, 0.2, 0.3) q[0];
id q[0];
)");
  EXPECT_EQ(c.op(0).kind, OpKind::RZ);
  EXPECT_EQ(c.op(1).kind, OpKind::U3);
  EXPECT_NEAR(c.op(1).params[0], std::numbers::pi / 2, 1e-12);
  EXPECT_EQ(c.size(), 3U); // id is dropped
}

TEST(QasmParser, ConditionsMapToWholeRegisters) {
  const Circuit c = parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
creg c[2];
measure q[0] -> c[0];
if (c == 2) x q[0];
)");
  ASSERT_EQ(c.size(), 2U);
  ASSERT_TRUE(c.op(1).condition.has_value());
  EXPECT_EQ(c.op(1).condition->firstBit, 0U);
  EXPECT_EQ(c.op(1).condition->numBits, 2U);
  EXPECT_EQ(c.op(1).condition->value, 2U);
}

TEST(QasmParser, ResetAndBarrier) {
  const Circuit c = parse(R"(
OPENQASM 2.0;
qreg q[2];
reset q;
barrier q[0], q[1];
barrier;
)");
  EXPECT_EQ(c.countKind(OpKind::Reset), 2U);
  EXPECT_EQ(c.countKind(OpKind::Barrier), 2U);
}

TEST(QasmParser, Errors) {
  EXPECT_THROW((void)parse("qreg q[1];"), ParseError);        // missing header
  EXPECT_THROW((void)parse("OPENQASM 2.0; h q[0];"), ParseError); // no qreg
  EXPECT_THROW((void)parse("OPENQASM 2.0; qreg q[1]; frobnicate q[0];"),
               SemanticError);
  EXPECT_THROW((void)parse("OPENQASM 2.0; qreg q[1]; h q[5];"), ParseError);
  EXPECT_THROW((void)parse("OPENQASM 2.0; include \"other.inc\";"), ParseError);
  EXPECT_THROW((void)parse("OPENQASM 2.0; qreg q[1]; qreg q[1];"), ParseError);
}

TEST(QasmPrinter, EmitsFig1Shape) {
  const std::string text = print(circuit::bellPair(true));
  EXPECT_NE(text.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(text.find("include \"qelib1.inc\";"), std::string::npos);
  EXPECT_NE(text.find("h q[0];"), std::string::npos);
  EXPECT_NE(text.find("cx q[0], q[1];"), std::string::npos);
  EXPECT_NE(text.find("measure q[0] -> c[0];"), std::string::npos);
}

TEST(QasmPrinter, PartitionsBitsForConditions) {
  const Circuit c = circuit::repetitionCodeCycle(0.5, 0);
  const std::string text = print(c);
  // Syndrome bits (0..1) and data bits (2..4) become separate registers.
  EXPECT_NE(text.find("creg c0[2];"), std::string::npos);
  EXPECT_NE(text.find("creg c1[3];"), std::string::npos);
  EXPECT_NE(text.find("if (c0 == 1)"), std::string::npos);
}

TEST(QasmPrinter, RejectsMisalignedConditions) {
  Circuit c(1, 3);
  c.measure(0, 0);
  c.add({circuit::OpKind::X, {0}, {}, 0, Condition{0, 2, 1}});
  c.add({circuit::OpKind::X, {0}, {}, 0, Condition{1, 2, 1}}); // overlaps
  EXPECT_THROW((void)print(c), SemanticError);
}

/// Round trip property over generator workloads: parse(print(c)) == c,
/// modulo U3-lowering-free circuits.
class QasmRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QasmRoundTrip, ParsePrintRoundTrip) {
  Circuit original;
  switch (GetParam()) {
  case 0: original = circuit::bellPair(true); break;
  case 1: original = circuit::ghz(5, true); break;
  case 2: original = circuit::qft(4, true); break;
  case 3: original = circuit::randomCircuit(4, 6, 9, true); break;
  case 4: original = circuit::repetitionCodeCycle(0.7, 1); break;
  default: original = circuit::hardwareEfficientAnsatz(3, 2, 5); break;
  }
  const Circuit reparsed = parse(print(original));
  EXPECT_EQ(reparsed, original);
}

INSTANTIATE_TEST_SUITE_P(Workloads, QasmRoundTrip, ::testing::Range(0, 6));

TEST(ProgramLoader, ClassifiesByHeaderAndExtension) {
  EXPECT_EQ(classifySource("OPENQASM 2.0;\nqreg q[1];"), SourceFormat::Qasm2);
  EXPECT_EQ(classifySource("// c\nOPENQASM 3;"), SourceFormat::Qasm3);
  EXPECT_EQ(classifySource("OPENQASM 3.0;", "p.qasm"), SourceFormat::Qasm3);
  EXPECT_EQ(classifySource("qreg q[1];", "p.qasm"), SourceFormat::Qasm2);
  EXPECT_EQ(classifySource("qreg q[1];", "p.ll"), SourceFormat::Qir);
}

TEST(ProgramLoader, LoadsEveryFormatThroughItsFrontend) {
  ir::Context ctx;
  const auto qubits = [&](std::string_view text) {
    return loadProgram(ctx, text, "", qir::Addressing::Static)
        ->entryPoint()
        ->getAttribute("required_num_qubits");
  };
  EXPECT_EQ(qubits(print(circuit::bellPair(true))), "2");
  EXPECT_EQ(qubits("OPENQASM 3;\nqubit[3] q;\nbit[3] c;\nc[0] = measure q[0];"),
            "3");
  EXPECT_EQ(loadProgram(ctx, "define void @f() {\n  ret void\n}\n", "p.ll",
                        qir::Addressing::Static)
                ->name(),
            "p.ll");
  // A headerless .qasm file goes to the OpenQASM 2 frontend, which rejects
  // it, rather than to the IR parser.
  EXPECT_THROW((void)loadProgram(ctx, "qreg q[1];", "p.qasm",
                                 qir::Addressing::Static),
               ParseError);
}

TEST(QasmEndToEnd, ParsedBellMeasuresCorrelated) {
  const Circuit c = parse(print(circuit::bellPair(true)));
  for (const auto& [bits, count] : circuit::sampleCounts(c, 100, 5)) {
    EXPECT_TRUE(bits == "00" || bits == "11") << bits;
  }
}

} // namespace
} // namespace qirkit::qasm
