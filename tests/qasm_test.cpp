#include "circuit/executor.hpp"
#include "circuit/generators.hpp"
#include "ir/context.hpp"
#include "ir/printer.hpp"
#include "qasm/load.hpp"
#include "qasm/parser.hpp"
#include "qasm/printer.hpp"
#include "qir/exporter.hpp"
#include "support/source_location.hpp"

#include <gtest/gtest.h>

#include <numbers>

namespace qirkit::qasm {
namespace {

using circuit::Circuit;
using circuit::Condition;
using circuit::OpKind;

/// The Bell program as QIR text.
std::string printCircuitAsQir(ir::Context& ctx) {
  return ir::printModule(*qir::exportCircuit(ctx, circuit::bellPair(true), {}));
}

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

/// The error code and location \p source fails with.
std::pair<ErrorCode, SourceLoc> failureOf(std::string_view source) {
  try {
    (void)parse(source);
  } catch (const Error& e) {
    return {e.code(), e.loc()};
  }
  ADD_FAILURE() << "expected a failure for: " << source;
  return {ErrorCode::Internal, {}};
}

TEST(QasmParser, IndicesAreCheckedAtTheIndexToken) {
  const char* program = "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nx q[0];\nh q[5];\n"
                        "measure q[0] -> c[0];\n";
  EXPECT_EQ(failureOf(program), std::make_pair(ErrorCode::Parse, SourceLoc{5, 5}));
  // Both register kinds, every statement that names an index.
  EXPECT_EQ(failureOf("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure q[0] -> c[3];")
                .second,
            (SourceLoc{4, 19}));
  for (const char* bad : {"measure q[2] -> c[0];", "reset q[2];", "barrier q[0], q[2];",
                          "cx q[0], q[4294967296];"}) {
    EXPECT_EQ(failureOf(std::string("OPENQASM 2.0; qreg q[2]; creg c[1]; ") + bad).first,
              ErrorCode::Parse)
        << bad;
  }
  // The wrong register kind and an unknown name, at the name.
  EXPECT_EQ(failureOf("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure c[0] -> q[0];"),
            std::make_pair(ErrorCode::Parse, SourceLoc{4, 9}));
  EXPECT_EQ(failureOf("OPENQASM 2.0;\nqreg q[1];\nif (q == 1) x q[0];"),
            std::make_pair(ErrorCode::Parse, SourceLoc{3, 5}));
  EXPECT_EQ(failureOf("OPENQASM 2.0;\nqreg q[1];\ncreg q[1];"),
            std::make_pair(ErrorCode::Parse, SourceLoc{3, 6}));
  // A size-1 register does not broadcast against a wider one.
  EXPECT_EQ(failureOf("OPENQASM 2.0; qreg a[1]; qreg b[3]; CX a, b;").first,
            ErrorCode::Parse);
}

TEST(QasmParser, RegisterWidthsAreBounded) {
  // 2^32 + 1 once truncated to one qubit.
  EXPECT_EQ(failureOf("OPENQASM 2.0;\nqreg q[4294967297];"),
            std::make_pair(ErrorCode::Semantic, SourceLoc{2, 8}));
  EXPECT_EQ(failureOf("OPENQASM 2.0;\ncreg c[40000];").first, ErrorCode::Semantic);
  // The budget is the program's total, qubits and bits each.
  EXPECT_EQ(parse("OPENQASM 2.0; qreg q[32768]; creg c[32768];").numBits(), 32768U);
  EXPECT_EQ(failureOf("OPENQASM 2.0; qreg q[32768]; qreg r[1];").first,
            ErrorCode::Semantic);
  EXPECT_EQ(failureOf("OPENQASM 2.0; creg a[16384]; creg b[16385];").first,
            ErrorCode::Semantic);
}

/// `gate g0 a { h a; h a; }`, then each gK applies g(K-1) twice: applying
/// gK emits 2^(K+1) gates.
std::string doublingGates(int levels) {
  std::string s = "OPENQASM 2.0;\nqreg q[1];\ngate g0 a { h a; h a; }\n";
  for (int k = 1; k <= levels; ++k) {
    s += "gate g" + std::to_string(k) + " a { g" + std::to_string(k - 1) + " a; g" +
         std::to_string(k - 1) + " a; }\n";
  }
  return s + "g" + std::to_string(levels) + " q[0];\n";
}

TEST(QasmParser, GateExpansionIsBounded) {
  // 2^15 gates: 32 767 beyond the statement's first, within the budget.
  EXPECT_EQ(parse(doublingGates(14)).size(), 32768U);
  // About 1.2 KB asking for 2^41 gates stops at the budget, at the statement.
  const std::string k40 = doublingGates(40);
  EXPECT_EQ(failureOf(k40), std::make_pair(ErrorCode::Semantic, SourceLoc{44, 1}));
  // `id` and gates that apply nothing still count, or 2^40 of them would
  // take hours.
  for (const char* leaf : {"", "id a;", "barrier a;"}) {
    std::string nest = "OPENQASM 2.0;\nqreg q[1];\ngate e0 a { " + std::string(leaf) + " }\n";
    for (int k = 1; k <= 40; ++k) {
      const std::string inner = "e" + std::to_string(k - 1) + " a; ";
      nest += "gate e" + std::to_string(k) + " a { " + inner + inner + "}\n";
    }
    EXPECT_EQ(failureOf(nest + "e40 q[0];").first, ErrorCode::Semantic) << leaf;
  }
  // The lanes of a broadcast count too, summed over the program.
  const std::string wide = "OPENQASM 2.0;\nqreg q[20000];\ncreg c[20000];\nh q;\n";
  EXPECT_EQ(parse(wide).size(), 20000U);
  EXPECT_EQ(failureOf(wide + "measure q -> c;\n"),
            std::make_pair(ErrorCode::Semantic, SourceLoc{5, 1}));
  // Recursion still stops at the depth limit, before any budget.
  EXPECT_EQ(failureOf("OPENQASM 2.0; qreg q[1]; gate r a { r a; } r q[0];").first,
            ErrorCode::Semantic);
  // A flat program of any length carries no expansion.
  std::string flat = "OPENQASM 2.0;\nqreg q[1];\n";
  for (int i = 0; i < 40000; ++i) {
    flat += "x q[0];\n";
  }
  EXPECT_EQ(parse(flat).size(), 40000U);
}

TEST(QasmParser, AcceptsBothCommentFormsAndLeadingDotReals) {
  const Circuit c = parse("/* header */ OPENQASM 2.0; // Bell\nqreg q[1];\n"
                          "rz(.5) /* angle */ q[0];");
  ASSERT_EQ(c.size(), 1U);
  EXPECT_EQ(c.op(0).params[0], 0.5);
  // Tokens only OpenQASM 3 uses lex, and the grammar rejects them.
  EXPECT_THROW((void)parse("OPENQASM 2.0; qreg q[1]; q = 1;"), ParseError);
  EXPECT_THROW((void)parse("OPENQASM 2.0; qreg q[1:2];"), ParseError);
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
  // Only the first token counts: a QIR comment that mentions OPENQASM
  // stays QIR, and any whitespace may follow the keyword.
  const std::string qir = "declare void @__quantum__qis__h__body(ptr)\n";
  EXPECT_EQ(classifySource("; translated from OPENQASM 2.0 by qirkit\n" + qir),
            SourceFormat::Qir);
  EXPECT_EQ(classifySource("; source: OPENQASM 3 program\n" + qir), SourceFormat::Qir);
  EXPECT_EQ(classifySource("OPENQASM  3;\nqubit[1] q;"), SourceFormat::Qasm3);
  EXPECT_EQ(classifySource("OPENQASM\t3;\nqubit[1] q;"), SourceFormat::Qasm3);
  // Versions 3.x are OpenQASM 3; any other is OpenQASM 2; a text the
  // lexer cannot start on has no header.
  EXPECT_EQ(classifySource("/* c */ OPENQASM 3.1;"), SourceFormat::Qasm3);
  EXPECT_EQ(classifySource("OPENQASM 30;"), SourceFormat::Qasm2);
  EXPECT_EQ(classifySource("OPENQASM @"), SourceFormat::Qasm2);
  EXPECT_EQ(classifySource("@0 = OPENQASM 3;"), SourceFormat::Qir);
  EXPECT_EQ(classifySource("\"unterminated OPENQASM 3;", "p.qasm"), SourceFormat::Qasm2);
}

TEST(ProgramLoader, CommentedQirAndSpacedHeadersLoad) {
  ir::Context ctx;
  const std::string qir = printCircuitAsQir(ctx);
  const auto qubits = [&](const std::string& text) {
    return loadProgram(ctx, text, "", qir::Addressing::Static)
        ->entryPoint()
        ->getAttribute("required_num_qubits");
  };
  EXPECT_EQ(qubits("; translated from OPENQASM 2.0 by qirkit\n" + qir), "2");
  EXPECT_EQ(qubits("; source: OPENQASM 3 program\n" + qir), "2");
  EXPECT_EQ(qubits("OPENQASM  3;\nqubit[3] q;\nbit[1] c;\nc[0] = measure q[2];"), "3");
  EXPECT_EQ(qubits("OPENQASM\t3;\nqubit[3] q;\nbit[1] c;\nc[0] = measure q[2];"), "3");
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
