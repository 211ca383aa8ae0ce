#include "circuit/generators.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "qasm/parser.hpp"
#include "qasm/qasm3.hpp"
#include "qir/exporter.hpp"
#include "qir/names.hpp"
#include "support/source_location.hpp"

#include <gtest/gtest.h>

namespace qirkit::qir {
namespace {

using circuit::Circuit;
using namespace qirkit::ir;

std::size_t countCalls(const Function& fn, std::string_view callee) {
  std::size_t count = 0;
  for (const auto& block : fn.blocks()) {
    for (const auto& inst : block->instructions()) {
      if (inst->op() == Opcode::Call && inst->callee()->name() == callee) {
        ++count;
      }
    }
  }
  return count;
}

TEST(QirNames, Classification) {
  EXPECT_TRUE(isQisFunction(kQisH));
  EXPECT_TRUE(isRtFunction(kRtQubitAllocate));
  EXPECT_FALSE(isQisFunction(kRtQubitAllocate));
  EXPECT_TRUE(isQuantumFunction(kQisMz));
  EXPECT_FALSE(isQuantumFunction("printf"));
}

TEST(QirNames, SignaturesAreWellFormed) {
  Context ctx;
  const Type* h = qirFunctionType(ctx, kQisH);
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->returnType()->isVoid());
  EXPECT_EQ(h->paramTypes().size(), 1U);
  const Type* rz = qirFunctionType(ctx, kQisRZ);
  EXPECT_TRUE(rz->paramTypes()[0]->isDouble());
  EXPECT_EQ(qirFunctionType(ctx, "not_a_qir_function"), nullptr);
}

TEST(QirNames, OpKindMappingRoundTrips) {
  using circuit::OpKind;
  for (const OpKind kind : {OpKind::H, OpKind::X, OpKind::RZ, OpKind::CX,
                            OpKind::CCX, OpKind::Sdg, OpKind::Reset}) {
    const auto name = qisNameFor(kind);
    ASSERT_TRUE(name.has_value());
    EXPECT_EQ(opKindForQis(*name), kind);
  }
  EXPECT_FALSE(qisNameFor(circuit::OpKind::Measure).has_value());
  EXPECT_EQ(opKindForQis(kQisMz), circuit::OpKind::Measure);
}

TEST(QirNames, GateTableDrivesNamesSignaturesAndFrontends) {
  using circuit::OpKind;
  Context ctx;
  std::size_t gates = 0;
  for (const OpKind kind : circuit::kAllOpKinds) {
    EXPECT_EQ(circuit::opKindNamed(circuit::opKindName(kind)), kind);
    const auto name = qisNameFor(kind);
    if (!name) {
      continue;
    }
    EXPECT_EQ(opKindForQis(*name), kind) << *name;
    // Signature: the angles, then the qubits.
    const Type* type = qirFunctionType(ctx, *name);
    ASSERT_NE(type, nullptr) << *name;
    const unsigned angles = circuit::opKindParams(kind);
    const unsigned qubits = circuit::opKindArity(kind);
    ASSERT_EQ(type->paramTypes().size(), angles + qubits) << *name;
    for (unsigned i = 0; i < angles + qubits; ++i) {
      EXPECT_EQ(type->paramTypes()[i]->isDouble(), i < angles) << *name;
      EXPECT_EQ(type->paramTypes()[i]->isPointer(), i >= angles) << *name;
    }
    if (!circuit::isUnitary(kind)) {
      continue;
    }
    // Both frontends accept the table's spelling at that arity.
    std::string application = circuit::opKindName(kind);
    for (unsigned i = 0; i < angles; ++i) {
      application += (i == 0 ? "(" : ", ") + std::string("0.25");
    }
    application += angles != 0 ? ")" : "";
    for (unsigned i = 0; i < qubits; ++i) {
      application += (i == 0 ? " q[" : ", q[") + std::to_string(i) + "]";
    }
    application += ";\n";
    const Circuit parsed = qasm::parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n" +
                                       application);
    ASSERT_EQ(parsed.size(), 1U) << application;
    EXPECT_EQ(parsed.op(0).kind, kind) << application;
    const auto lowered = qasm::compileQasm3(
        ctx, "OPENQASM 3;\ninclude \"stdgates.inc\";\nqubit[3] q;\n" + application);
    EXPECT_EQ(countCalls(*lowered->entryPoint(), *name), 1U) << application;
    ++gates;
  }
  EXPECT_EQ(gates, 15U);
}

TEST(Exporter, StaticAddressingMatchesEx6Shape) {
  Context ctx;
  ExportOptions options;
  options.addressing = Addressing::Static;
  options.recordOutput = false;
  const auto m = exportCircuit(ctx, circuit::bellPair(true), options);
  verifyModuleOrThrow(*m);
  const Function* main = m->entryPoint();
  ASSERT_NE(main, nullptr);
  // No allocation lines (Ex. 6: "the lines for allocating the qubits
  // disappear").
  EXPECT_EQ(countCalls(*main, kRtQubitAllocateArray), 0U);
  EXPECT_EQ(countCalls(*main, kRtArrayCreate1d), 0U);
  // Qubit 0 is `ptr null`.
  const Instruction* h = main->entry()->front();
  EXPECT_EQ(h->callee()->name(), kQisH);
  EXPECT_EQ(h->operand(0)->kind(), Value::Kind::ConstantPointerNull);
}

TEST(Exporter, DynamicAddressingMatchesEx2Shape) {
  Context ctx;
  ExportOptions options;
  options.addressing = Addressing::Dynamic;
  options.recordOutput = false;
  const auto m = exportCircuit(ctx, circuit::bellPair(true), options);
  verifyModuleOrThrow(*m);
  const Function* main = m->entryPoint();
  EXPECT_EQ(countCalls(*main, kRtQubitAllocateArray), 1U);
  EXPECT_EQ(countCalls(*main, kRtArrayCreate1d), 1U);
  // Every gate operand goes through array_get_element_ptr_1d.
  EXPECT_GE(countCalls(*main, kRtArrayGetElementPtr1d), 4U);
  // Allocas for the %q / %c stack slots of Fig. 1.
  std::size_t allocas = 0;
  for (const auto& inst : main->entry()->instructions()) {
    allocas += inst->op() == Opcode::Alloca ? 1 : 0;
  }
  EXPECT_EQ(allocas, 2U);
}

TEST(Exporter, EntryPointAttributes) {
  Context ctx;
  const auto m = exportCircuit(ctx, circuit::ghz(3, true), {});
  const Function* main = m->entryPoint();
  EXPECT_EQ(main->getAttribute("required_num_qubits"), "3");
  EXPECT_EQ(main->getAttribute("required_num_results"), "3");
  EXPECT_EQ(main->getAttribute("qir_profiles"), "base_profile");
}

TEST(Exporter, ConditionedOpsBecomeReadResultDiamonds) {
  Context ctx;
  Circuit c(1, 1);
  c.measure(0, 0);
  c.add({circuit::OpKind::X, {0}, {}, 0, circuit::Condition{0, 1, 1}});
  ExportOptions options;
  options.recordOutput = false;
  const auto m = exportCircuit(ctx, c, options);
  verifyModuleOrThrow(*m);
  const Function* main = m->entryPoint();
  EXPECT_EQ(main->getAttribute("qir_profiles"), "adaptive_profile");
  EXPECT_EQ(main->blocks().size(), 3U); // entry, then, continue
  EXPECT_EQ(countCalls(*main, kQisReadResult), 1U);
}

TEST(Exporter, MultiBitConditionBuildsConjunction) {
  Context ctx;
  Circuit c(1, 2);
  c.measure(0, 0);
  c.measure(0, 1);
  c.add({circuit::OpKind::X, {0}, {}, 0, circuit::Condition{0, 2, 0b01}});
  ExportOptions options;
  options.recordOutput = false;
  const auto m = exportCircuit(ctx, c, options);
  verifyModuleOrThrow(*m);
  EXPECT_EQ(countCalls(*m->entryPoint(), kQisReadResult), 2U);
}

TEST(Exporter, U3LowersToRotationTriple) {
  Context ctx;
  Circuit c(1, 0);
  c.u3(0.1, 0.2, 0.3, 0);
  ExportOptions options;
  options.recordOutput = false;
  const auto m = exportCircuit(ctx, c, options);
  const Function* main = m->entryPoint();
  EXPECT_EQ(countCalls(*main, kQisRZ), 2U);
  EXPECT_EQ(countCalls(*main, kQisRY), 1U);
}

TEST(Exporter, RecordOutputEmitsLabelsInOrder) {
  Context ctx;
  const auto m = exportCircuit(ctx, circuit::bellPair(true), {});
  const Function* main = m->entryPoint();
  EXPECT_EQ(countCalls(*main, kRtResultRecordOutput), 2U);
  EXPECT_EQ(countCalls(*main, kRtArrayRecordOutput), 1U);
  EXPECT_NE(m->getGlobal("lbl.r0"), nullptr);
  EXPECT_NE(m->getGlobal("lbl.r1"), nullptr);
}

TEST(Exporter, OutputReparsesWithTheFullParser) {
  Context ctx;
  for (const Addressing addressing : {Addressing::Static, Addressing::Dynamic}) {
    ExportOptions options;
    options.addressing = addressing;
    const auto m = exportCircuit(ctx, circuit::qft(3, true), options);
    const std::string text = printModule(*m);
    Context ctx2;
    const auto reparsed = parseModule(ctx2, text, m->name());
    verifyModuleOrThrow(*reparsed);
    EXPECT_EQ(printModule(*reparsed), text);
  }
}

TEST(Exporter, BarrierHasNoQIRRepresentation) {
  Context ctx;
  Circuit c(1, 0);
  c.h(0);
  c.barrier();
  c.h(0);
  ExportOptions options;
  options.recordOutput = false;
  const auto m = exportCircuit(ctx, c, options);
  EXPECT_EQ(countCalls(*m->entryPoint(), kQisH), 2U);
  EXPECT_EQ(m->entryPoint()->instructionCount(), 3U); // 2 calls + ret
}

} // namespace
} // namespace qirkit::qir
