#include "circuit/generators.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "qir/compile.hpp"
#include "qir/exporter.hpp"
#include "qir/importer.hpp"
#include "support/source_location.hpp"

#include <gtest/gtest.h>

namespace qirkit::qir {
namespace {

using circuit::Circuit;
using circuit::Condition;
using circuit::OpKind;

/// The paper's Ex. 3: parsing Ex. 2's program "would need to track the
/// assignment of variables (i.e., %9, %0, %1, ...) to their values to
/// infer the respective qubit" — line patterns, no AST.
TEST(PatternParser, HandlesEx2DynamicProgram) {
  const char* text = R"(
declare ptr @__quantum__rt__qubit_allocate_array(i64)
declare ptr @__quantum__rt__array_create_1d(i32, i64)
declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)

define void @main() {
  %q = alloca ptr, align 8
  %0 = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  store ptr %0, ptr %q, align 8
  %c = alloca ptr, align 8
  %1 = call ptr @__quantum__rt__array_create_1d(i32 1, i64 2)
  store ptr %1, ptr %c, align 8
  %2 = load ptr, ptr %q, align 8
  %3 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %2, i64 0)
  call void @__quantum__qis__h__body(ptr %3)
  %4 = load ptr, ptr %q, align 8
  %5 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %4, i64 0)
  %6 = load ptr, ptr %q, align 8
  %7 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %6, i64 1)
  call void @__quantum__qis__cnot__body(ptr %5, ptr %7)
  %8 = load ptr, ptr %q, align 8
  %9 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %8, i64 0)
  %10 = load ptr, ptr %c, align 8
  %11 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %10, i64 0)
  call void @__quantum__qis__mz__body(ptr %9, ptr %11)
  ret void
}
)";
  const Circuit c = importBaseProfileText(text);
  EXPECT_EQ(c.numQubits(), 2U);
  ASSERT_EQ(c.size(), 3U);
  EXPECT_EQ(c.op(0).kind, OpKind::H);
  EXPECT_EQ(c.op(0).qubits[0], 0U);
  EXPECT_EQ(c.op(1).kind, OpKind::CX);
  EXPECT_EQ(c.op(1).qubits[0], 0U);
  EXPECT_EQ(c.op(1).qubits[1], 1U);
  EXPECT_EQ(c.op(2).kind, OpKind::Measure);
}

TEST(PatternParser, HandlesEx6StaticProgram) {
  const char* text = R"(
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)

define void @main() {
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr null, ptr writeonly null)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr writeonly inttoptr (i64 1 to ptr))
  ret void
}
)";
  const Circuit c = importBaseProfileText(text);
  EXPECT_EQ(c, circuit::bellPair(true));
}

TEST(PatternParser, HandlesRotationsAndLabels) {
  const char* text = R"(
@lbl = internal constant [3 x i8] c"r0\00"
declare void @__quantum__qis__rz__body(double, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() {
entry:
  call void @__quantum__qis__rz__body(double 1.5, ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr @lbl)
  ret void
}
)";
  const Circuit c = importBaseProfileText(text);
  ASSERT_EQ(c.size(), 2U);
  EXPECT_EQ(c.op(0).kind, OpKind::RZ);
  EXPECT_NEAR(c.op(0).params[0], 1.5, 1e-12);
}

TEST(PatternParser, RejectsControlFlowAsThePaperPredicts) {
  // §III.A: with a custom parser "one is limited to the capabilities of
  // that existing IR" — our pattern route covers the base profile only.
  const char* text = R"(
declare void @__quantum__qis__h__body(ptr)
define void @main() {
entry:
  br label %next
next:
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
)";
  try {
    (void)importBaseProfileText(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("control flow"), std::string::npos);
  }
}

TEST(PatternParser, RejectsClassicalComputation) {
  const char* text = R"(
declare void @__quantum__qis__h__body(ptr)
define void @main() {
  %x = add i64 1, 2
  ret void
}
)";
  EXPECT_THROW((void)importBaseProfileText(text), ParseError);
}

TEST(PatternParser, RejectsReadResult) {
  const char* text = R"(
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() {
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  ret void
}
)";
  EXPECT_THROW((void)importBaseProfileText(text), ParseError);
}

// --- AST route ---------------------------------------------------------

TEST(AstImporter, ImportsStaticProgram) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
define void @main() #0 {
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  ret void
}
attributes #0 = { "entry_point" }
)");
  const Circuit c = importFromModule(*m);
  EXPECT_EQ(c.numQubits(), 2U);
  EXPECT_EQ(c.gateCount(), 2U);
}

TEST(AstImporter, ImportsMeasurementConditionedDiamond) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() #0 {
entry:
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
  const Circuit c = importFromModule(*m);
  ASSERT_EQ(c.size(), 2U);
  ASSERT_TRUE(c.op(1).condition.has_value());
  EXPECT_EQ(*c.op(1).condition, (Condition{0, 1, 1}));
}

TEST(AstImporter, ImportsNegatedCondition) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  %n = xor i1 %r, true
  br i1 %n, label %then, label %continue
then:
  call void @__quantum__qis__x__body(ptr null)
  br label %continue
continue:
  ret void
}
attributes #0 = { "entry_point" }
)");
  const Circuit c = importFromModule(*m);
  ASSERT_EQ(c.size(), 2U);
  EXPECT_EQ(*c.op(1).condition, (Condition{0, 1, 0}));
}

TEST(AstImporter, RejectsGeneralControlFlow) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
define void @main(i1 %c) #0 {
entry:
  br i1 %c, label %a, label %b
a:
  ret void
b:
  ret void
}
attributes #0 = { "entry_point" }
)");
  EXPECT_THROW((void)importFromModule(*m), ParseError);
}

TEST(AstImporter, RejectsUnfoldedClassicalCode) {
  ir::Context ctx;
  const auto m = ir::parseModule(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
define void @main(i64 %x) #0 {
  %y = add i64 %x, 1
  %p = inttoptr i64 %y to ptr
  call void @__quantum__qis__h__body(ptr %p)
  ret void
}
attributes #0 = { "entry_point" }
)");
  EXPECT_THROW((void)importFromModule(*m), ParseError);
}

// --- bounds ------------------------------------------------------------

/// Every static address, array count and array index is checked against
/// its bound before it is stored in 32 bits: 4294967297 used to import as
/// qubit 1. One program per site; the pattern parser and the AST walker
/// share the runtime-call sites.
TEST(ImportBounds, RefusesAddressesCountsAndIndicesPastTheirBounds) {
  const auto program = [](const std::string& body) {
    return "declare void @__quantum__qis__x__body(ptr)\n"
           "declare ptr @__quantum__rt__qubit_allocate_array(i64)\n"
           "declare ptr @__quantum__rt__array_create_1d(i32, i64)\n"
           "declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)\n"
           "define void @main() #0 {\n" +
           body + "  ret void\n}\nattributes #0 = { \"entry_point\" }\n";
  };
  const std::string pastBound =
      "  call void @__quantum__qis__x__body(ptr inttoptr (i64 4294967297 to ptr))\n";
  struct Case {
    const char* site;
    bool patternParser;
    std::string text;
    const char* message;
  };
  const Case cases[] = {
      {"pattern parser inttoptr", true, program(pastBound),
       "static address 4294967297 is past the width bound (32768)"},
      {"inttoptr constant", false, program(pastBound),
       "static address 4294967297 is past the width bound (32768)"},
      {"inttoptr instruction", false,
       program("  %p = inttoptr i64 -1 to ptr\n"
               "  call void @__quantum__qis__x__body(ptr %p)\n"),
       "static address 18446744073709551615 is past the width bound (32768)"},
      {"qubit_allocate_array count", false,
       program("  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 4294967297)\n"),
       "the program needs more than 32768 qubits"},
      {"array_create_1d count", false,
       program("  %a = call ptr @__quantum__rt__array_create_1d(i32 1, i64 4294967297)\n"),
       "the program needs more than 32768 bits"},
      {"array_get_element_ptr_1d index", false,
       program("  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 2)\n"
               "  %e = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, "
               "i64 4294967296)\n"),
       "qubit array index out of range"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.site);
    try {
      ir::Context ctx;
      (void)(c.patternParser ? importBaseProfileText(c.text)
                             : importFromModule(*ir::parseModule(ctx, c.text)));
      ADD_FAILURE() << "imported";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos) << e.what();
    }
  }
}

// --- export -> import round trips ---------------------------------------

class RoundTrip : public ::testing::TestWithParam<std::tuple<int, Addressing>> {};

TEST_P(RoundTrip, ExportThenImportIsIdentityOnTheCircuit) {
  const auto [workload, addressing] = GetParam();
  Circuit original;
  switch (workload) {
  case 0: original = circuit::bellPair(true); break;
  case 1: original = circuit::ghz(4, true); break;
  case 2: original = circuit::qft(3, true); break;
  default: original = circuit::randomCircuit(4, 5, 11, true); break;
  }
  ir::Context ctx;
  ExportOptions options;
  options.addressing = addressing;
  options.recordOutput = false;
  const auto m = exportCircuit(ctx, original, options);

  // Route (a2): AST import.
  EXPECT_EQ(importFromModule(*m), original);

  // Route (a1): pattern import from the printed text.
  EXPECT_EQ(importBaseProfileText(ir::printModule(*m)), original);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RoundTrip,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(Addressing::Static, Addressing::Dynamic)));

TEST(RoundTripAdaptive, ConditionedCircuitSurvivesAstRoundTrip) {
  const Circuit original = circuit::repetitionCodeCycle(0.9, 1);
  ir::Context ctx;
  ExportOptions options;
  options.recordOutput = false;
  const auto m = exportCircuit(ctx, original, options);
  const Circuit back = importFromModule(*m);
  EXPECT_EQ(back, original);
}

// --- compile pipelines ------------------------------------------------------

TEST(Compile, TransformDirectUnrollsAndFolds) {
  ir::Context ctx;
  auto m = ir::parseModule(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
entry:
  %i = alloca i64, align 8
  store i64 0, ptr %i, align 8
  br label %header
header:
  %v = load i64, ptr %i, align 8
  %c = icmp slt i64 %v, 4
  br i1 %c, label %body, label %exit
body:
  %p = inttoptr i64 %v to ptr
  call void @__quantum__qis__h__body(ptr %p)
  %n = add i64 %v, 1
  store i64 %n, ptr %i, align 8
  br label %header
exit:
  ret void
}
attributes #0 = { "entry_point" }
)");
  transformDirect(*m);
  const Circuit c = importFromModule(*m);
  EXPECT_EQ(c.gateCount(), 4U);
  EXPECT_EQ(c.numQubits(), 4U);
}

TEST(Compile, CompileToTargetMapsAndEmitsStaticQIR) {
  ir::Context ctx;
  // A dynamic-addressing program with a long-range CX.
  Circuit source(4, 4);
  source.h(0);
  source.cx(0, 3);
  source.measureAll();
  ExportOptions exportOptions;
  exportOptions.addressing = Addressing::Dynamic;
  auto m = exportCircuit(ctx, source, exportOptions);

  CompileOptions options;
  options.target = circuit::Target::line(4);
  const CompileResult result = compileToTarget(ctx, *m, options);
  EXPECT_GT(result.swapsInserted, 0U);
  EXPECT_TRUE(circuit::respectsCoupling(result.circuit, *options.target));
  EXPECT_EQ(result.profile, Profile::Base);
  // The compiled module uses static addresses only.
  const ir::Function* main = result.module->entryPoint();
  for (const auto& inst : main->entry()->instructions()) {
    if (inst->op() == ir::Opcode::Call &&
        inst->callee()->name() == "__quantum__rt__qubit_allocate_array") {
      FAIL() << "dynamic allocation survived compilation";
    }
  }
}

} // namespace
} // namespace qirkit::qir
