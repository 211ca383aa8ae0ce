#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

#include "support/source_location.hpp"

#include <gtest/gtest.h>

namespace qirkit::ir {
namespace {

std::unique_ptr<Module> parseOk(Context& ctx, std::string_view text) {
  auto module = parseModule(ctx, text);
  verifyModuleOrThrow(*module);
  return module;
}

TEST(IRParser, EmptyModule) {
  Context ctx;
  const auto m = parseModule(ctx, "; just a comment\n");
  EXPECT_TRUE(m->functions().empty());
}

TEST(IRParser, SkipsSourceFilenameAndTarget) {
  Context ctx;
  const auto m = parseOk(ctx, R"(
source_filename = "foo.ll"
target datalayout = "e-m:e"
target triple = "x86_64-unknown-linux-gnu"
define void @main() {
  ret void
}
)");
  EXPECT_NE(m->getFunction("main"), nullptr);
}

TEST(IRParser, ParsesDeclaration) {
  Context ctx;
  const auto m = parseOk(ctx, "declare ptr @f(i64, double)\n");
  const Function* f = m->getFunction("f");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->isDeclaration());
  EXPECT_TRUE(f->returnType()->isPointer());
  ASSERT_EQ(f->functionType()->paramTypes().size(), 2U);
  EXPECT_TRUE(f->functionType()->paramTypes()[0]->isInteger(64));
  EXPECT_TRUE(f->functionType()->paramTypes()[1]->isDouble());
}

TEST(IRParser, ParsesArithmeticAndControlFlow) {
  Context ctx;
  const auto m = parseOk(ctx, R"(
define i64 @sum(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %body ]
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %acc.next = add i64 %acc, %i
  %i.next = add nsw i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
)");
  const Function* f = m->getFunction("sum");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->blocks().size(), 4U);
  EXPECT_EQ(f->entry()->name(), "entry");
  // Blocks in source order.
  EXPECT_EQ(f->blocks()[1]->name(), "header");
  EXPECT_EQ(f->blocks()[3]->name(), "exit");
}

TEST(IRParser, ForwardReferencesAreResolved) {
  Context ctx;
  const auto m = parseOk(ctx, R"(
define i64 @f() {
entry:
  br label %second
second:
  %x = phi i64 [ %later, %third ], [ 1, %entry ]
  br label %third
third:
  %later = add i64 %x, 1
  %done = icmp sgt i64 %later, 10
  br i1 %done, label %exit, label %second
exit:
  ret i64 %later
}
)");
  EXPECT_EQ(m->getFunction("f")->blocks().size(), 4U);
}

TEST(IRParser, UndefinedValueIsAnError) {
  Context ctx;
  EXPECT_THROW((void)parseModule(ctx, R"(
define void @f() {
  %x = add i64 %missing, 1
  ret void
}
)"),
               qirkit::ParseError);
}

TEST(IRParser, UndefinedLabelIsAnError) {
  Context ctx;
  EXPECT_THROW((void)parseModule(ctx, R"(
define void @f() {
  br label %nowhere
}
)"),
               qirkit::ParseError);
}

/// A chain of \p n if-diamonds whose branches name the join block before
/// the then block, so blocks are referenced in a different order than
/// they are defined. \p tail ends the function.
std::string diamondChain(unsigned n, const std::string& tail = "  ret void\n") {
  std::string s = "declare i1 @c()\ndefine void @main() {\n";
  for (unsigned i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    const std::string next = std::to_string(i + 1);
    s += "d" + k + ":\n  %c" + k + " = call i1 @c()\n  br i1 %c" + k + ", label %d" + next +
         ", label %t" + k + "\nt" + k + ":\n  br label %d" + next + "\n";
  }
  return s + "d" + std::to_string(n) + ":\n" + tail + "}\n";
}

std::string parseErrorOf(const std::string& text) {
  Context ctx;
  try {
    (void)parseModule(ctx, text);
  } catch (const qirkit::ParseError& e) {
    return e.what();
  }
  return "no error";
}

TEST(IRParser, LongDiamondChainKeepsSourceOrderAndLabelErrors) {
  constexpr unsigned kDiamonds = 5000;
  Context ctx;
  const auto m = parseOk(ctx, diamondChain(kDiamonds));
  const auto& blocks = m->getFunction("main")->blocks();
  ASSERT_EQ(blocks.size(), 2 * kDiamonds + 1);
  for (unsigned i = 0; i < kDiamonds; ++i) {
    const std::string k = std::to_string(i);
    ASSERT_EQ(blocks[2 * i]->name(), "d" + k);
    ASSERT_EQ(blocks[2 * i + 1]->name(), "t" + k);
  }
  EXPECT_EQ(blocks.back()->name(), "d5000");
  const std::string printed = printModule(*m);
  EXPECT_LT(printed.find("\nd4999:"), printed.find("\nt4999:"));
  EXPECT_LT(printed.find("\nt4999:"), printed.find("\nd5000:"));

  EXPECT_NE(parseErrorOf(diamondChain(kDiamonds, "  br label %d7\nd7:\n  ret void\n"))
                .find("redefinition of label 'd7'"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(diamondChain(kDiamonds, "  br label %missing\n"))
                .find("use of undefined label '%missing'"),
            std::string::npos);
}

TEST(IRParser, CallToUndeclaredFunctionIsAnError) {
  Context ctx;
  EXPECT_THROW((void)parseModule(ctx, R"(
define void @f() {
  call void @ghost()
  ret void
}
)"),
               qirkit::ParseError);
}

TEST(IRParser, GetElementPtrIsRejectedWithClearMessage) {
  Context ctx;
  try {
    (void)parseModule(ctx, R"(
define void @f() {
  %p = getelementptr i8, ptr null, i64 1
  ret void
}
)");
    FAIL() << "expected ParseError";
  } catch (const qirkit::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("getelementptr"), std::string::npos);
  }
}

// --- The paper's own snippets ----------------------------------------------

/// Ex. 2 / Fig. 1 (right): the Bell program with dynamically allocated
/// qubits, in modern opaque-pointer syntax.
TEST(IRParser, PaperEx2BellProgram) {
  Context ctx;
  const auto m = parseOk(ctx, R"(
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
)");
  EXPECT_EQ(m->getFunction("main")->instructionCount(), 20U);
}

/// Ex. 6: static qubit addressing — "the lines for allocating the qubits
/// disappear".
TEST(IRParser, PaperEx6StaticAddressing) {
  Context ctx;
  const auto m = parseOk(ctx, R"(
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
)");
  const Function* main = m->getFunction("main");
  // Second call's second operand is the inttoptr constant for qubit 1.
  const Instruction* cnot = main->entry()->instructions()[1].get();
  std::uint64_t address = 0;
  ASSERT_TRUE(getStaticPointerAddress(cnot->operand(1), address));
  EXPECT_EQ(address, 1U);
}

/// Ex. 4: the FOR loop applying H to qubits 0..9.
TEST(IRParser, PaperEx4ForLoop) {
  Context ctx;
  const auto m = parseOk(ctx, R"(
declare void @__quantum__qis__h__body(ptr)

define void @main() {
entry:
  %i = alloca i32, align 4
  store i32 0, ptr %i, align 4
  br label %for.header
for.header:
  %1 = load i32, ptr %i, align 4
  %cond = icmp slt i32 %1, 10
  br i1 %cond, label %body, label %exit
body:
  %2 = load i32, ptr %i, align 4
  %q64 = sext i32 %2 to i64
  %q = inttoptr i64 %q64 to ptr
  call void @__quantum__qis__h__body(ptr %q)
  %3 = load i32, ptr %i, align 4
  %4 = add nsw i32 %3, 1
  store i32 %4, ptr %i, align 4
  br label %for.header
exit:
  ret void
}
)");
  EXPECT_EQ(m->getFunction("main")->blocks().size(), 4U);
}

TEST(IRParser, LegacyTypedPointersAndOpaqueAliases) {
  Context ctx;
  const auto m = parseOk(ctx, R"(
%Qubit = type opaque
%Result = type opaque
declare void @__quantum__qis__h__body(%Qubit*)
declare void @__quantum__qis__mz__body(%Qubit*, %Result*)
define void @main() {
  call void @__quantum__qis__h__body(%Qubit* null)
  ret void
}
)");
  const Function* h = m->getFunction("__quantum__qis__h__body");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->functionType()->paramTypes()[0]->isPointer());
}

TEST(IRParser, AttributeGroupsAttachToFunctions) {
  Context ctx;
  const auto m = parseOk(ctx, R"(
define void @main() #0 {
  ret void
}
attributes #0 = { "entry_point" "qir_profiles"="base_profile" "required_num_qubits"="2" }
)");
  const Function* main = m->getFunction("main");
  EXPECT_TRUE(main->hasAttribute("entry_point"));
  EXPECT_EQ(main->getAttribute("qir_profiles"), "base_profile");
  EXPECT_EQ(main->getAttribute("required_num_qubits"), "2");
  EXPECT_EQ(m->entryPoint(), main);
}

TEST(IRParser, GlobalStringConstants) {
  Context ctx;
  const auto m = parseOk(ctx, "@lbl = internal constant [3 x i8] c\"r0\\00\"\n");
  const GlobalVariable* g = m->getGlobal("lbl");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->initializer(), std::string("r0\0", 3));
}

TEST(IRParser, GlobalSizeMismatchIsAnError) {
  Context ctx;
  EXPECT_THROW((void)parseModule(ctx, "@lbl = constant [5 x i8] c\"r0\\00\"\n"),
               qirkit::ParseError);
}

TEST(IRParser, SelectSwitchAndCasts) {
  Context ctx;
  const auto m = parseOk(ctx, R"(
define i64 @f(i64 %x) {
entry:
  %c = icmp eq i64 %x, 0
  %s = select i1 %c, i64 10, i64 20
  %t = trunc i64 %s to i32
  %z = zext i32 %t to i64
  switch i64 %z, label %other [
    i64 10, label %ten
    i64 20, label %twenty
  ]
ten:
  ret i64 1
twenty:
  ret i64 2
other:
  ret i64 %z
}
)");
  EXPECT_EQ(m->getFunction("f")->blocks().size(), 4U);
}

TEST(IRParser, FloatLiteralsDecimalAndHex) {
  Context ctx;
  const auto m = parseOk(ctx, R"(
define double @f() {
  %a = fadd double 1.5, 2.5e-1
  %b = fadd double %a, 0x3FF0000000000000
  ret double %b
}
)");
  const auto& insts = m->getFunction("f")->entry()->instructions();
  const auto* one = dynamic_cast<const ConstantFP*>(insts[1]->operand(1));
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(one->value(), 1.0);
}

// --- round-trip property: print(parse(print(m))) == print(m) ---------------

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintParsePrintIsAFixpoint) {
  Context ctx;
  const auto first = parseModule(ctx, GetParam());
  verifyModuleOrThrow(*first);
  const std::string printed = printModule(*first);
  Context ctx2;
  const auto second = parseModule(ctx2, printed);
  verifyModuleOrThrow(*second);
  EXPECT_EQ(printModule(*second), printed);
}

INSTANTIATE_TEST_SUITE_P(
    Snippets, RoundTripTest,
    ::testing::Values(
        "define void @main() {\n  ret void\n}\n",
        R"(define i64 @loop(i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %inc, %b ]
  %c = icmp ult i64 %i, %n
  br i1 %c, label %b, label %e
b:
  %inc = add i64 %i, 1
  br label %h
e:
  ret i64 %i
}
)",
        R"(declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__h__body(ptr inttoptr (i64 7 to ptr))
  ret void
}
attributes #0 = { "entry_point" }
)",
        R"(define double @angles(double %x) {
  %a = fmul double %x, 3.141592653589793
  %b = fdiv double %a, 2.0
  %c = fcmp olt double %b, 1.0
  %d = select i1 %c, double %a, double %b
  ret double %d
}
)",
        R"(define i64 @mem() {
  %slot = alloca i64, align 8
  store i64 42, ptr %slot, align 8
  %v = load i64, ptr %slot, align 8
  ret i64 %v
}
)"));

} // namespace
} // namespace qirkit::ir
