#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "passes/pass.hpp"

#include "support/source_location.hpp"

#include <gtest/gtest.h>

#include <string>

namespace qirkit::passes {
namespace {

using namespace qirkit::ir;

std::unique_ptr<Module> parse(Context& ctx, std::string_view text) {
  auto m = parseModule(ctx, text);
  verifyModuleOrThrow(*m);
  return m;
}

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

void runInliner(Module& m) {
  PassManager pm;
  pm.add(createInlinerPass());
  pm.setVerifyEach(true);
  pm.run(m);
}

TEST(Inliner, InlinesSmallVoidFunction) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
define void @helper() {
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
define void @main() {
  call void @helper()
  call void @helper()
  ret void
}
)");
  runInliner(*m);
  const Function* main = m->getFunction("main");
  EXPECT_EQ(countCalls(*main, "helper"), 0U);
  EXPECT_EQ(countCalls(*main, "__quantum__qis__h__body"), 2U);
}

TEST(Inliner, InlinesReturnValue) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @twice(i64 %x) {
  %r = mul i64 %x, 2
  ret i64 %r
}
define i64 @main() {
  %a = call i64 @twice(i64 21)
  ret i64 %a
}
)");
  runInliner(*m);
  const Function* main = m->getFunction("main");
  EXPECT_EQ(countCalls(*main, "twice"), 0U);
  // After folding it becomes a constant 42.
  PassManager pm;
  addStandardPipeline(pm);
  pm.runToFixpoint(*m);
  const auto* c =
      dynamic_cast<const ConstantInt*>(main->entry()->back()->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 42);
}

TEST(Inliner, InlinesMultiReturnWithPhi) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @pick(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  ret i64 10
b:
  ret i64 20
}
define i64 @main(i1 %c) {
  %v = call i64 @pick(i1 %c)
  %w = add i64 %v, 1
  ret i64 %w
}
)");
  runInliner(*m);
  verifyModuleOrThrow(*m);
  const Function* main = m->getFunction("main");
  EXPECT_EQ(countCalls(*main, "pick"), 0U);
  EXPECT_GE(main->blocks().size(), 4U);
}

TEST(Inliner, RespectsNoinline) {
  Context ctx;
  auto m = parse(ctx, R"(
define void @helper() noinline {
  ret void
}
define void @main() {
  call void @helper()
  ret void
}
)");
  runInliner(*m);
  EXPECT_EQ(countCalls(*m->getFunction("main"), "helper"), 1U);
}

TEST(Inliner, RespectsSizeThreshold) {
  Context ctx;
  std::string big = "define void @big() {\n";
  for (int i = 0; i < 200; ++i) {
    big += "  %x" + std::to_string(i) + " = add i64 " + std::to_string(i) + ", 1\n";
  }
  big += "  ret void\n}\ndefine void @main() {\n  call void @big()\n  ret void\n}\n";
  auto m = parse(ctx, big);
  PassManager pm;
  pm.add(createInlinerPass(/*sizeThreshold=*/64));
  pm.run(*m);
  EXPECT_EQ(countCalls(*m->getFunction("main"), "big"), 1U);
  // alwaysinline overrides the threshold.
  m->getFunction("big")->setAttribute("alwaysinline");
  pm.run(*m);
  EXPECT_EQ(countCalls(*m->getFunction("main"), "big"), 0U);
}

TEST(Inliner, SkipsSelfRecursion) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @fact(i64 %n) {
entry:
  %base = icmp sle i64 %n, 1
  br i1 %base, label %one, label %rec
one:
  ret i64 1
rec:
  %n1 = sub i64 %n, 1
  %sub = call i64 @fact(i64 %n1)
  %r = mul i64 %n, %sub
  ret i64 %r
}
)");
  runInliner(*m);
  verifyModuleOrThrow(*m);
  EXPECT_EQ(countCalls(*m->getFunction("fact"), "fact"), 1U);
}

/// A callee on a call-graph cycle, directly or mutually recursive, is
/// never inlined: each copy would bring the call back. A function that
/// only calls into a cycle still inlines.
TEST(Inliner, NeverInlinesACalleeThatCanReachItself) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
define void @f() {
  call void @__quantum__qis__h__body(ptr null)
  call void @f()
  ret void
}
define void @g() {
  call void @h()
  ret void
}
define void @h() {
  call void @__quantum__qis__h__body(ptr null)
  call void @g()
  ret void
}
define void @wrap() {
  call void @f()
  ret void
}
define void @main() {
  call void @wrap()
  call void @g()
  ret void
}
)");
  runInliner(*m);
  const Function* main = m->getFunction("main");
  EXPECT_EQ(countCalls(*main, "wrap"), 0U);
  EXPECT_EQ(countCalls(*main, "f"), 1U);
  EXPECT_EQ(countCalls(*main, "g"), 1U);
  EXPECT_EQ(countCalls(*m->getFunction("f"), "f"), 1U);
  EXPECT_EQ(countCalls(*m->getFunction("g"), "h"), 1U);
  EXPECT_EQ(countCalls(*m->getFunction("h"), "g"), 1U);
}

/// Always-inline functions that each call the next twice would flatten to
/// 2^17 gates; the inliner stops at kMaxExpandedModuleSize instructions.
TEST(Inliner, StopsAtTheModuleSizeBudget) {
  std::string text = "declare void @__quantum__qis__h__body(ptr)\n"
                     "define void @t17() alwaysinline {\n"
                     "  call void @__quantum__qis__h__body(ptr null)\n"
                     "  ret void\n}\n";
  for (int k = 16; k >= 0; --k) {
    const std::string next = "@t" + std::to_string(k + 1) + "()\n";
    text += "define void @t" + std::to_string(k) + "() alwaysinline {\n  call void " +
            next + "  call void " + next + "  ret void\n}\n";
  }
  text += "define void @main() {\n  call void @t0()\n  ret void\n}\n";
  Context ctx;
  auto m = parse(ctx, text);
  runInliner(*m);
  EXPECT_LE(m->instructionCount(), kMaxExpandedModuleSize);
  EXPECT_GT(m->instructionCount(), kMaxExpandedModuleSize / 2);
}

TEST(Inliner, TransitiveInliningFlattensCallChains) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
define void @leaf() {
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
define void @mid() {
  call void @leaf()
  call void @leaf()
  ret void
}
define void @main() {
  call void @mid()
  ret void
}
)");
  runInliner(*m);
  EXPECT_EQ(countCalls(*m->getFunction("main"), "__quantum__qis__h__body"), 2U);
}

TEST(Inliner, SuccessorPhisAreRetargeted) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @val() {
  ret i64 5
}
define i64 @main(i1 %c) {
entry:
  br i1 %c, label %callside, label %other
callside:
  %v = call i64 @val()
  br label %join
other:
  br label %join
join:
  %p = phi i64 [ %v, %callside ], [ 0, %other ]
  ret i64 %p
}
)");
  runInliner(*m);
  verifyModuleOrThrow(*m); // would fail if the phi still named %callside
}


TEST(StripDeadFunctions, RemovesUncalledHelpersAfterInlining) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
define void @helper() {
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
define void @main() #0 {
  call void @helper()
  ret void
}
attributes #0 = { "entry_point" }
)");
  PassManager pm;
  addFullPipeline(pm);
  pm.setVerifyEach(true);
  pm.runToFixpoint(*m);
  EXPECT_EQ(m->getFunction("helper"), nullptr); // inlined, then stripped
  ASSERT_NE(m->getFunction("main"), nullptr);
  EXPECT_NE(m->getFunction("__quantum__qis__h__body"), nullptr); // declarations stay
}

TEST(StripDeadFunctions, LibraryModulesAreUntouched) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @api(i64 %x) {
  %r = add i64 %x, 1
  ret i64 %r
}
)");
  PassManager pm;
  pm.add(createStripDeadFunctionsPass());
  EXPECT_FALSE(pm.run(*m)); // no entry point: every definition is a root
  EXPECT_NE(m->getFunction("api"), nullptr);
}

TEST(StripDeadFunctions, KeepsTransitivelyCalledHelpers) {
  Context ctx;
  auto m = parse(ctx, R"(
define void @used() noinline {
  ret void
}
define void @main() #0 {
  call void @used()
  ret void
}
attributes #0 = { "entry_point" }
)");
  PassManager pm;
  pm.add(createStripDeadFunctionsPass());
  EXPECT_FALSE(pm.run(*m));
  EXPECT_NE(m->getFunction("used"), nullptr);
}

} // namespace
} // namespace qirkit::passes
