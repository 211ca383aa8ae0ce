/// Tests for full loop unrolling — the paper's Ex. 4: after unrolling,
/// "an optimization pass does not have to handle the FOR-loop, but sees
/// only the ten individual Hadamard gates that are applied to the qubits."
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "passes/loop_info.hpp"
#include "passes/pass.hpp"
#include "qir/importer.hpp"

#include "support/source_location.hpp"

#include <gtest/gtest.h>

#include <set>

namespace qirkit::passes {
namespace {

using namespace qirkit::ir;

std::unique_ptr<Module> parse(Context& ctx, std::string_view text) {
  auto m = parseModule(ctx, text);
  verifyModuleOrThrow(*m);
  return m;
}

/// Count calls to a given callee across the function.
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

void runFullPipeline(Module& m) {
  PassManager pm;
  addFullPipeline(pm);
  pm.setVerifyEach(true);
  pm.runToFixpoint(m);
}

TEST(LoopInfo, FindsNaturalLoop) {
  Context ctx;
  auto m = parse(ctx, R"(
define void @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %next = add i64 %i, 1
  br label %header
exit:
  ret void
}
)");
  const auto loops = findNaturalLoops(*m->getFunction("f"));
  ASSERT_EQ(loops.size(), 1U);
  EXPECT_EQ(loops[0].header->name(), "header");
  EXPECT_EQ(loops[0].blocks.size(), 2U);
  ASSERT_EQ(loops[0].latches.size(), 1U);
  EXPECT_EQ(loops[0].latches[0]->name(), "body");
  ASSERT_NE(loops[0].preheader(), nullptr);
  EXPECT_EQ(loops[0].preheader()->name(), "entry");
  EXPECT_EQ(loops[0].exitEdges().size(), 1U);
}

TEST(LoopInfo, NestedLoopsOrderedInnermostFirst) {
  Context ctx;
  auto m = parse(ctx, R"(
define void @f(i64 %n) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i.next, %outer.latch ]
  %ci = icmp slt i64 %i, %n
  br i1 %ci, label %inner, label %exit
inner:
  %j = phi i64 [ 0, %outer ], [ %j.next, %inner ]
  %j.next = add i64 %j, 1
  %cj = icmp slt i64 %j.next, %n
  br i1 %cj, label %inner, label %outer.latch
outer.latch:
  %i.next = add i64 %i, 1
  br label %outer
exit:
  ret void
}
)");
  const auto loops = findNaturalLoops(*m->getFunction("f"));
  ASSERT_EQ(loops.size(), 2U);
  EXPECT_EQ(loops[0].header->name(), "inner");
  EXPECT_EQ(loops[1].header->name(), "outer");
  EXPECT_FALSE(loops[0].containsLoop(loops));
  EXPECT_TRUE(loops[1].containsLoop(loops));
}

/// The exact shape of the paper's Ex. 4 after a front end emitted it
/// (alloca + load/store), run through the full pipeline.
TEST(LoopUnroll, PaperEx4SeesTenHadamards) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @__quantum__qis__h__body(ptr)

define void @main() #0 {
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
attributes #0 = { "entry_point" }
)");
  runFullPipeline(*m);
  const Function* main = m->getFunction("main");
  // The optimization pass "sees only the ten individual Hadamard gates".
  EXPECT_EQ(countCalls(*main, "__quantum__qis__h__body"), 10U);
  EXPECT_EQ(main->blocks().size(), 1U);
  // Every argument is now a distinct static qubit address 0..9.
  std::set<std::uint64_t> addresses;
  for (const auto& inst : main->entry()->instructions()) {
    if (inst->op() == Opcode::Call &&
        inst->callee()->name() == "__quantum__qis__h__body") {
      std::uint64_t address = 99;
      ASSERT_TRUE(getStaticPointerAddress(inst->operand(0), address));
      addresses.insert(address);
    }
  }
  EXPECT_EQ(addresses.size(), 10U);
  EXPECT_EQ(*addresses.begin(), 0U);
  EXPECT_EQ(*addresses.rbegin(), 9U);

  // And the unrolled module imports as a 10-qubit circuit.
  const circuit::Circuit c = qir::importFromModule(*m);
  EXPECT_EQ(c.numQubits(), 10U);
  EXPECT_EQ(c.gateCount(), 10U);
}

TEST(LoopUnroll, TripCountVariants) {
  // sgt-descending, ne-based, and sle bounds all unroll correctly.
  const char* const programs[] = {
      // descending: i = 8; while (i > 0) { work; i -= 2 } -> 4 iterations
      R"(
declare void @work(i64)
define void @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 8, %entry ], [ %next, %body ]
  %c = icmp sgt i64 %i, 0
  br i1 %c, label %body, label %exit
body:
  call void @work(i64 %i)
  %next = sub i64 %i, 2
  br label %header
exit:
  ret void
}
)",
      // ne bound: 0,1,2 -> 3 iterations
      R"(
declare void @work(i64)
define void @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp ne i64 %i, 3
  br i1 %c, label %body, label %exit
body:
  call void @work(i64 %i)
  %next = add i64 %i, 1
  br label %header
exit:
  ret void
}
)",
      // sle bound: 0..5 -> 6 iterations
      R"(
declare void @work(i64)
define void @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp sle i64 %i, 5
  br i1 %c, label %body, label %exit
body:
  call void @work(i64 %i)
  %next = add i64 %i, 1
  br label %header
exit:
  ret void
}
)"};
  const std::size_t expected[] = {4, 3, 6};
  for (int t = 0; t < 3; ++t) {
    Context ctx;
    auto m = parse(ctx, programs[t]);
    PassManager pm;
    pm.add(createLoopUnrollPass());
    pm.add(createSCCPPass());
    pm.add(createConstantFoldPass());
    pm.add(createSimplifyCFGPass());
    pm.add(createDCEPass());
    pm.setVerifyEach(true);
    pm.runToFixpoint(*m);
    EXPECT_EQ(countCalls(*m->getFunction("f"), "work"), expected[t]) << "case " << t;
  }
}

TEST(LoopUnroll, ZeroTripLoopDisappears) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @work(i64)
define void @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 5, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 3
  br i1 %c, label %body, label %exit
body:
  call void @work(i64 %i)
  %next = add i64 %i, 1
  br label %header
exit:
  ret void
}
)");
  runFullPipeline(*m);
  EXPECT_EQ(countCalls(*m->getFunction("f"), "work"), 0U);
  EXPECT_EQ(m->getFunction("f")->blocks().size(), 1U);
}

TEST(LoopUnroll, ExitValueFlowsThroughExitPhi) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %body ]
  %c = icmp slt i64 %i, 5
  br i1 %c, label %body, label %exit
body:
  %acc.next = add i64 %acc, %i
  %next = add i64 %i, 1
  br label %header
exit:
  %result = phi i64 [ %acc, %header ]
  ret i64 %result
}
)");
  runFullPipeline(*m);
  const Function* f = m->getFunction("f");
  EXPECT_EQ(f->blocks().size(), 1U);
  const auto* c = dynamic_cast<const ConstantInt*>(f->entry()->back()->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 0 + 1 + 2 + 3 + 4);
}

TEST(LoopUnroll, DynamicBoundIsLeftAlone) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @work(i64)
define void @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  call void @work(i64 %i)
  %next = add i64 %i, 1
  br label %header
exit:
  ret void
}
)");
  PassManager pm;
  pm.add(createLoopUnrollPass());
  pm.setVerifyEach(true);
  EXPECT_FALSE(pm.run(*m));
  EXPECT_EQ(m->getFunction("f")->blocks().size(), 4U);
}

TEST(LoopUnroll, TripCountCapIsRespected) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @work(i64)
define void @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 1000000
  br i1 %c, label %body, label %exit
body:
  call void @work(i64 %i)
  %next = add i64 %i, 1
  br label %header
exit:
  ret void
}
)");
  PassManager pm;
  pm.add(createLoopUnrollPass(/*maxTripCount=*/100));
  EXPECT_FALSE(pm.run(*m)); // 1M trips > cap: refuse
}

TEST(LoopUnroll, MultiBlockBodyWithInternalBranch) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @even(i64)
declare void @odd(i64)
define void @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %latch ]
  %c = icmp slt i64 %i, 6
  br i1 %c, label %body, label %exit
body:
  %bit = and i64 %i, 1
  %iseven = icmp eq i64 %bit, 0
  br i1 %iseven, label %ev, label %od
ev:
  call void @even(i64 %i)
  br label %latch
od:
  call void @odd(i64 %i)
  br label %latch
latch:
  %next = add i64 %i, 1
  br label %header
exit:
  ret void
}
)");
  runFullPipeline(*m);
  const Function* f = m->getFunction("f");
  EXPECT_EQ(countCalls(*f, "even"), 3U);
  EXPECT_EQ(countCalls(*f, "odd"), 3U);
}

/// Two nested counted loops; the inner body calls @work(i, j).
constexpr const char* kNestedLoops = R"(
declare void @work(i64, i64)
define void @f() {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i.next, %outer.latch ]
  %ci = icmp slt i64 %i, 4
  br i1 %ci, label %inner, label %exit
inner:
  %j = phi i64 [ 0, %outer ], [ %j.next, %inner.body ]
  %cj = icmp slt i64 %j, 3
  br i1 %cj, label %inner.body, label %outer.latch
inner.body:
  call void @work(i64 %i, i64 %j)
  %j.next = add i64 %j, 1
  br label %inner
outer.latch:
  %i.next = add i64 %i, 1
  br label %outer
exit:
  ret void
}
)";

/// One invocation unrolls one nesting level: the outer loop, which held a
/// loop when the pass started, stays rolled until the next sweep, so the
/// pipeline cleans the inner copies before the outer body is cloned.
TEST(LoopUnroll, OneRunUnrollsOneNestingLevel) {
  Context ctx;
  auto m = parse(ctx, kNestedLoops);
  PassManager pm;
  pm.add(createLoopUnrollPass());
  pm.setVerifyEach(true);
  EXPECT_TRUE(pm.run(*m));
  Function* f = m->getFunction("f");
  const std::vector<Loop> loops = findNaturalLoops(*f);
  ASSERT_EQ(loops.size(), 1U);
  EXPECT_EQ(loops[0].header->name(), "outer");
  EXPECT_EQ(countCalls(*f, "work"), 3U);

  runFullPipeline(*m);
  EXPECT_TRUE(findNaturalLoops(*f).empty());
  EXPECT_EQ(countCalls(*f, "work"), 12U);
  EXPECT_EQ(f->blocks().size(), 1U);
}

/// A counted loop of \p trips iterations whose body calls @work.
std::string countedLoop(unsigned trips) {
  return R"(
declare void @work(i64)
define void @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, )" +
         std::to_string(trips) + R"(
  br i1 %c, label %body, label %exit
body:
  call void @work(i64 %i)
  %next = add i64 %i, 1
  br label %header
exit:
  ret void
}
)";
}

/// The unroller bounds the size of its result, not only the trip count:
/// 5 non-phi instructions per iteration fit kMaxExpandedModuleSize at
/// 4096 trips and do not at 8192, where the loop stays a loop.
TEST(LoopUnroll, RefusesAnUnrollPastTheSizeBudget) {
  static_assert(kMaxExpandedModuleSize == 1 << 15);
  Context ctx;
  auto fits = parse(ctx, countedLoop(4096));
  runFullPipeline(*fits);
  EXPECT_EQ(countCalls(*fits->getFunction("f"), "work"), 4096U);
  EXPECT_LE(fits->instructionCount(), kMaxExpandedModuleSize);

  auto tooLarge = parse(ctx, countedLoop(8192));
  PassManager pm;
  pm.add(createLoopUnrollPass());
  EXPECT_FALSE(pm.run(*tooLarge));
  runFullPipeline(*tooLarge);
  EXPECT_EQ(findNaturalLoops(*tooLarge->getFunction("f")).size(), 1U);
  EXPECT_EQ(countCalls(*tooLarge->getFunction("f"), "work"), 1U);
}

/// The budget holds for the module, not per function: of two functions
/// whose loops fit one at a time (6000 x 5 instructions), only one
/// unrolls, so repeating a loop in many functions cannot multiply the
/// expansion.
TEST(LoopUnroll, TheSizeBudgetSpansTheModule) {
  std::string second = countedLoop(6000);
  second.erase(0, second.find("define")); // @work is declared once
  second.replace(second.find("@f"), 2, "@g");
  Context ctx;
  auto m = parse(ctx, countedLoop(6000) + second);
  runFullPipeline(*m);
  EXPECT_EQ(countCalls(*m->getFunction("f"), "work") +
                countCalls(*m->getFunction("g"), "work"),
            6000U + 1U);
  EXPECT_LE(m->instructionCount(), kMaxExpandedModuleSize);
}

} // namespace
} // namespace qirkit::passes
