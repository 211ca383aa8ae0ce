#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "passes/folding.hpp"
#include "passes/pass.hpp"

#include "support/source_location.hpp"
#include "support/telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace qirkit::passes {
namespace {

using namespace qirkit::ir;

std::unique_ptr<Module> parse(Context& ctx, std::string_view text) {
  auto m = parseModule(ctx, text);
  verifyModuleOrThrow(*m);
  return m;
}

void runPass(std::unique_ptr<FunctionPass> pass, Module& m, bool expectChange = true) {
  PassManager pm;
  pm.add(std::move(pass));
  pm.setVerifyEach(true);
  EXPECT_EQ(pm.run(m), expectChange);
}

// --- folding ------------------------------------------------------------

TEST(Folding, IntArithmeticRespectsWidth) {
  std::int64_t r = 0;
  ASSERT_TRUE(evalIntBinOp(Opcode::Add, 8, 127, 1, r));
  EXPECT_EQ(r, -128); // i8 wraparound
  ASSERT_TRUE(evalIntBinOp(Opcode::Mul, 64, 1'000'000'007, 1'000'000'007, r));
  ASSERT_TRUE(evalIntBinOp(Opcode::LShr, 8, -1, 4, r));
  EXPECT_EQ(r, 0x0F);
  ASSERT_TRUE(evalIntBinOp(Opcode::AShr, 8, -16, 2, r));
  EXPECT_EQ(r, -4);
}

TEST(Folding, DivisionByZeroRefusesToFold) {
  std::int64_t r = 0;
  EXPECT_FALSE(evalIntBinOp(Opcode::SDiv, 32, 5, 0, r));
  EXPECT_FALSE(evalIntBinOp(Opcode::URem, 32, 5, 0, r));
  EXPECT_FALSE(evalIntBinOp(Opcode::Shl, 32, 1, 40, r)); // oversized shift
}

TEST(Folding, SDivOverflowRefusesToFold) {
  std::int64_t r = 0;
  EXPECT_FALSE(evalIntBinOp(Opcode::SDiv, 8, -128, -1, r));
}

TEST(Folding, ICmpSignedVsUnsigned) {
  EXPECT_TRUE(evalICmp(ICmpPred::SLT, 8, -1, 0));
  EXPECT_FALSE(evalICmp(ICmpPred::ULT, 8, -1, 0)); // 255 < 0 unsigned: no
  EXPECT_TRUE(evalICmp(ICmpPred::UGE, 8, -1, 200));
  EXPECT_TRUE(evalICmp(ICmpPred::EQ, 32, 7, 7));
}

TEST(Folding, InstructionFoldingAlgebraicIdentities) {
  Context ctx;
  Module m(ctx, "t");
  Function* f = m.createFunction("f", ctx.functionTy(ctx.i64(), {ctx.i64()}));
  IRBuilder b(f->createBlock("entry"));
  Value* x = f->arg(0);
  x->setName("x");

  EXPECT_EQ(foldInstruction(ctx, *b.createAdd(x, ctx.getI64(0))), x);
  EXPECT_EQ(foldInstruction(ctx, *b.createMul(x, ctx.getI64(1))), x);
  EXPECT_EQ(foldInstruction(ctx, *b.createMul(x, ctx.getI64(0))), ctx.getI64(0));
  EXPECT_EQ(foldInstruction(ctx, *b.createSub(x, x)), ctx.getI64(0));
  EXPECT_EQ(foldInstruction(ctx, *b.createBinOp(Opcode::Xor, x, x)), ctx.getI64(0));
  EXPECT_EQ(foldInstruction(ctx, *b.createBinOp(Opcode::Or, x, x)), x);
  EXPECT_EQ(foldInstruction(ctx, *b.createAdd(x, x)), nullptr); // not foldable
}

TEST(Folding, PointerComparisonsOfStaticAddresses) {
  Context ctx;
  Module m(ctx, "t");
  Function* f = m.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  IRBuilder b(f->createBlock("entry"));
  Instruction* cmp =
      b.createICmp(ICmpPred::EQ, ctx.getNullPtr(), ctx.getIntToPtr(0));
  EXPECT_EQ(foldInstruction(ctx, *cmp), ctx.getI1(true));
  Instruction* cmp2 =
      b.createICmp(ICmpPred::NE, ctx.getIntToPtr(1), ctx.getIntToPtr(2));
  EXPECT_EQ(foldInstruction(ctx, *cmp2), ctx.getI1(true));
}

// --- constant folding pass ----------------------------------------------

TEST(ConstantFoldPass, FoldsChainsToConstants) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
  %a = add i64 2, 3
  %b = mul i64 %a, 4
  %c = sub i64 %b, 5
  ret i64 %c
}
)");
  runPass(createConstantFoldPass(), *m);
  const Function* f = m->getFunction("f");
  EXPECT_EQ(f->instructionCount(), 1U); // only ret left
  const Instruction* ret = f->entry()->back();
  const auto* c = dynamic_cast<const ConstantInt*>(ret->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 15);
}

TEST(ConstantFoldPass, FoldsCastsAndSelect) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
  %t = trunc i64 300 to i8
  %z = sext i8 %t to i64
  %c = icmp slt i64 %z, 0
  %s = select i1 %c, i64 1, i64 2
  ret i64 %s
}
)");
  runPass(createConstantFoldPass(), *m);
  const Instruction* ret = m->getFunction("f")->entry()->back();
  const auto* c = dynamic_cast<const ConstantInt*>(ret->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 2); // 300 -> i8 44 -> 44 >= 0
}

/// What each cast folds to: LLVM's value where LLVM defines one, else
/// saturation (NaN gives 0). The engines evaluate through the same
/// evalCast, so these are their answers too.
TEST(Folding, CastsComputeLlvmValuesAndSaturate) {
  struct Case {
    const char* cast; // `<op> <from> <constant> to <to>`
    const char* expected;
  };
  const Case cases[] = {
      {"zext i1 true to i64", "i64 1"},
      {"sext i1 true to i64", "i64 -1"},
      {"zext i8 -1 to i32", "i32 255"},
      {"trunc i64 40000 to i8", "i8 64"},
      {"uitofp i8 -1 to double", "double 255.0"},
      {"uitofp i1 true to double", "double 1.0"},
      {"sitofp i8 -128 to double", "double -128.0"},
      {"inttoptr i32 -1 to ptr", "ptr inttoptr (i64 4294967295 to ptr)"},
      {"ptrtoint ptr inttoptr (i64 4294967297 to ptr) to i32", "i32 1"},
      {"fptosi double -2.9 to i8", "i8 -2"},
      {"fptosi double 300.0 to i8", "i8 127"},
      {"fptosi double -300.0 to i8", "i8 -128"},
      {"fptosi double 3.84e304 to i64", "i64 9223372036854775807"},
      {"fptosi double 0x7FF8000000000000 to i32", "i32 0"},
      {"fptosi double 1.0 to i1", "i1 false"},
      {"fptoui double 255.9 to i8", "i8 -1"},
      {"fptoui double 256.0 to i8", "i8 -1"},
      {"fptoui double -1.0 to i64", "i64 0"},
      {"fptoui double -0.5 to i64", "i64 0"},
      {"fptoui double 0x7FF0000000000000 to i64", "i64 -1"},
  };
  for (const Case& c : cases) {
    Context ctx;
    const std::string text = std::string(c.cast);
    const std::string to = text.substr(text.rfind(" to ") + 4);
    auto m = parse(ctx, "define " + to + " @f() {\n  %r = " + text + "\n  ret " + to +
                            " %r\n}\n");
    runPass(createConstantFoldPass(), *m);
    const std::string printed = printModule(*m);
    EXPECT_NE(printed.find("ret " + std::string(c.expected) + "\n"), std::string::npos)
        << c.cast << " folds to\n"
        << printed;
  }
}

// --- DCE ---------------------------------------------------------------

TEST(DCEPass, RemovesDeadChains) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
define void @f() {
  %dead1 = add i64 1, 2
  %dead2 = mul i64 %dead1, 3
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
)");
  runPass(createDCEPass(), *m);
  EXPECT_EQ(m->getFunction("f")->instructionCount(), 2U); // call + ret
}

TEST(DCEPass, KeepsSideEffectsAndUsedValues) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
  %used = add i64 1, 2
  %slot = alloca i64, align 8
  store i64 %used, ptr %slot, align 8
  %v = load i64, ptr %slot, align 8
  ret i64 %v
}
)");
  runPass(createDCEPass(), *m, /*expectChange=*/false);
  EXPECT_EQ(m->getFunction("f")->instructionCount(), 5U);
}

TEST(DCEPass, KeepsInstructionsThatMayTrap) {
  Context ctx;
  auto m = parse(ctx, R"(
define void @f(i64 %z, i64 %s) {
  %div = sdiv i64 1, %z
  %rem = urem i64 1, 0
  %shl = shl i64 1, %s
  %wide = lshr i64 1, 64
  %safeDiv = sdiv i64 %z, 7
  %safeShift = ashr i64 %z, 63
  ret void
}
)");
  runPass(createDCEPass(), *m);
  std::vector<Opcode> kept;
  for (const auto& inst : m->getFunction("f")->entry()->instructions()) {
    kept.push_back(inst->op());
  }
  EXPECT_EQ(kept, (std::vector<Opcode>{Opcode::SDiv, Opcode::URem, Opcode::Shl,
                                       Opcode::LShr, Opcode::Ret}));
}

/// Optimizing must not turn a trap into a normal run: every pass that
/// deletes unused instructions keeps the ones that may trap.
TEST(Pipeline, FullPipelineKeepsRunTimeTraps) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @sink(i64)
define void @main(i64 %z) {
entry:
  %zero = sub i64 %z, %z
  %dead = sdiv i64 1, %zero
  %unused = udiv i64 %z, %z
  %shift = add i64 %z, 64
  %wide = shl i64 1, %shift
  %fine = sdiv i64 %z, 4
  call void @sink(i64 %z)
  ret void
}
)");
  PassManager pm;
  addFullPipeline(pm);
  pm.setVerifyEach(true);
  pm.runToFixpoint(*m);
  std::vector<Opcode> kept;
  for (const auto& inst : m->getFunction("main")->entry()->instructions()) {
    kept.push_back(inst->op());
  }
  // %zero folds to 0, so `sdiv 1, 0` is a trap every run; it stays.
  EXPECT_EQ(kept, (std::vector<Opcode>{Opcode::SDiv, Opcode::UDiv, Opcode::Add,
                                       Opcode::Shl, Opcode::Call, Opcode::Ret}));
}

// --- SimplifyCFG ----------------------------------------------------------

TEST(SimplifyCFG, FoldsConstantBranchAndRemovesDeadBlock) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
entry:
  br i1 true, label %a, label %b
a:
  ret i64 1
b:
  ret i64 2
}
)");
  runPass(createSimplifyCFGPass(), *m);
  const Function* f = m->getFunction("f");
  EXPECT_EQ(f->blocks().size(), 1U); // entry+a merged, b deleted
  const auto* c =
      dynamic_cast<const ConstantInt*>(f->entry()->back()->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 1);
}

TEST(SimplifyCFG, FixesPhisWhenEdgeRemoved) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
entry:
  br i1 false, label %a, label %join
a:
  br label %join
join:
  %p = phi i64 [ 1, %a ], [ 2, %entry ]
  ret i64 %p
}
)");
  runPass(createSimplifyCFGPass(), *m);
  const Function* f = m->getFunction("f");
  const auto* c =
      dynamic_cast<const ConstantInt*>(f->entry()->back()->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 2);
}

TEST(SimplifyCFG, FoldsConstantSwitch) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
entry:
  switch i64 20, label %other [
    i64 10, label %ten
    i64 20, label %twenty
  ]
ten:
  ret i64 1
twenty:
  ret i64 2
other:
  ret i64 3
}
)");
  runPass(createSimplifyCFGPass(), *m);
  const Function* f = m->getFunction("f");
  EXPECT_EQ(f->blocks().size(), 1U);
  const auto* c =
      dynamic_cast<const ConstantInt*>(f->entry()->back()->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 2);
}

TEST(SimplifyCFG, MergesStraightLineChains) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
entry:
  br label %a
a:
  %x = add i64 1, 2
  br label %b
b:
  ret i64 %x
}
)");
  runPass(createSimplifyCFGPass(), *m);
  EXPECT_EQ(m->getFunction("f")->blocks().size(), 1U);
}

std::vector<std::string> blockNames(const Function& f) {
  std::vector<std::string> names;
  for (const auto& block : f.blocks()) {
    names.push_back(block->name());
  }
  return names;
}

TEST(SimplifyCFG, LongChainLaidOutBackwardsBecomesOneBlockInOneRun) {
  // The shape of a fully unrolled loop, laid out last link first: each
  // block absorbs the rest of its chain in place, whatever the order.
  constexpr int kLinks = 1000;
  std::string text = "define i64 @f(i64 %v0) {\nentry:\n  br label %b1\n";
  for (int k = kLinks; k >= 1; --k) {
    text += "b" + std::to_string(k) + ":\n  %v" + std::to_string(k) +
            " = add i64 %v" + std::to_string(k - 1) + ", 1\n";
    text += k == kLinks ? "  ret i64 %v" + std::to_string(k) + "\n"
                        : "  br label %b" + std::to_string(k + 1) + "\n";
  }
  text += "}\n";
  Context ctx;
  auto m = parse(ctx, text);
  Function& f = *m->getFunction("f");
  const auto pass = createSimplifyCFGPass();
  EXPECT_TRUE(pass->run(f));
  ASSERT_EQ(blockNames(f), std::vector<std::string>{"entry"});
  const auto& insts = f.entry()->instructions();
  ASSERT_EQ(insts.size(), static_cast<std::size_t>(kLinks) + 1);
  const Value* previous = f.arg(0);
  for (int k = 0; k < kLinks; ++k) {
    EXPECT_EQ(insts[k]->op(), Opcode::Add);
    EXPECT_EQ(insts[k]->operand(0), previous) << "link " << k + 1;
    previous = insts[k].get();
  }
  EXPECT_EQ(insts.back()->op(), Opcode::Ret);
  EXPECT_EQ(insts.back()->operand(0), previous);
  EXPECT_FALSE(pass->run(f)); // nothing left for a second run
  verifyModuleOrThrow(*m);
}

TEST(SimplifyCFG, ChainStopsAtABlockWithTwoPredecessors) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %a2
a2:
  br label %join
b:
  br label %join
join:
  br label %tail
tail:
  ret i64 0
}
)");
  runPass(createSimplifyCFGPass(), *m);
  const Function& f = *m->getFunction("f");
  EXPECT_EQ(blockNames(f), (std::vector<std::string>{"entry", "a", "b", "join"}));
  EXPECT_EQ(f.blocks()[3]->terminator()->op(), Opcode::Ret);
}

TEST(SimplifyCFG, ChainThatClosesIntoASelfLoopStopsThere) {
  // a absorbs b, whose branch back to a then makes a its own successor.
  Context ctx;
  auto m = parse(ctx, R"(
define void @f() {
entry:
  br label %a
a:
  %x = add i64 1, 2
  br label %b
b:
  %y = add i64 %x, 3
  br label %a
}
)");
  runPass(createSimplifyCFGPass(), *m);
  const Function& f = *m->getFunction("f");
  ASSERT_EQ(blockNames(f), (std::vector<std::string>{"entry", "a"}));
  const BasicBlock* a = f.blocks()[1].get();
  EXPECT_EQ(a->size(), 3U);
  EXPECT_EQ(a->terminator()->successor(0), a);
}

TEST(SimplifyCFG, NeverMergesTheEntryBlockIntoItsPredecessor) {
  // The verifier rejects a branch to the entry block; the pass must still
  // keep the entry first and in place when handed one.
  Context ctx;
  auto m = parseModule(ctx, R"(
define void @f(i1 %c) {
entry:
  br i1 %c, label %back, label %exit
back:
  br label %entry
exit:
  ret void
}
)");
  Function& f = *m->getFunction("f");
  EXPECT_FALSE(createSimplifyCFGPass()->run(f));
  EXPECT_EQ(blockNames(f), (std::vector<std::string>{"entry", "back", "exit"}));
}

TEST(SimplifyCFG, SuccessorWithPhisMergesOnceSimplifyPhisHasReducedThem) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f(i64 %n) {
entry:
  br label %a
a:
  %p = phi i64 [ %n, %entry ]
  %q = add i64 %p, 1
  br label %b
b:
  %r = phi i64 [ %q, %a ]
  ret i64 %r
}
)");
  runPass(createSimplifyCFGPass(), *m);
  const Function& f = *m->getFunction("f");
  ASSERT_EQ(blockNames(f), std::vector<std::string>{"entry"});
  const auto& insts = f.entry()->instructions();
  ASSERT_EQ(insts.size(), 2U);
  EXPECT_EQ(insts[0]->op(), Opcode::Add);
  EXPECT_EQ(insts[0]->operand(0), f.arg(0));
  EXPECT_EQ(insts[1]->operand(0), insts[0].get());
}

// --- mem2reg ----------------------------------------------------------------

TEST(Mem2Reg, PromotesSimpleSlot) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
  %slot = alloca i64, align 8
  store i64 42, ptr %slot, align 8
  %v = load i64, ptr %slot, align 8
  ret i64 %v
}
)");
  runPass(createMem2RegPass(), *m);
  const Function* f = m->getFunction("f");
  EXPECT_EQ(f->instructionCount(), 1U);
  const auto* c =
      dynamic_cast<const ConstantInt*>(f->entry()->back()->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 42);
}

TEST(Mem2Reg, InsertsPhiAtJoin) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f(i1 %c) {
entry:
  %slot = alloca i64, align 8
  store i64 1, ptr %slot, align 8
  br i1 %c, label %then, label %join
then:
  store i64 2, ptr %slot, align 8
  br label %join
join:
  %v = load i64, ptr %slot, align 8
  ret i64 %v
}
)");
  runPass(createMem2RegPass(), *m);
  const Function* f = m->getFunction("f");
  // No memory ops left; a phi appears in join.
  for (const auto& block : f->blocks()) {
    for (const auto& inst : block->instructions()) {
      EXPECT_NE(inst->op(), Opcode::Alloca);
      EXPECT_NE(inst->op(), Opcode::Load);
      EXPECT_NE(inst->op(), Opcode::Store);
    }
  }
  EXPECT_FALSE(f->blocks()[2]->phis().empty());
}

TEST(Mem2Reg, DoesNotPromoteEscapingSlot) {
  Context ctx;
  auto m = parse(ctx, R"(
declare void @use(ptr)
define i64 @f() {
  %slot = alloca i64, align 8
  store i64 42, ptr %slot, align 8
  call void @use(ptr %slot)
  %v = load i64, ptr %slot, align 8
  ret i64 %v
}
)");
  runPass(createMem2RegPass(), *m, /*expectChange=*/false);
  EXPECT_EQ(m->getFunction("f")->instructionCount(), 5U);
}

TEST(Mem2Reg, PromotesLoopCounter) {
  Context ctx;
  auto m = parse(ctx, R"(
define i32 @f() {
entry:
  %i = alloca i32, align 4
  store i32 0, ptr %i, align 4
  br label %header
header:
  %1 = load i32, ptr %i, align 4
  %cond = icmp slt i32 %1, 10
  br i1 %cond, label %body, label %exit
body:
  %2 = load i32, ptr %i, align 4
  %3 = add i32 %2, 1
  store i32 %3, ptr %i, align 4
  br label %header
exit:
  %r = load i32, ptr %i, align 4
  ret i32 %r
}
)");
  runPass(createMem2RegPass(), *m);
  const Function* f = m->getFunction("f");
  // The loop counter becomes a phi in the header.
  EXPECT_FALSE(f->blocks()[1]->phis().empty());
  for (const auto& block : f->blocks()) {
    for (const auto& inst : block->instructions()) {
      EXPECT_NE(inst->op(), Opcode::Load);
    }
  }
}

// --- SCCP ---------------------------------------------------------------

TEST(SCCP, PropagatesThroughBranches) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
entry:
  %x = add i64 1, 1
  %c = icmp eq i64 %x, 2
  br i1 %c, label %then, label %else
then:
  br label %join
else:
  br label %join
join:
  %p = phi i64 [ 10, %then ], [ 20, %else ]
  ret i64 %p
}
)");
  PassManager pm;
  pm.add(createSCCPPass());
  pm.add(createSimplifyCFGPass());
  pm.setVerifyEach(true);
  pm.runToFixpoint(*m);
  const Function* f = m->getFunction("f");
  EXPECT_EQ(f->blocks().size(), 1U);
  const auto* c =
      dynamic_cast<const ConstantInt*>(f->entry()->back()->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 10);
}

TEST(SCCP, LeavesOverdefinedAlone) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f(i64 %n) {
entry:
  %x = add i64 %n, 1
  ret i64 %x
}
)");
  runPass(createSCCPPass(), *m, /*expectChange=*/false);
  EXPECT_EQ(m->getFunction("f")->instructionCount(), 2U);
}

TEST(SCCP, SolvesLoopInvariantExit) {
  // SCCP proves the loop executes with a constant bound and the exit value
  // is the phi meet; the loop itself stays (SCCP does not delete cycles).
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
entry:
  br label %header
header:
  %flag = phi i64 [ 7, %entry ], [ %flag, %body ]
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 3
  br i1 %c, label %body, label %exit
body:
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %flag
}
)");
  runPass(createSCCPPass(), *m);
  const Instruction* ret = m->getFunction("f")->blocks().back()->back();
  const auto* c = dynamic_cast<const ConstantInt*>(ret->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 7);
}

TEST(SCCP, FoldsACastCycleThroughTheSharedFolder) {
  // The fp round trip of a loop-carried value is the identity on 5, as
  // `add %x, 0` is; SCCP folds both through foldInstruction.
  for (const char* body : {"%f = sitofp i64 %x to double\n  %y = fptosi double %f to i64",
                           "%f = add i64 %x, 0\n  %y = mul i64 %f, 1"}) {
    Context ctx;
    auto m = parse(ctx, std::string(R"(
define i64 @f() {
entry:
  br label %loop
loop:
  %x = phi i64 [ 5, %entry ], [ %y, %loop ]
  %n = phi i64 [ 0, %entry ], [ %n.next, %loop ]
  )") + body + R"(
  %n.next = add i64 %n, 1
  %c = icmp slt i64 %n.next, 100000000
  br i1 %c, label %loop, label %done
done:
  ret i64 %y
}
)");
    runPass(createSCCPPass(), *m);
    const Instruction* ret = m->getFunction("f")->blocks().back()->back();
    const auto* c = dynamic_cast<const ConstantInt*>(ret->operand(0));
    ASSERT_NE(c, nullptr) << body;
    EXPECT_EQ(c->value(), 5) << body;
  }
}

// --- whole pipeline ------------------------------------------------------

TEST(Pipeline, StandardPipelineReducesLoadStoreBranchProgram) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
entry:
  %a = alloca i64, align 8
  store i64 5, ptr %a, align 8
  %v = load i64, ptr %a, align 8
  %c = icmp sgt i64 %v, 3
  br i1 %c, label %big, label %small
big:
  ret i64 100
small:
  ret i64 0
}
)");
  PassManager pm;
  addStandardPipeline(pm);
  pm.setVerifyEach(true);
  pm.runToFixpoint(*m);
  const Function* f = m->getFunction("f");
  EXPECT_EQ(f->blocks().size(), 1U);
  EXPECT_EQ(f->instructionCount(), 1U);
  const auto* c =
      dynamic_cast<const ConstantInt*>(f->entry()->back()->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 100);
}

TEST(Pipeline, StatisticsAreRecorded) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f() {
  %x = add i64 1, 2
  ret i64 %x
}
)");
  PassManager pm;
  addStandardPipeline(pm);
  telemetry::setEnabled(true);
  telemetry::resetAll();
  pm.run(*m);
  const std::vector<telemetry::PassRecord> records = telemetry::passRecords();
  telemetry::resetAll();
  telemetry::setEnabled(false);
  EXPECT_FALSE(records.empty());
  EXPECT_TRUE(std::any_of(records.begin(), records.end(), [](const auto& r) {
    return r.name == "constant-fold" && r.invocations == 1;
  }));
}

} // namespace
} // namespace qirkit::passes
