#include "ir/builder.hpp"
#include "ir/constant.hpp"
#include "ir/context.hpp"
#include "ir/module.hpp"
#include "ir/parser.hpp"
#include "support/source_location.hpp"

#include <gtest/gtest.h>

namespace qirkit::ir {
namespace {

class IRCoreTest : public ::testing::Test {
protected:
  Context ctx;
  Module module{ctx, "test"};
};

TEST_F(IRCoreTest, TypesAreInterned) {
  EXPECT_EQ(ctx.i64(), ctx.intTy(64));
  EXPECT_EQ(ctx.i1(), ctx.intTy(1));
  EXPECT_NE(ctx.i1(), ctx.i64());
  EXPECT_EQ(ctx.arrayTy(ctx.i8(), 3), ctx.arrayTy(ctx.i8(), 3));
  EXPECT_NE(ctx.arrayTy(ctx.i8(), 3), ctx.arrayTy(ctx.i8(), 4));
  EXPECT_EQ(ctx.functionTy(ctx.voidTy(), {ctx.ptrTy()}),
            ctx.functionTy(ctx.voidTy(), {ctx.ptrTy()}));
}

TEST_F(IRCoreTest, TypePrinting) {
  EXPECT_EQ(ctx.i64()->str(), "i64");
  EXPECT_EQ(ctx.ptrTy()->str(), "ptr");
  EXPECT_EQ(ctx.voidTy()->str(), "void");
  EXPECT_EQ(ctx.doubleTy()->str(), "double");
  EXPECT_EQ(ctx.arrayTy(ctx.i8(), 3)->str(), "[3 x i8]");
  EXPECT_EQ(ctx.functionTy(ctx.ptrTy(), {ctx.i32(), ctx.i64()})->str(),
            "ptr (i32, i64)");
}

TEST_F(IRCoreTest, StoreSizes) {
  EXPECT_EQ(ctx.i1()->storeSize(), 1U);
  EXPECT_EQ(ctx.i32()->storeSize(), 4U);
  EXPECT_EQ(ctx.i64()->storeSize(), 8U);
  EXPECT_EQ(ctx.ptrTy()->storeSize(), 8U);
  EXPECT_EQ(ctx.doubleTy()->storeSize(), 8U);
  EXPECT_EQ(ctx.arrayTy(ctx.i8(), 5)->storeSize(), 5U);
}

TEST_F(IRCoreTest, ConstantsAreUniqued) {
  EXPECT_EQ(ctx.getI64(7), ctx.getI64(7));
  EXPECT_NE(ctx.getI64(7), ctx.getI64(8));
  EXPECT_NE(ctx.getI64(7), ctx.getInt(32, 7));
  EXPECT_EQ(ctx.getDouble(1.5), ctx.getDouble(1.5));
  EXPECT_EQ(ctx.getNullPtr(), ctx.getNullPtr());
  EXPECT_EQ(ctx.getIntToPtr(3), ctx.getIntToPtr(3));
}

TEST_F(IRCoreTest, IntegerConstantsAreCanonicalizedToWidth) {
  // 255 as i8 is -1.
  EXPECT_EQ(ctx.getInt(8, 255), ctx.getInt(8, -1));
  EXPECT_EQ(ctx.getInt(8, 255)->value(), -1);
  EXPECT_EQ(ctx.getInt(8, 255)->zextValue(), 255U);
  EXPECT_EQ(ctx.getI1(true)->value(), -1); // i1 1 sign-extends to -1
  EXPECT_EQ(ctx.getI1(true)->zextValue(), 1U);
}

TEST_F(IRCoreTest, StaticPointerAddressDetection) {
  std::uint64_t address = 123;
  EXPECT_TRUE(getStaticPointerAddress(ctx.getNullPtr(), address));
  EXPECT_EQ(address, 0U);
  EXPECT_TRUE(getStaticPointerAddress(ctx.getIntToPtr(5), address));
  EXPECT_EQ(address, 5U);
  EXPECT_FALSE(getStaticPointerAddress(ctx.getI64(5), address));
}

TEST_F(IRCoreTest, UseListsTrackOperands) {
  Function* fn = module.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  BasicBlock* bb = fn->createBlock("entry");
  IRBuilder b(bb);
  Instruction* x = b.createAdd(ctx.getI64(1), ctx.getI64(2), "x");
  Instruction* y = b.createAdd(x, x, "y");
  EXPECT_EQ(x->numUses(), 2U);
  EXPECT_EQ(y->numUses(), 0U);
  EXPECT_EQ(y->operand(0), x);
}

TEST_F(IRCoreTest, ReplaceAllUsesWithRewritesEveryUse) {
  Function* fn = module.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  BasicBlock* bb = fn->createBlock("entry");
  IRBuilder b(bb);
  Instruction* x = b.createAdd(ctx.getI64(1), ctx.getI64(2), "x");
  Instruction* y = b.createAdd(x, x, "y");
  Instruction* z = b.createMul(x, y, "z");
  x->replaceAllUsesWith(ctx.getI64(3));
  EXPECT_FALSE(x->hasUses());
  EXPECT_EQ(y->operand(0), ctx.getI64(3));
  EXPECT_EQ(y->operand(1), ctx.getI64(3));
  EXPECT_EQ(z->operand(0), ctx.getI64(3));
  EXPECT_EQ(z->operand(1), y);
}

TEST_F(IRCoreTest, EraseInstructionDropsOperandsFromUseLists) {
  Function* fn = module.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  BasicBlock* bb = fn->createBlock("entry");
  IRBuilder b(bb);
  Instruction* x = b.createAdd(ctx.getI64(1), ctx.getI64(2), "x");
  Instruction* y = b.createAdd(x, ctx.getI64(1), "y");
  EXPECT_EQ(x->numUses(), 1U);
  y->eraseFromParent();
  EXPECT_EQ(x->numUses(), 0U);
  EXPECT_EQ(bb->size(), 1U);
}

TEST_F(IRCoreTest, BlocksAsOperandsGivePredecessors) {
  Function* fn = module.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  BasicBlock* entry = fn->createBlock("entry");
  BasicBlock* a = fn->createBlock("a");
  BasicBlock* b2 = fn->createBlock("b");
  IRBuilder b(entry);
  b.createCondBr(ctx.getI1(true), a, b2);
  b.setInsertPoint(a);
  b.createBr(b2);
  b.setInsertPoint(b2);
  b.createRetVoid();

  const auto preds = b2->predecessors();
  EXPECT_EQ(preds.size(), 2U);
  EXPECT_TRUE(b2->hasPredecessor(entry));
  EXPECT_TRUE(b2->hasPredecessor(a));
  EXPECT_FALSE(entry->hasPredecessor(a));
  EXPECT_EQ(entry->successors().size(), 2U);
}

TEST_F(IRCoreTest, PhiIncomingManagement) {
  Function* fn = module.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  BasicBlock* a = fn->createBlock("a");
  BasicBlock* b2 = fn->createBlock("b");
  BasicBlock* join = fn->createBlock("join");
  IRBuilder b(join);
  Instruction* phi = b.createPhi(ctx.i64(), "p");
  phi->addIncoming(ctx.getI64(1), a);
  phi->addIncoming(ctx.getI64(2), b2);
  EXPECT_EQ(phi->numIncoming(), 2U);
  EXPECT_EQ(phi->incomingValueFor(a), ctx.getI64(1));
  EXPECT_EQ(phi->incomingValueFor(b2), ctx.getI64(2));
  phi->removeIncoming(a);
  EXPECT_EQ(phi->numIncoming(), 1U);
  EXPECT_EQ(phi->incomingValueFor(a), nullptr);
}

TEST_F(IRCoreTest, SwitchAccessors) {
  Function* fn = module.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  BasicBlock* entry = fn->createBlock("entry");
  BasicBlock* d = fn->createBlock("default");
  BasicBlock* c1 = fn->createBlock("case1");
  IRBuilder b(entry);
  Instruction* sw = b.createSwitch(ctx.getI64(1), d);
  sw->addOperand(ctx.getI64(1));
  sw->addOperand(c1);
  EXPECT_EQ(sw->numSwitchCases(), 1U);
  EXPECT_EQ(sw->numSuccessors(), 2U);
  EXPECT_EQ(sw->successor(0), d);
  EXPECT_EQ(sw->successor(1), c1);
  EXPECT_EQ(sw->switchCaseValue(0)->value(), 1);
}

TEST_F(IRCoreTest, FunctionAttributesAndEntryPoint) {
  Function* fn = module.createFunction("main", ctx.functionTy(ctx.voidTy(), {}));
  EXPECT_EQ(module.entryPoint(), nullptr);
  fn->setAttribute("entry_point");
  fn->setAttribute("required_num_qubits", "4");
  EXPECT_EQ(module.entryPoint(), fn);
  EXPECT_TRUE(fn->hasAttribute("entry_point"));
  EXPECT_EQ(fn->getAttribute("required_num_qubits"), "4");
  EXPECT_EQ(fn->getAttribute("missing"), "");
}

TEST_F(IRCoreTest, GetOrInsertFunctionChecksType) {
  const Type* t1 = ctx.functionTy(ctx.voidTy(), {ctx.ptrTy()});
  Function* f1 = module.getOrInsertFunction("g", t1);
  EXPECT_EQ(module.getOrInsertFunction("g", t1), f1);
  EXPECT_THROW((void)module.getOrInsertFunction("g", ctx.functionTy(ctx.i64(), {})),
               qirkit::SemanticError);
}

TEST_F(IRCoreTest, DuplicateFunctionNameThrows) {
  (void)module.createFunction("dup", ctx.functionTy(ctx.voidTy(), {}));
  EXPECT_THROW((void)module.createFunction("dup", ctx.functionTy(ctx.voidTy(), {})),
               qirkit::SemanticError);
}

TEST_F(IRCoreTest, GlobalStrings) {
  GlobalVariable* g = module.createGlobalString("lbl", std::string("r0\0", 3));
  EXPECT_EQ(module.getGlobal("lbl"), g);
  EXPECT_EQ(g->initializer().size(), 3U);
  EXPECT_TRUE(g->valueType()->isArray());
  EXPECT_EQ(g->valueType()->arrayCount(), 3U);
  EXPECT_TRUE(g->type()->isPointer());
  EXPECT_THROW((void)module.createGlobalString("lbl", "x"), qirkit::SemanticError);
}

TEST_F(IRCoreTest, SymbolLookupFollowsCreateAndErase) {
  const Type* voidFn = ctx.functionTy(ctx.voidTy(), {});
  Function* a = module.createFunction("a", voidFn);
  Function* b = module.createFunction("b", voidFn);
  // Functions and globals are separate name spaces.
  GlobalVariable* g = module.createGlobalString("a", "x");
  EXPECT_EQ(module.getFunction("a"), a);
  EXPECT_EQ(module.getFunction("b"), b);
  EXPECT_EQ(module.getGlobal("a"), g);
  EXPECT_EQ(module.getGlobal("b"), nullptr);
  EXPECT_EQ(module.getFunction("c"), nullptr);

  module.eraseFunction(a);
  EXPECT_EQ(module.getFunction("a"), nullptr);
  EXPECT_EQ(module.getFunction("b"), b);
  EXPECT_EQ(module.getGlobal("a"), g);
  ASSERT_EQ(module.functions().size(), 1U);
  EXPECT_EQ(module.functions().front().get(), b);

  // An erased name is free again; a live one still throws.
  Function* again = module.createFunction("a", voidFn);
  EXPECT_EQ(module.getFunction("a"), again);
  EXPECT_THROW((void)module.createFunction("b", voidFn), qirkit::SemanticError);
  // Creation order is iteration order.
  ASSERT_EQ(module.functions().size(), 2U);
  EXPECT_EQ(module.functions().back().get(), again);
}

TEST_F(IRCoreTest, MayTrapOnlyWhenTheDivisorOrShiftIsNotKnownSafe) {
  const auto m = parseModule(ctx, R"(
define void @f(i8 %x, i8 %y) {
  %a = sdiv i8 %x, %y
  %b = sdiv i8 %x, 0
  %c = sdiv i8 %x, -1
  %d = sdiv i8 -128, -1
  %e = srem i8 5, -1
  %f = udiv i8 %x, -1
  %g = urem i8 %x, 3
  %h = shl i8 %x, 7
  %i = shl i8 %x, 8
  %j = ashr i8 %x, %y
  %k = add i8 %x, %y
  %l = sdiv i8 %x, 2
  ret void
}
)");
  std::string trapping;
  for (const auto& inst : m->getFunction("f")->entry()->instructions()) {
    if (inst->mayTrap()) {
      trapping += inst->name();
    }
  }
  EXPECT_EQ(trapping, "abcdij");
}

TEST_F(IRCoreTest, InstructionCloneSharesOperands) {
  Function* fn = module.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  BasicBlock* bb = fn->createBlock("entry");
  IRBuilder b(bb);
  Instruction* x = b.createICmp(ICmpPred::SLT, ctx.getI64(1), ctx.getI64(2), "c");
  auto clone = x->clone();
  EXPECT_EQ(clone->op(), Opcode::ICmp);
  EXPECT_EQ(clone->icmpPred(), ICmpPred::SLT);
  EXPECT_EQ(clone->operand(0), ctx.getI64(1));
  EXPECT_EQ(ctx.getI64(1)->numUses(), 2U); // original + clone
}

TEST_F(IRCoreTest, InstructionCountsAndBlockManagement) {
  Function* fn = module.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  BasicBlock* entry = fn->createBlock("entry");
  BasicBlock* next = fn->createBlockAfter(entry, "next");
  EXPECT_EQ(fn->blocks()[1].get(), next);
  IRBuilder b(entry);
  b.createBr(next);
  b.setInsertPoint(next);
  b.createRetVoid();
  EXPECT_EQ(fn->instructionCount(), 2U);
  EXPECT_EQ(module.instructionCount(), 2U);
}

} // namespace
} // namespace qirkit::ir
