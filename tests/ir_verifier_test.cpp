#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"

#include "support/source_location.hpp"

#include <gtest/gtest.h>

namespace qirkit::ir {
namespace {

class VerifierTest : public ::testing::Test {
protected:
  Context ctx;
  Module module{ctx, "v"};

  Function* makeFn(const char* name = "f") {
    return module.createFunction(name, ctx.functionTy(ctx.voidTy(), {}));
  }
};

TEST_F(VerifierTest, CleanModulePasses) {
  Function* f = makeFn();
  IRBuilder b(f->createBlock("entry"));
  b.createRetVoid();
  EXPECT_TRUE(verifyModule(module).empty());
}

TEST_F(VerifierTest, UnterminatedBlockIsReported) {
  Function* f = makeFn();
  IRBuilder b(f->createBlock("entry"));
  b.createAdd(ctx.getI64(1), ctx.getI64(2));
  const auto errors = verifyModule(module);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("not terminated"), std::string::npos);
}

TEST_F(VerifierTest, EmptyDefinitionIsReported) {
  Function* f = makeFn();
  f->createBlock("entry");
  EXPECT_FALSE(verifyModule(module).empty());
}

TEST_F(VerifierTest, RetTypeMismatchIsReported) {
  Function* f = module.createFunction("g", ctx.functionTy(ctx.i64(), {}));
  IRBuilder b(f->createBlock("entry"));
  b.createRetVoid();
  const auto errors = verifyModule(module);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("ret"), std::string::npos);
}

TEST_F(VerifierTest, PhiMustMatchPredecessors) {
  Function* f = makeFn();
  BasicBlock* entry = f->createBlock("entry");
  BasicBlock* next = f->createBlock("next");
  IRBuilder b(entry);
  b.createBr(next);
  b.setInsertPoint(next);
  Instruction* phi = b.createPhi(ctx.i64(), "p");
  // No incoming values though `next` has one predecessor.
  b.createRetVoid();
  (void)phi;
  const auto errors = verifyModule(module);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("phi"), std::string::npos);
}

TEST_F(VerifierTest, UseBeforeDefAcrossBlocksIsReported) {
  // %x defined in a block that does not dominate its use.
  Context ctx2;
  auto module2 = parseModule(ctx2, R"(
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %x = add i64 1, 2
  br label %join
b:
  br label %join
join:
  %y = add i64 %x, 1
  ret void
}
)");
  const auto errors = verifyModule(*module2);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("dominate"), std::string::npos);
}

TEST_F(VerifierTest, DominanceAcceptsStraightLineUse) {
  Context ctx2;
  auto module2 = parseModule(ctx2, R"(
define i64 @f() {
entry:
  %x = add i64 1, 2
  br label %next
next:
  %y = add i64 %x, 3
  ret i64 %y
}
)");
  EXPECT_TRUE(verifyModule(*module2).empty());
}

TEST_F(VerifierTest, CallArityMismatchIsReportedByParserOrVerifier) {
  Function* callee =
      module.createFunction("callee", ctx.functionTy(ctx.voidTy(), {ctx.i64()}));
  Function* f = makeFn();
  BasicBlock* entry = f->createBlock("entry");
  // Bypass the builder's assert by constructing a call with no args through
  // the parser instead.
  (void)callee;
  IRBuilder b(entry);
  b.createRetVoid();
  Context ctx2;
  EXPECT_THROW((void)parseModule(ctx2, R"(
declare void @callee(i64)
define void @f() {
  call void @callee()
  ret void
}
)"),
               qirkit::ParseError);
}

TEST_F(VerifierTest, BinaryTypeMismatchIsReported) {
  Function* f = makeFn();
  BasicBlock* entry = f->createBlock("entry");
  IRBuilder b(entry);
  // Build a malformed instruction via clone-and-mutate: add of i64 with an
  // i32 second operand.
  Instruction* good = b.createAdd(ctx.getI64(1), ctx.getI64(2));
  good->setOperand(1, ctx.getInt(32, 2));
  b.createRetVoid();
  const auto errors = verifyModule(module);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("type mismatch"), std::string::npos);
}

TEST_F(VerifierTest, ReinterpretingBitcastIsReported) {
  Function* f = makeFn();
  IRBuilder b(f->createBlock("entry"));
  b.createCast(Opcode::Bitcast, ctx.getI64(4607182418800017408), ctx.doubleTy());
  b.createCast(Opcode::Bitcast, ctx.getDouble(1.0), ctx.doubleTy());
  b.createRetVoid();
  const auto errors = verifyModule(module);
  ASSERT_EQ(errors.size(), 1U);
  EXPECT_NE(errors[0].find("bitcast between different types"), std::string::npos);
}

TEST_F(VerifierTest, EntryBlockWithPredecessorsIsReported) {
  Function* f = makeFn();
  BasicBlock* entry = f->createBlock("entry");
  IRBuilder b(entry);
  b.createBr(entry);
  const auto errors = verifyModule(module);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("entry block"), std::string::npos);
}

TEST_F(VerifierTest, VerifyOrThrowListsEverything) {
  Function* f = makeFn();
  f->createBlock("entry");
  EXPECT_THROW(verifyModuleOrThrow(module), qirkit::SemanticError);
}

} // namespace
} // namespace qirkit::ir
