#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/source_location.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace qirkit::ir {
namespace {

/// Reparse what we printed and require a fixpoint.
void expectRoundTrip(const Module& m) {
  const std::string printed = printModule(m);
  Context ctx2;
  const auto reparsed = parseModule(ctx2, printed, m.name());
  verifyModuleOrThrow(*reparsed);
  EXPECT_EQ(printModule(*reparsed), printed);
}

TEST(Printer, QuotedNamesSurviveRoundTrip) {
  Context ctx;
  Module m(ctx, "q");
  Function* f = m.createFunction("weird name!", ctx.functionTy(ctx.i64(), {}));
  IRBuilder b(f->createBlock("entry block"));
  Instruction* v = b.createAdd(ctx.getI64(1), ctx.getI64(2), "my value");
  b.createRet(v);
  const std::string printed = printModule(m);
  EXPECT_NE(printed.find("@\"weird name!\""), std::string::npos);
  EXPECT_NE(printed.find("%\"my value\""), std::string::npos);
  expectRoundTrip(m);
}

TEST(Printer, DuplicateNamesFromCloningAreUniquified) {
  Context ctx;
  Module m(ctx, "dup");
  Function* f = m.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  BasicBlock* bb = f->createBlock("entry");
  IRBuilder b(bb);
  Instruction* first = b.createAdd(ctx.getI64(1), ctx.getI64(2), "x");
  b.createAdd(ctx.getI64(3), ctx.getI64(4), "x.2");
  bb->append(first->clone()); // clone keeps the name "x"
  bb->append(first->clone());
  b.setInsertPoint(bb);
  b.createRetVoid();
  const std::string printed = printModule(m);
  EXPECT_NE(printed.find("%x = add i64 1, 2"), std::string::npos);
  EXPECT_NE(printed.find("%x.2 = add i64 3, 4"), std::string::npos);
  // Clones take the next free suffixes, skipping the explicit "x.2".
  EXPECT_NE(printed.find("%x.1 = add i64 1, 2"), std::string::npos);
  EXPECT_NE(printed.find("%x.3 = add i64 1, 2"), std::string::npos);
  expectRoundTrip(m);
}

TEST(Printer, UnnamedValuesSkipTakenNumbers) {
  Context ctx;
  Module m(ctx, "nums");
  Function* f = m.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  BasicBlock* bb = f->createBlock("entry");
  IRBuilder b(bb);
  // A value explicitly named "0" must not collide with the first unnamed
  // value's number.
  b.createAdd(ctx.getI64(1), ctx.getI64(2), "0");
  b.createAdd(ctx.getI64(3), ctx.getI64(4)); // unnamed
  b.createRetVoid();
  expectRoundTrip(m);
}

TEST(Printer, NegativeSwitchCaseValues) {
  Context ctx;
  const auto m = parseModule(ctx, R"(
define i64 @f(i64 %x) {
entry:
  switch i64 %x, label %d [
    i64 -1, label %neg
    i64 -9223372036854775808, label %min
  ]
neg:
  ret i64 1
min:
  ret i64 2
d:
  ret i64 0
}
)");
  expectRoundTrip(*m);
}

TEST(Printer, ExtremeIntegerConstants) {
  Context ctx;
  const auto m = parseModule(ctx, R"(
define i64 @f() {
  %a = add i64 9223372036854775807, 0
  %b = add i64 -9223372036854775808, 0
  %c = add i64 %a, %b
  ret i64 %c
}
)");
  expectRoundTrip(*m);
}

TEST(Printer, SpecialDoubleValues) {
  Context ctx;
  Module m(ctx, "doubles");
  Function* f = m.createFunction("f", ctx.functionTy(ctx.doubleTy(), {}));
  IRBuilder b(f->createBlock("entry"));
  Instruction* v = b.createBinOp(Opcode::FAdd, ctx.getDouble(1e-300),
                                 ctx.getDouble(123456789.123456789));
  b.createRet(v);
  expectRoundTrip(m);
}

TEST(Printer, NonFiniteAndNegativeZeroDoublesRoundTrip) {
  Context ctx;
  Module m(ctx, "nonfinite");
  Function* f = m.createFunction("f", ctx.functionTy(ctx.doubleTy(), {}));
  IRBuilder b(f->createBlock("entry"));
  const double inf = std::numeric_limits<double>::infinity();
  Instruction* sum = b.createBinOp(Opcode::FAdd, ctx.getDouble(inf), ctx.getDouble(-inf));
  Instruction* nan = b.createBinOp(Opcode::FMul, sum, ctx.getDouble(std::nan("")));
  b.createRet(b.createBinOp(Opcode::FSub, nan, ctx.getDouble(-0.0)));
  EXPECT_NE(ctx.getDouble(-0.0), ctx.getDouble(0.0));
  const std::string printed = printModule(m);
  EXPECT_NE(printed.find("fadd double 0x7FF0000000000000, 0xFFF0000000000000"),
            std::string::npos)
      << printed;
  EXPECT_NE(printed.find(", -0.0"), std::string::npos) << printed;
  expectRoundTrip(m);
}

/// Each opcode's mnemonic (QIRKIT_IR_OPCODES) and each predicate's, written
/// in an instruction as the printer spells it, parses and prints back
/// unchanged.
TEST(Printer, EveryOpcodeAndPredicateSpellingRoundTrips) {
  std::string body;
  std::vector<std::string> lines;
  const auto add = [&](const std::string& line) {
    lines.push_back(line);
    body += "  " + line + "\n";
  };
#define QIRKIT_TEST_OPCODE(name, mnemonic, ...) {Opcode::name, mnemonic},
#define QIRKIT_TEST_ICMP(name, mnemonic) {ICmpPred::name, mnemonic},
#define QIRKIT_TEST_FCMP(name, mnemonic) {FCmpPred::name, mnemonic},
  const std::pair<Opcode, std::string> opcodes[] = {
      QIRKIT_IR_OPCODES(QIRKIT_TEST_OPCODE)};
  const std::pair<ICmpPred, std::string> icmpPreds[] = {
      QIRKIT_ICMP_PREDS(QIRKIT_TEST_ICMP)};
  const std::pair<FCmpPred, std::string> fcmpPreds[] = {
      QIRKIT_FCMP_PREDS(QIRKIT_TEST_FCMP)};
#undef QIRKIT_TEST_OPCODE
#undef QIRKIT_TEST_ICMP
#undef QIRKIT_TEST_FCMP
  // The operands and result type of each cast.
  const std::map<Opcode, std::string> castOperands = {
      {Opcode::ZExt, "i1 %c to i64"},      {Opcode::SExt, "i1 %c to i64"},
      {Opcode::Trunc, "i64 %a to i8"},     {Opcode::PtrToInt, "ptr %p to i64"},
      {Opcode::IntToPtr, "i64 %a to ptr"}, {Opcode::SIToFP, "i64 %a to double"},
      {Opcode::FPToSI, "double %x to i64"}, {Opcode::UIToFP, "i64 %a to double"},
      {Opcode::FPToUI, "double %x to i64"}, {Opcode::Bitcast, "ptr %p to ptr"}};
  for (const auto& [op, mnemonic] : opcodes) {
    EXPECT_EQ(opcodeName(op), mnemonic);
    EXPECT_EQ(opcodeFromName(mnemonic), op) << mnemonic;
    const std::string result = "%" + mnemonic + " = " + mnemonic + " ";
    if (isIntBinaryOp(op)) {
      add(result + "i64 %a, %b");
    } else if (isFloatBinaryOp(op)) {
      add(result + "double %x, %y");
    } else if (isCastOp(op)) {
      add(result + castOperands.at(op));
    }
  }
  for (const auto& [pred, mnemonic] : icmpPreds) {
    EXPECT_EQ(icmpPredName(pred), mnemonic);
    EXPECT_EQ(icmpPredFromName(mnemonic), pred) << mnemonic;
    add("%i_" + mnemonic + " = icmp " + mnemonic + " i64 %a, %b");
  }
  for (const auto& [pred, mnemonic] : fcmpPreds) {
    EXPECT_EQ(fcmpPredName(pred), mnemonic);
    EXPECT_EQ(fcmpPredFromName(mnemonic), pred) << mnemonic;
    add("%f_" + mnemonic + " = fcmp " + mnemonic + " double %x, %y");
  }
  EXPECT_EQ(opcodeFromName("getelementptr"), std::nullopt);
  add("%alloca = alloca i64, align 8");
  add("store i64 %a, ptr %alloca, align 8");
  add("%load = load i64, ptr %alloca, align 8");
  add("%select = select i1 %c, i64 %a, i64 %b");
  add("call void @g()");
  const std::string terminators[] = {
      "br i1 %c, label %sw, label %dead", "switch i64 %a, label %done [\n    i64 1, label "
                                          "%dead\n  ]",
      "unreachable", "br label %exit", "%phi = phi i64 [ %a, %done ]", "ret i64 %phi"};
  const std::string text = "declare void @g()\n\ndefine i64 @f(i64 %a, i64 %b, double %x, "
                           "double %y, ptr %p, i1 %c) {\nentry:\n" +
                           body + "  " + terminators[0] + "\n\nsw:\n  " + terminators[1] +
                           "\n\ndead:\n  " + terminators[2] + "\n\ndone:\n  " +
                           terminators[3] + "\n\nexit:\n  " + terminators[4] + "\n  " +
                           terminators[5] + "\n}\n";
  lines.insert(lines.end(), std::begin(terminators), std::end(terminators));
  Context ctx;
  const auto m = parseModule(ctx, text);
  verifyModuleOrThrow(*m);
  const std::string printed = printModule(*m);
  for (const std::string& line : lines) {
    EXPECT_NE(printed.find("  " + line + "\n"), std::string::npos) << line << "\n" << printed;
  }
  expectRoundTrip(*m);
}

TEST(Printer, AttributeValuesWithSpecialCharacters) {
  Context ctx;
  Module m(ctx, "attrs");
  Function* f = m.createFunction("main", ctx.functionTy(ctx.voidTy(), {}));
  f->setAttribute("entry_point");
  f->setAttribute("output_labeling_schema", "schema \"v1\"");
  IRBuilder b(f->createBlock("entry"));
  b.createRetVoid();
  const std::string printed = printModule(m);
  Context ctx2;
  const auto reparsed = parseModule(ctx2, printed, "attrs");
  EXPECT_EQ(reparsed->getFunction("main")->getAttribute("output_labeling_schema"),
            "schema \"v1\"");
}

TEST(Printer, EmptyFunctionParameterNamesAreNumbered) {
  Context ctx;
  Module m(ctx, "args");
  Function* f =
      m.createFunction("f", ctx.functionTy(ctx.i64(), {ctx.i64(), ctx.i64()}));
  IRBuilder b(f->createBlock());
  Instruction* sum = b.createAdd(f->arg(0), f->arg(1));
  b.createRet(sum);
  const std::string printed = printModule(m);
  EXPECT_NE(printed.find("i64 %0, i64 %1"), std::string::npos);
  expectRoundTrip(m);
}

TEST(Printer, UseListStressAfterManyRAUWs) {
  // Thousands of uses of one constant; replace repeatedly. Exercises the
  // O(1) use-list bookkeeping.
  Context ctx;
  Module m(ctx, "stress");
  Function* f = m.createFunction("f", ctx.functionTy(ctx.voidTy(), {}));
  BasicBlock* bb = f->createBlock("entry");
  IRBuilder b(bb);
  std::vector<Instruction*> adds;
  for (int i = 0; i < 2000; ++i) {
    adds.push_back(b.createAdd(ctx.getI64(7), ctx.getI64(7)));
  }
  b.createRetVoid();
  EXPECT_EQ(ctx.getI64(7)->numUses(), 4000U);
  // Replace every add with a different constant: drops all uses of 7.
  for (Instruction* add : adds) {
    add->replaceAllUsesWith(ctx.getI64(0)); // no uses anyway
    add->setOperand(0, ctx.getI64(1));
    add->setOperand(1, ctx.getI64(2));
  }
  EXPECT_EQ(ctx.getI64(7)->numUses(), 0U);
  EXPECT_EQ(ctx.getI64(1)->numUses(), 2000U);
  // Bulk-erase everything but the terminator.
  bb->eraseIf([](Instruction* inst) { return !inst->isTerminator(); });
  EXPECT_EQ(ctx.getI64(1)->numUses(), 0U);
  EXPECT_TRUE(verifyModule(m).empty());
}

} // namespace
} // namespace qirkit::ir
