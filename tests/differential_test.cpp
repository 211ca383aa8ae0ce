/// Differential testing of the classical layer. Random classical IR
/// programs (program_generator.hpp: i1/i8/i32 detours, the ten casts,
/// switches, branches and a bounded loop) run four ways, the program as
/// written and after the full optimization pipeline, each on the
/// interpreter and on the VM, and all four must return the same value.
/// This is the evidence that the "for free" optimizations (§II.C) preserve
/// semantics, and that the folder and both engines give each opcode one
/// meaning. A table of casts over edge operands checks the same agreement
/// directly: foldInstruction's constant against both engines' run-time
/// result.
#include "interp/interpreter.hpp"
#include "ir/context.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "passes/folding.hpp"
#include "passes/pass.hpp"
#include "vm/compiler.hpp"
#include "vm/vm.hpp"

#include "program_generator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace qirkit {
namespace {

using interp::RtValue;
using test::ProgramGenerator;

RtValue runInterp(const ir::Module& m, std::span<const RtValue> args) {
  interp::Interpreter interp(m);
  interp.setStepLimit(1 << 22);
  return interp.run(*m.getFunction("f"), args);
}

RtValue runVm(const ir::Module& m, std::span<const RtValue> args) {
  vm::Vm machine(vm::compileModule(m));
  machine.setStepLimit(1 << 22);
  return machine.run("f", args);
}

class DifferentialPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialPipeline, OptimizationPreservesObservableBehaviour) {
  const std::uint64_t seed = GetParam();
  const std::string program = ProgramGenerator(seed).generate();

  ir::Context ctxA;
  const auto reference = ir::parseModule(ctxA, program);
  ir::verifyModuleOrThrow(*reference);

  ir::Context ctxB;
  auto optimized = ir::parseModule(ctxB, program);
  passes::PassManager pm;
  passes::addFullPipeline(pm);
  pm.setVerifyEach(true);
  pm.runToFixpoint(*optimized);

  const std::int64_t inputs[][2] = {{0, 0},   {1, -1},  {42, 7},
                                    {-100, 3}, {1 << 20, -(1 << 19)}};
  for (const auto& [a, b] : inputs) {
    const RtValue args[] = {RtValue::makeInt(a), RtValue::makeInt(b)};
    const std::int64_t expected = runInterp(*reference, args).i;
    const auto where = [&](const char* route) {
      return ::testing::Message() << route << ", seed " << seed << " inputs (" << a
                                  << ", " << b << ")\nprogram:\n"
                                  << program;
    };
    EXPECT_EQ(runInterp(*optimized, args).i, expected) << where("optimized interp");
    EXPECT_EQ(runVm(*reference, args).i, expected) << where("as-written vm");
    EXPECT_EQ(runVm(*optimized, args).i, expected) << where("optimized vm");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialPipeline,
                         ::testing::Range<std::uint64_t>(1, 41));

/// One cast of the table: `%r = <op> <from> %x to <to>`.
struct CastCase {
  const char* op;
  const char* from;
  const char* to;
};

/// \p constant as the engines' register holds it.
RtValue registerOf(const ir::Value* constant) {
  std::uint64_t address = 0;
  if (const auto* c = dynamic_cast<const ir::ConstantInt*>(constant)) {
    return RtValue::makeInt(c->value());
  }
  if (const auto* c = dynamic_cast<const ir::ConstantFP*>(constant)) {
    return RtValue::makeDouble(c->value());
  }
  EXPECT_TRUE(ir::getStaticPointerAddress(constant, address));
  return RtValue::makePtr(address);
}

/// The edge operands of a cast from \p type: values with the top bit set,
/// 0, -0.0, NaN, infinities and doubles past every integer range.
std::vector<ir::Value*> edgeOperands(ir::Context& ctx, const ir::Type* type) {
  std::vector<ir::Value*> operands;
  if (type->isInteger()) {
    constexpr std::int64_t kInts[] = {0,          1,
                                      -1,         127,
                                      -128,       255,
                                      1LL << 31,  -(1LL << 31),
                                      1LL << 32,  std::numeric_limits<std::int64_t>::min(),
                                      std::numeric_limits<std::int64_t>::max()};
    for (const std::int64_t v : kInts) {
      operands.push_back(ctx.getInt(type->bits(), v));
    }
  } else if (type->isDouble()) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double kDoubles[] = {0.0,    -0.0,   std::nan(""), kInf,    -kInf,
                               0.5,    -0.5,   -0.99,        1.0,     -1.0,
                               127.9,  128.0,  -128.5,       -129.0,  255.0,
                               256.0,  300.0,  -300.0,       0x1p31,  -0x1p31,
                               0x1p32, 0x1p63, -0x1p63,      0x1p64,  1e19,
                               -1e19,  3.84e304};
    for (const double v : kDoubles) {
      operands.push_back(ctx.getDouble(v));
    }
  } else {
    for (const std::uint64_t v : {0ULL, 1ULL, 0x80ULL, 0xFFFFFFFFULL, 1ULL << 63}) {
      operands.push_back(v == 0 ? static_cast<ir::Value*>(ctx.getNullPtr())
                                : ctx.getIntToPtr(v));
    }
  }
  return operands;
}

/// Every cast over its edge operands: the constant foldInstruction makes
/// must be the value both engines compute at run time.
TEST(DifferentialCasts, FolderAndBothEnginesAgreeOnEdgeOperands) {
  const CastCase casts[] = {
      {"zext", "i1", "i64"},       {"zext", "i8", "i32"},       {"zext", "i32", "i64"},
      {"sext", "i1", "i64"},       {"sext", "i8", "i32"},       {"sext", "i32", "i64"},
      {"trunc", "i64", "i1"},      {"trunc", "i64", "i8"},      {"trunc", "i32", "i8"},
      {"ptrtoint", "ptr", "i64"},  {"ptrtoint", "ptr", "i32"},  {"ptrtoint", "ptr", "i8"},
      {"inttoptr", "i1", "ptr"},   {"inttoptr", "i8", "ptr"},   {"inttoptr", "i32", "ptr"},
      {"inttoptr", "i64", "ptr"},  {"sitofp", "i1", "double"},  {"sitofp", "i8", "double"},
      {"sitofp", "i32", "double"}, {"sitofp", "i64", "double"}, {"uitofp", "i1", "double"},
      {"uitofp", "i8", "double"},  {"uitofp", "i32", "double"}, {"uitofp", "i64", "double"},
      {"fptosi", "double", "i1"},  {"fptosi", "double", "i8"},  {"fptosi", "double", "i32"},
      {"fptosi", "double", "i64"}, {"fptoui", "double", "i1"},  {"fptoui", "double", "i8"},
      {"fptoui", "double", "i32"}, {"fptoui", "double", "i64"}, {"bitcast", "ptr", "ptr"},
      {"bitcast", "i64", "i64"},   {"bitcast", "double", "double"},
  };
  for (const CastCase& cast : casts) {
    ir::Context ctx;
    const auto m = ir::parseModule(
        ctx, std::string("define ") + cast.to + " @f(" + cast.from +
                 " %x) {\nentry:\n  %r = " + cast.op + " " + cast.from + " %x to " +
                 cast.to + "\n  ret " + cast.to + " %r\n}\n");
    ir::verifyModuleOrThrow(*m);
    const ir::Instruction& inst = *m->getFunction("f")->entry()->front();
    for (ir::Value* operand : edgeOperands(ctx, inst.operand(0)->type())) {
      const RtValue arg = registerOf(operand);
      const ir::Value* folded = passes::foldInstruction(ctx, inst, {&operand, 1});
      ASSERT_NE(folded, nullptr) << cast.op << " " << cast.from << " to " << cast.to;
      const RtValue expected = registerOf(folded);
      for (const auto& [route, got] : {std::pair{"interp", runInterp(*m, {&arg, 1})},
                                       std::pair{"vm", runVm(*m, {&arg, 1})}}) {
        const auto where = ::testing::Message()
                           << route << ": " << cast.op << " " << cast.from << " (i "
                           << arg.i << ", d " << arg.d << ", p " << arg.p << ") to "
                           << cast.to;
        if (inst.type()->isDouble()) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.d),
                    std::bit_cast<std::uint64_t>(expected.d))
              << where;
        } else if (inst.type()->isPointer()) {
          EXPECT_EQ(got.p, expected.p) << where;
        } else {
          EXPECT_EQ(got.i, expected.i) << where;
        }
      }
    }
  }
}

/// The printed form of a generated program must also round-trip.
class DifferentialRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialRoundTrip, GeneratedProgramsPrintAndReparse) {
  const std::string program = ProgramGenerator(GetParam()).generate();
  ir::Context ctxA;
  const auto first = ir::parseModule(ctxA, program);
  const std::string printed = ir::printModule(*first);
  ir::Context ctxB;
  const auto second = ir::parseModule(ctxB, printed);
  ir::verifyModuleOrThrow(*second);
  EXPECT_EQ(ir::printModule(*second), printed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
} // namespace qirkit
