#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "passes/pass.hpp"
#include "qir/compile.hpp"
#include "support/source_location.hpp"

#include <gtest/gtest.h>

#include <pthread.h>

namespace qirkit::passes {
namespace {

using namespace qirkit::ir;

std::unique_ptr<Module> parse(Context& ctx, std::string_view text) {
  auto m = parseModule(ctx, text);
  verifyModuleOrThrow(*m);
  return m;
}

std::size_t run(Module& m) {
  PassManager pm;
  pm.add(createCSEPass());
  pm.setVerifyEach(true);
  pm.run(m);
  std::size_t count = 0;
  for (const auto& fn : m.functions()) {
    count += fn->instructionCount();
  }
  return count;
}

TEST(CSE, EliminatesDuplicateExpressionsInABlock) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f(i64 %a, i64 %b) {
  %x = add i64 %a, %b
  %y = add i64 %a, %b
  %z = add i64 %x, %y
  ret i64 %z
}
)");
  EXPECT_EQ(run(*m), 3U); // one add removed
  const Instruction* z = m->getFunction("f")->entry()->instructions()[1].get();
  EXPECT_EQ(z->operand(0), z->operand(1));
}

TEST(CSE, HandlesCommutativity) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f(i64 %a, i64 %b) {
  %x = add i64 %a, %b
  %y = add i64 %b, %a
  %z = mul i64 %x, %y
  ret i64 %z
}
)");
  EXPECT_EQ(run(*m), 3U);
}

TEST(CSE, DoesNotMergeNonCommutativeSwappedOperands) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f(i64 %a, i64 %b) {
  %x = sub i64 %a, %b
  %y = sub i64 %b, %a
  %z = mul i64 %x, %y
  ret i64 %z
}
)");
  EXPECT_EQ(run(*m), 4U); // nothing removed
}

TEST(CSE, RespectsPredicatesAndTypes) {
  Context ctx;
  auto m = parse(ctx, R"(
define i1 @f(i64 %a, i64 %b) {
  %x = icmp slt i64 %a, %b
  %y = icmp sgt i64 %a, %b
  %z = and i1 %x, %y
  ret i1 %z
}
)");
  EXPECT_EQ(run(*m), 4U); // different predicates: keep both
}

TEST(CSE, WorksAcrossDominatingBlocks) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f(i64 %a, i1 %c) {
entry:
  %x = mul i64 %a, %a
  br i1 %c, label %then, label %exit
then:
  %y = mul i64 %a, %a
  br label %exit
exit:
  %p = phi i64 [ %y, %then ], [ 0, %entry ]
  %r = add i64 %p, %x
  ret i64 %r
}
)");
  run(*m);
  // %y replaced by %x; the phi now references %x.
  const Function* f = m->getFunction("f");
  EXPECT_EQ(f->blocks()[1]->size(), 1U); // only the branch left
}

TEST(CSE, DoesNotMergeAcrossSiblingBranches) {
  Context ctx;
  auto m = parse(ctx, R"(
define i64 @f(i64 %a, i1 %c) {
entry:
  br i1 %c, label %left, label %right
left:
  %x = mul i64 %a, %a
  ret i64 %x
right:
  %y = mul i64 %a, %a
  ret i64 %y
}
)");
  EXPECT_EQ(run(*m), 5U); // neither block dominates the other: keep both
}

TEST(CSE, LeavesCallsAndLoadsAlone) {
  Context ctx;
  auto m = parse(ctx, R"(
declare i64 @opaque()
define i64 @f(ptr %p) {
  %a = call i64 @opaque()
  %b = call i64 @opaque()
  %l1 = load i64, ptr %p, align 8
  %l2 = load i64, ptr %p, align 8
  %s = add i64 %a, %b
  %t = add i64 %l1, %l2
  %r = add i64 %s, %t
  ret i64 %r
}
)");
  EXPECT_EQ(run(*m), 8U); // nothing removed
}

TEST(CSE, CollapsesRepeatedAddressComputations) {
  // The Ex. 2 pattern after mem2reg: repeated element-pointer arithmetic
  // expressed as ptrtoint/add/inttoptr chains.
  Context ctx;
  auto m = parse(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
define void @f(ptr %base) {
  %a1 = ptrtoint ptr %base to i64
  %o1 = add i64 %a1, 8
  %p1 = inttoptr i64 %o1 to ptr
  call void @__quantum__qis__h__body(ptr %p1)
  %a2 = ptrtoint ptr %base to i64
  %o2 = add i64 %a2, 8
  %p2 = inttoptr i64 %o2 to ptr
  call void @__quantum__qis__h__body(ptr %p2)
  ret void
}
)");
  EXPECT_EQ(run(*m), 6U); // 3 duplicate computations removed
}

/// \p n chained if-diamonds on measured bits, which no pass can fold: the
/// dominator tree is \p n levels deep.
std::string diamondChain(unsigned n) {
  std::string s = R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() #0 {
)";
  for (unsigned i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    const std::string next = std::to_string(i + 1);
    s += "d" + k + ":\n  call void @__quantum__qis__mz__body(ptr null, ptr null)\n" +
         "  %c" + k + " = call i1 @__quantum__qis__read_result__body(ptr null)\n" +
         "  br i1 %c" + k + ", label %t" + k + ", label %d" + next + "\n" + "t" + k +
         ":\n  call void @__quantum__qis__x__body(ptr null)\n  br label %d" + next +
         "\n";
  }
  s += "d" + std::to_string(n) + ":\n  ret void\n}\nattributes #0 = { \"entry_point\" }\n";
  return s;
}

/// CSE walks the dominator tree with an explicit stack. Its recursive walk
/// took one frame per tree level, so a long chain of diamonds overflowed
/// the stack. On a thread with a 256 KiB stack, 3000 diamonds are enough
/// to show that, which keeps the test fast.
TEST(CSE, DeepDominatorTreeRunsOnASmallStack) {
  Context ctx;
  auto m = parse(ctx, diamondChain(3000));
  const std::size_t before = m->instructionCount();
  struct Job {
    Module* module;
    std::size_t sweeps = 0;
    std::string error;
  } job{m.get(), 0, {}};
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 * 1024), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(
                &thread, &attr,
                [](void* arg) -> void* {
                  auto* j = static_cast<Job*>(arg);
                  try {
                    j->sweeps = qir::transformDirect(*j->module);
                  } catch (const std::exception& e) {
                    j->error = e.what();
                  }
                  return nullptr;
                },
                &job),
            0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
  EXPECT_EQ(job.error, "");
  EXPECT_GE(job.sweeps, 1U);
  EXPECT_EQ(m->instructionCount(), before);
  verifyModuleOrThrow(*m);
}

} // namespace
} // namespace qirkit::passes
