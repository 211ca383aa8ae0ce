#include "hybrid/hybrid.hpp"
#include "ir/parser.hpp"

#include <gtest/gtest.h>

#include <string>

namespace qirkit::hybrid {
namespace {

std::unique_ptr<ir::Module> parse(ir::Context& ctx, const char* text) {
  return ir::parseModule(ctx, text);
}

/// A feedback program: measure, compute on the result, conditionally gate.
const char* kFeedbackProgram = R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r0 = call i1 @__quantum__qis__read_result__body(ptr null)
  %r1 = call i1 @__quantum__qis__read_result__body(ptr inttoptr (i64 1 to ptr))
  %both = and i1 %r0, %r1
  br i1 %both, label %then, label %continue
then:
  call void @__quantum__qis__x__body(ptr null)
  br label %continue
continue:
  ret void
}
attributes #0 = { "entry_point" }
)";

/// Result post-processing with no downstream quantum ops: host work.
const char* kHostProcessingProgram = R"(
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define i64 @main() #0 {
entry:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  %z = zext i1 %r to i64
  %stat = mul i64 %z, 1000
  br i1 %r, label %a, label %b
a:
  ret i64 %stat
b:
  ret i64 0
}
attributes #0 = { "entry_point" }
)";

TEST(Partition, ClassifiesQuantumFeedbackAndHost) {
  ir::Context ctx;
  const auto m = parse(ctx, kFeedbackProgram);
  const PartitionReport report = partitionHybrid(*m);
  EXPECT_EQ(report.count(Placement::Quantum), 2U); // mz + conditioned x
  // read_result x2, and, br are on the feedback path.
  EXPECT_GE(report.count(Placement::ClassicalFeedback), 4U);
  EXPECT_GT(report.count(Placement::ClassicalHost), 0U); // rets, br label
}

TEST(Partition, PureQuantumProgramHasNoFeedback) {
  ir::Context ctx;
  const auto m = parse(ctx, R"(
declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
attributes #0 = { "entry_point" }
)");
  const PartitionReport report = partitionHybrid(*m);
  EXPECT_EQ(report.count(Placement::Quantum), 1U);
  EXPECT_EQ(report.count(Placement::ClassicalFeedback), 0U);
}

TEST(Feasibility, FastFeedbackFitsTheBudget) {
  ir::Context ctx;
  const auto m = parse(ctx, kFeedbackProgram);
  const FeasibilityReport report =
      checkFeasibility(*m, LatencyModel::superconductingFPGA(), /*budget=*/1000.0);
  EXPECT_TRUE(report.feasible);
  ASSERT_EQ(report.paths.size(), 1U);
  // 2x read_result (20ns) + and (4ns) + branch (10ns) = 54ns.
  EXPECT_NEAR(report.paths[0].classicalLatencyNs, 54.0, 1e-9);
  EXPECT_EQ(report.worstPathNs, report.paths[0].classicalLatencyNs);
}

TEST(Feasibility, TightBudgetRejects) {
  // §IV.B: "there will always be programs that describe an infeasible
  // execution and must be rejected."
  ir::Context ctx;
  const auto m = parse(ctx, kFeedbackProgram);
  const FeasibilityReport report =
      checkFeasibility(*m, LatencyModel::superconductingFPGA(), /*budget=*/50.0);
  EXPECT_FALSE(report.feasible);
  ASSERT_FALSE(report.reasons.empty());
  EXPECT_NE(report.reasons[0].find("coherence budget"), std::string::npos);
}

TEST(Feasibility, HostProcessingHasNoDeadline) {
  // The branch depends on results but gates nothing quantum: no feedback
  // path, trivially feasible even with budget 0.
  ir::Context ctx;
  const auto m = parse(ctx, kHostProcessingProgram);
  const FeasibilityReport report =
      checkFeasibility(*m, LatencyModel::superconductingFPGA(), 0.0);
  EXPECT_TRUE(report.feasible);
  EXPECT_TRUE(report.paths.empty());
}

TEST(Feasibility, FloatingPointOnFPGAIsUnsupported) {
  // §IV.B: special-purpose co-processors "are incapable of executing
  // arbitrary classical code."
  ir::Context ctx;
  const auto m = parse(ctx, R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  %z = uitofp i1 %r to double
  %big = fcmp ogt double %z, 0.5
  br i1 %big, label %then, label %continue
then:
  call void @__quantum__qis__x__body(ptr null)
  br label %continue
continue:
  ret void
}
attributes #0 = { "entry_point" }
)");
  const FeasibilityReport fpga =
      checkFeasibility(*m, LatencyModel::superconductingFPGA(), 1e9);
  EXPECT_FALSE(fpga.feasible);
  ASSERT_FALSE(fpga.reasons.empty());
  EXPECT_NE(fpga.reasons[0].find("cannot execute"), std::string::npos);

  // The relaxed ion-trap CPU model supports it.
  const FeasibilityReport cpu =
      checkFeasibility(*m, LatencyModel::ionTrapCPU(), 1e9);
  EXPECT_TRUE(cpu.feasible);
}

/// A measurement feeds a gate through uitofp/fmul/fcmp, read either with
/// read_result or with result_equal: one dependence, two spellings.
std::string measurementFeedback(bool viaResultEqual) {
  return std::string(R"(
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
declare ptr @__quantum__rt__result_get_one()
declare i1 @__quantum__rt__result_equal(ptr, ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %one = call ptr @__quantum__rt__result_get_one()
)") + (viaResultEqual ? "  %r = call i1 @__quantum__rt__result_equal(ptr null, ptr %one)\n"
                      : "  %r = call i1 @__quantum__qis__read_result__body(ptr null)\n") +
         R"(  %f = uitofp i1 %r to double
  %s = fmul double %f, 2.0
  %c = fcmp ogt double %s, 1.0
  br i1 %c, label %then, label %done
then:
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  br label %done
done:
  ret void
}
attributes #0 = { "entry_point" }
)";
}

TEST(Feasibility, ResultEqualFeedbackIsAFeedbackPathLikeReadResult) {
  for (const bool viaResultEqual : {false, true}) {
    ir::Context ctx;
    const auto m = parse(ctx, measurementFeedback(viaResultEqual).c_str());
    const PartitionReport partition = partitionHybrid(*m);
    // The measurement read, uitofp, fmul, fcmp and the branch.
    EXPECT_EQ(partition.count(Placement::ClassicalFeedback), 5U) << viaResultEqual;
    EXPECT_EQ(partition.count(Placement::Quantum), 3U) << viaResultEqual;
    const FeasibilityReport report =
        checkFeasibility(*m, LatencyModel::superconductingFPGA(), 1e9);
    EXPECT_FALSE(report.feasible) << viaResultEqual;
    ASSERT_EQ(report.paths.size(), 1U) << viaResultEqual;
    EXPECT_NE(report.paths[0].readResult, nullptr) << viaResultEqual;
    EXPECT_EQ(report.paths[0].classicalOps, 3U) << viaResultEqual;
    ASSERT_EQ(report.reasons.size(), 1U);
    EXPECT_EQ(report.reasons[0], "co-processor cannot execute 'uitofp'");
  }
}

TEST(Feasibility, LatencyScalesWithClassicalWork) {
  // Chain of N adds between read_result and the branch.
  const auto makeProgram = [](int n) {
    std::string s = R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  %v0 = zext i1 %r to i64
)";
    for (int i = 1; i <= n; ++i) {
      s += "  %v" + std::to_string(i) + " = add i64 %v" + std::to_string(i - 1) +
           ", 1\n";
    }
    s += "  %c = icmp sgt i64 %v" + std::to_string(n) + R"(, 3
  br i1 %c, label %then, label %continue
then:
  call void @__quantum__qis__x__body(ptr null)
  br label %continue
continue:
  ret void
}
attributes #0 = { "entry_point" }
)";
    return s;
  };
  ir::Context ctx;
  const auto small = ir::parseModule(ctx, makeProgram(2));
  const auto large = ir::parseModule(ctx, makeProgram(50));
  const LatencyModel model = LatencyModel::superconductingFPGA();
  const double smallNs = checkFeasibility(*small, model, 1e9).worstPathNs;
  const double largeNs = checkFeasibility(*large, model, 1e9).worstPathNs;
  EXPECT_GT(largeNs, smallNs);
  EXPECT_NEAR(largeNs - smallNs, 48 * model.intOpNs, 1e-9);
}

TEST(LatencyModelTest, InstructionCosts) {
  ir::Context ctx;
  const auto m = parse(ctx, R"(
define i64 @f(i64 %a, i64 %b) {
  %add = add i64 %a, %b
  %mul = mul i64 %a, %b
  %div = sdiv i64 %a, 2
  ret i64 %div
}
)");
  const LatencyModel model = LatencyModel::superconductingFPGA();
  const auto& insts = m->getFunction("f")->entry()->instructions();
  EXPECT_EQ(model.instructionCost(*insts[0]), model.intOpNs);
  EXPECT_EQ(model.instructionCost(*insts[1]), model.mulNs);
  EXPECT_EQ(model.instructionCost(*insts[2]), model.divNs);
  EXPECT_EQ(model.instructionCost(*insts[3]), 0.0);
}

TEST(PlacementNames, AreHumanReadable) {
  EXPECT_STREQ(placementName(Placement::Quantum), "quantum");
  EXPECT_STREQ(placementName(Placement::ClassicalFeedback), "classical-feedback");
  EXPECT_STREQ(placementName(Placement::ClassicalHost), "classical-host");
}

} // namespace
} // namespace qirkit::hybrid
