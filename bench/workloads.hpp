/// \file workloads.hpp
/// Shared workload builders for the benchmark harness (see DESIGN.md §4
/// for the experiment index each bench implements).
#pragma once

#include "circuit/generators.hpp"
#include "ir/module.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "qir/exporter.hpp"

#include <sstream>
#include <string>

namespace qirkit::bench {

/// QIR text for a generated circuit in the given addressing mode.
inline std::string qirTextFor(const circuit::Circuit& circuit,
                              qir::Addressing addressing,
                              bool recordOutput = false) {
  ir::Context ctx;
  qir::ExportOptions options;
  options.addressing = addressing;
  options.recordOutput = recordOutput;
  const auto module = qir::exportCircuit(ctx, circuit, options);
  return ir::printModule(*module);
}

/// The paper's Ex. 4 FOR-loop program with a parameterized bound: applies
/// one H to qubits 0..n-1 through a classical loop (alloca/load/store
/// form, exactly as a front end would emit it).
inline std::string ex4LoopProgram(unsigned n) {
  return R"(
declare void @__quantum__qis__h__body(ptr)

define void @main() #0 {
entry:
  %i = alloca i32, align 4
  store i32 0, ptr %i, align 4
  br label %for.header
for.header:
  %1 = load i32, ptr %i, align 4
  %cond = icmp slt i32 %1, )" +
         std::to_string(n) + R"(
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
)";
}

/// A pure-classical spin loop (no quantum calls): alloca/load/store form
/// with a compare-and-branch head and a multiply-store body, so every
/// iteration is a short cycle of memory, arithmetic and branch opcodes.
/// This is the dispatch-dominated workload for BM_Dispatch: wall time is
/// almost entirely the VM's fetch/decode/dispatch overhead.
inline std::string classicalSpinProgram(unsigned iterations) {
  return R"(
define void @main() #0 {
entry:
  %iv = alloca i64, align 8
  %acc = alloca i64, align 8
  %tmp = alloca i64, align 8
  store i64 0, ptr %iv, align 8
  store i64 0, ptr %acc, align 8
  br label %head
head:
  %i = load i64, ptr %iv, align 8
  %c = icmp slt i64 %i, )" +
         std::to_string(iterations) + R"(
  br i1 %c, label %body, label %exit
body:
  %a = load i64, ptr %acc, align 8
  %s = add i64 %a, %i
  store i64 %s, ptr %acc, align 8
  %t = mul i64 %i, 3
  store i64 %t, ptr %tmp, align 8
  %n = add i64 %i, 1
  store i64 %n, ptr %iv, align 8
  br label %head
exit:
  ret void
}
attributes #0 = { "entry_point" }
)";
}

/// A pure-classical dispatch-stress loop: every iteration advances a
/// 64-bit LCG and branches three levels deep on the (high, effectively
/// random) state bits into one of eight bodies with deliberately
/// different opcode mixes. The opcode stream seen by the dispatcher is
/// therefore data-dependent and unpredictable — the regime where a
/// switch loop's single indirect branch mispredicts on nearly every
/// instruction and token-threaded dispatch (one predictor slot per
/// handler) pulls ahead. This is the realistic interpreter case: real
/// programs run varied code, not an 11-instruction cycle the predictor
/// memorizes.
inline std::string dispatchStressProgram(unsigned iterations) {
  std::string s = R"(
define void @main() #0 {
entry:
  %iv = alloca i64, align 8
  %st = alloca i64, align 8
  %acc = alloca i64, align 8
  store i64 0, ptr %iv, align 8
  store i64 88172645463325252, ptr %st, align 8
  store i64 0, ptr %acc, align 8
  br label %head
head:
  %i = load i64, ptr %iv, align 8
  %c = icmp slt i64 %i, )" + std::to_string(iterations) + R"(
  br i1 %c, label %body, label %exit
body:
  %s0 = load i64, ptr %st, align 8
  %m = mul i64 %s0, 6364136223846793005
  %s1 = add i64 %m, 1442695040888963407
  store i64 %s1, ptr %st, align 8
  %sel = lshr i64 %s1, 61
  %hi = icmp ult i64 %sel, 4
  br i1 %hi, label %lo4, label %hi4
lo4:
  %l2 = icmp ult i64 %sel, 2
  br i1 %l2, label %lo2, label %mid2
hi4:
  %h6 = icmp ult i64 %sel, 6
  br i1 %h6, label %mid6, label %hi2
lo2:
  %e0 = icmp eq i64 %sel, 0
  br i1 %e0, label %c0, label %c1
mid2:
  %e2 = icmp eq i64 %sel, 2
  br i1 %e2, label %c2, label %c3
mid6:
  %e4 = icmp eq i64 %sel, 4
  br i1 %e4, label %c4, label %c5
hi2:
  %e6 = icmp eq i64 %sel, 6
  br i1 %e6, label %c6, label %c7
c0:
  %a0 = load i64, ptr %acc, align 8
  %x0 = xor i64 %a0, %s1
  %y0 = add i64 %x0, 17
  store i64 %y0, ptr %acc, align 8
  br label %join
c1:
  %a1 = load i64, ptr %acc, align 8
  %x1 = sub i64 %a1, 3
  %y1 = sub i64 %x1, %sel
  %z1 = add i64 %y1, %a1
  store i64 %z1, ptr %acc, align 8
  br label %join
c2:
  %a2 = load i64, ptr %acc, align 8
  %x2 = mul i64 %a2, 31
  %y2 = lshr i64 %x2, 3
  store i64 %y2, ptr %acc, align 8
  br label %join
c3:
  %a3 = load i64, ptr %acc, align 8
  %x3 = and i64 %a3, 262143
  %y3 = or i64 %x3, 4097
  %z3 = xor i64 %y3, %s1
  store i64 %z3, ptr %acc, align 8
  br label %join
c4:
  %a4 = load i64, ptr %acc, align 8
  %p4 = icmp sgt i64 %a4, 0
  %w4 = zext i1 %p4 to i64
  %y4 = add i64 %a4, %w4
  store i64 %y4, ptr %acc, align 8
  br label %join
c5:
  %a5 = load i64, ptr %acc, align 8
  %f5 = sitofp i64 %a5 to double
  %g5 = fmul double %f5, 0x3FE5555555555555
  %h5 = fptosi double %g5 to i64
  store i64 %h5, ptr %acc, align 8
  br label %join
c6:
  %a6 = load i64, ptr %acc, align 8
  %x6 = shl i64 %a6, 1
  %p6 = icmp slt i64 %x6, %s1
  %q6 = select i1 %p6, i64 %x6, i64 %a6
  store i64 %q6, ptr %acc, align 8
  br label %join
c7:
  %a7 = load i64, ptr %acc, align 8
  %x7 = ashr i64 %a7, 2
  %y7 = add i64 %x7, %sel
  %z7 = mul i64 %y7, 5
  store i64 %z7, ptr %acc, align 8
  br label %join
join:
  %n = add i64 %i, 1
  store i64 %n, ptr %iv, align 8
  br label %head
exit:
  ret void
}
attributes #0 = { "entry_point" }
)";
  return s;
}

/// A hybrid feedback program: measure, run `classicalOps` integer ops on
/// the result, then conditionally apply X (the §IV.B feedback shape).
inline std::string feedbackProgram(unsigned classicalOps) {
  std::string s = R"(
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  %v0 = zext i1 %r to i64
)";
  for (unsigned i = 1; i <= classicalOps; ++i) {
    s += "  %v" + std::to_string(i) + " = add i64 %v" + std::to_string(i - 1) +
         ", 1\n";
  }
  s += "  %c = icmp sgt i64 %v" + std::to_string(classicalOps) + R"(, 0
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
}

/// The bench_pipeline feedback_shots OpenQASM 3 shape: nested loops whose
/// variable drives the qubit index and the angle, then a measurement with a
/// classically conditioned X.
inline std::string layeredQasm3(unsigned layers, unsigned phase) {
  std::ostringstream s;
  s << "OPENQASM 3;\ninclude \"stdgates.inc\";\nqubit[6] q;\nbit[6] c;\n"
    << "for int layer in [0:" << layers - 1 << "] {\n"
    << "  for int i in [0:5] {\n    ry(pi * (layer + " << phase
    << ") / 16) q[i];\n  }\n"
    << "  for int i in [0:4] {\n    cx q[i], q[i+1];\n  }\n}\n"
    << "c[0] = measure q[0];\nif (c[0] == 1) {\n  x q[0];\n}\n"
    << "for int i in [0:5] {\n  c[i] = measure q[i];\n}\n";
  return s.str();
}

/// A VQE-style hybrid program: a classical parameter loop around a small
/// parameterized quantum kernel, all in one QIR function. The rotation
/// angle is iteration-dependent (i * step), so unrolling materializes
/// distinct constants.
inline std::string variationalLoopProgram(unsigned iterations, unsigned qubits) {
  std::string s = R"(
declare void @__quantum__qis__ry__body(double, ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)

define void @main() #0 {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %cond = icmp slt i64 %i, )" + std::to_string(iterations) + R"(
  br i1 %cond, label %kernel, label %exit
kernel:
  %fi = sitofp i64 %i to double
  %theta = fmul double %fi, 0.1
)";
  for (unsigned q = 0; q < qubits; ++q) {
    s += "  call void @__quantum__qis__ry__body(double %theta, ptr inttoptr (i64 " +
         std::to_string(q) + " to ptr))\n";
  }
  for (unsigned q = 0; q + 1 < qubits; ++q) {
    s += "  call void @__quantum__qis__cnot__body(ptr inttoptr (i64 " +
         std::to_string(q) + " to ptr), ptr inttoptr (i64 " + std::to_string(q + 1) +
         " to ptr))\n";
  }
  s += R"(  br label %latch
latch:
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret void
}
attributes #0 = { "entry_point" }
)";
  return s;
}

} // namespace qirkit::bench
