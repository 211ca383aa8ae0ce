/// \file qasm3.hpp
/// An OpenQASM 3 subset front end that lowers directly to QIR.
///
/// The paper's §II.B observes that OpenQASM 3 "integrates classical logic
/// and control flow into the IR", which "requires the reimplementation of
/// concepts that are already well-established … in classical compilers".
/// This front end demonstrates QIR's counter-proposal: the classical
/// constructs (FOR loops, measurement conditionals, integer index
/// arithmetic) are lowered onto plain LLVM-style IR, and the *existing*
/// classical passes (mem2reg, SCCP, unrolling — §II.C) do the rest.
///
/// Supported subset:
///   OPENQASM 3; / OPENQASM 3.0;
///   include "stdgates.inc";                    (gates are builtin)
///   qubit[N] name;  bit[N] name;
///   gate applications: h x y z s sdg t tdg rx ry rz cx cz swap ccx U
///     with angle expressions over literals, pi, + - * / and loop variables
///   name[expr] indexing (expr over integer literals and loop variables)
///   bit[i] = measure qubit[j];
///   reset q[i];
///   for int i in [a:b] { ... }                 (inclusive range, step 1)
///   if (bit[i] == 0|1) { ... }  /  if (bit[i]) { ... }
///   while (bit[i] == 0|1) { ... }
///
/// Lexing, the header and include rule and the register table are the
/// shared OpenQASM reader (reader.hpp), so `//` and `/* */` comments and
/// reals written `.5` are accepted.
#pragma once

#include "ir/module.hpp"

#include <memory>
#include <string_view>

namespace qirkit::qasm {

/// Compile OpenQASM 3 source to a QIR module (entry point @main with the
/// standard attributes). Classical constructs become IR control flow; run
/// qir::transformDirect to resolve them to plain gate sequences. A
/// constant register index is checked here (qirkit::ParseError); one a
/// loop variable computes is checked by qasm::loadProgram after the
/// pipeline. Registers past passes::kMaxExpandedModuleSize qubits or bits
/// are an error[semantic] qirkit::Error.
[[nodiscard]] std::unique_ptr<ir::Module> compileQasm3(ir::Context& context,
                                                       std::string_view source);

} // namespace qirkit::qasm
