/// \file parser.hpp
/// OpenQASM 2.0 parser onto the circuit IR — the ecosystem format the
/// paper contrasts QIR with (§II.A, Fig. 1 left).
///
/// Supported: OPENQASM 2.0 header, include "qelib1.inc" (gates provided as
/// builtins), qreg/creg (multiple registers, flattened), the qelib1 gate
/// set (h x y z s sdg t tdg rx ry rz u1 u2 u3 id cx cz swap ccx), the
/// builtin U/CX, user `gate` definitions (inlined at application), gate
/// broadcasting over registers, measure, reset, barrier, and
/// `if (creg == n)` conditions. Angle expressions support pi, + - * / ^,
/// unary minus, parentheses, and sin/cos/tan/exp/ln/sqrt.
///
/// Lexing, the header and include rule and the register table are the
/// shared OpenQASM reader (reader.hpp): `//` and `/* */` comments and
/// reals written `.5` are accepted, and a register index is checked
/// against its register where it is written.
#pragma once

#include "circuit/circuit.hpp"

#include <string_view>

namespace qirkit::qasm {

/// Parse OpenQASM 2.0 source into a circuit. Registers are flattened into
/// one qubit index space (declaration order) and one bit index space.
/// Throws qirkit::ParseError on malformed input, including an index past
/// its register, and an error[semantic] qirkit::Error when the registers
/// declare more than passes::kMaxExpandedModuleSize qubits or bits, or
/// when user gates and broadcasts expand the program by more than that
/// many operations beyond one per statement.
[[nodiscard]] circuit::Circuit parse(std::string_view source);

} // namespace qirkit::qasm
