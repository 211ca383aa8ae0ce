/// \file circuit.hpp
/// The tool-specific "custom IR" of the paper's §III.A: a quantum circuit
/// as an operation list with classical bits, mid-circuit measurement, and
/// classically-conditioned gates. QIR and OpenQASM 2 importers/exporters
/// target this structure; circuit-level optimizations and the qubit mapper
/// operate on it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace qirkit::circuit {

/// The operation set, spelled once: one row per kind, as
///   OP(enumerator, OpenQASM spelling, qubits, angles, clifford)
/// from which OpKind and its name, arity, angle count and Clifford flag
/// follow. Operand conventions: CX's qubits[0] is the control, CCX's
/// qubits[0..1] are the controls, U3 takes (theta, phi, lambda), Measure
/// writes qubits[0] to its bit, and Barrier (0 qubits: variadic, empty =
/// all) is an optimization fence. "Clifford" means the stabilizer
/// simulator runs it. A new gate is one row here plus, if QIR has it, one
/// QIS name in qir/names.cpp.
#define QIRKIT_OP_KINDS(OP)           \
  OP(H, "h", 1, 0, true)              \
  OP(X, "x", 1, 0, true)              \
  OP(Y, "y", 1, 0, true)              \
  OP(Z, "z", 1, 0, true)              \
  OP(S, "s", 1, 0, true)              \
  OP(Sdg, "sdg", 1, 0, true)          \
  OP(T, "t", 1, 0, false)             \
  OP(Tdg, "tdg", 1, 0, false)         \
  OP(RX, "rx", 1, 1, false)           \
  OP(RY, "ry", 1, 1, false)           \
  OP(RZ, "rz", 1, 1, false)           \
  OP(U3, "u3", 1, 3, false)           \
  OP(CX, "cx", 2, 0, true)            \
  OP(CZ, "cz", 2, 0, true)            \
  OP(Swap, "swap", 2, 0, true)        \
  OP(CCX, "ccx", 3, 0, false)         \
  OP(Measure, "measure", 1, 0, true)  \
  OP(Reset, "reset", 1, 0, true)      \
  OP(Barrier, "barrier", 0, 0, true)

/// Gate / operation kinds.
enum class OpKind : std::uint8_t {
#define QIRKIT_OP_ENUMERATOR(name, spelling, qubits, angles, clifford) name,
  QIRKIT_OP_KINDS(QIRKIT_OP_ENUMERATOR)
#undef QIRKIT_OP_ENUMERATOR
};

/// Upper bounds on opKindArity and opKindParams over the list.
inline constexpr unsigned kMaxOpQubits = 3;
inline constexpr unsigned kMaxOpAngles = 3;

/// Every OpKind, in declaration order.
inline constexpr OpKind kAllOpKinds[] = {
#define QIRKIT_OP_ENUMERATOR(name, spelling, qubits, angles, clifford) OpKind::name,
    QIRKIT_OP_KINDS(QIRKIT_OP_ENUMERATOR)
#undef QIRKIT_OP_ENUMERATOR
};

[[nodiscard]] const char* opKindName(OpKind kind) noexcept; // OpenQASM spelling
[[nodiscard]] unsigned opKindArity(OpKind kind) noexcept;  // qubit count (Barrier: 0 = variadic)
[[nodiscard]] unsigned opKindParams(OpKind kind) noexcept; // angle count
[[nodiscard]] bool isClifford(OpKind kind) noexcept;
[[nodiscard]] bool isUnitary(OpKind kind) noexcept;
/// The kind spelled \p name (opKindName's inverse), if any.
[[nodiscard]] std::optional<OpKind> opKindNamed(std::string_view name) noexcept;

/// Classical condition: execute the operation iff the bit register slice
/// [firstBit, firstBit+numBits) equals \p value (OpenQASM 2 `if (c == v)`).
struct Condition {
  std::uint32_t firstBit = 0;
  std::uint32_t numBits = 1;
  std::uint64_t value = 1;

  friend bool operator==(const Condition&, const Condition&) = default;
};

/// One circuit operation.
struct Operation {
  OpKind kind = OpKind::H;
  std::vector<std::uint32_t> qubits;
  std::vector<double> params;
  std::uint32_t bit = 0; // Measure result target
  std::optional<Condition> condition;

  [[nodiscard]] bool touches(std::uint32_t qubit) const noexcept;
  friend bool operator==(const Operation&, const Operation&) = default;
};

/// A quantum circuit over `numQubits` qubits and `numBits` classical bits.
class Circuit {
public:
  Circuit() = default;
  Circuit(unsigned numQubits, unsigned numBits)
      : numQubits_(numQubits), numBits_(numBits) {}

  [[nodiscard]] unsigned numQubits() const noexcept { return numQubits_; }
  [[nodiscard]] unsigned numBits() const noexcept { return numBits_; }
  void setNumQubits(unsigned n);
  void setNumBits(unsigned n) { numBits_ = n; }

  [[nodiscard]] const std::vector<Operation>& ops() const noexcept { return ops_; }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  [[nodiscard]] const Operation& op(std::size_t i) const { return ops_.at(i); }

  /// Append a validated operation (throws SemanticError on bad indices).
  void add(Operation op);

  // -- convenience builders ---------------------------------------------------
  void h(std::uint32_t q) { add({OpKind::H, {q}, {}, 0, {}}); }
  void x(std::uint32_t q) { add({OpKind::X, {q}, {}, 0, {}}); }
  void y(std::uint32_t q) { add({OpKind::Y, {q}, {}, 0, {}}); }
  void z(std::uint32_t q) { add({OpKind::Z, {q}, {}, 0, {}}); }
  void s(std::uint32_t q) { add({OpKind::S, {q}, {}, 0, {}}); }
  void sdg(std::uint32_t q) { add({OpKind::Sdg, {q}, {}, 0, {}}); }
  void t(std::uint32_t q) { add({OpKind::T, {q}, {}, 0, {}}); }
  void tdg(std::uint32_t q) { add({OpKind::Tdg, {q}, {}, 0, {}}); }
  void rx(double theta, std::uint32_t q) { add({OpKind::RX, {q}, {theta}, 0, {}}); }
  void ry(double theta, std::uint32_t q) { add({OpKind::RY, {q}, {theta}, 0, {}}); }
  void rz(double theta, std::uint32_t q) { add({OpKind::RZ, {q}, {theta}, 0, {}}); }
  void u3(double theta, double phi, double lambda, std::uint32_t q) {
    add({OpKind::U3, {q}, {theta, phi, lambda}, 0, {}});
  }
  void cx(std::uint32_t control, std::uint32_t target) {
    add({OpKind::CX, {control, target}, {}, 0, {}});
  }
  void cz(std::uint32_t a, std::uint32_t b) { add({OpKind::CZ, {a, b}, {}, 0, {}}); }
  void swap(std::uint32_t a, std::uint32_t b) {
    add({OpKind::Swap, {a, b}, {}, 0, {}});
  }
  void ccx(std::uint32_t c1, std::uint32_t c2, std::uint32_t t) {
    add({OpKind::CCX, {c1, c2, t}, {}, 0, {}});
  }
  void measure(std::uint32_t q, std::uint32_t bit) {
    add({OpKind::Measure, {q}, {}, bit, {}});
  }
  void reset(std::uint32_t q) { add({OpKind::Reset, {q}, {}, 0, {}}); }
  void barrier() { add({OpKind::Barrier, {}, {}, 0, {}}); }
  /// Measure every qubit into the same-numbered bit.
  void measureAll();

  // -- queries ------------------------------------------------------------
  /// Count of unitary gate operations (measure/reset/barrier excluded).
  [[nodiscard]] std::size_t gateCount() const noexcept;
  [[nodiscard]] std::size_t countKind(OpKind kind) const noexcept;
  [[nodiscard]] std::size_t twoQubitGateCount() const noexcept;
  /// Circuit depth: longest chain of operations per qubit/bit dependency.
  [[nodiscard]] std::size_t depth() const;
  /// True if any operation is conditioned or any gate follows a measurement
  /// on an overlapping qubit — i.e. the circuit needs the adaptive profile.
  [[nodiscard]] bool hasClassicalFeedback() const noexcept;
  [[nodiscard]] bool hasConditions() const noexcept;

  /// Short human-readable summary.
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const Circuit&, const Circuit&) = default;

private:
  unsigned numQubits_ = 0;
  unsigned numBits_ = 0;
  std::vector<Operation> ops_;
};

} // namespace qirkit::circuit
