#include "circuit/executor.hpp"

#include "sim/stabilizer.hpp"
#include "support/source_location.hpp"

#include <algorithm>

namespace qirkit::circuit {

namespace {

bool conditionHolds(const Condition& cond, const std::vector<bool>& bits) {
  std::uint64_t value = 0;
  for (std::uint32_t i = 0; i < cond.numBits; ++i) {
    if (bits[cond.firstBit + i]) {
      value |= std::uint64_t{1} << i;
    }
  }
  return value == cond.value;
}

} // namespace

sim::GateMatrix2 gateMatrix(OpKind kind, std::span<const double> angles) noexcept {
  switch (kind) {
  case OpKind::H: return sim::gateH();
  case OpKind::X: return sim::gateX();
  case OpKind::Y: return sim::gateY();
  case OpKind::Z: return sim::gateZ();
  case OpKind::S: return sim::gateS();
  case OpKind::Sdg: return sim::gateSdg();
  case OpKind::T: return sim::gateT();
  case OpKind::Tdg: return sim::gateTdg();
  case OpKind::RX: return sim::gateRX(angles[0]);
  case OpKind::RY: return sim::gateRY(angles[0]);
  case OpKind::RZ: return sim::gateRZ(angles[0]);
  case OpKind::U3: return sim::gateU3(angles[0], angles[1], angles[2]);
  default: return sim::GateMatrix2{1, 0, 0, 1};
  }
}

void applyGate(sim::StateVector& state, OpKind kind, std::span<const std::uint32_t> qubits,
               std::span<const double> angles) {
  switch (kind) {
  case OpKind::CX: state.applyControlled1(sim::gateX(), qubits[0], qubits[1]); break;
  case OpKind::CZ: state.applyControlled1(sim::gateZ(), qubits[0], qubits[1]); break;
  case OpKind::Swap: state.applySwap(qubits[0], qubits[1]); break;
  case OpKind::CCX: state.applyCCX(qubits[0], qubits[1], qubits[2]); break;
  default: state.apply1(gateMatrix(kind, angles), qubits[0]); break;
  }
}

void applyGate(sim::StabilizerSimulator& state, OpKind kind,
               std::span<const std::uint32_t> qubits) {
  switch (kind) {
  case OpKind::H: state.h(qubits[0]); break;
  case OpKind::X: state.x(qubits[0]); break;
  case OpKind::Y: state.y(qubits[0]); break;
  case OpKind::Z: state.z(qubits[0]); break;
  case OpKind::S: state.s(qubits[0]); break;
  case OpKind::Sdg: state.sdg(qubits[0]); break;
  case OpKind::CX: state.cx(qubits[0], qubits[1]); break;
  case OpKind::CZ: state.cz(qubits[0], qubits[1]); break;
  case OpKind::Swap: state.swap(qubits[0], qubits[1]); break;
  default: break;
  }
}

ExecutionResult execute(const Circuit& circuit, std::uint64_t seed,
                        qirkit::ThreadPool* pool) {
  SplitMix64 rng(seed);
  ExecutionResult result{std::vector<bool>(circuit.numBits(), false),
                         sim::StateVector(circuit.numQubits(), pool)};
  sim::StateVector& state = result.state;
  for (const Operation& op : circuit.ops()) {
    if (op.condition && !conditionHolds(*op.condition, result.bits)) {
      continue;
    }
    switch (op.kind) {
    case OpKind::Measure:
      result.bits[op.bit] = state.measure(op.qubits[0], rng);
      break;
    case OpKind::Reset: state.resetQubit(op.qubits[0], rng); break;
    case OpKind::Barrier: break;
    default: applyGate(state, op.kind, op.qubits, op.params); break;
    }
  }
  return result;
}

std::map<std::string, std::uint64_t> sampleCounts(const Circuit& circuit,
                                                  std::uint64_t shots,
                                                  std::uint64_t seed) {
  std::map<std::string, std::uint64_t> counts;
  for (std::uint64_t s = 0; s < shots; ++s) {
    const ExecutionResult result = execute(circuit, seed + s);
    ++counts[bitsToString(result.bits)];
  }
  return counts;
}

bool isCliffordCircuit(const Circuit& circuit) {
  return std::all_of(circuit.ops().begin(), circuit.ops().end(),
                     [](const Operation& op) { return isClifford(op.kind); });
}

std::vector<bool> executeClifford(const Circuit& circuit, std::uint64_t seed) {
  SplitMix64 rng(seed);
  sim::StabilizerSimulator state(std::max(1U, circuit.numQubits()));
  std::vector<bool> bits(circuit.numBits(), false);
  for (const Operation& op : circuit.ops()) {
    if (op.condition && !conditionHolds(*op.condition, bits)) {
      continue;
    }
    if (!isClifford(op.kind)) {
      throw SemanticError(std::string("non-Clifford operation '") +
                          opKindName(op.kind) +
                          "' cannot run on the stabilizer simulator");
    }
    switch (op.kind) {
    case OpKind::Measure: bits[op.bit] = state.measure(op.qubits[0], rng); break;
    case OpKind::Reset: state.reset(op.qubits[0], rng); break;
    case OpKind::Barrier: break;
    default: applyGate(state, op.kind, op.qubits); break;
    }
  }
  return bits;
}

std::string bitsToString(const std::vector<bool>& bits) {
  std::string out(bits.size(), '0');
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) {
      out[bits.size() - 1 - i] = '1';
    }
  }
  return out;
}

} // namespace qirkit::circuit
