#include "circuit/circuit.hpp"

#include "support/source_location.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

namespace qirkit::circuit {

namespace {

struct OpKindInfo {
  const char* spelling;
  unsigned qubits;
  unsigned angles;
  bool clifford;
};

constexpr OpKindInfo kOpKindInfo[] = {
#define QIRKIT_OP_INFO(name, spelling, qubits, angles, clifford) \
  {spelling, qubits, angles, clifford},
    QIRKIT_OP_KINDS(QIRKIT_OP_INFO)
#undef QIRKIT_OP_INFO
};

static_assert(std::all_of(std::begin(kOpKindInfo), std::end(kOpKindInfo),
                          [](const OpKindInfo& row) {
                            return row.qubits <= kMaxOpQubits && row.angles <= kMaxOpAngles;
                          }));

const OpKindInfo& info(OpKind kind) noexcept {
  return kOpKindInfo[static_cast<std::size_t>(kind)];
}

} // namespace

const char* opKindName(OpKind kind) noexcept { return info(kind).spelling; }

unsigned opKindArity(OpKind kind) noexcept { return info(kind).qubits; }

unsigned opKindParams(OpKind kind) noexcept { return info(kind).angles; }

bool isClifford(OpKind kind) noexcept { return info(kind).clifford; }

bool isUnitary(OpKind kind) noexcept {
  return kind != OpKind::Measure && kind != OpKind::Reset && kind != OpKind::Barrier;
}

std::optional<OpKind> opKindNamed(std::string_view name) noexcept {
  for (const OpKind kind : kAllOpKinds) {
    if (name == info(kind).spelling) {
      return kind;
    }
  }
  return std::nullopt;
}

bool Operation::touches(std::uint32_t qubit) const noexcept {
  if (kind == OpKind::Barrier && qubits.empty()) {
    return true;
  }
  return std::find(qubits.begin(), qubits.end(), qubit) != qubits.end();
}

void Circuit::setNumQubits(unsigned n) {
  for (const Operation& op : ops_) {
    for (const std::uint32_t q : op.qubits) {
      if (q >= n) {
        throw SemanticError("cannot shrink circuit below used qubit index " +
                            std::to_string(q));
      }
    }
  }
  numQubits_ = n;
}

void Circuit::add(Operation op) {
  const unsigned arity = opKindArity(op.kind);
  if (arity != 0 && op.qubits.size() != arity) {
    throw SemanticError(std::string("operation ") + opKindName(op.kind) +
                        " expects " + std::to_string(arity) + " qubits, got " +
                        std::to_string(op.qubits.size()));
  }
  if (op.params.size() != opKindParams(op.kind)) {
    throw SemanticError(std::string("operation ") + opKindName(op.kind) +
                        " expects " + std::to_string(opKindParams(op.kind)) +
                        " parameters");
  }
  for (std::size_t i = 0; i < op.qubits.size(); ++i) {
    if (op.qubits[i] >= numQubits_) {
      throw SemanticError("qubit index " + std::to_string(op.qubits[i]) +
                          " out of range (circuit has " + std::to_string(numQubits_) +
                          " qubits)");
    }
    for (std::size_t j = i + 1; j < op.qubits.size(); ++j) {
      if (op.qubits[i] == op.qubits[j]) {
        throw SemanticError(std::string("duplicate qubit operand in ") +
                            opKindName(op.kind));
      }
    }
  }
  if (op.kind == OpKind::Measure && op.bit >= numBits_) {
    throw SemanticError("classical bit index " + std::to_string(op.bit) +
                        " out of range");
  }
  if (op.condition) {
    if (op.condition->firstBit + op.condition->numBits > numBits_) {
      throw SemanticError("condition bit range out of range");
    }
  }
  ops_.push_back(std::move(op));
}

void Circuit::measureAll() {
  if (numBits_ < numQubits_) {
    throw SemanticError("measureAll requires at least as many bits as qubits");
  }
  for (unsigned q = 0; q < numQubits_; ++q) {
    measure(q, q);
  }
}

std::size_t Circuit::gateCount() const noexcept {
  std::size_t count = 0;
  for (const Operation& op : ops_) {
    if (isUnitary(op.kind)) {
      ++count;
    }
  }
  return count;
}

std::size_t Circuit::countKind(OpKind kind) const noexcept {
  std::size_t count = 0;
  for (const Operation& op : ops_) {
    if (op.kind == kind) {
      ++count;
    }
  }
  return count;
}

std::size_t Circuit::twoQubitGateCount() const noexcept {
  std::size_t count = 0;
  for (const Operation& op : ops_) {
    if (isUnitary(op.kind) && op.qubits.size() >= 2) {
      ++count;
    }
  }
  return count;
}

std::size_t Circuit::depth() const {
  std::vector<std::size_t> qubitFrontier(numQubits_, 0);
  std::vector<std::size_t> bitFrontier(numBits_, 0);
  std::size_t depth = 0;
  for (const Operation& op : ops_) {
    if (op.kind == OpKind::Barrier) {
      // A barrier synchronizes its qubits (all, when unqualified).
      std::size_t level = 0;
      if (op.qubits.empty()) {
        for (const std::size_t f : qubitFrontier) {
          level = std::max(level, f);
        }
        std::fill(qubitFrontier.begin(), qubitFrontier.end(), level);
      } else {
        for (const std::uint32_t q : op.qubits) {
          level = std::max(level, qubitFrontier[q]);
        }
        for (const std::uint32_t q : op.qubits) {
          qubitFrontier[q] = level;
        }
      }
      continue;
    }
    std::size_t level = 0;
    for (const std::uint32_t q : op.qubits) {
      level = std::max(level, qubitFrontier[q]);
    }
    if (op.kind == OpKind::Measure) {
      level = std::max(level, bitFrontier[op.bit]);
    }
    if (op.condition) {
      for (std::uint32_t b = op.condition->firstBit;
           b < op.condition->firstBit + op.condition->numBits; ++b) {
        level = std::max(level, bitFrontier[b]);
      }
    }
    ++level;
    for (const std::uint32_t q : op.qubits) {
      qubitFrontier[q] = level;
    }
    if (op.kind == OpKind::Measure) {
      bitFrontier[op.bit] = level;
    }
    depth = std::max(depth, level);
  }
  return depth;
}

bool Circuit::hasConditions() const noexcept {
  for (const Operation& op : ops_) {
    if (op.condition) {
      return true;
    }
  }
  return false;
}

bool Circuit::hasClassicalFeedback() const noexcept {
  if (hasConditions()) {
    return true;
  }
  // A unitary (or reset) after a measurement on the same qubit is
  // mid-circuit measurement, which the base profile cannot express.
  std::vector<bool> measured(numQubits_, false);
  for (const Operation& op : ops_) {
    if (op.kind == OpKind::Measure) {
      measured[op.qubits[0]] = true;
    } else if (op.kind != OpKind::Barrier) {
      for (const std::uint32_t q : op.qubits) {
        if (measured[q]) {
          return true;
        }
      }
    }
  }
  return false;
}

std::string Circuit::summary() const {
  std::ostringstream out;
  out << "circuit(" << numQubits_ << "q, " << numBits_ << "c): " << ops_.size()
      << " ops, " << gateCount() << " gates (" << twoQubitGateCount()
      << " two-qubit), depth " << depth();
  return out.str();
}

} // namespace qirkit::circuit
