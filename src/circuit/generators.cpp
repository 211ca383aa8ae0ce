#include "circuit/generators.hpp"

#include "support/rng.hpp"

#include <algorithm>
#include <numbers>

namespace qirkit::circuit {

Circuit bellPair(bool measured) { return ghz(2, measured); }

Circuit ghz(unsigned n, bool measured) {
  Circuit c(n, measured ? n : 0);
  c.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) {
    c.cx(q, q + 1);
  }
  if (measured) {
    c.measureAll();
  }
  return c;
}

Circuit qft(unsigned n, bool measured) {
  Circuit c(n, measured ? n : 0);
  for (unsigned target = 0; target < n; ++target) {
    c.h(target);
    for (unsigned control = target + 1; control < n; ++control) {
      // Controlled phase rotation CP(pi / 2^(control-target)), expressed as
      // CZ-conjugated RZ pair (exact up to global phase):
      //   CP(l) = RZ(l/2) on control, RZ(l/2) on target, CX, RZ(-l/2), CX.
      const double lambda =
          std::numbers::pi / static_cast<double>(1U << (control - target));
      c.rz(lambda / 2, control);
      c.rz(lambda / 2, target);
      c.cx(control, target);
      c.rz(-lambda / 2, target);
      c.cx(control, target);
    }
  }
  for (unsigned q = 0; q < n / 2; ++q) {
    c.swap(q, n - 1 - q);
  }
  if (measured) {
    c.measureAll();
  }
  return c;
}

Circuit randomCircuit(unsigned n, unsigned layers, std::uint64_t seed, bool measured) {
  SplitMix64 rng(seed);
  Circuit c(n, measured ? n : 0);
  for (unsigned layer = 0; layer < layers; ++layer) {
    for (unsigned q = 0; q < n; ++q) {
      switch (rng.below(6)) {
      case 0: c.h(q); break;
      case 1: c.x(q); break;
      case 2: c.t(q); break;
      case 3: c.s(q); break;
      case 4: c.rz(rng.uniform() * 2 * std::numbers::pi, q); break;
      case 5: c.ry(rng.uniform() * 2 * std::numbers::pi, q); break;
      default: break;
      }
    }
    if (n >= 2) {
      for (unsigned pair = 0; pair < n / 2; ++pair) {
        const auto a = static_cast<std::uint32_t>(rng.below(n));
        auto b = static_cast<std::uint32_t>(rng.below(n));
        if (a == b) {
          b = (b + 1) % n;
        }
        c.cx(a, b);
      }
    }
  }
  if (measured) {
    c.measureAll();
  }
  return c;
}

Circuit hardwareEfficientAnsatz(unsigned n, unsigned layers, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Circuit c(n, 0);
  for (unsigned layer = 0; layer < layers; ++layer) {
    for (unsigned q = 0; q < n; ++q) {
      c.ry(rng.uniform() * 2 * std::numbers::pi, q);
      c.rz(rng.uniform() * 2 * std::numbers::pi, q);
    }
    for (unsigned q = 0; q + 1 < n; ++q) {
      c.cx(q, q + 1);
    }
  }
  return c;
}

Circuit randomAdaptiveCircuit(std::uint64_t seed) {
  SplitMix64 rng(seed);
  const auto n = static_cast<unsigned>(3 + rng.below(4));
  const auto midCircuit = static_cast<unsigned>(1 + rng.below(4));
  Circuit c(n, midCircuit + n);
  const auto qubit = [&] { return static_cast<std::uint32_t>(rng.below(n)); };
  const auto angle = [&] { return rng.uniform() * 2 * std::numbers::pi; };
  constexpr OpKind kRotations[] = {OpKind::RX, OpKind::RY, OpKind::RZ};
  std::uint32_t measured = 0;
  const auto randomOp = [&] {
    switch (rng.below(measured == 0 ? 2 : 4)) {
    case 0: c.add({kRotations[rng.below(3)], {qubit()}, {angle()}, 0, {}}); break;
    case 1: {
      const std::uint32_t a = qubit();
      std::uint32_t b = qubit();
      if (a == b) {
        b = (b + 1) % n;
      }
      c.cx(a, b);
      break;
    }
    case 2: {
      // X or a rotation, applied when one or two measured bits match.
      const auto first = static_cast<std::uint32_t>(rng.below(measured));
      const auto numBits =
          static_cast<std::uint32_t>(1 + rng.below(std::min(2U, measured - first)));
      const Condition condition{first, numBits, rng.below(std::uint64_t{1} << numBits)};
      if (rng.below(2) == 0) {
        c.add({OpKind::X, {qubit()}, {}, 0, condition});
      } else {
        c.add({OpKind::RY, {qubit()}, {angle()}, 0, condition});
      }
      break;
    }
    default: c.reset(qubit()); break;
    }
  };
  for (; measured < midCircuit; ++measured) {
    for (auto ops = 2 + rng.below(4); ops != 0; --ops) {
      randomOp();
    }
    c.measure(qubit(), measured);
  }
  for (auto ops = 1 + rng.below(4); ops != 0; --ops) {
    randomOp();
  }
  for (std::uint32_t q = 0; q < n; ++q) {
    c.measure(q, midCircuit + q);
  }
  return c;
}

Circuit repetitionCodeCycle(double theta, unsigned errorQubit) {
  // Qubits 0..2: data; 3..4: syndrome ancillas.
  // Bits 0..1: syndrome; 2..4: data readout.
  Circuit c(5, 5);
  // Prepare |psi> = RY(theta)|0> and encode across the three data qubits.
  c.ry(theta, 0);
  c.cx(0, 1);
  c.cx(0, 2);
  // Error injection.
  if (errorQubit < 3) {
    c.x(errorQubit);
  }
  // Syndrome extraction: ancilla 3 = parity(q0, q1), ancilla 4 = parity(q1, q2).
  c.cx(0, 3);
  c.cx(1, 3);
  c.cx(1, 4);
  c.cx(2, 4);
  c.measure(3, 0);
  c.measure(4, 1);
  // Conditioned corrections (syndrome value selects the flipped qubit):
  //   s = 01 -> q0, s = 11 -> q1, s = 10 -> q2   (bit0 = ancilla 3).
  c.add({OpKind::X, {0}, {}, 0, Condition{0, 2, 0b01}});
  c.add({OpKind::X, {1}, {}, 0, Condition{0, 2, 0b11}});
  c.add({OpKind::X, {2}, {}, 0, Condition{0, 2, 0b10}});
  // Read out the corrected data block.
  c.measure(0, 2);
  c.measure(1, 3);
  c.measure(2, 4);
  return c;
}

} // namespace qirkit::circuit
