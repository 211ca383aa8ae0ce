#include "vm/bytecode.hpp"

#include "ir/instruction.hpp"

#include <sstream>

namespace qirkit::vm {

namespace {

/// How an opcode's `sub` field is spelled (QIRKIT_VM_OPS's last column).
enum class SubSpelling : std::uint8_t { None, Opcode, ICmpPred, FCmpPred };

/// How the disassembler spells \p in's `sub`, or nullptr when it has none.
const char* subName(const Inst& in) noexcept {
  static constexpr SubSpelling kSpelling[] = {
#define QIRKIT_VM_SUB(name, mnemonic, cls, sub) SubSpelling::sub,
      QIRKIT_VM_OPS(QIRKIT_VM_SUB)
#undef QIRKIT_VM_SUB
  };
  switch (kSpelling[static_cast<std::size_t>(in.op)]) {
  case SubSpelling::None:
    return nullptr;
  case SubSpelling::Opcode:
    return ir::opcodeName(static_cast<ir::Opcode>(in.sub));
  case SubSpelling::ICmpPred:
    return ir::icmpPredName(static_cast<ir::ICmpPred>(in.sub));
  case SubSpelling::FCmpPred:
    return ir::fcmpPredName(static_cast<ir::FCmpPred>(in.sub));
  }
  return nullptr;
}

} // namespace

const char* opName(Op op) noexcept {
  static constexpr const char* kNames[] = {
#define QIRKIT_VM_MNEMONIC(name, mnemonic, cls, sub) mnemonic,
      QIRKIT_VM_OPS(QIRKIT_VM_MNEMONIC)
#undef QIRKIT_VM_MNEMONIC
  };
  return kNames[static_cast<std::size_t>(op)];
}

std::size_t BytecodeModule::instructionCount() const noexcept {
  std::size_t n = 0;
  for (const CompiledFunction& fn : functions) {
    n += fn.code.size();
  }
  return n;
}

std::string BytecodeModule::disassemble() const {
  std::ostringstream out;
  for (std::size_t f = 0; f < functions.size(); ++f) {
    const CompiledFunction& fn = functions[f];
    out << "func[" << f << "] @" << fn.name << " args=" << fn.numArgs
        << " regs=" << fn.numRegs << " consts=" << fn.constants.size() << "\n";
    for (std::size_t i = 0; i < fn.code.size(); ++i) {
      const Inst& in = fn.code[i];
      out << "  " << i << ": " << opName(in.op);
      if (const char* sub = subName(in)) {
        out << '.' << sub;
      }
      out << " a=" << in.a << " b=" << in.b << " c=" << in.c << " d=" << in.d;
      if (in.op == Op::CallExtern && in.b < externNames.size()) {
        out << " ; @" << externNames[in.b];
      }
      if (in.op == Op::Call && in.b < functions.size()) {
        out << " ; @" << functions[in.b].name;
      }
      if (in.op == Op::Fused && in.a < fn.fusedSweeps.size()) {
        const FusedSweepRun& run = fn.fusedSweeps[in.a];
        // Indexed by sim::SweepGate::Kind.
        static constexpr const char* kKindNames[] = {"u1", "u2", "diag", "ctl",
                                                     "swap"};
        out << " ; " << run.blockCount << " blocks, " << run.totalGates
            << " gates:";
        for (std::uint32_t b = 0; b < run.blockCount; ++b) {
          const interp::FusedBlock& block = fn.fusedBlocks[run.firstBlock + b];
          out << ' ' << kKindNames[static_cast<int>(block.kind)] << '(';
          for (std::size_t q = 0; q < block.qubits.size(); ++q) {
            out << (q == 0 ? "q" : " q") << block.qubits[q];
          }
          out << ')';
        }
      }
      if ((in.flags & kStep) != 0) {
        out << " [step]";
      }
      out << "\n";
    }
    for (std::size_t t = 0; t < fn.switchTables.size(); ++t) {
      const SwitchTable& table = fn.switchTables[t];
      out << "  table[" << t << "] default=" << table.defaultTarget;
      for (const auto& [value, target] : table.cases) {
        out << " " << value << "->" << target;
      }
      out << "\n";
    }
  }
  return out.str();
}

} // namespace qirkit::vm
