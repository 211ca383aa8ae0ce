#include "vm/bytecode.hpp"

#include "ir/instruction.hpp"

#include <sstream>

namespace qirkit::vm {

const char* opName(Op op) noexcept {
  switch (op) {
  case Op::Nop: return "nop";
  case Op::Mov: return "mov";
  case Op::IntBin: return "ibin";
  case Op::FloatBin: return "fbin";
  case Op::ICmp: return "icmp";
  case Op::ICmpPtr: return "icmp.ptr";
  case Op::FCmp: return "fcmp";
  case Op::ZExt: return "zext";
  case Op::Trunc: return "trunc";
  case Op::PtrToInt: return "ptrtoint";
  case Op::IntToPtr: return "inttoptr";
  case Op::SiToF: return "sitofp";
  case Op::UiToF: return "uitofp";
  case Op::FToSi: return "fptosi";
  case Op::FToUi: return "fptoui";
  case Op::Select: return "select";
  case Op::Alloca: return "alloca";
  case Op::LoadInt: return "load.i";
  case Op::LoadDouble: return "load.d";
  case Op::LoadPtr: return "load.p";
  case Op::StoreInt: return "store.i";
  case Op::StoreDouble: return "store.d";
  case Op::StorePtr: return "store.p";
  case Op::Jmp: return "jmp";
  case Op::JmpIf: return "jmp.if";
  case Op::SwitchI: return "switch";
  case Op::Ret: return "ret";
  case Op::RetVoid: return "ret.void";
  case Op::PushArg: return "push.arg";
  case Op::Call: return "call";
  case Op::CallExtern: return "call.ext";
  case Op::Trap: return "trap";
  case Op::Fused: return "fused";
  case Op::CmpBr: return "cmp.br";
  case Op::BinStore: return "bin.store";
  case Op::LoadBin: return "load.bin";
  case Op::PushCall: return "push.call";
  case Op::Ext: return "ext";
  }
  return "?";
}

const char* dispatchModeName(DispatchMode mode) noexcept {
  return mode == DispatchMode::Threaded ? "threaded" : "switch";
}

DispatchMode defaultDispatchMode() noexcept {
  return threadedDispatchAvailable() ? DispatchMode::Threaded
                                     : DispatchMode::Switch;
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
      switch (in.op) {
      case Op::IntBin:
      case Op::FloatBin:
      case Op::BinStore:
        out << '.' << ir::opcodeName(static_cast<ir::Opcode>(in.sub));
        break;
      case Op::ICmp:
      case Op::ICmpPtr:
      case Op::CmpBr:
        out << '.' << ir::icmpPredName(static_cast<ir::ICmpPred>(in.sub));
        break;
      case Op::FCmp:
        out << '.' << ir::fcmpPredName(static_cast<ir::FCmpPred>(in.sub));
        break;
      default:
        break;
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
        // Indexed by FusedBlock::Kind.
        static constexpr const char* kKindNames[] = {"u1", "u2", "diag"};
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
