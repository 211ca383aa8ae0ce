#include "vm/fusion.hpp"

#include "qir/names.hpp"
#include "sim/gates.hpp"

#include <algorithm>
#include <cassert>
#include <string_view>

namespace qirkit::vm {

using interp::FusedBlock;
using interp::FusedReplayCall;
using interp::kMaxSweepBlocks;
using interp::Memory;
using interp::RtValue;

namespace {

enum class GateKind : std::uint8_t {
  H, X, Y, Z, S, Sdg, T, Tdg, RX, RY, RZ, Cnot, Cz, Swap,
};

struct GateSpec {
  GateKind kind;
  unsigned numParams; // leading double arguments (rotation angles)
  unsigned numQubits; // trailing qubit arguments
  bool diagonal;      // diagonal in the computational basis
};

/// Every code offset control may enter at (branch/switch targets). Gate
/// fusion and superinstruction mining refuse to form a run a branch could
/// enter mid-way.
std::vector<bool> computeJumpTargets(const CompiledFunction& fn) {
  std::vector<bool> jumpTarget(fn.code.size(), false);
  const auto mark = [&jumpTarget](std::uint32_t target) {
    if (target < jumpTarget.size()) {
      jumpTarget[target] = true;
    }
  };
  for (const Inst& in : fn.code) {
    switch (in.op) {
    case Op::Jmp:
      mark(in.a);
      break;
    case Op::JmpIf:
      mark(in.b);
      mark(in.c);
      break;
    default:
      break;
    }
  }
  for (const SwitchTable& table : fn.switchTables) {
    mark(table.defaultTarget);
    for (const auto& [value, target] : table.cases) {
      mark(target);
    }
  }
  return jumpTarget;
}

const GateSpec* classify(std::string_view name) noexcept {
  static const std::pair<std::string_view, GateSpec> kTable[] = {
      {qir::kQisH, {GateKind::H, 0, 1, false}},
      {qir::kQisX, {GateKind::X, 0, 1, false}},
      {qir::kQisY, {GateKind::Y, 0, 1, false}},
      {qir::kQisZ, {GateKind::Z, 0, 1, true}},
      {qir::kQisS, {GateKind::S, 0, 1, true}},
      {qir::kQisSAdj, {GateKind::Sdg, 0, 1, true}},
      {qir::kQisT, {GateKind::T, 0, 1, true}},
      {qir::kQisTAdj, {GateKind::Tdg, 0, 1, true}},
      {qir::kQisRX, {GateKind::RX, 1, 1, false}},
      {qir::kQisRY, {GateKind::RY, 1, 1, false}},
      {qir::kQisRZ, {GateKind::RZ, 1, 1, true}},
      {qir::kQisCNOT, {GateKind::Cnot, 0, 2, false}},
      {qir::kQisCZ, {GateKind::Cz, 0, 2, true}},
      {qir::kQisSwap, {GateKind::Swap, 0, 2, false}},
  };
  for (const auto& [gateName, spec] : kTable) {
    if (gateName == name) {
      return &spec;
    }
  }
  return nullptr;
}

sim::GateMatrix2 matrix2For(GateKind kind, double param) noexcept {
  switch (kind) {
  case GateKind::H: return sim::gateH();
  case GateKind::X: return sim::gateX();
  case GateKind::Y: return sim::gateY();
  case GateKind::Z: return sim::gateZ();
  case GateKind::S: return sim::gateS();
  case GateKind::Sdg: return sim::gateSdg();
  case GateKind::T: return sim::gateT();
  case GateKind::Tdg: return sim::gateTdg();
  case GateKind::RX: return sim::gateRX(param);
  case GateKind::RY: return sim::gateRY(param);
  case GateKind::RZ: return sim::gateRZ(param);
  default: break;
  }
  return sim::GateMatrix2{1, 0, 0, 1};
}

/// One decoded fusable gate call: its instruction span [begin, end)
/// (PushArgs + CallExtern), classified spec, constant operands.
struct GateUnit {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t slot = 0;
  const GateSpec* spec = nullptr;
  double param = 0;
  std::uint64_t qubits[2] = {0, 0};
  std::vector<RtValue> args;
};

class Fuser {
public:
  Fuser(CompiledFunction& fn, const std::vector<std::string>& externNames)
      : fn_(fn), externNames_(externNames) {}

  FusionStats run() {
    jumpTarget_ = computeJumpTargets(fn_);
    std::vector<GateUnit> runUnits;
    std::uint32_t pc = 0;
    const auto size = static_cast<std::uint32_t>(fn_.code.size());
    while (pc < size) {
      // Control may enter at a jump target, so a run never spans one; a
      // target at a unit's first instruction starts a fresh run instead.
      if (jumpTarget_[pc]) {
        flush(runUnits);
      }
      GateUnit unit;
      if (decodeUnit(pc, unit)) {
        runUnits.push_back(std::move(unit));
        pc = runUnits.back().end;
        continue;
      }
      flush(runUnits);
      ++pc;
    }
    flush(runUnits);
    return stats_;
  }

private:
  /// Decode the PushArg* + CallExtern cluster at \p pc as a fusable gate.
  bool decodeUnit(std::uint32_t pc, GateUnit& unit) const {
    const auto size = static_cast<std::uint32_t>(fn_.code.size());
    std::uint32_t cursor = pc;
    while (cursor < size && fn_.code[cursor].op == Op::PushArg) {
      ++cursor;
    }
    const std::uint32_t numArgs = cursor - pc;
    if (numArgs == 0 || cursor >= size) {
      return false;
    }
    const Inst& call = fn_.code[cursor];
    if (call.op != Op::CallExtern || call.a != kNoReg || call.c != numArgs) {
      return false;
    }
    const GateSpec* spec = classify(externNames_[call.b]);
    if (spec == nullptr || numArgs != spec->numParams + spec->numQubits) {
      return false;
    }
    // A branch into the middle of the cluster would skip part of it.
    for (std::uint32_t t = pc + 1; t <= cursor; ++t) {
      if (jumpTarget_[t]) {
        return false;
      }
    }
    // Every operand must be a compile-time constant: angles so the matrix
    // can be composed, qubits so the support (and the runtime's first-use
    // allocation order) is known. Arguments occupy [0, numArgs) and the
    // constant pool [numArgs, numArgs + #constants) of the frame.
    const std::uint32_t constBase = fn_.numArgs;
    const auto constEnd =
        static_cast<std::uint32_t>(constBase + fn_.constants.size());
    unit.args.reserve(numArgs);
    for (std::uint32_t i = 0; i < numArgs; ++i) {
      const std::uint32_t reg = fn_.code[pc + i].a;
      if (reg < constBase || reg >= constEnd) {
        return false;
      }
      unit.args.push_back(fn_.constants[reg - constBase]);
    }
    for (unsigned i = 0; i < spec->numParams; ++i) {
      if (unit.args[i].kind != RtValue::Kind::Double) {
        return false;
      }
    }
    for (unsigned i = 0; i < spec->numQubits; ++i) {
      const RtValue& q = unit.args[spec->numParams + i];
      // Only static QIR addresses: below the memory arena, so they can
      // never alias an array element or a dynamic handle.
      if (q.kind != RtValue::Kind::Ptr || q.p >= Memory::kBase) {
        return false;
      }
      unit.qubits[i] = q.p;
    }
    if (spec->numQubits == 2 && unit.qubits[0] == unit.qubits[1]) {
      return false; // degenerate two-qubit gate; keep runtime semantics
    }
    unit.begin = pc;
    unit.end = cursor + 1;
    unit.slot = call.b;
    unit.spec = spec;
    unit.param = spec->numParams > 0 ? unit.args[0].d : 0.0;
    return true;
  }

  /// Qubit addresses of run[i..end) in first-occurrence order, stopping
  /// once more than \p cap distinct qubits would be needed. Returns the
  /// number of units that fit.
  static std::size_t collectSupport(const std::vector<GateUnit>& run,
                                    std::size_t i, std::size_t cap,
                                    std::vector<std::uint64_t>& support) {
    support.clear();
    std::size_t j = i;
    for (; j < run.size(); ++j) {
      std::vector<std::uint64_t> added;
      for (unsigned k = 0; k < run[j].spec->numQubits; ++k) {
        const std::uint64_t q = run[j].qubits[k];
        if (std::find(support.begin(), support.end(), q) == support.end() &&
            std::find(added.begin(), added.end(), q) == added.end()) {
          added.push_back(q);
        }
      }
      if (support.size() + added.size() > cap) {
        break;
      }
      support.insert(support.end(), added.begin(), added.end());
    }
    return j - i;
  }

  /// Segment a maximal run of fusable units into fused blocks. Blocks
  /// with no unfused unit between them share one Op::Fused run.
  void flush(std::vector<GateUnit>& run) {
    std::vector<std::uint64_t> support;
    std::size_t i = 0;
    while (i < run.size()) {
      // Rule 3: maximal run of diagonal gates (any support up to the
      // diagonal-table cap) — one multiply per amplitude.
      std::size_t diagLen = 0;
      {
        std::size_t j = i;
        while (j < run.size() && run[j].spec->diagonal) {
          ++j;
        }
        std::vector<GateUnit> slice(run.begin() + static_cast<std::ptrdiff_t>(i),
                                    run.begin() + static_cast<std::ptrdiff_t>(j));
        diagLen = collectSupport(slice, 0, FusedBlock::kMaxQubits, support);
      }
      // Rules 1+2: maximal prefix whose supports fit a two-qubit window.
      const std::size_t winLen = collectSupport(run, i, 2, support);
      if (diagLen >= 2 && diagLen >= winLen) {
        emitDiagonal(run, i, diagLen);
        i += diagLen;
        continue;
      }
      // Cost model: a 4x4 sweep costs roughly three 2x2 sweeps, so a
      // window is only worth paying for when it folds a genuine
      // two-qubit gate. A window of single-qubit gates on two qubits is
      // cheaper as per-qubit chains — emit the leading same-qubit chain
      // (rule 1) and reconsider the rest of the run next iteration.
      bool hasTwoQubitGate = false;
      for (std::size_t j = i; j < i + winLen; ++j) {
        hasTwoQubitGate = hasTwoQubitGate || run[j].spec->numQubits == 2;
      }
      if (winLen >= 2 && hasTwoQubitGate) {
        emitWindow(run, i, winLen);
        i += winLen;
        continue;
      }
      std::size_t chainLen = 1;
      while (i + chainLen < run.size() &&
             run[i + chainLen].spec->numQubits == 1 &&
             run[i + chainLen].qubits[0] == run[i].qubits[0]) {
        ++chainLen;
      }
      if (run[i].spec->numQubits == 1 && chainLen >= 2) {
        emitWindow(run, i, chainLen); // support is one qubit: rule 1
        i += chainLen;
      } else if (winLen >= 4) {
        // Alternating single-qubit gates on two qubits: one 4x4 sweep
        // still beats four or more 2x2 sweeps.
        emitWindow(run, i, winLen);
        i += winLen;
      } else {
        runOpen_ = false; // the unit stays an unfused call between runs
        ++i;
      }
    }
    runOpen_ = false;
    run.clear();
  }

  void emitWindow(const std::vector<GateUnit>& run, std::size_t i,
                  std::size_t len) {
    // Support of exactly the emitted span (flush may hand us a chain
    // that is shorter than the maximal two-qubit window starting here).
    std::vector<std::uint64_t> support;
    for (std::size_t j = i; j < i + len; ++j) {
      for (unsigned k = 0; k < run[j].spec->numQubits; ++k) {
        const std::uint64_t q = run[j].qubits[k];
        if (std::find(support.begin(), support.end(), q) == support.end()) {
          support.push_back(q);
        }
      }
    }
    FusedBlock block;
    block.qubits = support;
    if (support.size() == 1) {
      // Rule 1: a single-qubit chain folds to one 2x2 matrix.
      block.kind = FusedBlock::Kind::Unitary1;
      sim::GateMatrix2 u{1, 0, 0, 1};
      for (std::size_t j = i; j < i + len; ++j) {
        u = sim::matmul(matrix2For(run[j].spec->kind, run[j].param), u);
      }
      block.matrix = {u.m00, u.m01, u.m10, u.m11};
      replace(run, i, len, std::move(block));
      return;
    }
    block.kind = FusedBlock::Kind::Unitary2;
    sim::GateMatrix4 u = sim::identity4();
    for (std::size_t j = i; j < i + len; ++j) {
      const GateUnit& g = run[j];
      const auto slotOf = [&](unsigned k) -> unsigned {
        return g.qubits[k] == support[0] ? 0U : 1U;
      };
      sim::GateMatrix4 gm;
      switch (g.spec->kind) {
      case GateKind::Cnot:
        gm = sim::controlled4(sim::gateX(), slotOf(0), slotOf(1));
        break;
      case GateKind::Cz:
        gm = sim::controlled4(sim::gateZ(), slotOf(0), slotOf(1));
        break;
      case GateKind::Swap:
        gm = sim::swap4();
        break;
      default:
        gm = sim::embed2(matrix2For(g.spec->kind, g.param), slotOf(0));
        break;
      }
      u = sim::matmul(gm, u);
    }
    block.matrix.assign(&u.m[0][0], &u.m[0][0] + 16);
    replace(run, i, len, std::move(block));
  }

  void emitDiagonal(const std::vector<GateUnit>& run, std::size_t i,
                    std::size_t len) {
    std::vector<std::uint64_t> support;
    std::vector<GateUnit> slice(run.begin() + static_cast<std::ptrdiff_t>(i),
                                run.begin() + static_cast<std::ptrdiff_t>(i + len));
    collectSupport(slice, 0, FusedBlock::kMaxQubits, support);
    FusedBlock block;
    block.kind = FusedBlock::Kind::Diagonal;
    block.qubits = support;
    const auto slotOf = [&](std::uint64_t q) -> std::size_t {
      return static_cast<std::size_t>(
          std::find(support.begin(), support.end(), q) - support.begin());
    };
    block.matrix.assign(std::size_t{1} << support.size(), 1.0);
    for (std::size_t j = i; j < i + len; ++j) {
      const GateUnit& g = run[j];
      if (g.spec->kind == GateKind::Cz) {
        const std::size_t b0 = slotOf(g.qubits[0]);
        const std::size_t b1 = slotOf(g.qubits[1]);
        for (std::size_t idx = 0; idx < block.matrix.size(); ++idx) {
          if (((idx >> b0) & 1) != 0 && ((idx >> b1) & 1) != 0) {
            block.matrix[idx] = -block.matrix[idx];
          }
        }
        continue;
      }
      const sim::GateMatrix2 m = matrix2For(g.spec->kind, g.param);
      const std::size_t b = slotOf(g.qubits[0]);
      for (std::size_t idx = 0; idx < block.matrix.size(); ++idx) {
        block.matrix[idx] *= ((idx >> b) & 1) != 0 ? m.m11 : m.m00;
      }
    }
    replace(run, i, len, std::move(block));
  }

  /// Overwrite the segment's instruction span with Nops and append its
  /// block to the open run. When no run is open, or the open one is full,
  /// a new run's Op::Fused instruction takes the segment's first offset.
  /// Offsets are preserved, so no fixups.
  void replace(const std::vector<GateUnit>& run, std::size_t i, std::size_t len,
               FusedBlock block) {
    block.sourceGates = static_cast<std::uint32_t>(len);
    for (std::size_t j = i; j < i + len; ++j) {
      block.replay.push_back({run[j].slot, run[j].args});
    }
    const std::uint32_t begin = run[i].begin;
    const std::uint32_t end = run[i + len - 1].end;
    for (std::uint32_t t = begin; t < end; ++t) {
      fn_.code[t] = Inst{};
    }
    if (!runOpen_ || fn_.fusedSweeps.back().blockCount == kMaxSweepBlocks) {
      runOpen_ = true;
      fn_.code[begin].op = Op::Fused;
      fn_.code[begin].a = static_cast<std::uint32_t>(fn_.fusedSweeps.size());
      fn_.fusedSweeps.push_back(
          {.firstBlock = static_cast<std::uint32_t>(fn_.fusedBlocks.size())});
    }
    FusedSweepRun& sweep = fn_.fusedSweeps.back();
    ++sweep.blockCount;
    sweep.totalGates += block.sourceGates;
    if (sweep.blockCount == 2) {
      ++stats_.sweepRuns;
    }
    fn_.fusedBlocks.push_back(std::move(block));
    stats_.fusedOps += len;
    ++stats_.blocks;
  }

  CompiledFunction& fn_;
  const std::vector<std::string>& externNames_;
  std::vector<bool> jumpTarget_;
  FusionStats stats_;
  bool runOpen_ = false; // replace() may extend fn_.fusedSweeps.back()
};

} // namespace

FusionStats fuseGates(CompiledFunction& fn,
                      const std::vector<std::string>& externNames) {
  return Fuser(fn, externNames).run();
}

std::uint64_t compactCode(CompiledFunction& fn) {
  const auto size = static_cast<std::uint32_t>(fn.code.size());
  // newOffset[i] = offset of instruction i after compaction. A Nop maps
  // to the next kept instruction, which is what a jump to it means.
  std::vector<std::uint32_t> newOffset(size, 0);
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < size; ++i) {
    newOffset[i] = kept;
    if (fn.code[i].op != Op::Nop) {
      ++kept;
    }
  }
  if (kept == size) {
    return 0;
  }
  const auto remap = [&newOffset, size, kept](std::uint32_t target) {
    return target < size ? newOffset[target] : kept;
  };
  std::vector<Inst> compacted;
  compacted.reserve(kept);
  for (std::uint32_t i = 0; i < size; ++i) {
    Inst in = fn.code[i];
    if (in.op == Op::Nop) {
      continue;
    }
    if (in.op == Op::Jmp) {
      in.a = remap(in.a);
    } else if (in.op == Op::JmpIf) {
      in.b = remap(in.b);
      in.c = remap(in.c);
    }
    compacted.push_back(in);
  }
  for (SwitchTable& table : fn.switchTables) {
    table.defaultTarget = remap(table.defaultTarget);
    for (auto& [value, target] : table.cases) {
      target = remap(target);
    }
  }
  fn.code = std::move(compacted);
  return size - kept;
}

SuperinstrStats fuseSuperinstructions(CompiledFunction& fn) {
  SuperinstrStats stats;
  const std::vector<bool> jumpTarget = computeJumpTargets(fn);
  std::vector<Inst>& code = fn.code;
  const auto size = static_cast<std::uint32_t>(code.size());
  std::uint32_t pc = 0;
  while (pc < size) {
    const Inst cur = code[pc];
    // PushArg* + Call/CallExtern: collapse a run of >= 2 pushes into one
    // PushCall that falls through to the untouched call instruction (so
    // the call keeps its own preamble accounting and fault probes). The
    // run's interior must not be a jump target — control entering there
    // would land on an Ext slot.
    if (cur.op == Op::PushArg) {
      std::uint32_t n = 1;
      // The PushCall handler replays subsumed pushes without a preamble,
      // so they must be flag-free (PushArg always is — lowering artifact
      // — but a cheap guard beats a silent accounting hole). The head's
      // flags stay on the head and go through the preamble as before.
      while (pc + n < size && code[pc + n].op == Op::PushArg &&
             code[pc + n].flags == 0 && !jumpTarget[pc + n]) {
        ++n;
      }
      const bool callFollows =
          pc + n < size &&
          (code[pc + n].op == Op::Call || code[pc + n].op == Op::CallExtern) &&
          code[pc + n].c == n;
      if (n >= 2 && callFollows) {
        for (std::uint32_t i = 1; i < n; ++i) {
          Inst ext{};
          ext.op = Op::Ext;
          ext.a = code[pc + i].a;
          ext.flags = code[pc + i].flags;
          code[pc + i] = ext;
        }
        code[pc].op = Op::PushCall;
        code[pc].c = n;
        ++stats.pushCall;
        pc += n; // resume at the (unmodified) call
        continue;
      }
      ++pc;
      continue;
    }
    if (pc + 1 >= size || jumpTarget[pc + 1]) {
      ++pc;
      continue;
    }
    const Inst next = code[pc + 1];
    // ICmp + JmpIf on the freshly computed condition. The fused handler
    // still writes the condition register (a later use may read it).
    if (cur.op == Op::ICmp && next.op == Op::JmpIf && next.a == cur.a) {
      code[pc].op = Op::CmpBr;
      Inst ext{};
      ext.op = Op::Ext;
      ext.a = next.b;
      ext.b = next.c;
      ext.flags = next.flags;
      code[pc + 1] = ext;
      ++stats.cmpBr;
      pc += 2;
      continue;
    }
    // IntBin + StoreInt of the result just computed.
    if (cur.op == Op::IntBin && next.op == Op::StoreInt && next.b == cur.a) {
      code[pc].op = Op::BinStore;
      Inst ext{};
      ext.op = Op::Ext;
      ext.c = next.c;
      ext.d = next.d;
      ext.flags = next.flags;
      code[pc + 1] = ext;
      ++stats.binStore;
      pc += 2;
      continue;
    }
    // LoadInt + IntBin whose left operand is the freshly loaded value.
    if (cur.op == Op::LoadInt && next.op == Op::IntBin && next.b == cur.a) {
      code[pc].op = Op::LoadBin;
      Inst ext{};
      ext.op = Op::Ext;
      ext.sub = next.sub;
      ext.a = next.a;
      ext.c = next.c;
      ext.d = next.d;
      ext.flags = next.flags;
      code[pc + 1] = ext;
      ++stats.loadBin;
      pc += 2;
      continue;
    }
    ++pc;
  }
  return stats;
}

} // namespace qirkit::vm
