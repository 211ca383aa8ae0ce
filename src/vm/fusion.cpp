#include "vm/fusion.hpp"

#include "circuit/executor.hpp"
#include "qir/names.hpp"
#include "sim/gates.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <span>
#include <string_view>

namespace qirkit::vm {

using circuit::OpKind;
using interp::FusedBlock;
using interp::Memory;
using interp::RtValue;

namespace {

using Kind = sim::SweepGate::Kind;

/// Every code offset control may enter at (branch and switch targets).
/// Gate fusion refuses to form a run a branch could enter mid-way.
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

/// One decoded fusable gate call: its instruction span [begin, end)
/// (PushArgs + CallExtern), its kind and constant operands.
struct GateUnit {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  OpKind kind = OpKind::H;
  unsigned numQubits = 0;
  std::array<double, circuit::kMaxOpAngles> angles{};
  std::uint64_t qubits[2] = {0, 0};

  [[nodiscard]] sim::GateMatrix2 matrix() const noexcept {
    return circuit::gateMatrix(kind, angles);
  }
};

/// What decodeUnit found at an offset.
enum class Decoded : std::uint8_t { NotAGate, Fusable, Unfused };

/// A block under construction: its gates (indices into the region, in
/// source order) and its one or two qubits.
struct Draft {
  std::vector<std::uint32_t> gates;
  std::vector<std::uint64_t> qubits;
  bool alive = true;
};

class Fuser {
public:
  Fuser(CompiledFunction& fn, const std::vector<std::string>& externNames)
      : fn_(fn), externNames_(externNames) {}

  FusionStats run() {
    jumpTarget_ = computeJumpTargets(fn_);
    std::vector<GateUnit> region;
    std::uint32_t pc = 0;
    const auto size = static_cast<std::uint32_t>(fn_.code.size());
    while (pc < size) {
      // Control may enter at a jump target, so a region never spans one;
      // a target at a unit's first instruction starts a fresh region.
      if (jumpTarget_[pc]) {
        flush(region);
      }
      GateUnit unit;
      UnfusedReason reason = UnfusedReason::UnknownGate;
      switch (decodeUnit(pc, unit, reason)) {
      case Decoded::Fusable:
        region.push_back(unit);
        pc = unit.end;
        continue;
      case Decoded::Unfused:
        ++stats_.unfused[static_cast<std::size_t>(reason)];
        flush(region);
        pc = unit.end;
        continue;
      case Decoded::NotAGate:
        break;
      }
      flush(region);
      ++pc;
    }
    flush(region);
    insertHeads();
    // Compiled modules live in the program store: hold no growth slack.
    fn_.fusedBlocks.shrink_to_fit();
    return stats_;
  }

private:
  /// Decode the PushArg* + CallExtern cluster at \p pc. A fusable gate
  /// fills \p unit; a gate call the pass cannot fuse sets \p reason and
  /// unit.end. Anything else is NotAGate.
  Decoded decodeUnit(std::uint32_t pc, GateUnit& unit, UnfusedReason& reason) const {
    const auto size = static_cast<std::uint32_t>(fn_.code.size());
    std::uint32_t cursor = pc;
    while (cursor < size && fn_.code[cursor].op == Op::PushArg) {
      ++cursor;
    }
    const std::uint32_t numArgs = cursor - pc;
    if (numArgs == 0 || cursor >= size) {
      return Decoded::NotAGate;
    }
    const Inst& call = fn_.code[cursor];
    if (call.op != Op::CallExtern || call.c != numArgs) {
      return Decoded::NotAGate;
    }
    // A branch into the middle of the cluster would skip part of it.
    for (std::uint32_t t = pc + 1; t <= cursor; ++t) {
      if (jumpTarget_[t]) {
        return Decoded::NotAGate;
      }
    }
    const std::string_view name = externNames_[call.b];
    const std::optional<OpKind> kind = qir::opKindForQis(name);
    if (!qir::isQisFunction(name) || name == qir::kQisReadResult ||
        (kind && !circuit::isUnitary(*kind))) {
      return Decoded::NotAGate;
    }
    unit.begin = pc;
    unit.end = cursor + 1;
    // Only one- and two-qubit gates compose into a 2x2 or 4x4.
    if (!kind || circuit::opKindArity(*kind) > 2 || call.a != kNoReg ||
        numArgs != circuit::opKindParams(*kind) + circuit::opKindArity(*kind)) {
      reason = UnfusedReason::UnknownGate;
      return Decoded::Unfused;
    }
    const unsigned numParams = circuit::opKindParams(*kind);
    unit.kind = *kind;
    unit.numQubits = circuit::opKindArity(*kind);
    // Every operand must be a compile-time constant: qubits so the support
    // (and the runtime's first-use allocation order) is known, angles so
    // the matrix can be composed. Arguments occupy [0, numArgs) and the
    // constant pool [numArgs, numArgs + #constants) of the frame.
    const auto constant = [&](std::uint32_t i) -> const RtValue* {
      const std::uint32_t reg = fn_.code[pc + i].a;
      const std::uint32_t constBase = fn_.numArgs;
      if (reg < constBase || reg - constBase >= fn_.constants.size()) {
        return nullptr;
      }
      return &fn_.constants[reg - constBase];
    };
    for (unsigned i = 0; i < unit.numQubits; ++i) {
      const RtValue* q = constant(numParams + i);
      // Only static QIR addresses: below the memory arena, so they can
      // never alias an array element or a dynamic handle.
      if (q == nullptr || q->kind != RtValue::Kind::Ptr || q->p >= Memory::kBase) {
        reason = UnfusedReason::DynamicQubit;
        return Decoded::Unfused;
      }
      unit.qubits[i] = q->p;
    }
    for (unsigned i = 0; i < numParams; ++i) {
      const RtValue* angle = constant(i);
      if (angle == nullptr || angle->kind != RtValue::Kind::Double) {
        reason = UnfusedReason::NonConstant;
        return Decoded::Unfused;
      }
      unit.angles[i] = angle->d;
    }
    if (unit.numQubits == 2 && unit.qubits[0] == unit.qubits[1]) {
      reason = UnfusedReason::UnknownGate; // degenerate: keep runtime semantics
      return Decoded::Unfused;
    }
    return Decoded::Fusable;
  }

  /// Group one straight-line region of fusable gates into blocks along
  /// qubit dataflow (the frontier rule, fusion.hpp).
  void flush(std::vector<GateUnit>& region) {
    if (region.empty()) {
      return;
    }
    rankOf_.clear();
    for (const GateUnit& g : region) {
      for (unsigned k = 0; k < g.numQubits; ++k) {
        rankOf_.try_emplace(g.qubits[k], static_cast<std::uint32_t>(rankOf_.size()));
      }
    }
    std::vector<Draft> drafts;
    std::map<std::uint64_t, std::uint32_t> latest; // qubit -> draft
    for (std::uint32_t i = 0; i < region.size(); ++i) {
      const GateUnit& g = region[i];
      const auto latestOf = [&](std::uint64_t q) -> Draft* {
        const auto it = latest.find(q);
        return it == latest.end() ? nullptr : &drafts[it->second];
      };
      Draft* const da = latestOf(g.qubits[0]);
      if (g.numQubits == 1) {
        if (da != nullptr) {
          da->gates.push_back(i);
        } else {
          latest[g.qubits[0]] = static_cast<std::uint32_t>(drafts.size());
          drafts.push_back({.gates = {i}, .qubits = {g.qubits[0]}});
        }
        continue;
      }
      Draft* const db = latestOf(g.qubits[1]);
      if (da != nullptr && da == db) {
        da->gates.push_back(i);
        continue;
      }
      // A new block on both qubits, absorbing either qubit's latest block
      // while that is a one-qubit block: nothing after it touches its
      // qubit, so it may move down to here.
      Draft merged;
      merged.qubits = {g.qubits[0], g.qubits[1]};
      for (Draft* d : {da, db}) {
        if (d != nullptr && d->qubits.size() == 1) {
          merged.gates.insert(merged.gates.end(), d->gates.begin(), d->gates.end());
          d->alive = false;
        }
      }
      std::sort(merged.gates.begin(), merged.gates.end());
      merged.gates.push_back(i);
      latest[g.qubits[0]] = latest[g.qubits[1]] = static_cast<std::uint32_t>(drafts.size());
      drafts.push_back(std::move(merged));
    }
    std::vector<FusedBlock> composed;
    std::vector<std::vector<std::complex<double>>> diagonals; // empty: dense
    for (Draft& d : drafts) {
      if (d.alive) {
        std::sort(d.qubits.begin(), d.qubits.end(),
                  [&](std::uint64_t a, std::uint64_t b) { return rankOf_[a] < rankOf_[b]; });
        composed.push_back(compose(region, d));
        diagonals.push_back(diagonalOf(composed.back()));
      }
    }
    std::vector<FusedBlock> blocks;
    for (std::size_t i = 0; i < composed.size();) {
      if (diagonals[i].empty()) {
        blocks.push_back(std::move(composed[i]));
        ++i;
        continue;
      }
      // Adjacent diagonal blocks commute with each other: one table.
      std::vector<std::uint64_t> support = composed[i].qubits;
      std::size_t j = i + 1;
      for (; j < composed.size() && !diagonals[j].empty(); ++j) {
        std::vector<std::uint64_t> widened = support;
        for (const std::uint64_t q : composed[j].qubits) {
          if (std::find(widened.begin(), widened.end(), q) == widened.end()) {
            widened.push_back(q);
          }
        }
        if (widened.size() > sim::SweepGate::kMaxQubits) {
          break;
        }
        support = std::move(widened);
      }
      if (j == i + 1 && composed[i].sourceGates == 1) {
        blocks.push_back(std::move(composed[i])); // a lone gate keeps its kernel
      } else {
        blocks.push_back(phaseTable({composed.data() + i, j - i},
                                    {diagonals.data() + i, j - i}, std::move(support)));
      }
      i = j;
    }
    if (blocks.size() == region.size()) {
      // Fusion saves no kernel pass: the region stays plain calls.
      stats_.unfused[static_cast<std::size_t>(UnfusedReason::Lone)] += region.size();
      region.clear();
      return;
    }
    // newQubits: the region's qubits in source first-use order, each
    // listed at the first block that needs it or a later-used one.
    std::vector<std::uint64_t> firstUse(rankOf_.size());
    for (const auto& [q, rank] : rankOf_) {
      firstUse[rank] = q;
    }
    std::uint32_t listed = 0;
    for (FusedBlock& block : blocks) {
      std::uint32_t last = 0;
      for (const std::uint64_t q : block.qubits) {
        last = std::max(last, rankOf_[q] + 1);
      }
      for (; listed < last; ++listed) {
        block.newQubits.push_back(firstUse[listed]);
      }
    }
    regions_.push_back({region.front().begin, region.back().end,
                        static_cast<std::uint32_t>(fn_.fusedSweeps.size())});
    fn_.fusedSweeps.push_back({.firstBlock = static_cast<std::uint32_t>(fn_.fusedBlocks.size()),
                               .blockCount = static_cast<std::uint32_t>(blocks.size()),
                               .totalGates = static_cast<std::uint32_t>(region.size())});
    stats_.fusedOps += region.size();
    stats_.blocks += blocks.size();
    ++stats_.regions;
    for (FusedBlock& block : blocks) {
      fn_.fusedBlocks.push_back(std::move(block));
    }
    region.clear();
  }

  /// The block of one draft: its own gate's kernel for a single gate,
  /// else the composed 2x2 or 4x4 over its qubits (in first-use order).
  static FusedBlock compose(const std::vector<GateUnit>& region, const Draft& d) {
    FusedBlock block;
    block.qubits = d.qubits;
    block.sourceGates = static_cast<std::uint32_t>(d.gates.size());
    const GateUnit& first = region[d.gates[0]];
    if (d.gates.size() == 1 && first.numQubits == 2) {
      // Controlled gates keep control/target order; the window order is
      // irrelevant to them.
      block.qubits = {first.qubits[0], first.qubits[1]};
      if (first.kind == OpKind::Swap) {
        block.kind = Kind::Swap;
        return block;
      }
      block.kind = Kind::Controlled;
      const sim::GateMatrix2 t =
          first.kind == OpKind::CX ? sim::gateX() : sim::gateZ();
      block.matrix = {t.m00, t.m01, t.m10, t.m11};
      return block;
    }
    if (d.qubits.size() == 1) {
      block.kind = Kind::Unitary1;
      sim::GateMatrix2 u{1, 0, 0, 1};
      for (const std::uint32_t i : d.gates) {
        u = sim::matmul(region[i].matrix(), u);
      }
      block.matrix = {u.m00, u.m01, u.m10, u.m11};
      return block;
    }
    block.kind = Kind::Unitary2;
    sim::GateMatrix4 u = sim::identity4();
    for (const std::uint32_t i : d.gates) {
      const GateUnit& g = region[i];
      const auto slotOf = [&](unsigned k) -> unsigned {
        return g.qubits[k] == d.qubits[0] ? 0U : 1U;
      };
      sim::GateMatrix4 gm;
      switch (g.kind) {
      case OpKind::CX:
        gm = sim::controlled4(sim::gateX(), slotOf(0), slotOf(1));
        break;
      case OpKind::CZ:
        gm = sim::controlled4(sim::gateZ(), slotOf(0), slotOf(1));
        break;
      case OpKind::Swap:
        gm = sim::swap4();
        break;
      default:
        gm = sim::embed2(g.matrix(), slotOf(0));
        break;
      }
      u = sim::matmul(gm, u);
    }
    block.matrix.assign(&u.m[0][0], &u.m[0][0] + 16);
    return block;
  }

  /// The diagonal of \p block over its qubits, or empty when an
  /// off-diagonal entry is not exactly zero.
  static std::vector<std::complex<double>> diagonalOf(const FusedBlock& block) {
    std::size_t dim = 0;
    switch (block.kind) {
    case Kind::Unitary1:
      dim = 2;
      break;
    case Kind::Unitary2:
      dim = 4;
      break;
    case Kind::Controlled:
      if (block.matrix[1] != 0.0 || block.matrix[2] != 0.0) {
        return {};
      }
      // Local index bit 0 is the control, bit 1 the target.
      return {1.0, block.matrix[0], 1.0, block.matrix[3]};
    default:
      return {};
    }
    std::vector<std::complex<double>> diag(dim);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        if (r != c && block.matrix[r * dim + c] != 0.0) {
          return {};
        }
      }
      diag[r] = block.matrix[r * dim + r];
    }
    return diag;
  }

  /// One Diagonal block over \p support for a group of diagonal blocks
  /// and their diagonals.
  FusedBlock phaseTable(std::span<const FusedBlock> group,
                        std::span<const std::vector<std::complex<double>>> diagonals,
                        std::vector<std::uint64_t> support) const {
    std::sort(support.begin(), support.end(),
              [&](std::uint64_t a, std::uint64_t b) { return rankOf_.at(a) < rankOf_.at(b); });
    FusedBlock table;
    table.kind = Kind::Diagonal;
    table.matrix.assign(std::size_t{1} << support.size(), 1.0);
    for (std::size_t m = 0; m < group.size(); ++m) {
      const FusedBlock& member = group[m];
      const std::vector<std::complex<double>>& diag = diagonals[m];
      std::size_t bits[2] = {0, 0};
      for (std::size_t k = 0; k < member.qubits.size(); ++k) {
        bits[k] = static_cast<std::size_t>(
            std::find(support.begin(), support.end(), member.qubits[k]) - support.begin());
      }
      for (std::size_t idx = 0; idx < table.matrix.size(); ++idx) {
        std::size_t local = 0;
        for (std::size_t k = 0; k < member.qubits.size(); ++k) {
          local |= ((idx >> bits[k]) & 1U) << k;
        }
        table.matrix[idx] *= diag[local];
      }
      table.sourceGates += member.sourceGates;
    }
    table.qubits = std::move(support);
    return table;
  }

  /// Rebuild the code with one Op::Fused head in front of every fused
  /// region, remapping every jump target. A jump to a region's first
  /// instruction lands on its head.
  void insertHeads() {
    if (regions_.empty()) {
      return;
    }
    const auto size = static_cast<std::uint32_t>(fn_.code.size());
    std::vector<std::uint32_t> newOffset(size + 1);
    std::size_t r = 0;
    for (std::uint32_t i = 0; i <= size; ++i) {
      newOffset[i] = i + static_cast<std::uint32_t>(r);
      if (r < regions_.size() && regions_[r].begin == i) {
        ++r;
      }
    }
    std::vector<Inst> code;
    code.reserve(size + regions_.size());
    r = 0;
    for (std::uint32_t i = 0; i < size; ++i) {
      if (r < regions_.size() && regions_[r].begin == i) {
        Inst head{};
        head.op = Op::Fused;
        head.a = regions_[r].sweep;
        head.b = newOffset[regions_[r].end];
        code.push_back(head);
        ++r;
      }
      Inst in = fn_.code[i];
      if (in.op == Op::Jmp) {
        in.a = newOffset[in.a];
      } else if (in.op == Op::JmpIf) {
        in.b = newOffset[in.b];
        in.c = newOffset[in.c];
      }
      code.push_back(in);
    }
    for (SwitchTable& table : fn_.switchTables) {
      table.defaultTarget = newOffset[table.defaultTarget];
      for (auto& [value, target] : table.cases) {
        target = newOffset[target];
      }
    }
    fn_.code = std::move(code);
  }

  struct Region {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t sweep = 0;
  };

  CompiledFunction& fn_;
  const std::vector<std::string>& externNames_;
  std::vector<bool> jumpTarget_;
  std::map<std::uint64_t, std::uint32_t> rankOf_; // qubit -> first-use rank
  std::vector<Region> regions_;
  FusionStats stats_;
};

} // namespace

FusionStats fuseGates(CompiledFunction& fn,
                      const std::vector<std::string>& externNames) {
  return Fuser(fn, externNames).run();
}

} // namespace qirkit::vm
