#include "vm/compiler.hpp"

#include "vm/fusion.hpp"

#include "ir/constant.hpp"
#include "ir/printer.hpp"
#include "support/faultinject.hpp"
#include "support/telemetry/telemetry.hpp"

#include <limits>
#include <string_view>

namespace qirkit::vm {

using namespace qirkit::ir;
using interp::Memory;
using interp::RtValue;

namespace {

std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Predicted runtime addresses of the module's globals. Must mirror the
/// engines' materialization order and Memory::allocate's deterministic
/// 8-byte-aligned bump allocation exactly.
std::map<const GlobalVariable*, std::uint64_t>
predictGlobalAddresses(const Module& module) {
  std::map<const GlobalVariable*, std::uint64_t> addresses;
  std::uint64_t used = 0;
  for (const auto& global : module.globals()) {
    const std::uint64_t aligned = (used + 7) & ~std::uint64_t{7};
    addresses[global.get()] = Memory::kBase + aligned;
    used = aligned + std::max<std::uint64_t>(1, global->initializer().size());
  }
  return addresses;
}

class FunctionCompiler {
public:
  FunctionCompiler(const Function& fn, BytecodeModule& out,
                   const std::map<const Function*, std::uint32_t>& functionIndex,
                   const std::map<const GlobalVariable*, std::uint64_t>& globalAddresses)
      : fn_(fn), out_(out), functionIndex_(functionIndex),
        globalAddresses_(globalAddresses) {}

  CompiledFunction compile() {
    compiled_.name = fn_.name();
    compiled_.numArgs = fn_.numArgs();
    compiled_.returnsValue = !fn_.returnType()->isVoid();
    collectConstants();
    allocateRegisters();
    for (const auto& block : fn_.blocks()) {
      emitBlock(*block);
    }
    applyFixups();
    compiled_.numRegs = nextReg_;
    return std::move(compiled_);
  }

private:
  static constexpr std::uint16_t kNoFlags = 0;

  // -- register allocation ---------------------------------------------------

  /// Constant pool slots sit directly after the arguments so operands can
  /// be addressed uniformly as frame registers.
  void collectConstants() {
    constBase_ = fn_.numArgs();
    for (const auto& block : fn_.blocks()) {
      for (const auto& inst : block->instructions()) {
        for (unsigned i = 0; i < inst->numOperands(); ++i) {
          const Value* v = inst->operand(i);
          if (v->kind() == Value::Kind::BasicBlock ||
              v->kind() == Value::Kind::Function) {
            continue;
          }
          if ((v->isConstant() || v->kind() == Value::Kind::GlobalVariable) &&
              constSlot_.find(v) == constSlot_.end()) {
            constSlot_[v] = static_cast<std::uint32_t>(compiled_.constants.size());
            compiled_.constants.push_back(evalConstant(v));
          }
        }
      }
    }
    nextReg_ = constBase_ + static_cast<std::uint32_t>(compiled_.constants.size());
  }

  RtValue evalConstant(const Value* v) const {
    switch (v->kind()) {
    case Value::Kind::ConstantInt:
      return RtValue::makeInt(static_cast<const ConstantInt*>(v)->value());
    case Value::Kind::ConstantFP:
      return RtValue::makeDouble(static_cast<const ConstantFP*>(v)->value());
    case Value::Kind::ConstantPointerNull:
      return RtValue::makePtr(0);
    case Value::Kind::ConstantIntToPtr:
      return RtValue::makePtr(static_cast<const ConstantIntToPtr*>(v)->address());
    case Value::Kind::Undef:
      return v->type()->isDouble() ? RtValue::makeDouble(0.0)
             : v->type()->isPointer() ? RtValue::makePtr(0)
                                      : RtValue::makeInt(0);
    case Value::Kind::GlobalVariable: {
      const auto it = globalAddresses_.find(static_cast<const GlobalVariable*>(v));
      if (it == globalAddresses_.end()) {
        throw CompileError("reference to unmaterialized global @" + v->name());
      }
      return RtValue::makePtr(it->second);
    }
    default:
      throw CompileError("cannot evaluate operand of kind " +
                         std::to_string(static_cast<int>(v->kind())));
    }
  }

  void allocateRegisters() {
    for (const auto& block : fn_.blocks()) {
      for (const auto& inst : block->instructions()) {
        if (inst->op() == Opcode::Phi) {
          valueReg_[inst.get()] = nextReg_++;
          phiStageReg_[inst.get()] = nextReg_++;
          continue;
        }
        if (!inst->type()->isVoid() && !inst->isTerminator() &&
            inst->op() != Opcode::Store) {
          valueReg_[inst.get()] = nextReg_++;
        }
      }
    }
  }

  std::uint32_t regOf(const Value* v) const {
    if (const auto* arg = dynamic_cast<const Argument*>(v)) {
      return arg->index();
    }
    if (v->kind() == Value::Kind::Instruction) {
      const auto it = valueReg_.find(static_cast<const Instruction*>(v));
      if (it == valueReg_.end()) {
        throw CompileError("use of value without a register (verifier not run?)");
      }
      return it->second;
    }
    const auto it = constSlot_.find(v);
    if (it == constSlot_.end()) {
      throw CompileError("operand constant missing from pool");
    }
    return constBase_ + it->second;
  }

  std::uint32_t dstOf(const Instruction* inst) const {
    const auto it = valueReg_.find(inst);
    return it == valueReg_.end() ? kNoReg : it->second;
  }

  // -- emission --------------------------------------------------------------

  std::size_t emit(Op op, std::uint8_t sub, std::uint16_t flags, std::uint32_t a,
                   std::uint32_t b = 0, std::uint32_t c = 0, std::uint32_t d = 0) {
    compiled_.code.push_back({op, sub, flags, a, b, c, d});
    return compiled_.code.size() - 1;
  }

  void emitBlock(const BasicBlock& block) {
    blockStart_[&block] = static_cast<std::uint32_t>(compiled_.code.size());
    for (const auto& inst : block.instructions()) {
      if (inst->op() != Opcode::Phi) {
        emitInstruction(*inst);
      }
    }
  }

  void emitInstruction(const Instruction& inst) {
    const Opcode op = inst.op();
    if (isIntBinaryOp(op)) {
      emit(Op::IntBin, static_cast<std::uint8_t>(op), kStep, dstOf(&inst),
           regOf(inst.operand(0)), regOf(inst.operand(1)), inst.type()->bits());
      return;
    }
    if (isFloatBinaryOp(op)) {
      emit(Op::FloatBin, static_cast<std::uint8_t>(op), kStep, dstOf(&inst),
           regOf(inst.operand(0)), regOf(inst.operand(1)));
      return;
    }
    switch (op) {
    case Opcode::Ret:
      if (inst.numOperands() == 1) {
        emit(Op::Ret, 0, kStep, regOf(inst.operand(0)));
      } else {
        emit(Op::RetVoid, 0, kStep, 0);
      }
      return;
    case Opcode::Br:
      if (inst.isConditionalBr()) {
        emitConditionalBranch(inst);
      } else {
        // Inline edge moves, then a flagged jump: one counted step, as in
        // the interpreter's Br handling.
        emitPhiMoves(inst.parent(), inst.successor(0));
        const std::size_t jmp = emit(Op::Jmp, 0, kStep, 0);
        addFixup(jmp, 0, inst.successor(0));
      }
      return;
    case Opcode::Switch:
      emitSwitch(inst);
      return;
    case Opcode::Unreachable:
      emit(Op::Trap, 0, kStep, 0);
      return;
    case Opcode::Alloca: {
      const std::uint64_t size = inst.allocatedType()->storeSize();
      if (size > std::numeric_limits<std::uint32_t>::max()) {
        throw CompileError("alloca larger than 4 GiB");
      }
      emit(Op::Alloca, 0, kStep, dstOf(&inst), 0, 0,
           static_cast<std::uint32_t>(size));
      return;
    }
    case Opcode::Load: {
      const Type* type = inst.type();
      if (type->isDouble()) {
        emit(Op::LoadDouble, 0, kStep, dstOf(&inst), regOf(inst.operand(0)));
      } else if (type->isPointer()) {
        emit(Op::LoadPtr, 0, kStep, dstOf(&inst), regOf(inst.operand(0)));
      } else {
        emit(Op::LoadInt, 0, kStep, dstOf(&inst), regOf(inst.operand(0)), 0,
             static_cast<std::uint32_t>(type->storeSize()));
      }
      return;
    }
    case Opcode::Store: {
      const Type* type = inst.operand(0)->type();
      const std::uint32_t value = regOf(inst.operand(0));
      const std::uint32_t address = regOf(inst.operand(1));
      if (type->isDouble()) {
        emit(Op::StoreDouble, 0, kStep, kNoReg, value, address);
      } else if (type->isPointer()) {
        emit(Op::StorePtr, 0, kStep, kNoReg, value, address);
      } else {
        emit(Op::StoreInt, 0, kStep, kNoReg, value, address,
             static_cast<std::uint32_t>(type->storeSize()));
      }
      return;
    }
    case Opcode::ICmp: {
      const Value* lhs = inst.operand(0);
      if (lhs->type()->isPointer()) {
        emit(Op::ICmpPtr, static_cast<std::uint8_t>(inst.icmpPred()), kStep,
             dstOf(&inst), regOf(lhs), regOf(inst.operand(1)));
      } else {
        emit(Op::ICmp, static_cast<std::uint8_t>(inst.icmpPred()), kStep,
             dstOf(&inst), regOf(lhs), regOf(inst.operand(1)), lhs->type()->bits());
      }
      return;
    }
    case Opcode::FCmp:
      emit(Op::FCmp, static_cast<std::uint8_t>(inst.fcmpPred()), kStep,
           dstOf(&inst), regOf(inst.operand(0)), regOf(inst.operand(1)));
      return;
    case Opcode::ZExt:
      emit(Op::ZExt, 0, kStep, dstOf(&inst), regOf(inst.operand(0)), 0,
           inst.operand(0)->type()->bits());
      return;
    case Opcode::SExt:
    case Opcode::Bitcast:
      // Values are stored canonically sign-extended; both are plain moves,
      // exactly as in the interpreter.
      emit(Op::Mov, 0, kStep, dstOf(&inst), regOf(inst.operand(0)));
      return;
    case Opcode::Trunc:
      emit(Op::Trunc, 0, kStep, dstOf(&inst), regOf(inst.operand(0)), 0,
           inst.type()->bits());
      return;
    case Opcode::PtrToInt:
      emit(Op::PtrToInt, 0, kStep, dstOf(&inst), regOf(inst.operand(0)));
      return;
    case Opcode::IntToPtr:
      emit(Op::IntToPtr, 0, kStep, dstOf(&inst), regOf(inst.operand(0)));
      return;
    case Opcode::SIToFP:
      emit(Op::SiToF, 0, kStep, dstOf(&inst), regOf(inst.operand(0)));
      return;
    case Opcode::UIToFP:
      emit(Op::UiToF, 0, kStep, dstOf(&inst), regOf(inst.operand(0)));
      return;
    case Opcode::FPToSI:
      emit(Op::FToSi, 0, kStep, dstOf(&inst), regOf(inst.operand(0)));
      return;
    case Opcode::FPToUI:
      emit(Op::FToUi, 0, kStep, dstOf(&inst), regOf(inst.operand(0)));
      return;
    case Opcode::Select:
      emit(Op::Select, 0, kStep, dstOf(&inst), regOf(inst.operand(0)),
           regOf(inst.operand(1)), regOf(inst.operand(2)));
      return;
    case Opcode::Call:
      emitCall(inst);
      return;
    default:
      throw CompileError(std::string("cannot compile opcode ") + opcodeName(op));
    }
  }

  void emitCall(const Instruction& inst) {
    const Function* callee = inst.callee();
    if (callee == nullptr) {
      throw CompileError("call without a callee");
    }
    for (unsigned i = 0; i < inst.numOperands(); ++i) {
      emit(Op::PushArg, 0, kNoFlags, regOf(inst.operand(i)));
    }
    const std::uint32_t dst = dstOf(&inst);
    if (callee->isDeclaration()) {
      emit(Op::CallExtern, 0, kStep, dst, externSlot(callee->name()),
           inst.numOperands());
    } else {
      const auto it = functionIndex_.find(callee);
      if (it == functionIndex_.end()) {
        throw CompileError("call to uncompiled function @" + callee->name());
      }
      emit(Op::Call, 0, kStep, dst, it->second, inst.numOperands());
    }
  }

  std::uint32_t externSlot(const std::string& name) {
    for (std::uint32_t slot = 0; slot < out_.externNames.size(); ++slot) {
      if (out_.externNames[slot] == name) {
        return slot;
      }
    }
    out_.externNames.push_back(name);
    return static_cast<std::uint32_t>(out_.externNames.size() - 1);
  }

  // -- control flow ----------------------------------------------------------

  /// Emit the staged parallel moves realizing \p succ's phi nodes for the
  /// edge pred→succ. All incoming values are read into staging registers
  /// before any phi register is written, preserving the simultaneous-
  /// assignment semantics (a phi may feed another phi of the same block).
  void emitPhiMoves(const BasicBlock* pred, const BasicBlock* succ) {
    const std::vector<Instruction*> phis = succ->phis();
    for (const Instruction* phi : phis) {
      const Value* incoming = phi->incomingValueFor(pred);
      if (incoming == nullptr) {
        throw CompileError("phi has no incoming value for edge");
      }
      emit(Op::Mov, 0, kNoFlags, phiStageReg_.at(phi), regOf(incoming));
    }
    for (const Instruction* phi : phis) {
      emit(Op::Mov, 0, kNoFlags, valueReg_.at(phi), phiStageReg_.at(phi));
    }
  }

  void emitConditionalBranch(const Instruction& inst) {
    const std::uint32_t cond = regOf(inst.brCondition());
    const std::size_t branch = emit(Op::JmpIf, 0, kStep, cond);
    resolveEdgeTargets(branch, inst, {{1, inst.successor(0)}, {2, inst.successor(1)}});
  }

  void emitSwitch(const Instruction& inst) {
    const std::uint32_t cond = regOf(inst.operand(0));
    const std::uint32_t tableIndex =
        static_cast<std::uint32_t>(compiled_.switchTables.size());
    compiled_.switchTables.emplace_back();
    SwitchTable& table = compiled_.switchTables.back();
    for (unsigned i = 0; i < inst.numSwitchCases(); ++i) {
      table.cases.emplace_back(inst.switchCaseValue(i)->value(), 0);
    }
    const std::size_t branch = emit(Op::SwitchI, 0, kStep, cond, tableIndex);
    // Resolve default + every case destination; edges to phi-carrying
    // blocks go through a stub emitted after the switch.
    std::map<const BasicBlock*, std::uint32_t> stubs;
    const BasicBlock* pred = inst.parent();
    const auto targetFor = [&](const BasicBlock* succ) -> std::uint32_t {
      if (succ->phis().empty()) {
        return kNoReg; // patched by block fixup
      }
      const auto it = stubs.find(succ);
      if (it != stubs.end()) {
        return it->second;
      }
      const auto offset = static_cast<std::uint32_t>(compiled_.code.size());
      emitPhiMoves(pred, succ);
      const std::size_t jmp = emit(Op::Jmp, 0, kNoFlags, 0);
      addFixup(jmp, 0, succ);
      stubs[succ] = offset;
      return offset;
    };
    (void)branch;
    const BasicBlock* defaultDest = inst.successor(0);
    const std::uint32_t defaultTarget = targetFor(defaultDest);
    if (defaultTarget == kNoReg) {
      tableFixups_.push_back({tableIndex, -1, defaultDest});
    } else {
      table.defaultTarget = defaultTarget;
    }
    for (unsigned i = 0; i < inst.numSwitchCases(); ++i) {
      const BasicBlock* dest = inst.switchCaseDest(i);
      const std::uint32_t target = targetFor(dest);
      if (target == kNoReg) {
        tableFixups_.push_back({tableIndex, static_cast<int>(i), dest});
      } else {
        table.cases[i].second = target;
      }
    }
  }

  /// Patch the fields of a two-way branch: direct block targets where the
  /// successor has no phis, stubs (edge moves + jump) otherwise.
  void resolveEdgeTargets(std::size_t branch, const Instruction& inst,
                          std::initializer_list<std::pair<int, const BasicBlock*>> edges) {
    std::map<const BasicBlock*, std::uint32_t> stubs;
    for (const auto& [field, succ] : edges) {
      if (succ->phis().empty()) {
        addFixup(branch, field, succ);
        continue;
      }
      auto it = stubs.find(succ);
      if (it == stubs.end()) {
        const auto offset = static_cast<std::uint32_t>(compiled_.code.size());
        emitPhiMoves(inst.parent(), succ);
        const std::size_t jmp = emit(Op::Jmp, 0, kNoFlags, 0);
        addFixup(jmp, 0, succ);
        it = stubs.emplace(succ, offset).first;
      }
      setField(branch, field, it->second);
    }
  }

  void addFixup(std::size_t inst, int field, const BasicBlock* target) {
    codeFixups_.push_back({inst, field, target});
  }

  void setField(std::size_t inst, int field, std::uint32_t value) {
    Inst& in = compiled_.code[inst];
    (field == 0 ? in.a : field == 1 ? in.b : in.c) = value;
  }

  void applyFixups() {
    const auto startOf = [this](const BasicBlock* block) {
      const auto it = blockStart_.find(block);
      if (it == blockStart_.end()) {
        throw CompileError("branch to unemitted block");
      }
      return it->second;
    };
    for (const auto& fixup : codeFixups_) {
      setField(fixup.inst, fixup.field, startOf(fixup.target));
    }
    for (const auto& fixup : tableFixups_) {
      SwitchTable& table = compiled_.switchTables[fixup.table];
      if (fixup.caseIndex < 0) {
        table.defaultTarget = startOf(fixup.target);
      } else {
        table.cases[static_cast<std::size_t>(fixup.caseIndex)].second =
            startOf(fixup.target);
      }
    }
  }

  struct CodeFixup {
    std::size_t inst;
    int field; // 0 = a, 1 = b, 2 = c
    const BasicBlock* target;
  };
  struct TableFixup {
    std::uint32_t table;
    int caseIndex; // -1 = default
    const BasicBlock* target;
  };

  const Function& fn_;
  BytecodeModule& out_;
  const std::map<const Function*, std::uint32_t>& functionIndex_;
  const std::map<const GlobalVariable*, std::uint64_t>& globalAddresses_;

  CompiledFunction compiled_;
  std::uint32_t constBase_ = 0;
  std::uint32_t nextReg_ = 0;
  std::map<const Value*, std::uint32_t> constSlot_;
  std::map<const Instruction*, std::uint32_t> valueReg_;
  std::map<const Instruction*, std::uint32_t> phiStageReg_;
  std::map<const BasicBlock*, std::uint32_t> blockStart_;
  std::vector<CodeFixup> codeFixups_;
  std::vector<TableFixup> tableFixups_;
};

} // namespace

namespace {
telemetry::Stage g_compile{"vm.compile"};
telemetry::Stage g_fuse{"compile.fuse"};
telemetry::Stage g_superinstr{"compile.superinstr"};
telemetry::Counter g_fusionOps{"sim.fusion.ops_fused"};
telemetry::Counter g_fusionBlocks{"sim.fusion.blocks"};
telemetry::Counter g_fusionSweepsSaved{"sim.fusion.sweeps_saved"};
telemetry::Counter g_fusionRegions{"sim.fusion.regions"};
/// Gate calls left plain, indexed by UnfusedReason.
telemetry::Counter g_fusionUnfused[kNumUnfusedReasons] = {
    telemetry::Counter{"sim.fusion.unfused.unknown_gate"},
    telemetry::Counter{"sim.fusion.unfused.non_constant"},
    telemetry::Counter{"sim.fusion.unfused.dynamic_qubit"},
    telemetry::Counter{"sim.fusion.unfused.lone"},
};
telemetry::Counter g_compileSuperinstr{"vm.compile.superinstr"};
} // namespace

std::shared_ptr<const BytecodeModule> compileModule(const ir::Module& module,
                                                    const CompileOptions& options) {
  fault::probe(fault::Site::BytecodeCompile);
  const telemetry::Span span(g_compile);
  auto out = std::make_shared<BytecodeModule>();

  std::map<const Function*, std::uint32_t> functionIndex;
  for (const auto& fn : module.functions()) {
    if (!fn->isDeclaration()) {
      functionIndex[fn.get()] = static_cast<std::uint32_t>(functionIndex.size());
    }
  }
  const std::map<const GlobalVariable*, std::uint64_t> globalAddresses =
      predictGlobalAddresses(module);

  for (const auto& global : module.globals()) {
    out->globalInits.push_back(global->initializer());
  }
  for (const auto& fn : module.functions()) {
    if (fn->isDeclaration()) {
      continue;
    }
    FunctionCompiler compiler(*fn, *out, functionIndex, globalAddresses);
    out->functions.push_back(compiler.compile());
    out->functionIndexByName[fn->name()] =
        static_cast<std::uint32_t>(out->functions.size() - 1);
  }

  const Function* entry = module.entryPoint();
  if (entry == nullptr) {
    entry = module.getFunction("main");
  }
  if (entry != nullptr && !entry->isDeclaration()) {
    out->entryIndex = static_cast<int>(functionIndex.at(entry));
  }
  if (options.fuseGates) {
    const telemetry::Span fuseSpan(g_fuse);
    for (CompiledFunction& fn : out->functions) {
      const FusionStats stats = fuseGates(fn, out->externNames);
      g_fusionOps.add(stats.fusedOps);
      g_fusionBlocks.add(stats.blocks);
      g_fusionSweepsSaved.add(stats.sweepsSaved());
      g_fusionRegions.add(stats.regions);
      for (std::size_t r = 0; r < kNumUnfusedReasons; ++r) {
        g_fusionUnfused[r].add(stats.unfused[r]);
      }
    }
  }
  if (options.superinstructions) {
    const telemetry::Span superSpan(g_superinstr);
    for (CompiledFunction& fn : out->functions) {
      g_compileSuperinstr.add(fuseSuperinstructions(fn).total());
    }
  }
  out->dispatch = options.dispatch;
  out->sourceHash = fnv1a(ir::printModule(module));
  return out;
}

} // namespace qirkit::vm
