#include "vm/vm.hpp"

#include "ir/instruction.hpp"
#include "passes/folding.hpp"
#include "support/cancel.hpp"
#include "support/faultinject.hpp"
#include "support/telemetry/telemetry.hpp"

#include <algorithm>
#include <array>

namespace qirkit::vm {

using interp::ExternContext;
using interp::RtValue;
using interp::TrapError;

namespace {

/// The vm.dispatch.* counters, indexed by OpClass.
telemetry::Counter g_dispatch[kNumOpClasses] = {
    telemetry::Counter{"vm.dispatch.data"},
    telemetry::Counter{"vm.dispatch.arithmetic"},
    telemetry::Counter{"vm.dispatch.memory"},
    telemetry::Counter{"vm.dispatch.control_flow"},
    telemetry::Counter{"vm.dispatch.call_internal"},
    telemetry::Counter{"vm.dispatch.call_external"},
    telemetry::Counter{"vm.dispatch.fused"},
};

/// Per-frame dispatch tally: plain local increments in the hot loop,
/// flushed to the process-wide counters once per frame (also on unwind).
/// Inactive frames (telemetry disabled) cost nothing here.
struct DispatchTally {
  std::array<std::uint64_t, kNumOpClasses> counts{};
  bool active = false;

  void add(OpClass cls, std::uint64_t n = 1) noexcept {
    counts[static_cast<std::size_t>(cls)] += n;
  }

  ~DispatchTally() {
    if (!active) {
      return;
    }
    for (std::size_t cls = 0; cls < kNumOpClasses; ++cls) {
      g_dispatch[cls].addUnchecked(counts[cls]);
    }
  }
};

} // namespace

Vm::Vm(std::shared_ptr<const BytecodeModule> module) : module_(std::move(module)) {
  materializeGlobals();
}

void Vm::materializeGlobals() {
  // Mirrors the interpreter's constructor; the deterministic bump
  // allocator makes the addresses identical (and equal to the ones the
  // compiler baked into constant pools).
  for (const std::string& bytes : module_->globalInits) {
    const std::uint64_t address =
        memory_.allocate(std::max<std::uint64_t>(1, bytes.size()));
    if (!bytes.empty()) {
      memory_.store(address, bytes.data(), bytes.size());
    }
    globalAddresses_.push_back(address);
  }
}

void Vm::reset() {
  memory_ = interp::Memory();
  globalAddresses_.clear();
  materializeGlobals();
}

std::uint64_t Vm::globalAddress(std::size_t index) const {
  if (index >= globalAddresses_.size()) {
    throw TrapError("reference to unmaterialized global");
  }
  return globalAddresses_[index];
}

void Vm::bindExternal(std::string name, ExternalHandler handler) {
  ExternalRegistry::bindExternal(name, std::move(handler));
  externsDirty_ = true;
}

void Vm::resolveExterns() {
  externSlots_.assign(module_->externNames.size(), nullptr);
  for (std::size_t slot = 0; slot < module_->externNames.size(); ++slot) {
    externSlots_[slot] = findExternal(module_->externNames[slot]);
  }
  externsDirty_ = false;
}

RtValue Vm::run(std::string_view name, std::span<const RtValue> args) {
  const auto it = module_->functionIndexByName.find(std::string(name));
  if (it == module_->functionIndexByName.end()) {
    throw TrapError("no compiled function @" + std::string(name));
  }
  return runFunction(it->second, args);
}

RtValue Vm::runEntryPoint() {
  if (module_->entryIndex < 0) {
    throw TrapError("module has no executable entry point");
  }
  return runFunction(static_cast<std::uint32_t>(module_->entryIndex), {});
}

RtValue Vm::runFunction(std::uint32_t funcIndex, std::span<const RtValue> args) {
  const CompiledFunction& fn = module_->functions[funcIndex];
  interp::checkArgumentCount(fn.name, fn.numArgs, args.size());
  stepsTaken_ = 0;
  stack_.clear();
  argStack_.clear();
  if (externsDirty_) {
    resolveExterns();
  }
  return execute(funcIndex, args, 0);
}

RtValue Vm::execute(std::uint32_t funcIndex, std::span<const RtValue> args,
                    unsigned depth) {
  if (depth > 512) {
    throw TrapError("call stack overflow (depth > 512)",
                    ErrorCode::ResourceLimit);
  }
  ++stats_.internalCalls;
  // Cached per frame so the disabled case costs nothing in the dispatch
  // loop beyond a predictable branch.
  const bool injectFaults = fault::FaultInjector::instance().enabled();
  // Cached per frame like the fault flag; a null token costs one pointer
  // compare per step-counted instruction, an armed one a strided probe.
  const CancelToken* const cancel = cancel_;
  const CompiledFunction& fn = module_->functions[funcIndex];

  const std::size_t base = stack_.size();
  stack_.resize(base + fn.numRegs);
  RtValue* regs = stack_.data() + base;
  std::copy(args.begin(), args.end(), regs);
  std::copy(fn.constants.begin(), fn.constants.end(), regs + fn.numArgs);
  ++stats_.blocksEntered;

  DispatchTally tally;
  tally.active = telemetry::enabled();
  const Inst* const code = fn.code.data();
  std::uint32_t pc = 0;
  for (;;) {
    const Inst in = code[pc++];
    if (tally.active) {
      tally.add(opClassOf(in.op));
    }
    if ((in.flags & kStep) != 0) {
      if (++stepsTaken_ > stepLimit_) {
        throw TrapError("step limit exceeded (" + std::to_string(stepLimit_) + ")",
                        ErrorCode::StepBudgetExceeded);
      }
      ++stats_.instructionsExecuted;
      if (injectFaults) {
        fault::probe(fault::Site::VmDispatch);
      }
      if (cancel != nullptr &&
          (stepsTaken_ & (kCancelStrideSteps - 1)) == 0) {
        cancel->checkpoint("vm dispatch");
      }
    }
    switch (in.op) {
    case Op::Nop:
      break;

    case Op::Mov:
      regs[in.a] = regs[in.b];
      break;

    case Op::IntBin: {
      std::int64_t result = 0;
      if (!passes::evalIntBinOp(static_cast<ir::Opcode>(in.sub), in.d,
                                regs[in.b].i, regs[in.c].i, result)) {
        throw TrapError(std::string("arithmetic trap in ") +
                            ir::opcodeName(static_cast<ir::Opcode>(in.sub)) +
                            " (division by zero or oversized shift)",
                        ErrorCode::TrapArithmetic);
      }
      regs[in.a] = RtValue::makeInt(result);
      break;
    }

    case Op::FloatBin:
      regs[in.a] = RtValue::makeDouble(passes::evalFloatBinOp(
          static_cast<ir::Opcode>(in.sub), regs[in.b].d, regs[in.c].d));
      break;

    case Op::ICmp:
      regs[in.a] = RtValue::makeI1(passes::evalICmp(
          static_cast<ir::ICmpPred>(in.sub), in.d, regs[in.b].i, regs[in.c].i));
      break;

    case Op::ICmpPtr:
      regs[in.a] = RtValue::makeI1(passes::evalICmp(
          static_cast<ir::ICmpPred>(in.sub), 64,
          static_cast<std::int64_t>(regs[in.b].p),
          static_cast<std::int64_t>(regs[in.c].p)));
      break;

    case Op::FCmp:
      regs[in.a] = RtValue::makeI1(passes::evalFCmp(
          static_cast<ir::FCmpPred>(in.sub), regs[in.b].d, regs[in.c].d));
      break;

    case Op::Cast:
      regs[in.a] = passes::evalCast(static_cast<ir::Opcode>(in.sub), in.d, regs[in.b]);
      break;

    case Op::Select:
      regs[in.a] = regs[in.b].i != 0 ? regs[in.c] : regs[in.d];
      break;

    case Op::Alloca:
      regs[in.a] = RtValue::makePtr(memory_.allocate(in.d));
      break;

    case Op::LoadInt:
      regs[in.a] = RtValue::makeInt(memory_.loadInt(regs[in.b].p, in.d));
      break;

    case Op::LoadDouble: {
      double value = 0.0;
      memory_.load(regs[in.b].p, &value, sizeof value);
      regs[in.a] = RtValue::makeDouble(value);
      break;
    }

    case Op::LoadPtr: {
      std::uint64_t value = 0;
      memory_.load(regs[in.b].p, &value, sizeof value);
      regs[in.a] = RtValue::makePtr(value);
      break;
    }

    case Op::StoreInt:
      memory_.storeInt(regs[in.c].p, regs[in.b].i, in.d);
      break;

    case Op::StoreDouble:
      memory_.store(regs[in.c].p, &regs[in.b].d, sizeof(double));
      break;

    case Op::StorePtr:
      memory_.store(regs[in.c].p, &regs[in.b].p, sizeof(std::uint64_t));
      break;

    case Op::Jmp:
      // Flagged jumps realize a source `br`; stub jumps (phi edges) do not
      // re-enter the block for accounting purposes.
      if ((in.flags & kStep) != 0) {
        ++stats_.blocksEntered;
      }
      pc = in.a;
      break;

    case Op::JmpIf:
      ++stats_.blocksEntered;
      pc = regs[in.a].i != 0 ? in.b : in.c;
      break;

    case Op::SwitchI: {
      ++stats_.blocksEntered;
      const SwitchTable& table = fn.switchTables[in.b];
      const std::int64_t cond = regs[in.a].i;
      std::uint32_t target = table.defaultTarget;
      for (const auto& [value, caseTarget] : table.cases) {
        if (value == cond) {
          target = caseTarget;
          break;
        }
      }
      pc = target;
      break;
    }

    case Op::Ret: {
      const RtValue result = regs[in.a];
      stack_.resize(base);
      return result;
    }

    case Op::RetVoid:
      stack_.resize(base);
      return RtValue::makeVoid();

    case Op::PushArg:
      argStack_.push_back(regs[in.a]);
      break;

    case Op::Call: {
      const std::size_t argBase = argStack_.size() - in.c;
      // The callee copies its arguments into its frame on entry, before
      // any nested PushArg can reallocate argStack_, so the span is safe.
      const RtValue result =
          execute(in.b, {argStack_.data() + argBase, in.c}, depth + 1);
      argStack_.resize(argBase);
      regs = stack_.data() + base; // recursion may have reallocated
      if (in.a != kNoReg) {
        regs[in.a] = result;
      }
      break;
    }

    case Op::CallExtern: {
      const ExternalHandler* handler = externSlots_[in.b];
      if (handler == nullptr) {
        // Same diagnostic as the interpreter (the paper's lli failure
        // mode when no runtime supplies the quantum instructions).
        throw TrapError("call to undefined external @" +
                            module_->externNames[in.b] +
                            " (no runtime binding registered)",
                        ErrorCode::TrapUnboundExternal);
      }
      ++stats_.externalCalls;
      if (injectFaults) {
        fault::probe(fault::Site::RuntimeCall);
      }
      const std::size_t argBase = argStack_.size() - in.c;
      ExternContext context{memory_};
      const RtValue result =
          (*handler)({argStack_.data() + argBase, in.c}, context);
      argStack_.resize(argBase);
      if (in.a != kNoReg) {
        regs[in.a] = result;
      }
      break;
    }

    case Op::Trap:
      throw TrapError("executed 'unreachable'", ErrorCode::TrapUnreachable);

    case Op::Fused: {
      // The head of a fused region. The fast path hands all of the
      // region's blocks to the host in one call and skips the region's
      // calls — sound only when nothing can interrupt the region, i.e.
      // the step budget covers every gate and no fault probes fire. Every
      // other case falls through into the calls themselves, which
      // account, probe and trap exactly as unfused code does.
      const FusedSweepRun& run = fn.fusedSweeps[in.a];
      if (fusedHost_ != nullptr && !injectFaults &&
          stepsTaken_ + run.totalGates <= stepLimit_) {
        if (tally.active) {
          // vm.dispatch.fused counts blocks (the loop head counted this
          // instruction once already).
          tally.add(OpClass::Fused, run.blockCount - 1);
        }
        stepsTaken_ += run.totalGates;
        stats_.instructionsExecuted += run.totalGates;
        stats_.externalCalls += run.totalGates;
        fusedHost_->applyFusedSweep(
            {fn.fusedBlocks.data() + run.firstBlock, run.blockCount});
        pc = in.b;
      }
      break;
    }
    }
  }
}

} // namespace qirkit::vm
