#include "vm/vm.hpp"

#include "ir/instruction.hpp"
#include "passes/folding.hpp"
#include "support/cancel.hpp"
#include "support/faultinject.hpp"
#include "support/telemetry/telemetry.hpp"

#include <algorithm>
#include <array>

// The token-threaded loop needs GNU computed goto (&&label), which every
// compiler the project builds with (GCC, Clang) has. Everything else —
// module encoding, semantics, telemetry — is identical either way;
// without it, Threaded-mode modules silently run the switch loop.
#if defined(__GNUC__) || defined(__clang__)
#define QIRKIT_VM_THREADED 1
#else
#define QIRKIT_VM_THREADED 0
#endif

namespace qirkit::vm {

using interp::ExternContext;
using interp::RtValue;
using interp::TrapError;

bool threadedDispatchAvailable() noexcept { return QIRKIT_VM_THREADED != 0; }

namespace {

/// Dispatch accounting groups every opcode into one of six classes; the
/// counters surface as vm.dispatch.* in the --stats report. A
/// superinstruction's head sub-op is classed here (the loop preamble
/// counts it); its handler adds the second sub-op's class explicitly, so
/// per-class counts match unfused execution exactly.
enum OpClass : std::uint8_t {
  kClassData,         // moves, selects, casts, Nop
  kClassArithmetic,   // int/float binops and comparisons
  kClassMemory,       // alloca, loads, stores
  kClassControlFlow,  // jumps, switch, ret, trap
  kClassCallInternal, // PushArg + Call
  kClassCallExternal, // CallExtern (runtime dispatch)
  kClassFused,        // fused blocks (gate-fusion pass), one per block
  kNumOpClasses,
};

constexpr OpClass opClassOf(Op op) noexcept {
  switch (op) {
  case Op::IntBin:
  case Op::FloatBin:
  case Op::ICmp:
  case Op::ICmpPtr:
  case Op::FCmp:
  case Op::CmpBr:    // head = ICmp
  case Op::BinStore: // head = IntBin
    return kClassArithmetic;
  case Op::Alloca:
  case Op::LoadInt:
  case Op::LoadDouble:
  case Op::LoadPtr:
  case Op::StoreInt:
  case Op::StoreDouble:
  case Op::StorePtr:
  case Op::LoadBin: // head = LoadInt
    return kClassMemory;
  case Op::Jmp:
  case Op::JmpIf:
  case Op::SwitchI:
  case Op::Ret:
  case Op::RetVoid:
  case Op::Trap:
    return kClassControlFlow;
  case Op::PushArg:
  case Op::Call:
  case Op::PushCall: // head = PushArg
    return kClassCallInternal;
  case Op::CallExtern:
    return kClassCallExternal;
  case Op::Fused:
    return kClassFused;
  default:
    return kClassData;
  }
}

telemetry::Counter g_dispatchData{"vm.dispatch.data"};
telemetry::Counter g_dispatchArithmetic{"vm.dispatch.arithmetic"};
telemetry::Counter g_dispatchMemory{"vm.dispatch.memory"};
telemetry::Counter g_dispatchControlFlow{"vm.dispatch.control_flow"};
telemetry::Counter g_dispatchCallInternal{"vm.dispatch.call_internal"};
telemetry::Counter g_dispatchCallExternal{"vm.dispatch.call_external"};
telemetry::Counter g_dispatchFused{"vm.dispatch.fused"};
/// Superinstructions executed (each stands in for one fused opcode pair
/// or PushArg run — one dispatch saved apiece, more for long runs).
telemetry::Counter g_dispatchSuper{"vm.dispatch.superinstr"};
/// Block entries taken by the threaded loop while step-probe credit was
/// outstanding, i.e. without bouncing through the step-limit/cancel
/// checks: the basic-block-chaining win, observable as a counter.
telemetry::Counter g_dispatchChained{"vm.dispatch.chained_blocks"};
/// High-watermark of the dispatch loop actually entered at frame depth 0:
/// 1 = portable switch loop, 2 = token-threaded loop.
telemetry::MaxGauge g_dispatchMode{"vm.dispatch.mode"};

/// Per-frame dispatch tally: plain local increments in the hot loop,
/// flushed to the process-wide counters once per frame (also on unwind).
/// Inactive frames (telemetry disabled) cost nothing here.
struct DispatchTally {
  std::array<std::uint64_t, kNumOpClasses> counts{};
  std::uint64_t superinstr = 0;
  std::uint64_t chainedBlocks = 0;
  bool active = false;

  ~DispatchTally() {
    if (!active) {
      return;
    }
    g_dispatchData.addUnchecked(counts[kClassData]);
    g_dispatchArithmetic.addUnchecked(counts[kClassArithmetic]);
    g_dispatchMemory.addUnchecked(counts[kClassMemory]);
    g_dispatchControlFlow.addUnchecked(counts[kClassControlFlow]);
    g_dispatchCallInternal.addUnchecked(counts[kClassCallInternal]);
    g_dispatchCallExternal.addUnchecked(counts[kClassCallExternal]);
    g_dispatchFused.addUnchecked(counts[kClassFused]);
    g_dispatchSuper.addUnchecked(superinstr);
    g_dispatchChained.addUnchecked(chainedBlocks);
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
  stepsTaken_ = 0;
  stack_.clear();
  argStack_.clear();
  if (externsDirty_) {
    resolveExterns();
  }
  return execute(it->second, args, 0);
}

RtValue Vm::runEntryPoint() {
  if (module_->entryIndex < 0) {
    throw TrapError("module has no executable entry point");
  }
  stepsTaken_ = 0;
  stack_.clear();
  argStack_.clear();
  if (externsDirty_) {
    resolveExterns();
  }
  return execute(static_cast<std::uint32_t>(module_->entryIndex), {}, 0);
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
  RtValue* const regs = stack_.data() + base;
  std::copy(args.begin(), args.end(), regs);
  std::copy(fn.constants.begin(), fn.constants.end(), regs + fn.numArgs);
  ++stats_.blocksEntered;

#if QIRKIT_VM_THREADED
  // Threaded-mode modules take the computed-goto loop — except under
  // fault injection, whose per-step probes belong to the switch loop's
  // full preamble. The fallback is bit-compatible, so drills observe
  // identical behaviour.
  if (module_->dispatch == DispatchMode::Threaded && !injectFaults) {
    if (depth == 0) {
      g_dispatchMode.updateMax(2);
    }
    return executeThreaded(fn, base, depth, cancel);
  }
#endif
  if (depth == 0) {
    g_dispatchMode.updateMax(1);
  }
  return executeSwitch(fn, base, depth, injectFaults, cancel);
}

std::uint64_t Vm::checkedStepProbe(const qirkit::CancelToken* cancel) {
  // Bit-for-bit the switch loop's per-step preamble (no fault probe: the
  // threaded loop never runs with injection armed)...
  if (++stepsTaken_ > stepLimit_) {
    throw TrapError("step limit exceeded (" + std::to_string(stepLimit_) + ")",
                    ErrorCode::StepBudgetExceeded);
  }
  ++stats_.instructionsExecuted;
  if (cancel != nullptr && (stepsTaken_ & (kCancelStrideSteps - 1)) == 0) {
    cancel->checkpoint("vm dispatch");
  }
  // ...then how many further steps provably need none of it: bounded by
  // the remaining budget (credit 0 at the limit makes the *next* step
  // re-enter this probe and trap on the correct instruction) and, with a
  // token armed, by the distance to the next kCancelStrideSteps boundary
  // (the step landing on it must come back here to checkpoint).
  std::uint64_t credit = stepLimit_ - stepsTaken_;
  if (cancel != nullptr) {
    const std::uint64_t untilBoundary =
        kCancelStrideSteps - (stepsTaken_ & (kCancelStrideSteps - 1));
    credit = std::min(credit, untilBoundary - 1);
  }
  return credit;
}

RtValue Vm::executeSwitch(const CompiledFunction& fn, std::size_t base,
                          unsigned depth, bool injectFaults,
                          const qirkit::CancelToken* cancel) {
  DispatchTally tally;
  tally.active = telemetry::enabled();
  RtValue* regs = stack_.data() + base;
  const Inst* code = fn.code.data();
  std::uint32_t pc = 0;
  for (;;) {
    const Inst in = code[pc++];
    if (tally.active) {
      ++tally.counts[opClassOf(in.op)];
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
// Switch-loop handler glue: break back to the fetch at the loop head;
// every step re-runs the full preamble, so there is no credit to resync
// and no chaining to count. VM_SECOND_STEP replays that preamble —
// including the fault probe, since fault drills run on this loop — for
// the second sub-op of a superinstruction pair.
#define VM_CASE(name) case Op::name:
#define VM_NEXT() break
// The switch loop counts every step in the preamble; its member
// counters are always current, so there is never anything to flush.
#define VM_FLUSH_STEPS()                                                       \
  do {                                                                         \
  } while (0)
#define VM_SECOND_STEP(flagsExpr)                                              \
  do {                                                                         \
    if (((flagsExpr)&kStep) != 0) {                                            \
      if (++stepsTaken_ > stepLimit_) {                                        \
        throw TrapError("step limit exceeded (" +                              \
                            std::to_string(stepLimit_) + ")",                  \
                        ErrorCode::StepBudgetExceeded);                        \
      }                                                                        \
      ++stats_.instructionsExecuted;                                           \
      if (injectFaults) {                                                      \
        fault::probe(fault::Site::VmDispatch);                                 \
      }                                                                        \
      if (cancel != nullptr &&                                                 \
          (stepsTaken_ & (kCancelStrideSteps - 1)) == 0) {                     \
        cancel->checkpoint("vm dispatch");                                     \
      }                                                                        \
    }                                                                          \
  } while (0)
#define VM_RESYNC()                                                            \
  do {                                                                         \
  } while (0)
#define VM_CHAIN_TALLY()                                                       \
  do {                                                                         \
  } while (0)
#include "vm/vm_ops.inc"
#undef VM_CASE
#undef VM_NEXT
#undef VM_FLUSH_STEPS
#undef VM_SECOND_STEP
#undef VM_RESYNC
#undef VM_CHAIN_TALLY
    }
  }
}

#if QIRKIT_VM_THREADED

RtValue Vm::executeThreaded(const CompiledFunction& fn, std::size_t base,
                            unsigned depth,
                            const qirkit::CancelToken* cancel) {
  DispatchTally tally;
  tally.active = telemetry::enabled();
  RtValue* regs = stack_.data() + base;
  const Inst* code = fn.code.data();
  std::uint32_t pc = 0;
  // Step-probe credit: how many step-counted instructions may retire
  // with a bare decrement before the next checkedStepProbe. Starting at
  // 0 forces a probe on the frame's first step, which establishes the
  // real bound; thereafter probes land only at step-limit exhaustion and
  // kCancelStrideSteps boundaries — i.e. straight-line block runs chain
  // without touching the budget or the token.
  //
  // The counters themselves stay eager (one increment each per step):
  // a register-batched variant with flush-on-observation was measured
  // slower here — the exception edges it needs (every handler can trap)
  // cost more in lost register allocation than the increments do.
  std::uint64_t probeCredit = 0;
  // This loop is never entered with injection armed (execute() routes
  // those frames to the switch loop, which carries the per-step probes);
  // the shared handlers see a constant the compiler folds away.
  constexpr bool injectFaults = false;
  // Token-threaded dispatch: one indirect jump per instruction, indexed
  // by opcode, in Op declaration order. GNU &&label addresses are valid
  // static initializers, so the table is built once.
  static const void* const kOpLabels[] = {
      &&L_Nop,      &&L_Mov,         &&L_IntBin,     &&L_FloatBin,
      &&L_ICmp,     &&L_ICmpPtr,     &&L_FCmp,       &&L_ZExt,
      &&L_Trunc,    &&L_PtrToInt,    &&L_IntToPtr,   &&L_SiToF,
      &&L_UiToF,    &&L_FToSi,       &&L_FToUi,      &&L_Select,
      &&L_Alloca,   &&L_LoadInt,     &&L_LoadDouble, &&L_LoadPtr,
      &&L_StoreInt, &&L_StoreDouble, &&L_StorePtr,   &&L_Jmp,
      &&L_JmpIf,    &&L_SwitchI,     &&L_Ret,        &&L_RetVoid,
      &&L_PushArg,  &&L_Call,        &&L_CallExtern, &&L_Trap,
      &&L_Fused,    &&L_CmpBr,       &&L_BinStore,   &&L_LoadBin,
      &&L_PushCall, &&L_Ext,
  };
  static_assert(sizeof(kOpLabels) / sizeof(kOpLabels[0]) == kNumOps,
                "label table must cover every opcode, in enum order");
  Inst in{};
// Threaded-loop handler glue: VM_NEXT is the fetch/preamble/dispatch
// sequence itself (no outer loop), with the step fast path a single
// credit decrement. VM_RESYNC zeroes the credit after handlers that
// advance stepsTaken_ in bulk (fused runs, recursive calls) so
// the stale bound is recomputed before the next fast step.
#define VM_CASE(name) L_##name:
// Counters are eager, so there is nothing to flush — the macro marks the
// places where the member counters become observable (frame exits,
// recursion, fused bulk accounting), which any batched-counting scheme
// would have to honour.
#define VM_FLUSH_STEPS()                                                       \
  do {                                                                         \
  } while (0)
#define VM_NEXT()                                                              \
  do {                                                                         \
    in = code[pc++];                                                           \
    if (tally.active) {                                                        \
      ++tally.counts[opClassOf(in.op)];                                        \
    }                                                                          \
    if ((in.flags & kStep) != 0) {                                             \
      if (probeCredit != 0) {                                                  \
        --probeCredit;                                                         \
        ++stepsTaken_;                                                         \
        ++stats_.instructionsExecuted;                                         \
      } else {                                                                 \
        probeCredit = checkedStepProbe(cancel);                                \
      }                                                                        \
    }                                                                          \
    goto* kOpLabels[static_cast<std::size_t>(in.op)];                          \
  } while (0)
#define VM_SECOND_STEP(flagsExpr)                                              \
  do {                                                                         \
    if (((flagsExpr)&kStep) != 0) {                                            \
      if (probeCredit != 0) {                                                  \
        --probeCredit;                                                         \
        ++stepsTaken_;                                                         \
        ++stats_.instructionsExecuted;                                         \
      } else {                                                                 \
        probeCredit = checkedStepProbe(cancel);                                \
      }                                                                        \
    }                                                                          \
  } while (0)
#define VM_RESYNC() probeCredit = 0
#define VM_CHAIN_TALLY()                                                       \
  do {                                                                         \
    if (tally.active && probeCredit != 0) {                                    \
      ++tally.chainedBlocks;                                                   \
    }                                                                          \
  } while (0)
  VM_NEXT();
#include "vm/vm_ops.inc"
#undef VM_CASE
#undef VM_FLUSH_STEPS
#undef VM_NEXT
#undef VM_SECOND_STEP
#undef VM_RESYNC
#undef VM_CHAIN_TALLY
}

#endif // QIRKIT_VM_THREADED

void Vm::execFusedBlock(const interp::FusedBlock& block, bool injectFaults) {
  // One fused block stands in for block.sourceGates source gate calls;
  // account for all of them (steps, stats, fault probes) so fused runs
  // are indistinguishable from unfused ones to every observer but the
  // wall clock. Fused instructions carry no kStep flag.
  const std::uint64_t gates = block.sourceGates;
  if (stepsTaken_ + gates > stepLimit_) {
    // Partial credit exactly as if the gates ran one by one: the first
    // (stepLimit_ - stepsTaken_) complete, the next one trips the budget
    // before counting as executed.
    const std::uint64_t executed = stepLimit_ - stepsTaken_;
    stepsTaken_ = stepLimit_ + 1;
    stats_.instructionsExecuted += executed;
    stats_.externalCalls += executed;
    throw TrapError("step limit exceeded (" + std::to_string(stepLimit_) + ")",
                    ErrorCode::StepBudgetExceeded);
  }
  stepsTaken_ += gates;
  stats_.instructionsExecuted += gates;
  stats_.externalCalls += gates;
  if (injectFaults) {
    for (std::uint64_t g = 0; g < gates; ++g) {
      fault::probe(fault::Site::VmDispatch);
      fault::probe(fault::Site::RuntimeCall);
    }
  }
  if (fusedHost_ != nullptr) {
    fusedHost_->applyFusedSweep({&block, 1});
    return;
  }
  // No fused kernels on this host: replay the original calls so
  // recording/Clifford runtimes (and unbound slots' diagnostics)
  // behave identically to unfused execution.
  ExternContext context{memory_};
  for (const interp::FusedReplayCall& call : block.replay) {
    const ExternalHandler* handler = externSlots_[call.slot];
    if (handler == nullptr) {
      throw TrapError("call to undefined external @" +
                          module_->externNames[call.slot] +
                          " (no runtime binding registered)",
                      ErrorCode::TrapUnboundExternal);
    }
    (*handler)({call.args.data(), call.args.size()}, context);
  }
}

} // namespace qirkit::vm
