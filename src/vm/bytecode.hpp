/// \file bytecode.hpp
/// A flat, register-based bytecode for the IR subset — the compile-once/
/// execute-many counterpart to the tree-walking interpreter (the paper's
/// `lli` analog). Lowering resolves, at compile time, everything the
/// interpreter re-derives per instruction per shot:
///  * SSA values become dense register indices (no per-value map lookups),
///  * block successors become instruction offsets (no Value-graph chasing),
///  * phi nodes become staged parallel moves on the incoming edge,
///  * `__quantum__*` callees become runtime-dispatch slot indices
///    (no name lookups in the hot loop),
///  * constants become a per-function pool copied into the frame at entry.
///
/// The design follows dynamic-translation systems (compact linear IR,
/// translate once, run many): block structure is erased, semantics are
/// preserved bit-for-bit against the interpreter (differentially tested).
#pragma once

#include "interp/abi.hpp"
#include "interp/fused.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qirkit::vm {

/// The vm.dispatch.* counter an opcode is tallied under, one per executed
/// instruction (the --stats report's dispatch section).
enum class OpClass : std::uint8_t {
  Data,         // moves, selects, casts, Nop
  Arithmetic,   // int/float binops and comparisons
  Memory,       // alloca, loads, stores
  ControlFlow,  // jumps, switch, ret, trap
  CallInternal, // PushArg + Call
  CallExternal, // CallExtern (runtime dispatch)
  Fused,        // fused blocks (gate-fusion pass), one per block applied;
                // a head that falls through counts once
};
inline constexpr std::size_t kNumOpClasses =
    static_cast<std::size_t>(OpClass::Fused) + 1;

/// Every VM opcode, spelled once: OP(enumerator, mnemonic, OpClass, sub),
/// where `sub` says how the disassembler spells the instruction's `sub`
/// field — None, Opcode (an ir::Opcode), ICmpPred or FCmpPred. Operand
/// meanings follow each entry: `r[x]` is frame register x, and `d` carries
/// an immediate (bit width, size, or a fourth register for Select). The
/// list generates Op, kNumOps, opName, opClassOf and the disassembler's
/// suffix.
#define QIRKIT_VM_OPS(OP)                                                      \
  OP(Nop, "nop", Data, None)                                                   \
  OP(Mov, "mov", Data, None) /* r[a] = r[b] */                                 \
  /* r[a].i = evalIntBinOp(sub, bits=d, r[b].i, r[c].i); traps on div-by-0 */  \
  OP(IntBin, "ibin", Arithmetic, Opcode)                                       \
  /* r[a].d = evalFloatBinOp(sub, r[b].d, r[c].d) */                           \
  OP(FloatBin, "fbin", Arithmetic, Opcode)                                     \
  /* r[a] = makeI1(evalICmp(sub, bits=d, r[b].i, r[c].i)) */                   \
  OP(ICmp, "icmp", Arithmetic, ICmpPred)                                       \
  /* r[a] = makeI1(evalICmp(sub, 64, (i64)r[b].p, (i64)r[c].p)) */             \
  OP(ICmpPtr, "icmp.ptr", Arithmetic, ICmpPred)                                \
  /* r[a] = makeI1(evalFCmp(sub, r[b].d, r[c].d)) */                           \
  OP(FCmp, "fcmp", Arithmetic, FCmpPred)                                       \
  /* r[a] = evalCast(sub, bits=d, r[b]), d = castBits */                       \
  OP(Cast, "cast", Data, Opcode)                                               \
  /* r[a] = r[b].i != 0 ? r[c] : r[d] */                                       \
  OP(Select, "select", Data, None)                                             \
  OP(Alloca, "alloca", Memory, None) /* r[a].p = memory.allocate(d) */         \
  /* r[a].i = memory.loadInt(r[b].p, d bits) */                                \
  OP(LoadInt, "load.i", Memory, None)                                          \
  OP(LoadDouble, "load.d", Memory, None) /* r[a].d = memory[r[b].p] */         \
  OP(LoadPtr, "load.p", Memory, None)    /* r[a].p = memory[r[b].p] */         \
  /* memory.storeInt(r[c].p, r[b].i, d bits) */                                \
  OP(StoreInt, "store.i", Memory, None)                                        \
  OP(StoreDouble, "store.d", Memory, None) /* memory[r[c].p] = r[b].d */       \
  OP(StorePtr, "store.p", Memory, None)    /* memory[r[c].p] = r[b].p */       \
  OP(Jmp, "jmp", ControlFlow, None)        /* pc = a */                        \
  OP(JmpIf, "jmp.if", ControlFlow, None)   /* pc = r[a].i != 0 ? b : c */      \
  /* pc = switchTables[b] dispatched on r[a].i */                              \
  OP(SwitchI, "switch", ControlFlow, None)                                     \
  OP(Ret, "ret", ControlFlow, None)          /* return r[a] */                 \
  OP(RetVoid, "ret.void", ControlFlow, None) /* return void */                 \
  OP(PushArg, "push.arg", CallInternal, None) /* argument stack += r[a] */     \
  /* r[a] = functions[b](last c pushed args); a == kNoReg: void */             \
  OP(Call, "call", CallInternal, None)                                         \
  /* r[a] = externSlots[b](last c pushed args) */                              \
  OP(CallExtern, "call.ext", CallExternal, None)                               \
  /* throw TrapError("executed 'unreachable'") */                              \
  OP(Trap, "trap", ControlFlow, None)                                          \
  /* Fused region head (gate-fusion pass, fusion.hpp): with a fused host    */ \
  /* bound, no fault injection armed and step budget for the whole region,  */ \
  /* apply the blocks of fusedSweeps[a], account for every source gate      */ \
  /* (steps, stats) and jump to b, just past the region; otherwise fall     */ \
  /* through into the region's original calls.                              */ \
  OP(Fused, "fused", Fused, None)

/// Dense VM opcodes, in QIRKIT_VM_OPS order.
enum class Op : std::uint8_t {
#define QIRKIT_VM_ENUMERATOR(name, mnemonic, cls, sub) name,
  QIRKIT_VM_OPS(QIRKIT_VM_ENUMERATOR)
#undef QIRKIT_VM_ENUMERATOR
};

/// Number of opcodes.
inline constexpr std::size_t kNumOps = 0
#define QIRKIT_VM_COUNT(name, mnemonic, cls, sub) +1
    QIRKIT_VM_OPS(QIRKIT_VM_COUNT)
#undef QIRKIT_VM_COUNT
    ;

[[nodiscard]] const char* opName(Op op) noexcept;

/// The dispatch class \p op is tallied under.
[[nodiscard]] constexpr OpClass opClassOf(Op op) noexcept {
  constexpr OpClass kClasses[] = {
#define QIRKIT_VM_CLASS(name, mnemonic, cls, sub) OpClass::cls,
      QIRKIT_VM_OPS(QIRKIT_VM_CLASS)
#undef QIRKIT_VM_CLASS
  };
  return kClasses[static_cast<std::size_t>(op)];
}

/// Register index meaning "no destination" (void calls).
inline constexpr std::uint32_t kNoReg = 0xFFFFFFFFU;

/// Instruction flags.
/// kStep marks the one VM instruction that accounts for a source IR
/// instruction: it counts toward the step budget and the executed-
/// instruction statistic, exactly mirroring the interpreter (which counts
/// every non-phi IR instruction and executes phi moves for free). Lowering
/// artifacts — phi staging moves, edge stubs, PushArg, constant setup —
/// carry no flag, so both engines reject a runaway program at the
/// *identical* source instruction.
inline constexpr std::uint16_t kStep = 1U << 0;

/// A fixed-width VM instruction (24 bytes).
struct Inst {
  Op op = Op::Nop;
  std::uint8_t sub = 0;    // ir::Opcode or predicate, per opcode
  std::uint16_t flags = 0; // kStep
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t d = 0;
};

/// The region one Op::Fused head applies: blockCount consecutive
/// CompiledFunction::fusedBlocks entries starting at firstBlock, built by
/// the fusion pass (fusion.hpp) from totalGates source gate calls.
struct FusedSweepRun {
  std::uint32_t firstBlock = 0;
  std::uint32_t blockCount = 0;
  std::uint32_t totalGates = 0;
};

/// Jump table of one `switch` instruction: case values are matched in
/// declaration order (first match wins, as in the interpreter).
struct SwitchTable {
  std::uint32_t defaultTarget = 0;
  std::vector<std::pair<std::int64_t, std::uint32_t>> cases;
};

/// One compiled function. The frame layout is
///   [0, numArgs)                        arguments
///   [numArgs, numArgs + #constants)     constant pool, copied at entry
///   [.., numRegs)                       temporaries (zeroed at entry)
struct CompiledFunction {
  std::string name;
  std::uint32_t numArgs = 0;
  std::uint32_t numRegs = 0;
  bool returnsValue = false;
  std::vector<interp::RtValue> constants;
  std::vector<Inst> code;
  std::vector<SwitchTable> switchTables;
  /// Precomposed gate blocks, region by region. Each belongs to exactly
  /// one fusedSweeps entry.
  std::vector<interp::FusedBlock> fusedBlocks;
  /// One region per Op::Fused head, indexed by its `a` operand.
  /// totalGates is the step/stats credit the fast path accounts for.
  std::vector<FusedSweepRun> fusedSweeps;
};

/// A compiled module: every defined function, the extern-slot table
/// (pre-resolved `__quantum__*`/host callees, dispatched by index at run
/// time), and the global-variable images replayed into fresh execution
/// memory per shot. Immutable after compilation — safe to share across
/// shots, threads and serve requests (the program store hands out
/// shared_ptrs to it).
struct BytecodeModule {
  std::vector<CompiledFunction> functions;
  std::map<std::string, std::uint32_t> functionIndexByName;
  std::vector<std::string> externNames;  // slot -> declared callee name
  std::vector<std::string> globalInits;  // initializer bytes, in module order
  int entryIndex = -1;                   // "entry_point" attr, else @main

  [[nodiscard]] std::size_t instructionCount() const noexcept;

  /// Human-readable listing (for tests and debugging).
  [[nodiscard]] std::string disassemble() const;
};

} // namespace qirkit::vm
