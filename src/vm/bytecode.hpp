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

/// Dense VM opcodes. Operand meanings are documented per opcode; `r[x]`
/// is frame register x, `sub` carries a source opcode / predicate, and
/// `d` carries an immediate (bit width, byte count, size, or a fourth
/// register for Select).
enum class Op : std::uint8_t {
  Nop,
  Mov,         // r[a] = r[b]
  IntBin,      // r[a].i = evalIntBinOp(sub, bits=d, r[b].i, r[c].i); traps on div-by-0
  FloatBin,    // r[a].d = evalFloatBinOp(sub, r[b].d, r[c].d)
  ICmp,        // r[a].i = evalICmp(sub, bits=d, r[b].i, r[c].i)
  ICmpPtr,     // r[a].i = evalICmp(sub, 64, (i64)r[b].p, (i64)r[c].p)
  FCmp,        // r[a].i = evalFCmp(sub, r[b].d, r[c].d)
  ZExt,        // r[a].i = r[b].i zero-extended from d source bits
  Trunc,       // r[a].i = r[b].i truncated to d bits, then sign-extended
  PtrToInt,    // r[a].i = (i64)r[b].p
  IntToPtr,    // r[a].p = (u64)r[b].i
  SiToF,       // r[a].d = (double)r[b].i
  UiToF,       // r[a].d = (double)(u64)r[b].i
  FToSi,       // r[a].i = (i64)r[b].d
  FToUi,       // r[a].i = (i64)(u64)r[b].d
  Select,      // r[a] = r[b].i != 0 ? r[c] : r[d]
  Alloca,      // r[a].p = memory.allocate(d)
  LoadInt,     // r[a].i = memory.loadInt(r[b].p, d bytes, sign-extended)
  LoadDouble,  // r[a].d = memory[r[b].p]
  LoadPtr,     // r[a].p = memory[r[b].p]
  StoreInt,    // memory.storeInt(r[c].p, r[b].i, d bytes)
  StoreDouble, // memory[r[c].p] = r[b].d
  StorePtr,    // memory[r[c].p] = r[b].p
  Jmp,         // pc = a
  JmpIf,       // pc = r[a].i != 0 ? b : c
  SwitchI,     // pc = switchTables[b] dispatched on r[a].i
  Ret,         // return r[a]
  RetVoid,     // return void
  PushArg,     // argument stack += r[a]
  Call,        // r[a] = functions[b](last c pushed args); a == kNoReg: void
  CallExtern,  // r[a] = externSlots[b](last c pushed args)
  Trap,        // throw TrapError("executed 'unreachable'")
  // Fused region head (gate-fusion pass, fusion.hpp): with a fused host
  // bound, no fault injection armed and step budget for the whole region,
  // apply the blocks of fusedSweeps[a], account for every source gate
  // (steps, stats) and jump to b, just past the region; otherwise fall
  // through into the region's original calls.
  Fused,
  // Superinstructions (fuseSuperinstructions, fusion.hpp): hot opcode
  // pairs mined after gate fusion. Each occupies the
  // replaced pair's span — the head instruction plus Op::Ext extension
  // slots that carry the second sub-op's operands and flags and are
  // consumed as immediates, never dispatched. Each sub-op keeps its own
  // step/stat/tally accounting, so superinstruction execution is
  // bit-compatible with the unfused pair.
  CmpBr,    // ICmp + JmpIf: r[a] = icmp(sub, bits=d, r[b], r[c]);
            // ext = {a=trueTarget, b=falseTarget, flags=JmpIf flags}
  BinStore, // IntBin + StoreInt: r[a] = ibin(sub, bits=d, r[b], r[c]);
            // memory.storeInt(r[ext.c], r[a], ext.d bytes)
  LoadBin,  // LoadInt + IntBin: r[a] = load(r[b], d bytes);
            // r[ext.a] = ibin(ext.sub, bits=ext.d, r[a], r[ext.c])
  PushCall, // PushArg x c: pushes r[a], then r[slot.a] of the c-1
            // following Ext slots; falls through to the untouched
            // Call/CallExtern that consumes them
  Ext,      // extension slot of a superinstruction; dispatching it is a
            // compiler bug and traps
};

/// Number of opcodes (the dispatch tables' extent).
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::Ext) + 1;

[[nodiscard]] const char* opName(Op op) noexcept;

/// Which dispatch loop the VM runs a compiled module with. Switch is the
/// reference loop (one opcode switch per instruction, and the loop fault
/// injection runs on); Threaded is the token-threaded computed-goto loop
/// (GNU C++ extension). The mode is a *compile* option and part of the
/// program-store key, so modules compiled for different loops never share
/// an entry. The shot executor always compiles for defaultDispatchMode().
enum class DispatchMode : std::uint8_t { Switch, Threaded };

[[nodiscard]] const char* dispatchModeName(DispatchMode mode) noexcept;

/// True when this build carries the computed-goto loop (a GNU-compatible
/// compiler). When false, Threaded-mode modules execute on the switch
/// loop — the two are bit-compatible, so the fallback is silent.
[[nodiscard]] bool threadedDispatchAvailable() noexcept;

/// The build's preferred dispatch mode: Threaded where available.
[[nodiscard]] DispatchMode defaultDispatchMode() noexcept;

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
  /// The dispatch loop this module was compiled for (CompileOptions).
  DispatchMode dispatch = DispatchMode::Switch;

  [[nodiscard]] std::size_t instructionCount() const noexcept;

  /// Human-readable listing (for tests and debugging).
  [[nodiscard]] std::string disassemble() const;
};

} // namespace qirkit::vm
