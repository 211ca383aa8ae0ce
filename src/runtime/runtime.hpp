/// \file runtime.hpp
/// The QIR quantum runtime (paper §III.C / Ex. 5): implementations of the
/// `__quantum__qis__*` and `__quantum__rt__*` functions that "modify the
/// internal state of the simulator to reflect the application of the
/// respective gate", registered as external-function bindings with the IR
/// interpreter (our `lli` analog).
///
/// RuntimeAbi is the part every backend shares: qubit addressing, every
/// `__quantum__rt__*` function and read_result, the result table and
/// output recording. A backend (statevector, stabilizer, circuit
/// recorder) supplies only a qubit factory and its gate, mz and reset
/// handlers — the runtime route's promise that a tool "only" implements
/// the quantum instructions.
///
/// Qubit addressing (paper §IV.A) is resolved uniformly:
///  * dynamic handles handed out by qubit_allocate[_array] live in a
///    reserved address region;
///  * arena addresses (array elements) are dereferenced to the stored
///    handle — supporting both the paper's Ex. 2 style (element pointer
///    passed directly) and the spec style (handle loaded first);
///  * any other small address is a *static* qubit id, allocated on the fly
///    the first time it is seen — the on-the-fly strategy the paper
///    describes for simulators with a variable number of qubits — unless
///    the program declares its width (bindDeclaredWidth), which then bounds
///    it. A gate's operands are resolved left to right.
#pragma once

#include "circuit/circuit.hpp"
#include "interp/fused.hpp"
#include "interp/interpreter.hpp"
#include "qir/names.hpp"
#include "sim/stabilizer.hpp"
#include "sim/statevector.hpp"
#include "support/rng.hpp"

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace qirkit::runtime {

/// Statistics and recorded program output of one execution.
struct RuntimeStats {
  std::uint64_t gatesApplied = 0;
  std::uint64_t measurements = 0;
  std::uint64_t dynamicQubitsAllocated = 0;
  std::uint64_t staticQubitsAllocated = 0; // on-the-fly (§IV.A)
  std::uint64_t arraysCreated = 0;
};

/// The runtime ABI shared by every backend (see the file comment). Its
/// handlers capture `this`, so a runtime is neither copied nor moved.
class RuntimeAbi {
public:
  /// Reserved address region for dynamic qubit handles.
  static constexpr std::uint64_t kDynamicHandleBase = 0x5151000000000000ULL;

  RuntimeAbi(const RuntimeAbi&) = delete;
  RuntimeAbi& operator=(const RuntimeAbi&) = delete;

  [[nodiscard]] const RuntimeStats& stats() const noexcept { return stats_; }

  /// Result values by key (runtime-internal addressing). The results
  /// result_get_one and result_get_zero hand out read true and false, and
  /// a result no mz has written reads false.
  [[nodiscard]] bool resultValue(std::uint64_t key) const;

  /// Output recorded via __quantum__rt__result_record_output, in call
  /// order: (label, value at the time of the call).
  [[nodiscard]] const std::vector<std::pair<std::string, bool>>& recordedOutput()
      const noexcept {
    return output_;
  }

  /// Recorded output as a bit string (first-recorded bit leftmost).
  [[nodiscard]] std::string outputBitString() const;

  /// §IV.A's *other* strategy for static addresses: instead of allocating
  /// "on the fly when it encounters a new qubit address", the runtime can
  /// "infer the number of qubits required for the simulation from the QIR
  /// program, such as via an attribute in the QIR file". Reads the entry
  /// point's required_num_qubits attribute and pre-allocates static ids
  /// 0..n-1. Returns the number reserved (0 when no attribute is present).
  unsigned preallocateFromAttributes(const ir::Module& module);

  /// Pre-allocate static qubit ids 0..n-1 up front.
  void reserveStaticQubits(unsigned n);

  /// Bound static addresses by \p module's declared widths
  /// (qir::declaredWidth), the loader's rule for constant addresses: a
  /// static qubit at or past required_num_qubits, or a static result at or
  /// past required_num_results, traps error[trap-invalid-qubit]. An
  /// undeclared width bounds nothing. The bounds survive clearAbi(), and
  /// cost one compare at a static qubit's first use and one per mz or
  /// read_result.
  void bindDeclaredWidth(const ir::Module& module);

protected:
  RuntimeAbi() = default;
  ~RuntimeAbi() = default;

  /// The backend's qubit factory: add a qubit in |0> and return its
  /// index. Addressing calls it only for a handle or static id it has
  /// not seen.
  virtual unsigned newQubit() = 0;

  /// Bind every qis and rt function into \p registry. The backend's
  /// handlers receive resolved operands: \p gate gets (kind, qubits,
  /// angles) for each unitary kind with a QIS name, \p measure gets
  /// (qubit, result key) and \p reset gets the qubit. The ABI counts
  /// gatesApplied and measurements around them.
  template <class Gate, class Measure, class Reset>
  void bindAbi(interp::ExternalRegistry& registry, Gate gate, Measure measure, Reset reset);

  /// Resolve a Qubit* argument to a backend qubit index (see file comment).
  unsigned resolveQubit(std::uint64_t address, interp::ExternContext& ctx,
                        bool canDeref = true);
  /// The static-address leg of resolveQubit: first-seen on-the-fly
  /// allocation (§IV.A), shared with the fused-block path.
  unsigned resolveStaticQubit(std::uint64_t address);
  /// Trap on a static result address past the declared results.
  void checkResultAddress(std::uint64_t address) const {
    if (address >= staticResultBound_ && address < interp::Memory::kBase) {
      trapUndeclared("result", address, staticResultBound_);
    }
  }
  [[nodiscard]] bool hasQubit(std::uint64_t address) const {
    return qubitByHandle_.contains(address);
  }

  void setResult(std::uint64_t key, bool value) { results_[key] = value; }
  /// Result keys of recordedOutput(), in call order.
  [[nodiscard]] const std::vector<std::uint64_t>& recordedKeys() const noexcept {
    return outputKeys_;
  }
  /// Forget every qubit, result, array, output record and statistic; the
  /// backend resets its own state.
  void clearAbi();

  RuntimeStats stats_;

private:
  /// Bind every __quantum__rt__* function and read_result.
  void bindRuntimeFunctions(interp::ExternalRegistry& registry);
  std::uint64_t allocateQubitHandle();
  [[noreturn]] static void trapUndeclared(const char* what, std::uint64_t address,
                                          std::uint64_t declared);

  std::map<std::uint64_t, unsigned> qubitByHandle_; // handle or static id -> index
  std::uint64_t nextDynamicHandle_ = kDynamicHandleBase;
  std::map<std::uint64_t, bool> results_;
  std::map<std::uint64_t, std::uint64_t> arraySizes_;
  std::vector<std::pair<std::string, bool>> output_;
  std::vector<std::uint64_t> outputKeys_;
  std::uint64_t staticQubitBound_ = qir::kUndeclaredWidth;
  std::uint64_t staticResultBound_ = qir::kUndeclaredWidth;
};

template <class Gate, class Measure, class Reset>
void RuntimeAbi::bindAbi(interp::ExternalRegistry& registry, Gate gate, Measure measure,
                         Reset reset) {
  using interp::ExternContext;
  using interp::RtValue;
  bindRuntimeFunctions(registry);
  for (const circuit::OpKind kind : circuit::kAllOpKinds) {
    const auto name = qir::qisNameFor(kind);
    if (!name || !circuit::isUnitary(kind)) {
      continue;
    }
    registry.bindExternal(
        std::string(*name),
        [this, gate, kind, numAngles = circuit::opKindParams(kind),
         numQubits = circuit::opKindArity(kind)](std::span<const RtValue> args,
                                                 ExternContext& ctx) {
          std::array<std::uint32_t, circuit::kMaxOpQubits> qubits{};
          for (unsigned i = 0; i < numQubits; ++i) {
            qubits[i] = resolveQubit(args[numAngles + i].p, ctx);
          }
          std::array<double, circuit::kMaxOpAngles> angles{};
          for (unsigned i = 0; i < numAngles; ++i) {
            angles[i] = args[i].d;
          }
          gate(kind, std::span<const std::uint32_t>(qubits.data(), numQubits),
               std::span<const double>(angles.data(), numAngles));
          ++stats_.gatesApplied;
          return RtValue::makeVoid();
        });
  }
  registry.bindExternal(std::string(qir::kQisMz),
                        [this, measure](std::span<const RtValue> args, ExternContext& ctx) {
                          const unsigned qubit = resolveQubit(args[0].p, ctx);
                          checkResultAddress(args[1].p);
                          measure(qubit, args[1].p);
                          ++stats_.measurements;
                          return RtValue::makeVoid();
                        });
  registry.bindExternal(std::string(qir::kQisReset),
                        [this, reset](std::span<const RtValue> args, ExternContext& ctx) {
                          reset(resolveQubit(args[0].p, ctx));
                          return RtValue::makeVoid();
                        });
}

/// The simulator-backed runtime. Bind to an interpreter, run the entry
/// point, then inspect the state / recorded output. Also implements the
/// FusedGateHost fast path: the VM hands each region of precomposed fused
/// blocks (from the compile-time gate-fusion pass) straight to the
/// statevector's one fused kernel entry, StateVector::applyFusedSweep.
class QuantumRuntime : public RuntimeAbi, public interp::FusedGateHost {
public:
  /// How mz is realized. Collapse is the per-shot semantics (projective
  /// measurement, result table). Defer is the terminal-measurement
  /// sampling path: mz only records which simulator qubit backs each
  /// result key — the state never collapses — and the joint outcome
  /// distribution is drawn afterwards via sampleRecordedHistogram(). Only
  /// sound for programs vm::analyzeShotProfile classifies as Terminal
  /// (reset traps defensively on a non-|0> qubit, read_result sees an
  /// empty result table, so recordedOutput() values read false).
  enum class MeasurementMode : std::uint8_t { Collapse, Defer };

  /// Chooses the outcomes of collapsing measurements in place of the
  /// runtime's seeded stream: the shot executor's branching route, which
  /// runs a group of shots per execution (see reset(OutcomeSource&)).
  class OutcomeSource {
  public:
    /// The outcome of the next collapsing mz or reset, whose qubit reads 1
    /// with probability \p p1.
    virtual bool next(double p1) = 0;

  protected:
    ~OutcomeSource() = default;
  };

  explicit QuantumRuntime(std::uint64_t seed = 1, qirkit::ThreadPool* pool = nullptr,
                          sim::Precision precision = sim::Precision::F64)
      : state_(0, pool, precision), rng_(seed) {}

  /// Register every qis/rt handler with \p interp (and this runtime as
  /// the engine's fused-gate host, when the engine supports one).
  void bind(interp::ExternalRegistry& interp);

  /// Apply the blocks of one fused region to the statevector
  /// (StateVector::applyFusedSweep, up to interp::kMaxSweepBlocks blocks
  /// per sweep). Qubit entries are static QIR addresses (the fusion pass
  /// only fuses those). Each block's newQubits are resolved, in order,
  /// before it, with the same on-the-fly first-seen allocation as ordinary
  /// gate calls, so they get the simulator indices the unfused gate
  /// sequence would; a qubit that grows the register is allocated only
  /// after the blocks queued ahead of it have run.
  void applyFusedSweep(std::span<const interp::FusedBlock> blocks) override;

  void setMeasurementMode(MeasurementMode mode) noexcept { mode_ = mode; }
  [[nodiscard]] MeasurementMode measurementMode() const noexcept { return mode_; }

  /// Return to the freshly-constructed state with a new RNG seed, keeping
  /// every registered binding valid (handlers capture `this`) and the
  /// statevector's buffer (StateVector::clear), so a run's next execution
  /// neither re-binds the 30+ handlers nor faults its amplitudes in again.
  void reset(std::uint64_t seed);
  /// The same fresh state, but each collapsing measurement takes its
  /// outcome from \p source (which must outlive the execution) instead of
  /// a draw: the probability and the collapse are the ones a seeded run
  /// computes (StateVector::collapse).
  void reset(OutcomeSource& source);

  [[nodiscard]] sim::StateVector& state() noexcept { return state_; }

  /// Install a cooperative cancellation token on the backing simulator
  /// (nullptr clears it). Survives reset(): the executor installs it once
  /// per batch, not once per shot.
  void setCancelToken(const qirkit::CancelToken* token) noexcept {
    state_.setCancelToken(token);
  }

  /// Defer mode only: draw \p shots joint outcomes from the final state
  /// (StateVector::sampleShots) and expand each sampled basis state into
  /// the bit-string format outputBitString() produces under Collapse —
  /// one bit per result_record_output call, first-recorded leftmost.
  /// Returns bit string -> shot count.
  [[nodiscard]] std::map<std::string, std::uint64_t> sampleRecordedHistogram(
      std::uint64_t shots, SplitMix64& rng) const;

private:
  unsigned newQubit() override { return state_.addQubit(); }
  /// Measure \p q with the outcome from source_, else from rng_.
  bool collapse(unsigned q);

  sim::StateVector state_;
  SplitMix64 rng_;
  OutcomeSource* source_ = nullptr;
  MeasurementMode mode_ = MeasurementMode::Collapse;
  /// Defer mode: result key -> simulator qubit index backing it.
  std::map<std::uint64_t, unsigned> resultQubit_;
  /// applyFusedSweep scratch, kept across calls so the per-shot path
  /// neither allocates nor re-initializes it.
  std::array<sim::SweepGate, interp::kMaxSweepBlocks> sweepGates_{};
};

/// A runtime that *records* the instruction trace as a circuit instead of
/// simulating it. This demonstrates the orthogonality the paper notes in
/// §III.C: the runtime route only concerns the implementation of the
/// quantum instructions — here the same program structure drives circuit
/// reconstruction instead of simulation. Its mz writes no outcome, so
/// every result reads 0 and measurement feedback follows the 0 branch.
class RecordingRuntime : public RuntimeAbi {
public:
  void bind(interp::ExternalRegistry& interp);

  [[nodiscard]] const circuit::Circuit& recorded() const noexcept { return circuit_; }

private:
  unsigned newQubit() override;

  circuit::Circuit circuit_;
  std::map<std::uint64_t, std::uint32_t> bitByResult_;
};

/// A stabilizer-simulator-backed runtime for Clifford QIR programs —
/// the "classical simulation techniques" swap of Ex. 5 at system level:
/// the same program structure and qis/rt interface, a polynomially
/// scaling backend (hundreds of qubits). Non-Clifford instructions
/// (rotations) trap. The register size is fixed up front; static ids and
/// dynamic qubits share it, each taking the next tableau qubit at first
/// use, and one more traps resource-limit.
class CliffordRuntime : public RuntimeAbi {
public:
  explicit CliffordRuntime(unsigned numQubits, std::uint64_t seed = 1)
      : state_(numQubits), rng_(seed) {}

  void bind(interp::ExternalRegistry& interp);

  [[nodiscard]] sim::StabilizerSimulator& state() noexcept { return state_; }

private:
  unsigned newQubit() override;

  sim::StabilizerSimulator state_;
  SplitMix64 rng_;
  unsigned nextIndex_ = 0;
};

/// Convenience: parse-free execution of a QIR module — build an
/// interpreter, bind a fresh runtime, run the entry point. Returns the
/// runtime for inspection.
struct RunResult {
  RuntimeStats stats;
  std::vector<std::pair<std::string, bool>> output;
  interp::InterpStats interpStats;
};

[[nodiscard]] RunResult runQIRModule(const ir::Module& module, std::uint64_t seed = 1,
                                     qirkit::ThreadPool* pool = nullptr);

} // namespace qirkit::runtime
