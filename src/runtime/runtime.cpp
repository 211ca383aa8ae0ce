#include "runtime/runtime.hpp"

#include "circuit/executor.hpp"

#include <algorithm>

namespace qirkit::runtime {

using circuit::OpKind;
using interp::ExternContext;
using interp::Memory;
using interp::RtValue;
using interp::TrapError;

namespace {

/// True if \p address lies in the interpreter memory arena (an array
/// element pointer rather than a handle or static id).
bool isArenaAddress(std::uint64_t address) noexcept {
  return address >= Memory::kBase && address < RuntimeAbi::kDynamicHandleBase;
}

/// The Result* values result_get_one and result_get_zero hand out.
constexpr std::uint64_t kResultOne = ~std::uint64_t{0};
constexpr std::uint64_t kResultZero = kResultOne - 1;

} // namespace

// ---------------------------------------------------------------------------
// RuntimeAbi
// ---------------------------------------------------------------------------

void RuntimeAbi::clearAbi() {
  stats_ = {};
  qubitByHandle_.clear();
  nextDynamicHandle_ = kDynamicHandleBase;
  results_.clear();
  arraySizes_.clear();
  output_.clear();
  outputKeys_.clear();
}

void RuntimeAbi::reserveStaticQubits(unsigned n) {
  for (unsigned id = 0; id < n; ++id) {
    if (!qubitByHandle_.contains(id)) {
      qubitByHandle_.emplace(id, newQubit());
    }
  }
}

void RuntimeAbi::bindDeclaredWidth(const ir::Module& module) {
  staticQubitBound_ = qir::declaredWidth(module, "required_num_qubits");
  staticResultBound_ = qir::declaredWidth(module, "required_num_results");
}

void RuntimeAbi::trapUndeclared(const char* what, std::uint64_t address,
                                std::uint64_t declared) {
  throw TrapError(std::string("static ") + what + " address " + std::to_string(address) +
                      " is past the " + std::to_string(declared) + " " + what +
                      (declared == 1 ? "" : "s") + " the entry point declares",
                  ErrorCode::TrapInvalidQubit);
}

unsigned RuntimeAbi::preallocateFromAttributes(const ir::Module& module) {
  const unsigned n = qir::requiredNumQubits(module);
  reserveStaticQubits(n);
  return n;
}

std::uint64_t RuntimeAbi::allocateQubitHandle() {
  const unsigned index = newQubit();
  const std::uint64_t handle = nextDynamicHandle_++;
  qubitByHandle_[handle] = index;
  ++stats_.dynamicQubitsAllocated;
  return handle;
}

unsigned RuntimeAbi::resolveQubit(std::uint64_t address, ExternContext& ctx,
                                  bool canDeref) {
  if (address >= kDynamicHandleBase) {
    const auto it = qubitByHandle_.find(address);
    if (it == qubitByHandle_.end()) {
      throw TrapError("use of released or invalid qubit handle",
                      ErrorCode::TrapInvalidQubit);
    }
    return it->second;
  }
  if (isArenaAddress(address)) {
    if (!canDeref) {
      throw TrapError("qubit argument is a memory address, not a handle",
                      ErrorCode::TrapInvalidQubit);
    }
    // Ex. 2 style: the array element pointer is passed directly; the
    // element stores the handle.
    std::uint64_t handle = 0;
    ctx.memory.load(address, &handle, sizeof handle);
    return resolveQubit(handle, ctx, /*canDeref=*/false);
  }
  return resolveStaticQubit(address);
}

unsigned RuntimeAbi::resolveStaticQubit(std::uint64_t address) {
  // Static qubit address (Ex. 6): allocate on the fly at first use (§IV.A).
  const auto it = qubitByHandle_.find(address);
  if (it != qubitByHandle_.end()) {
    return it->second;
  }
  if (address >= staticQubitBound_) {
    trapUndeclared("qubit", address, staticQubitBound_);
  }
  const unsigned index = newQubit();
  qubitByHandle_.emplace(address, index);
  ++stats_.staticQubitsAllocated;
  return index;
}

bool RuntimeAbi::resultValue(std::uint64_t key) const {
  if (key == kResultOne || key == kResultZero) {
    return key == kResultOne;
  }
  const auto it = results_.find(key);
  return it != results_.end() && it->second;
}

std::string RuntimeAbi::outputBitString() const {
  std::string out;
  out.reserve(output_.size());
  for (const auto& [label, value] : output_) {
    out.push_back(value ? '1' : '0');
  }
  return out;
}

void RuntimeAbi::bindRuntimeFunctions(interp::ExternalRegistry& registry) {
  registry.bindExternal(std::string(qir::kQisReadResult),
                        [this](std::span<const RtValue> args, ExternContext&) {
                          checkResultAddress(args[0].p);
                          return RtValue::makeI1(resultValue(args[0].p));
                        });
  registry.bindExternal(std::string(qir::kRtInitialize),
                        [](std::span<const RtValue>, ExternContext&) {
                          return RtValue::makeVoid();
                        });
  registry.bindExternal(std::string(qir::kRtQubitAllocate),
                        [this](std::span<const RtValue>, ExternContext&) {
                          return RtValue::makePtr(allocateQubitHandle());
                        });
  registry.bindExternal(std::string(qir::kRtQubitRelease),
                        [this](std::span<const RtValue> args, ExternContext&) {
                          // Other qubits keep their indices, so the
                          // backend keeps the qubit; only the handle dies.
                          qubitByHandle_.erase(args[0].p);
                          return RtValue::makeVoid();
                        });
  registry.bindExternal(
      std::string(qir::kRtQubitAllocateArray),
      [this](std::span<const RtValue> args, ExternContext& ctx) {
        const auto count = static_cast<std::uint64_t>(args[0].i);
        const std::uint64_t base =
            ctx.memory.allocate(std::max<std::uint64_t>(8, count * 8));
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::uint64_t handle = allocateQubitHandle();
          ctx.memory.store(base + 8 * i, &handle, sizeof handle);
        }
        ++stats_.arraysCreated;
        arraySizes_[base] = count;
        return RtValue::makePtr(base);
      });
  registry.bindExternal(std::string(qir::kRtQubitReleaseArray),
                        [](std::span<const RtValue>, ExternContext&) {
                          return RtValue::makeVoid();
                        });
  registry.bindExternal(
      std::string(qir::kRtArrayCreate1d),
      [this](std::span<const RtValue> args, ExternContext& ctx) {
        const auto elemSize = static_cast<std::uint64_t>(args[0].i);
        const auto count = static_cast<std::uint64_t>(args[1].i);
        // Result arrays hold 8-byte slots regardless of the declared
        // element size, so element pointers can be used directly as
        // Result* keys.
        const std::uint64_t size =
            std::max<std::uint64_t>(elemSize, 8) * std::max<std::uint64_t>(count, 1);
        const std::uint64_t base = ctx.memory.allocate(size);
        ++stats_.arraysCreated;
        arraySizes_[base] = count;
        return RtValue::makePtr(base);
      });
  registry.bindExternal(std::string(qir::kRtArrayGetElementPtr1d),
                        [](std::span<const RtValue> args, ExternContext&) {
                          return RtValue::makePtr(
                              args[0].p + 8 * static_cast<std::uint64_t>(args[1].i));
                        });
  registry.bindExternal(std::string(qir::kRtArrayGetSize1d),
                        [this](std::span<const RtValue> args, ExternContext&) {
                          const auto it = arraySizes_.find(args[0].p);
                          if (it == arraySizes_.end()) {
                            throw TrapError("array_get_size_1d on unknown array",
                                            ErrorCode::TrapInvalidQubit);
                          }
                          return RtValue::makeInt(static_cast<std::int64_t>(it->second));
                        });
  registry.bindExternal(std::string(qir::kRtArrayUpdateRefCount),
                        [](std::span<const RtValue>, ExternContext&) {
                          return RtValue::makeVoid();
                        });
  registry.bindExternal(std::string(qir::kRtResultRecordOutput),
                        [this](std::span<const RtValue> args, ExternContext& ctx) {
                          const std::uint64_t labelPtr = args[1].p;
                          output_.emplace_back(
                              labelPtr == 0 ? std::string{} : ctx.readCString(labelPtr),
                              resultValue(args[0].p));
                          outputKeys_.push_back(args[0].p);
                          return RtValue::makeVoid();
                        });
  registry.bindExternal(std::string(qir::kRtArrayRecordOutput),
                        [](std::span<const RtValue>, ExternContext&) {
                          return RtValue::makeVoid();
                        });
  registry.bindExternal(std::string(qir::kRtResultGetOne),
                        [](std::span<const RtValue>, ExternContext&) {
                          return RtValue::makePtr(kResultOne);
                        });
  registry.bindExternal(std::string(qir::kRtResultGetZero),
                        [](std::span<const RtValue>, ExternContext&) {
                          return RtValue::makePtr(kResultZero);
                        });
  registry.bindExternal(std::string(qir::kRtResultEqual),
                        [this](std::span<const RtValue> args, ExternContext&) {
                          return RtValue::makeI1(resultValue(args[0].p) ==
                                                 resultValue(args[1].p));
                        });
}

// ---------------------------------------------------------------------------
// QuantumRuntime
// ---------------------------------------------------------------------------

void QuantumRuntime::reset(std::uint64_t seed) {
  state_.clear(); // keeps the buffer and the cancellation token
  rng_ = SplitMix64(seed);
  source_ = nullptr;
  clearAbi();
  resultQubit_.clear();
}

void QuantumRuntime::reset(OutcomeSource& source) {
  reset(0);
  source_ = &source;
}

bool QuantumRuntime::collapse(unsigned q) {
  if (source_ == nullptr) {
    return state_.measure(q, rng_);
  }
  const double p1 = state_.probabilityOfOne(q);
  const bool outcome = source_->next(p1);
  state_.collapse(q, outcome, p1);
  return outcome;
}

void QuantumRuntime::applyFusedSweep(std::span<const interp::FusedBlock> blocks) {
  // Blocks queue up to kMaxSweepBlocks at a time for one kernel sweep. The
  // register grows only once the blocks queued ahead of a new qubit have
  // run on the narrower state, and qubits are resolved in the source's
  // first-use order (newQubits), whatever the block order.
  std::size_t queued = 0;
  const auto flush = [&] {
    state_.applyFusedSweep({sweepGates_.data(), queued});
    queued = 0;
  };
  for (const interp::FusedBlock& block : blocks) {
    for (const std::uint64_t address : block.newQubits) {
      if (queued != 0 && !hasQubit(address)) {
        flush();
      }
      resolveStaticQubit(address);
    }
    if (queued == interp::kMaxSweepBlocks) {
      flush();
    }
    sim::SweepGate& gate = sweepGates_[queued];
    gate.kind = block.kind;
    gate.numQubits = static_cast<std::uint8_t>(block.qubits.size());
    for (std::size_t i = 0; i < block.qubits.size(); ++i) {
      gate.qubits[i] = resolveStaticQubit(block.qubits[i]);
    }
    gate.matrix = block.matrix;
    ++queued;
    // Stats stay per source gate, so fused and unfused runs report the
    // same gatesApplied.
    stats_.gatesApplied += block.sourceGates;
  }
  if (queued != 0) {
    flush();
  }
}

std::map<std::string, std::uint64_t> QuantumRuntime::sampleRecordedHistogram(
    std::uint64_t shots, SplitMix64& rng) const {
  std::map<std::string, std::uint64_t> histogram;
  // Joint Z-measurements commute, so the whole record is one draw from the
  // final state; each distinct basis state expands to its bit string once.
  for (const auto& [basis, count] : state_.sampleShots(shots, rng)) {
    std::string bits;
    bits.reserve(recordedKeys().size());
    for (const std::uint64_t key : recordedKeys()) {
      const auto it = resultQubit_.find(key);
      const bool value = it != resultQubit_.end() ? ((basis >> it->second) & 1) != 0
                                                  : resultValue(key);
      bits.push_back(value ? '1' : '0');
    }
    histogram[bits] += count;
  }
  return histogram;
}

void QuantumRuntime::bind(interp::ExternalRegistry& interp) {
  // Engines that execute fused blocks (the bytecode VM) get the direct
  // kernel path; the interpreter's default bindFusedHost is a no-op.
  interp.bindFusedHost(this);
  bindAbi(
      interp,
      [this](OpKind kind, std::span<const std::uint32_t> qubits,
             std::span<const double> angles) {
        circuit::applyGate(state_, kind, qubits, angles);
      },
      [this](unsigned q, std::uint64_t result) {
        if (mode_ == MeasurementMode::Defer) {
          // Record which qubit backs the result key; the outcome is drawn
          // jointly at sampling time.
          resultQubit_[result] = q;
        } else {
          setResult(result, collapse(q));
        }
      },
      [this](unsigned q) {
        if (mode_ == MeasurementMode::Defer) {
          // Shot analysis only admits resets of fresh qubits (a no-op);
          // verify so an unsound caller trips the resim fallback instead
          // of sampling from a silently wrong state.
          if (state_.probabilityOfOne(q) > 1e-9) {
            throw TrapError("reset of a non-|0> qubit in deferred-measurement mode",
                            ErrorCode::Semantic);
          }
        } else if (collapse(q)) {
          state_.apply1(sim::gateX(), q); // StateVector::resetQubit's correction
        }
      });
}

// ---------------------------------------------------------------------------
// RecordingRuntime
// ---------------------------------------------------------------------------

unsigned RecordingRuntime::newQubit() {
  const unsigned index = circuit_.numQubits();
  circuit_.setNumQubits(index + 1);
  return index;
}

void RecordingRuntime::bind(interp::ExternalRegistry& interp) {
  // No fused kernels here: clear any previously-bound host so the VM
  // replays fused blocks call by call and every gate is recorded.
  interp.bindFusedHost(nullptr);
  bindAbi(
      interp,
      [this](OpKind kind, std::span<const std::uint32_t> qubits,
             std::span<const double> angles) {
        circuit_.add({kind, {qubits.begin(), qubits.end()}, {angles.begin(), angles.end()},
                      0, std::nullopt});
      },
      [this](unsigned q, std::uint64_t result) {
        const auto [it, inserted] = bitByResult_.try_emplace(result, circuit_.numBits());
        if (inserted) {
          circuit_.setNumBits(circuit_.numBits() + 1);
        }
        circuit_.add({OpKind::Measure, {q}, {}, it->second, std::nullopt});
      },
      [this](unsigned q) { circuit_.add({OpKind::Reset, {q}, {}, 0, std::nullopt}); });
}

// ---------------------------------------------------------------------------
// CliffordRuntime
// ---------------------------------------------------------------------------

unsigned CliffordRuntime::newQubit() {
  if (nextIndex_ >= state_.numQubits()) {
    throw TrapError("Clifford runtime qubit budget exhausted (reserve more "
                    "qubits up front)",
                    ErrorCode::ResourceLimit);
  }
  return nextIndex_++;
}

void CliffordRuntime::bind(interp::ExternalRegistry& interp) {
  // No fused kernels on the stabilizer backend: fused blocks replay call
  // by call (and non-Clifford gates keep trapping with their own names).
  interp.bindFusedHost(nullptr);
  bindAbi(
      interp,
      [this](OpKind kind, std::span<const std::uint32_t> qubits, std::span<const double>) {
        if (!circuit::isClifford(kind)) {
          throw TrapError(std::string(*qir::qisNameFor(kind)) +
                              " is not a Clifford operation; use the statevector runtime",
                          ErrorCode::Semantic);
        }
        circuit::applyGate(state_, kind, qubits);
      },
      [this](unsigned q, std::uint64_t result) { setResult(result, state_.measure(q, rng_)); },
      [this](unsigned q) { state_.reset(q, rng_); });
}

// ---------------------------------------------------------------------------

RunResult runQIRModule(const ir::Module& module, std::uint64_t seed,
                       qirkit::ThreadPool* pool) {
  interp::Interpreter interp(module);
  QuantumRuntime runtime(seed, pool);
  runtime.bind(interp);
  interp.runEntryPoint();
  return {runtime.stats(), runtime.recordedOutput(), interp.stats()};
}

} // namespace qirkit::runtime
