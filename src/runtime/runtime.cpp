#include "runtime/runtime.hpp"

#include "qir/names.hpp"

#include <array>
#include <functional>

namespace qirkit::runtime {

using interp::ExternContext;
using interp::Memory;
using interp::RtValue;
using interp::TrapError;

namespace {

/// True if \p address lies in the interpreter memory arena (an array
/// element pointer rather than a handle or static id).
bool isArenaAddress(std::uint64_t address) noexcept {
  return address >= Memory::kBase &&
         address < QuantumRuntime::kDynamicHandleBase;
}

double argDouble(std::span<const RtValue> args, std::size_t i) { return args[i].d; }
std::uint64_t argPtr(std::span<const RtValue> args, std::size_t i) {
  return args[i].p;
}
std::int64_t argInt(std::span<const RtValue> args, std::size_t i) {
  return args[i].i;
}

} // namespace

// ---------------------------------------------------------------------------
// QuantumRuntime
// ---------------------------------------------------------------------------

void QuantumRuntime::reset(std::uint64_t seed) {
  state_ = sim::StateVector(0, pool_, precision_);
  state_.setCancelToken(cancel_); // token installation survives reset
  rng_ = SplitMix64(seed);
  stats_ = {};
  qubitByHandle_.clear();
  nextDynamicHandle_ = kDynamicHandleBase;
  results_.clear();
  arraySizes_.clear();
  output_.clear();
  resultQubit_.clear();
  deferredOutput_.clear();
}

void QuantumRuntime::reserveStaticQubits(unsigned n) {
  for (unsigned id = 0; id < n; ++id) {
    const auto [it, inserted] = qubitByHandle_.try_emplace(id, 0U);
    if (inserted) {
      it->second = state_.addQubit();
    }
  }
}

unsigned QuantumRuntime::preallocateFromAttributes(const ir::Module& module) {
  const ir::Function* entry = module.entryPoint();
  if (entry == nullptr) {
    return 0;
  }
  const std::string attr = entry->getAttribute("required_num_qubits");
  if (attr.empty()) {
    return 0;
  }
  const auto n = std::strtoul(attr.c_str(), nullptr, 10);
  reserveStaticQubits(static_cast<unsigned>(n));
  return static_cast<unsigned>(n);
}

std::uint64_t QuantumRuntime::allocateQubitHandle() {
  const std::uint64_t handle = nextDynamicHandle_++;
  qubitByHandle_[handle] = state_.addQubit();
  ++stats_.dynamicQubitsAllocated;
  return handle;
}

unsigned QuantumRuntime::resolveQubit(std::uint64_t address, ExternContext& ctx,
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

unsigned QuantumRuntime::resolveStaticQubit(std::uint64_t address) {
  // Static qubit address (Ex. 6): allocate on the fly at first use (§IV.A).
  const auto [it, inserted] = qubitByHandle_.try_emplace(address, 0U);
  if (inserted) {
    it->second = state_.addQubit();
    ++stats_.staticQubitsAllocated;
  }
  return it->second;
}

void QuantumRuntime::applyFusedSweep(std::span<const interp::FusedBlock> blocks) {
  if (blocks.size() > interp::kMaxSweepBlocks) {
    // Longer than any run the fusion pass forms: the same sequential
    // composition, in scratch-sized pieces.
    applyFusedSweep(blocks.first(interp::kMaxSweepBlocks));
    applyFusedSweep(blocks.subspan(interp::kMaxSweepBlocks));
    return;
  }
  std::uint64_t sourceGates = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const interp::FusedBlock& block = blocks[b];
    std::array<unsigned, interp::FusedBlock::kMaxQubits>& qubits = sweepQubits_[b];
    for (std::size_t i = 0; i < block.qubits.size(); ++i) {
      qubits[i] = resolveStaticQubit(block.qubits[i]);
    }
    sim::SweepGate& gate = sweepGates_[b];
    switch (block.kind) {
    case interp::FusedBlock::Kind::Unitary1:
      gate.kind = sim::SweepGate::Kind::Unitary1;
      gate.q0 = qubits[0];
      gate.m2 = sim::GateMatrix2{block.matrix[0], block.matrix[1],
                                 block.matrix[2], block.matrix[3]};
      break;
    case interp::FusedBlock::Kind::Unitary2:
      gate.kind = sim::SweepGate::Kind::Unitary2;
      gate.q0 = qubits[0];
      gate.q1 = qubits[1];
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
          gate.m4.m[r][c] = block.matrix[static_cast<std::size_t>(r * 4 + c)];
        }
      }
      break;
    case interp::FusedBlock::Kind::Diagonal:
      gate.kind = sim::SweepGate::Kind::Diagonal;
      gate.diag = block.matrix;
      gate.diagQubits =
          std::span<const unsigned>(qubits.data(), block.qubits.size());
      break;
    }
    sourceGates += block.sourceGates;
  }
  state_.applyFusedSweep({sweepGates_.data(), blocks.size()});
  // Stats stay per source gate, so fused and unfused runs report the same
  // gatesApplied.
  stats_.gatesApplied += sourceGates;
}

bool QuantumRuntime::resultValue(std::uint64_t key) const {
  const auto it = results_.find(key);
  return it != results_.end() && it->second;
}

std::string QuantumRuntime::outputBitString() const {
  std::string out;
  out.reserve(output_.size());
  for (const auto& [label, value] : output_) {
    out.push_back(value ? '1' : '0');
  }
  return out;
}

std::map<std::string, std::uint64_t> QuantumRuntime::sampleRecordedHistogram(
    std::uint64_t shots, SplitMix64& rng) const {
  std::map<std::string, std::uint64_t> histogram;
  // Joint Z-measurements commute, so the whole record is one draw from the
  // final state; each distinct basis state expands to its bit string once.
  for (const auto& [basis, count] : state_.sampleShots(shots, rng)) {
    std::string bits;
    bits.reserve(deferredOutput_.size());
    for (const auto& [label, key] : deferredOutput_) {
      const auto it = resultQubit_.find(key);
      const bool value =
          it != resultQubit_.end() && ((basis >> it->second) & 1) != 0;
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
  using Handler = interp::ExternalRegistry::ExternalHandler;
  const auto gate1 = [this](void (*apply)(sim::StateVector&, unsigned)) -> Handler {
    return [this, apply](std::span<const RtValue> args, ExternContext& ctx) {
      apply(state_, resolveQubit(argPtr(args, 0), ctx));
      ++stats_.gatesApplied;
      return RtValue::makeVoid();
    };
  };
  const auto rot = [this](void (*apply)(sim::StateVector&, double, unsigned)) -> Handler {
    return [this, apply](std::span<const RtValue> args, ExternContext& ctx) {
      apply(state_, argDouble(args, 0), resolveQubit(argPtr(args, 1), ctx));
      ++stats_.gatesApplied;
      return RtValue::makeVoid();
    };
  };

  interp.bindExternal(std::string(qir::kQisH), gate1([](sim::StateVector& s, unsigned q) {
                        s.apply1(sim::gateH(), q);
                      }));
  interp.bindExternal(std::string(qir::kQisX), gate1([](sim::StateVector& s, unsigned q) {
                        s.apply1(sim::gateX(), q);
                      }));
  interp.bindExternal(std::string(qir::kQisY), gate1([](sim::StateVector& s, unsigned q) {
                        s.apply1(sim::gateY(), q);
                      }));
  interp.bindExternal(std::string(qir::kQisZ), gate1([](sim::StateVector& s, unsigned q) {
                        s.apply1(sim::gateZ(), q);
                      }));
  interp.bindExternal(std::string(qir::kQisS), gate1([](sim::StateVector& s, unsigned q) {
                        s.apply1(sim::gateS(), q);
                      }));
  interp.bindExternal(std::string(qir::kQisSAdj),
                      gate1([](sim::StateVector& s, unsigned q) {
                        s.apply1(sim::gateSdg(), q);
                      }));
  interp.bindExternal(std::string(qir::kQisT), gate1([](sim::StateVector& s, unsigned q) {
                        s.apply1(sim::gateT(), q);
                      }));
  interp.bindExternal(std::string(qir::kQisTAdj),
                      gate1([](sim::StateVector& s, unsigned q) {
                        s.apply1(sim::gateTdg(), q);
                      }));
  interp.bindExternal(std::string(qir::kQisReset),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        const unsigned q = resolveQubit(argPtr(args, 0), ctx);
                        if (mode_ == MeasurementMode::Defer) {
                          // Shot analysis only admits resets of fresh
                          // qubits (a no-op); verify so an unsound caller
                          // trips the resim fallback instead of sampling
                          // from a silently wrong state.
                          if (state_.probabilityOfOne(q) > 1e-9) {
                            throw TrapError(
                                "reset of a non-|0> qubit in "
                                "deferred-measurement mode",
                                ErrorCode::Semantic);
                          }
                        } else {
                          state_.resetQubit(q, rng_);
                        }
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kQisRX),
                      rot([](sim::StateVector& s, double a, unsigned q) {
                        s.apply1(sim::gateRX(a), q);
                      }));
  interp.bindExternal(std::string(qir::kQisRY),
                      rot([](sim::StateVector& s, double a, unsigned q) {
                        s.apply1(sim::gateRY(a), q);
                      }));
  interp.bindExternal(std::string(qir::kQisRZ),
                      rot([](sim::StateVector& s, double a, unsigned q) {
                        s.apply1(sim::gateRZ(a), q);
                      }));
  interp.bindExternal(std::string(qir::kQisCNOT),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        state_.applyControlled1(sim::gateX(),
                                                resolveQubit(argPtr(args, 0), ctx),
                                                resolveQubit(argPtr(args, 1), ctx));
                        ++stats_.gatesApplied;
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kQisCZ),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        state_.applyControlled1(sim::gateZ(),
                                                resolveQubit(argPtr(args, 0), ctx),
                                                resolveQubit(argPtr(args, 1), ctx));
                        ++stats_.gatesApplied;
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kQisSwap),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        state_.applySwap(resolveQubit(argPtr(args, 0), ctx),
                                         resolveQubit(argPtr(args, 1), ctx));
                        ++stats_.gatesApplied;
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kQisCCX),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        state_.applyCCX(resolveQubit(argPtr(args, 0), ctx),
                                        resolveQubit(argPtr(args, 1), ctx),
                                        resolveQubit(argPtr(args, 2), ctx));
                        ++stats_.gatesApplied;
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kQisMz),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        const unsigned q = resolveQubit(argPtr(args, 0), ctx);
                        if (mode_ == MeasurementMode::Defer) {
                          // Record which qubit backs the result key; the
                          // outcome is drawn jointly at sampling time.
                          resultQubit_[resultKey(argPtr(args, 1))] = q;
                        } else {
                          const bool outcome = state_.measure(q, rng_);
                          results_[resultKey(argPtr(args, 1))] = outcome;
                        }
                        ++stats_.measurements;
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kQisReadResult),
                      [this](std::span<const RtValue> args, ExternContext&) {
                        return RtValue::makeInt(
                            resultValue(resultKey(argPtr(args, 0))) ? 1 : 0);
                      });

  // -- runtime management -----------------------------------------------------
  interp.bindExternal(std::string(qir::kRtInitialize),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtQubitAllocate),
                      [this](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makePtr(allocateQubitHandle());
                      });
  interp.bindExternal(std::string(qir::kRtQubitRelease),
                      [this](std::span<const RtValue> args, ExternContext&) {
                        // Release collapses the qubit; indices of other
                        // handles would shift, so we keep the simulator
                        // register and only invalidate the handle.
                        qubitByHandle_.erase(argPtr(args, 0));
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(
      std::string(qir::kRtQubitAllocateArray),
      [this](std::span<const RtValue> args, ExternContext& ctx) {
        const auto count = static_cast<std::uint64_t>(argInt(args, 0));
        const std::uint64_t base = ctx.memory.allocate(std::max<std::uint64_t>(
            8, count * 8));
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::uint64_t handle = allocateQubitHandle();
          ctx.memory.store(base + 8 * i, &handle, sizeof handle);
        }
        ++stats_.arraysCreated;
        arraySizes_[base] = count;
        return RtValue::makePtr(base);
      });
  interp.bindExternal(std::string(qir::kRtQubitReleaseArray),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtArrayCreate1d),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        const auto elemSize =
                            static_cast<std::uint64_t>(argInt(args, 0));
                        const auto count = static_cast<std::uint64_t>(argInt(args, 1));
                        // Result arrays hold 8-byte slots regardless of the
                        // declared element size, so element pointers can be
                        // used directly as Result* keys.
                        const std::uint64_t size =
                            std::max<std::uint64_t>(elemSize, 8) * std::max<std::uint64_t>(count, 1);
                        const std::uint64_t base = ctx.memory.allocate(size);
                        ++stats_.arraysCreated;
                        arraySizes_[base] = count;
                        return RtValue::makePtr(base);
                      });
  interp.bindExternal(std::string(qir::kRtArrayGetElementPtr1d),
                      [](std::span<const RtValue> args, ExternContext&) {
                        return RtValue::makePtr(argPtr(args, 0) +
                                                8 * static_cast<std::uint64_t>(
                                                        argInt(args, 1)));
                      });
  interp.bindExternal(std::string(qir::kRtArrayGetSize1d),
                      [this](std::span<const RtValue> args, ExternContext&) {
                        const auto it = arraySizes_.find(argPtr(args, 0));
                        if (it == arraySizes_.end()) {
                          throw TrapError("array_get_size_1d on unknown array",
                                          ErrorCode::TrapInvalidQubit);
                        }
                        return RtValue::makeInt(static_cast<std::int64_t>(it->second));
                      });
  interp.bindExternal(std::string(qir::kRtArrayUpdateRefCount),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtResultRecordOutput),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        const std::uint64_t labelPtr = argPtr(args, 1);
                        const std::string label =
                            labelPtr == 0 ? std::string{}
                                          : ctx.readCString(labelPtr);
                        if (mode_ == MeasurementMode::Defer) {
                          deferredOutput_.emplace_back(
                              label, resultKey(argPtr(args, 0)));
                        } else {
                          output_.emplace_back(
                              label, resultValue(resultKey(argPtr(args, 0))));
                        }
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtArrayRecordOutput),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtResultGetOne),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makePtr(~std::uint64_t{0});
                      });
  interp.bindExternal(std::string(qir::kRtResultGetZero),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makePtr(~std::uint64_t{0} - 1);
                      });
  interp.bindExternal(std::string(qir::kRtResultEqual),
                      [this](std::span<const RtValue> args, ExternContext&) {
                        const auto one = ~std::uint64_t{0};
                        const auto zero = one - 1;
                        const auto valueOf = [&](std::uint64_t r) {
                          if (r == one) {
                            return true;
                          }
                          if (r == zero) {
                            return false;
                          }
                          return resultValue(resultKey(r));
                        };
                        return RtValue::makeInt(
                            valueOf(argPtr(args, 0)) == valueOf(argPtr(args, 1)) ? 1
                                                                                 : 0);
                      });
}

// ---------------------------------------------------------------------------
// RecordingRuntime
// ---------------------------------------------------------------------------

std::uint64_t RecordingRuntime::allocateQubitHandle() {
  const std::uint64_t handle = nextDynamicHandle_++;
  const unsigned index = circuit_.numQubits();
  circuit_.setNumQubits(index + 1);
  qubitByHandle_[handle] = index;
  return handle;
}

unsigned RecordingRuntime::resolveQubit(std::uint64_t address, ExternContext& ctx,
                                        bool canDeref) {
  if (address >= QuantumRuntime::kDynamicHandleBase) {
    const auto it = qubitByHandle_.find(address);
    if (it == qubitByHandle_.end()) {
      throw TrapError("use of invalid qubit handle",
                      ErrorCode::TrapInvalidQubit);
    }
    return it->second;
  }
  if (isArenaAddress(address)) {
    if (!canDeref) {
      throw TrapError("qubit argument is a memory address, not a handle",
                      ErrorCode::TrapInvalidQubit);
    }
    std::uint64_t handle = 0;
    ctx.memory.load(address, &handle, sizeof handle);
    return resolveQubit(handle, ctx, false);
  }
  const auto [it, inserted] = qubitByHandle_.try_emplace(address, 0U);
  if (inserted) {
    const unsigned index = circuit_.numQubits();
    circuit_.setNumQubits(index + 1);
    it->second = index;
  }
  return it->second;
}

void RecordingRuntime::bind(interp::ExternalRegistry& interp) {
  // No fused kernels here: clear any previously-bound host so the VM
  // replays fused blocks call by call and every gate is recorded.
  interp.bindFusedHost(nullptr);
  using circuit::OpKind;
  using circuit::Operation;
  // Gate recorder shared by all qis handlers.
  const auto record = [this](OpKind kind) {
    return [this, kind](std::span<const RtValue> args, ExternContext& ctx) {
      Operation op;
      op.kind = kind;
      const unsigned params = circuit::opKindParams(kind);
      for (unsigned p = 0; p < params; ++p) {
        op.params.push_back(args[p].d);
      }
      for (std::size_t q = params; q < args.size(); ++q) {
        op.qubits.push_back(resolveQubit(args[q].p, ctx));
      }
      circuit_.add(std::move(op));
      return RtValue::makeVoid();
    };
  };
  const std::pair<std::string_view, OpKind> gates[] = {
      {qir::kQisH, OpKind::H},       {qir::kQisX, OpKind::X},
      {qir::kQisY, OpKind::Y},       {qir::kQisZ, OpKind::Z},
      {qir::kQisS, OpKind::S},       {qir::kQisSAdj, OpKind::Sdg},
      {qir::kQisT, OpKind::T},       {qir::kQisTAdj, OpKind::Tdg},
      {qir::kQisRX, OpKind::RX},     {qir::kQisRY, OpKind::RY},
      {qir::kQisRZ, OpKind::RZ},     {qir::kQisCNOT, OpKind::CX},
      {qir::kQisCZ, OpKind::CZ},     {qir::kQisSwap, OpKind::Swap},
      {qir::kQisCCX, OpKind::CCX},   {qir::kQisReset, OpKind::Reset}};
  for (const auto& [name, kind] : gates) {
    interp.bindExternal(std::string(name), record(kind));
  }
  interp.bindExternal(std::string(qir::kQisMz),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        const unsigned q = resolveQubit(args[0].p, ctx);
                        const std::uint64_t key = args[1].p;
                        auto [it, inserted] =
                            bitByResult_.try_emplace(key, circuit_.numBits());
                        if (inserted) {
                          circuit_.setNumBits(circuit_.numBits() + 1);
                        }
                        circuit_.add(
                            {OpKind::Measure, {q}, {}, it->second, std::nullopt});
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kQisReadResult),
                      [](std::span<const RtValue>, ExternContext&) {
                        // Trace-based import fixes all measurement feedback
                        // to 0 — the documented limitation of this route.
                        return RtValue::makeInt(0);
                      });
  interp.bindExternal(std::string(qir::kRtInitialize),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtQubitAllocate),
                      [this](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makePtr(allocateQubitHandle());
                      });
  interp.bindExternal(std::string(qir::kRtQubitRelease),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(
      std::string(qir::kRtQubitAllocateArray),
      [this](std::span<const RtValue> args, ExternContext& ctx) {
        const auto count = static_cast<std::uint64_t>(args[0].i);
        const std::uint64_t base =
            ctx.memory.allocate(std::max<std::uint64_t>(8, count * 8));
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::uint64_t handle = allocateQubitHandle();
          ctx.memory.store(base + 8 * i, &handle, sizeof handle);
        }
        return RtValue::makePtr(base);
      });
  interp.bindExternal(std::string(qir::kRtQubitReleaseArray),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtArrayCreate1d),
                      [](std::span<const RtValue> args, ExternContext& ctx) {
                        const auto count = static_cast<std::uint64_t>(args[1].i);
                        return RtValue::makePtr(
                            ctx.memory.allocate(8 * std::max<std::uint64_t>(1, count)));
                      });
  interp.bindExternal(std::string(qir::kRtArrayGetElementPtr1d),
                      [](std::span<const RtValue> args, ExternContext&) {
                        return RtValue::makePtr(
                            args[0].p + 8 * static_cast<std::uint64_t>(args[1].i));
                      });
  interp.bindExternal(std::string(qir::kRtArrayUpdateRefCount),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtResultRecordOutput),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtArrayRecordOutput),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
}

// ---------------------------------------------------------------------------
// CliffordRuntime
// ---------------------------------------------------------------------------

std::uint64_t CliffordRuntime::allocateQubitHandle() {
  if (nextIndex_ >= state_.numQubits()) {
    throw TrapError("Clifford runtime qubit budget exhausted (reserve more "
                    "qubits up front)",
                    ErrorCode::ResourceLimit);
  }
  const std::uint64_t handle = nextDynamicHandle_++;
  qubitByHandle_[handle] = nextIndex_++;
  ++stats_.dynamicQubitsAllocated;
  return handle;
}

unsigned CliffordRuntime::resolveQubit(std::uint64_t address, ExternContext& ctx,
                                       bool canDeref) {
  if (address >= QuantumRuntime::kDynamicHandleBase) {
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
    std::uint64_t handle = 0;
    ctx.memory.load(address, &handle, sizeof handle);
    return resolveQubit(handle, ctx, false);
  }
  // Static address: must fit the fixed register.
  if (address >= state_.numQubits()) {
    throw TrapError("static qubit address " + std::to_string(address) +
                        " exceeds the Clifford runtime's register of " +
                        std::to_string(state_.numQubits()),
                    ErrorCode::TrapInvalidQubit);
  }
  return static_cast<unsigned>(address);
}

bool CliffordRuntime::resultValue(std::uint64_t key) const {
  const auto it = results_.find(key);
  return it != results_.end() && it->second;
}

void CliffordRuntime::bind(interp::ExternalRegistry& interp) {
  // No fused kernels on the stabilizer backend: fused blocks replay call
  // by call (and non-Clifford gates keep trapping with their own names).
  interp.bindFusedHost(nullptr);
  using Handler = interp::ExternalRegistry::ExternalHandler;
  const auto gate1 =
      [this](void (sim::StabilizerSimulator::*apply)(unsigned)) -> Handler {
    return [this, apply](std::span<const RtValue> args, ExternContext& ctx) {
      (state_.*apply)(resolveQubit(argPtr(args, 0), ctx));
      ++stats_.gatesApplied;
      return RtValue::makeVoid();
    };
  };
  const auto gate2 = [this](void (sim::StabilizerSimulator::*apply)(
                         unsigned, unsigned)) -> Handler {
    return [this, apply](std::span<const RtValue> args, ExternContext& ctx) {
      (state_.*apply)(resolveQubit(argPtr(args, 0), ctx),
                      resolveQubit(argPtr(args, 1), ctx));
      ++stats_.gatesApplied;
      return RtValue::makeVoid();
    };
  };
  interp.bindExternal(std::string(qir::kQisH), gate1(&sim::StabilizerSimulator::h));
  interp.bindExternal(std::string(qir::kQisS), gate1(&sim::StabilizerSimulator::s));
  interp.bindExternal(std::string(qir::kQisSAdj),
                      gate1(&sim::StabilizerSimulator::sdg));
  interp.bindExternal(std::string(qir::kQisX), gate1(&sim::StabilizerSimulator::x));
  interp.bindExternal(std::string(qir::kQisY), gate1(&sim::StabilizerSimulator::y));
  interp.bindExternal(std::string(qir::kQisZ), gate1(&sim::StabilizerSimulator::z));
  interp.bindExternal(std::string(qir::kQisCNOT),
                      gate2(&sim::StabilizerSimulator::cx));
  interp.bindExternal(std::string(qir::kQisCZ),
                      gate2(&sim::StabilizerSimulator::cz));
  interp.bindExternal(std::string(qir::kQisSwap),
                      gate2(&sim::StabilizerSimulator::swap));
  interp.bindExternal(std::string(qir::kQisReset),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        state_.reset(resolveQubit(argPtr(args, 0), ctx), rng_);
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kQisMz),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        const unsigned q = resolveQubit(argPtr(args, 0), ctx);
                        results_[argPtr(args, 1)] = state_.measure(q, rng_);
                        ++stats_.measurements;
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kQisReadResult),
                      [this](std::span<const RtValue> args, ExternContext&) {
                        return RtValue::makeInt(resultValue(argPtr(args, 0)) ? 1
                                                                             : 0);
                      });
  // Rotations are non-Clifford: fail loudly.
  for (const std::string_view name : {qir::kQisRX, qir::kQisRY, qir::kQisRZ,
                                      qir::kQisT, qir::kQisTAdj, qir::kQisCCX}) {
    interp.bindExternal(std::string(name),
                        [name](std::span<const RtValue>, ExternContext&) -> RtValue {
                          throw TrapError(std::string(name) +
                                              " is not a Clifford operation; "
                                              "use the statevector runtime",
                                          ErrorCode::Semantic);
                        });
  }
  interp.bindExternal(std::string(qir::kRtInitialize),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtQubitAllocate),
                      [this](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makePtr(allocateQubitHandle());
                      });
  interp.bindExternal(std::string(qir::kRtQubitRelease),
                      [this](std::span<const RtValue> args, ExternContext&) {
                        qubitByHandle_.erase(argPtr(args, 0));
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(
      std::string(qir::kRtQubitAllocateArray),
      [this](std::span<const RtValue> args, ExternContext& ctx) {
        const auto count = static_cast<std::uint64_t>(argInt(args, 0));
        const std::uint64_t base =
            ctx.memory.allocate(std::max<std::uint64_t>(8, count * 8));
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::uint64_t handle = allocateQubitHandle();
          ctx.memory.store(base + 8 * i, &handle, sizeof handle);
        }
        ++stats_.arraysCreated;
        return RtValue::makePtr(base);
      });
  interp.bindExternal(std::string(qir::kRtQubitReleaseArray),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtArrayCreate1d),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        const auto count = static_cast<std::uint64_t>(argInt(args, 1));
                        ++stats_.arraysCreated;
                        return RtValue::makePtr(ctx.memory.allocate(
                            8 * std::max<std::uint64_t>(1, count)));
                      });
  interp.bindExternal(std::string(qir::kRtArrayGetElementPtr1d),
                      [](std::span<const RtValue> args, ExternContext&) {
                        return RtValue::makePtr(
                            argPtr(args, 0) +
                            8 * static_cast<std::uint64_t>(argInt(args, 1)));
                      });
  interp.bindExternal(std::string(qir::kRtArrayUpdateRefCount),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtResultRecordOutput),
                      [this](std::span<const RtValue> args, ExternContext& ctx) {
                        const std::uint64_t labelPtr = argPtr(args, 1);
                        const std::string label =
                            labelPtr == 0 ? std::string{}
                                          : ctx.readCString(labelPtr);
                        output_.emplace_back(label, resultValue(argPtr(args, 0)));
                        return RtValue::makeVoid();
                      });
  interp.bindExternal(std::string(qir::kRtArrayRecordOutput),
                      [](std::span<const RtValue>, ExternContext&) {
                        return RtValue::makeVoid();
                      });
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
