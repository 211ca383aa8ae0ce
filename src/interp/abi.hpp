/// \file abi.hpp
/// The execution ABI shared by every IR execution engine: dynamic values,
/// byte-addressable memory, trap errors, and the external-function
/// registry that QIR runtimes bind their `__quantum__*` handlers into.
///
/// Both the tree-walking interpreter (interp::Interpreter) and the
/// bytecode VM (vm::Vm) derive from ExternalRegistry, so a runtime's
/// bind() works unchanged against either engine (§III.C: the runtime
/// route only concerns the implementation of the quantum instructions —
/// not how the classical structure around them is executed).
#pragma once

#include "support/error.hpp"

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace qirkit::interp {

/// A dynamic value flowing through an execution engine. Integers carry
/// their canonical sign-extended representation, as ir::ConstantInt does,
/// so an i1 true is -1 (makeI1); pointers are opaque 64-bit addresses
/// (arena offsets, qubit handles, or static QIR addresses — the engine
/// does not distinguish, the runtime does).
struct RtValue {
  enum class Kind : std::uint8_t { Void, Int, Double, Ptr };
  Kind kind = Kind::Void;
  std::int64_t i = 0;
  double d = 0.0;
  std::uint64_t p = 0;

  static RtValue makeVoid() { return {}; }
  static RtValue makeInt(std::int64_t v) { return {Kind::Int, v, 0.0, 0}; }
  static RtValue makeI1(bool v) { return makeInt(v ? -1 : 0); }
  static RtValue makeDouble(double v) { return {Kind::Double, 0, v, 0}; }
  static RtValue makePtr(std::uint64_t v) { return {Kind::Ptr, 0, 0.0, v}; }
};

/// Thrown when execution violates a dynamic rule (trap): division by zero,
/// out-of-bounds memory, missing external, step limit. A thin wrapper over
/// the structured taxonomy: trap sites pass the specific ErrorCode so
/// batch executors can classify, count, and selectively retry failures;
/// the bare one-argument form stays source-compatible with pre-taxonomy
/// throw sites.
class TrapError : public qirkit::Error {
public:
  explicit TrapError(const std::string& message,
                     ErrorCode code = ErrorCode::Trap, bool transient = false,
                     SourceLoc loc = {})
      : Error(code, message, loc, transient) {}
};

/// Byte-addressable execution memory. A single arena; addresses are
/// offsets biased by kBase so that 0 (null) and small static QIR addresses
/// are never valid memory.
class Memory {
public:
  static constexpr std::uint64_t kBase = 0x100000;

  /// Allocate \p size bytes, zero-initialized; returns the address.
  /// Allocation is deterministic (8-byte-aligned bump pointer), so two
  /// engines materializing the same allocations in the same order hand
  /// out identical addresses — the property differential testing and the
  /// bytecode compiler's static global addresses rely on.
  std::uint64_t allocate(std::uint64_t size);

  // The load/store fast paths are inline: they sit inside both engines'
  // dispatch loops, and an out-of-line call per memory opcode is pure
  // interpretation overhead. Only the trap path (cold by definition)
  // stays out of line.

  void store(std::uint64_t address, const void* data, std::uint64_t size) {
    check(address, size);
    std::memcpy(arena_.data() + (address - kBase), data, size);
  }
  void load(std::uint64_t address, void* data, std::uint64_t size) const {
    check(address, size);
    std::memcpy(data, arena_.data() + (address - kBase), size);
  }

  /// Store an i\p bits value in LLVM's layout: its low \p bits bits,
  /// zero-extended to whole bytes (an i1 true is the byte 1).
  std::uint64_t storeInt(std::uint64_t address, std::int64_t value, unsigned bits) {
    const unsigned unused = 64 - bits;
    const std::uint64_t raw = static_cast<std::uint64_t>(value) << unused >> unused;
    check(address, (bits + 7) / 8);
    std::memcpy(arena_.data() + (address - kBase), &raw, (bits + 7) / 8);
    return address;
  }
  /// Load an i\p bits value in the canonical sign-extended form registers
  /// hold, whatever the unused bits of its last byte are.
  [[nodiscard]] std::int64_t loadInt(std::uint64_t address, unsigned bits) const {
    std::uint64_t raw = 0;
    check(address, (bits + 7) / 8);
    std::memcpy(&raw, arena_.data() + (address - kBase), (bits + 7) / 8);
    const unsigned unused = 64 - bits;
    return static_cast<std::int64_t>(raw << unused) >> unused;
  }

  /// Read a NUL-terminated string (for output labels).
  [[nodiscard]] std::string readCString(std::uint64_t address) const;

  [[nodiscard]] std::uint64_t bytesUsed() const noexcept { return arena_.size(); }

private:
  void check(std::uint64_t address, std::uint64_t size) const {
    if (address < kBase || address - kBase + size > arena_.size()) {
      trapOutOfBounds(address);
    }
  }
  [[noreturn]] static void trapOutOfBounds(std::uint64_t address);
  std::vector<std::byte> arena_;
};

/// Context handed to external-function handlers. Engine-neutral: handlers
/// only see the execution memory, never the engine that dispatched them.
struct ExternContext {
  Memory& memory;

  [[nodiscard]] std::string readCString(std::uint64_t address) const {
    return memory.readCString(address);
  }
};

class FusedGateHost; // fused.hpp — the fused-gate fast path (optional)

/// Named external-function bindings (the QIR runtime surface). Execution
/// engines derive from this; runtimes call bindExternal() against it.
class ExternalRegistry {
public:
  using ExternalHandler =
      std::function<RtValue(std::span<const RtValue>, ExternContext&)>;

  virtual ~ExternalRegistry() = default;

  /// Register a handler for calls to the declaration named \p name.
  virtual void bindExternal(std::string name, ExternalHandler handler) {
    externals_[std::move(name)] = std::move(handler);
  }
  /// Offer the engine a fused-gate fast path (nullptr withdraws it).
  /// Engines without fused dispatch ignore the offer — they never see
  /// fused ops, so the per-gate bindings above remain authoritative.
  virtual void bindFusedHost(FusedGateHost* host) { (void)host; }
  [[nodiscard]] bool hasExternal(const std::string& name) const {
    return externals_.find(name) != externals_.end();
  }
  /// Handler for \p name, or nullptr when unbound.
  [[nodiscard]] const ExternalHandler* findExternal(const std::string& name) const {
    const auto it = externals_.find(name);
    return it == externals_.end() ? nullptr : &it->second;
  }

private:
  std::map<std::string, ExternalHandler> externals_;
};

} // namespace qirkit::interp
