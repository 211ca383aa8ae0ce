/// \file faultinject.hpp
/// Deterministic, seeded fault injection for exercising every recovery
/// path in the execution stack without needing a genuinely broken program.
///
/// The stack is instrumented with named probe *sites* (VM dispatch steps,
/// external runtime calls, program-store lookups, bytecode compiles). A
/// configured plan decides — purely from the per-site probe count and the
/// plan's seed, never from wall-clock or address randomness — whether a
/// given probe fires; a firing probe throws Error(ErrorCode::InjectedFault)
/// with the plan's transient/permanent flag, which then flows through the
/// same classification, retry, fallback, and reporting machinery as a real
/// fault. Two runs with the same plan and the same program fault at the
/// same points.
///
/// Disabled (the default) costs one relaxed atomic load per probe; the
/// VM's dispatch loop additionally caches the enabled flag per call frame
/// so the hot path stays branch-predictable.
///
/// The CLI arms the injector from the environment:
///   QIRKIT_FAULT_INJECT="site=vm-dispatch,at=100"          exactly probe #100
///   QIRKIT_FAULT_INJECT="site=runtime-call,every=50,seed=7" ~1/50 probes, seeded
///   ... plus optional ",transient=0|1" (default 1).
#pragma once

#include "support/error.hpp"

#include <array>
#include <atomic>
#include <cstdint>

namespace qirkit::fault {

/// Instrumented points in the execution stack.
enum class Site : std::uint8_t {
  VmDispatch,      ///< per step-counted instruction in the VM's dispatch loop
  RuntimeCall,     ///< per external (__quantum__*) dispatch, either engine
  CompileCache,    ///< per program-store lookup (getOrLoad, find)
  BytecodeCompile, ///< per IR -> bytecode compilation
};
inline constexpr std::size_t kNumSites = 4;

[[nodiscard]] const char* siteName(Site site) noexcept;

/// When and how to fire. `at` and `every` are mutually exclusive; whichever
/// is nonzero is the mode (`at` wins when both are set).
struct Plan {
  Site site = Site::VmDispatch;
  std::uint64_t at = 0;    ///< fire exactly on the at-th probe (1-based)
  std::uint64_t every = 0; ///< fire pseudo-randomly ~1/every probes (seeded)
  std::uint64_t seed = 1;  ///< mixes into which probes fire in `every` mode
  bool transient = true;   ///< injected errors report as retryable
};

class FaultInjector {
public:
  /// The process-wide injector every probe site consults.
  static FaultInjector& instance();

  /// Arm \p plan; resets all probe/fire counters so plans compose
  /// deterministically across test cases.
  void configure(const Plan& plan);

  /// Arm from QIRKIT_FAULT_INJECT (see file comment). Returns true when a
  /// plan was parsed and armed; malformed values throw Error(Usage).
  bool configureFromEnv();

  /// Disarm and reset counters.
  void disable();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Count a probe of \p site and throw the injected fault if the plan
  /// says this is the one. No-op (beyond counting) for other sites.
  void onProbe(Site site);

  [[nodiscard]] std::uint64_t probeCount(Site site) const noexcept;
  [[nodiscard]] std::uint64_t firedCount() const noexcept {
    return fired_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<bool> enabled_{false};
  Plan plan_;
  std::array<std::atomic<std::uint64_t>, kNumSites> probes_{};
  std::atomic<std::uint64_t> fired_{0};
};

/// The probe call instrumented code makes; a single relaxed load when no
/// plan is armed.
inline void probe(Site site) {
  FaultInjector& injector = FaultInjector::instance();
  if (injector.enabled()) {
    injector.onProbe(site);
  }
}

/// RAII disarm for tests: guarantees a configured plan cannot leak into
/// the next test case.
struct ScopedPlan {
  explicit ScopedPlan(const Plan& plan) { FaultInjector::instance().configure(plan); }
  ~ScopedPlan() { FaultInjector::instance().disable(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

} // namespace qirkit::fault
