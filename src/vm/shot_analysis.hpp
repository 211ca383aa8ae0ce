/// \file shot_analysis.hpp
/// Terminal-measurement classification for the shot executor's sampling
/// fast path. A module is **measurement-terminal** when re-simulating it
/// per shot is provably equivalent to simulating it once and sampling all
/// shots from the final state:
///
///  * no branch/switch condition, call argument, store, return value or
///    possibly-trapping instruction (ir::Instruction::mayTrap) transitively
///    depends on a measurement result (read_result / result_equal) —
///    classical control flow never observes an outcome, and whether a
///    shot traps never depends on one;
///  * no qubit is operated on (gate or reset) after it has been measured
///    on any CFG path — the deferred joint Z-measurement then commutes
///    with everything that follows it;
///  * resets only touch provably fresh qubits (a reset of |0> is a no-op;
///    any other reset creates a mixture a single statevector cannot hold).
///
/// The analysis is a conservative forward dataflow over the entry
/// function's CFG: qubit arguments are abstracted to *tokens* (static
/// address constants, allocation call sites, array elements) and the
/// measured/touched token sets are propagated to a fixpoint. Anything the
/// abstraction cannot prove — unknown qubit operands after a measurement,
/// quantum operations behind internal calls, unknown externals — degrades
/// the verdict to feedback-dependent, never the other way around, so the
/// sampling path is only ever taken when it is sound.
#pragma once

#include "ir/module.hpp"

#include <string>

namespace qirkit::vm {

enum class ShotProfile : std::uint8_t {
  /// All measurements are terminal: simulate once, sample N shots.
  Terminal,
  /// Some gate, branch, or reset may depend on (or follow) a measurement:
  /// every shot must be re-simulated.
  FeedbackDependent,
};

[[nodiscard]] const char* shotProfileName(ShotProfile profile) noexcept;

struct ShotAnalysis {
  ShotProfile profile = ShotProfile::FeedbackDependent;
  /// Human-readable justification when the verdict is FeedbackDependent.
  std::string reason;
};

/// Classify \p module for the shot executor. Never throws; a module the
/// analysis cannot understand (no entry point, unknown externals) is
/// reported as FeedbackDependent with a reason.
[[nodiscard]] ShotAnalysis analyzeShotProfile(const ir::Module& module);

} // namespace qirkit::vm
