/// \file executor.hpp
/// Batched shot execution: run a QIR module's entry point N times and
/// aggregate the recorded outputs into a histogram — the workload shape
/// the paper's execution route serves (one program, many sampled shots).
///
/// Two engines sit behind one interface: the bytecode VM (compile once,
/// execute many; one Vm + one QuantumRuntime per worker, reset between
/// shots) and the tree-walking interpreter (a fresh Interpreter + runtime
/// per shot — the reference semantics). Shot s always runs with seed
/// `seed + s`, independent of engine, thread count, and chunking, so
/// histograms are reproducible and engine-comparable bit for bit.
///
/// Fault tolerance: a trapping shot no longer takes the batch down with
/// it. Each failure is classified through the structured error taxonomy
/// (support/error.hpp) and isolated to its shot; the batch records a
/// per-code failure histogram, retries transient faults with a fresh
/// derived seed (bounded by ShotOptions::retries), and only aborts when
/// more than ShotOptions::maxFailedShots shots fail permanently. On the
/// VM engine the executor additionally degrades gracefully to the
/// reference interpreter — for the whole batch when bytecode compilation
/// fails, and per shot when the VM traps where the interpreter does not
/// (a differential disagreement) — so `qirkit run` never produces a worse
/// answer than the reference engine.
#pragma once

#include "ir/module.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "vm/vm.hpp"

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace qirkit::telemetry {
class RequestTrace;
class Stage;
} // namespace qirkit::telemetry

namespace qirkit::vm {

struct Program;

/// The "compile" stage: `run` compiles its module in it, and `serve` times
/// its program-store lookup in it, so both report one stage name.
extern telemetry::Stage g_compileStage;

enum class Engine { Interp, Vm };

[[nodiscard]] const char* engineName(Engine engine) noexcept;

/// How the batch turns one program into N shot outcomes.
///  * Resim — re-simulate the full program once per shot (the historical
///    behaviour, and the reference for feedback-dependent programs).
///  * Sample — simulate once with deferred measurements and draw all N
///    shots from the final state. Requires the terminal-measurement
///    analysis (shot_analysis.hpp) to hold; forcing it on an
///    analysis-negative program is a usage error.
///  * Auto — Sample when the analysis proves it sound. Otherwise, on the
///    VM engine, branch: run the program once per measurement-outcome
///    path, each carrying the shots whose own draws take it, for Resim's
///    answer bit for bit (DESIGN §7b). The interpreter engine and an armed
///    fault injector keep Resim.
enum class ExecMode : std::uint8_t { Auto, Resim, Sample };

[[nodiscard]] const char* execModeName(ExecMode mode) noexcept;

/// The per-run execution choices a user makes, carried by ShotOptions and
/// the protocol's SubmitRequest and spelled only through runOptions().
/// Fusion is not among them (see CompileOptions), and the VM has one
/// dispatch loop; Engine::Interp, the reference interpreter, is the
/// escape hatch.
struct RunChoices {
  Engine engine = Engine::Vm;
  /// Shot delivery strategy (see ExecMode). Any fault inside the sampling
  /// path degrades to the per-shot resim machinery, mirroring the
  /// VM->interpreter fallback discipline.
  ExecMode execMode = ExecMode::Auto;
  /// Amplitude storage width (sim/statevector.hpp). F32 halves memory
  /// traffic for sampling workloads; the per-gate rounding error it
  /// introduces accumulates with depth, so the executor rejects it for
  /// feedback-dependent programs (shot analysis negative) unless forceF32
  /// overrides — mid-circuit measurement probabilities would then steer
  /// control flow off rounded amplitudes.
  sim::Precision precision = sim::Precision::F64;
  /// Allow F32 even when the terminal-measurement analysis cannot prove
  /// the program feedback-free.
  bool forceF32 = false;
};

/// One row of the run-option table. `values` lists the spellings in the
/// order of the field's enum values, so a spelling's index is the value it
/// selects. A flag spells false and true; it is a bare switch on the CLI
/// and a JSON boolean on the wire.
struct RunOption {
  const char* cli;  ///< `--<cli>` on run and submit
  const char* wire; ///< member name in a submit frame
  std::span<const char* const> values;
  bool flag = false;
  const char* help = ""; ///< usage-text description
  std::size_t (*get)(const RunChoices&) = nullptr;
  void (*set)(RunChoices&, std::size_t) = nullptr;

  /// Set the option from \p spelling; false when it is not one of values.
  [[nodiscard]] bool assign(RunChoices& choices,
                            std::string_view spelling) const;
  /// The allowed spellings joined with '|', for usage and error text.
  [[nodiscard]] std::string allowed() const;
};

/// The run-option table: engine, exec-mode, precision and force-f32.
[[nodiscard]] std::span<const RunOption> runOptions() noexcept;

struct ShotOptions : RunChoices {
  std::uint64_t shots = 100;
  std::uint64_t seed = 1;
  /// Worker pool for chunked shots; nullptr runs sequentially. The pool
  /// may be shared with other concurrent batches (the service multiplexes
  /// every tenant's chunks onto one pool) — the executor waits through a
  /// TaskGroup, never ThreadPool::wait(). Per-shot simulators never nest
  /// parallelism (their pool is always null).
  qirkit::ThreadPool* pool = nullptr;
  /// Failure-rate threshold: the batch tolerates up to this many
  /// permanently failed shots (recorded, not thrown). One more and
  /// runShots throws the first recorded failure. 0 preserves the
  /// historical any-trap-aborts contract.
  std::uint64_t maxFailedShots = 0;
  /// Bounded retry budget per shot for *transient* faults (e.g. injected
  /// ones): each attempt reruns the shot with a fresh deterministically
  /// derived seed. Permanent faults are never retried.
  std::uint64_t retries = 0;
  /// VM engine only: when a shot traps on the VM, rerun it on the
  /// reference interpreter with the same seed before declaring it failed;
  /// when bytecode compilation fails, run the whole batch on the
  /// interpreter. Disable to surface raw VM behaviour (differential
  /// tests do).
  bool interpFallback = true;
  /// Cooperative cancellation/deadline token (nullptr: unbounded). Probed
  /// between shots, every kCancelStrideSteps VM/interpreter instructions,
  /// and at statevector sweep boundaries. Expiry stops the batch with
  /// partial results: runShots returns normally with deadlineExceeded set
  /// and the histogram restricted to shots that finished before the cut —
  /// it does not throw, and an aborted in-flight shot is counted as
  /// unstarted, never as failed. The token must outlive the call.
  const qirkit::CancelToken* cancel = nullptr;
  /// Request-scoped trace context (nullptr: none). The batch's stage
  /// Spans (compile and analyze on a bare module, sample vs resim
  /// execute) record into it as well as into the armed telemetry
  /// sinks, on the calling thread only — never inside the per-shot loop.
  /// The trace must outlive the call.
  telemetry::RequestTrace* requestTrace = nullptr;
};

/// One permanently failed shot, classified.
struct ShotFailure {
  std::uint64_t shot = 0;
  ErrorCode code = ErrorCode::Internal;
  bool transient = false;
  std::string message;
};

struct ShotBatchResult {
  /// Recorded-output bit string -> occurrence count (successful shots).
  std::map<std::string, std::uint64_t> histogram;
  /// Runtime / engine statistics of the final shot (shot shots-1); every
  /// shot of a given program executes the same way, so one is
  /// representative. Left default when the final shot failed.
  runtime::RuntimeStats lastShotStats;
  interp::InterpStats lastShotEngineStats;

  /// Shots that contributed an outcome to the histogram.
  std::uint64_t completedShots = 0;
  /// Shots that failed permanently (classified below).
  std::uint64_t failedShots = 0;
  /// Transient-fault retry attempts consumed across the batch.
  std::uint64_t retryAttempts = 0;
  /// VM shots rescued by the per-shot interpreter fallback.
  std::uint64_t interpFallbackShots = 0;
  /// The engine that actually executed the batch (Interp when a VM batch
  /// degraded because bytecode compilation failed).
  Engine engineUsed = Engine::Vm;
  bool degradedToInterp = false;
  std::string degradeReason;
  /// True when the batch was served by the terminal-measurement sampling
  /// path (one simulation, N sampled shots). False means branching (see
  /// branched) or per-shot resim — either by choice, or because the
  /// sampling path faulted (see sampleFallback).
  bool sampled = false;
  /// The sampling path was attempted but faulted, and the batch degraded
  /// to per-shot resim.
  bool sampleFallback = false;
  std::string sampleFallbackReason;
  /// True when the batch ran on the branching route (ExecMode::Auto on a
  /// feedback-dependent program): one execution per measurement-outcome
  /// path instead of one per shot. branchPaths counts those executions
  /// over every chunk, paths that trapped included (their shots rerun one
  /// by one through the per-shot isolation).
  bool branched = false;
  std::uint64_t branchPaths = 0;
  /// The batch's cancellation token expired (deadline passed or cancel()
  /// called) before every shot ran. Partial-results contract: histogram
  /// and counters cover exactly the shots that completed before the cut.
  bool deadlineExceeded = false;
  /// Shots never attempted — or abandoned mid-flight — because the token
  /// expired. completedShots + failedShots + unstartedShots == shots.
  std::uint64_t unstartedShots = 0;
  /// Failure histogram: classified error code -> failed-shot count.
  std::map<ErrorCode, std::uint64_t> failureCounts;
  /// Detail records of the kMaxFailureRecords lowest-numbered failed
  /// shots, ascending by shot, whatever order a pool's chunks merge in;
  /// a thrown "shot N failed" names the first of them.
  std::vector<ShotFailure> failures;
  static constexpr std::size_t kMaxFailureRecords = 32;

  /// Add one chunk's failure records, keeping the kMaxFailureRecords
  /// lowest-numbered shots of all of them, ascending.
  void keepFailures(std::vector<ShotFailure>&& more);
};

/// The seed for retry attempt \p attempt (>= 1) of \p shot: drawn from a
/// SplitMix64 stream keyed on (base seed, shot, attempt), so retries are
/// reproducible but decorrelated from every first-attempt shot seed.
[[nodiscard]] std::uint64_t deriveRetrySeed(std::uint64_t baseSeed,
                                            std::uint64_t shot,
                                            std::uint64_t attempt) noexcept;

/// Run \p opts.shots shots of \p module's entry point, compiling and
/// analysing it first. Throws TrapError (carrying the first failing
/// shot's classified diagnostic) only when more than \p
/// opts.maxFailedShots shots fail permanently; tolerated failures are
/// reported in the result instead.
[[nodiscard]] ShotBatchResult runShots(const ir::Module& module,
                                       const ShotOptions& opts = {});

/// The same batch over a store Program (cache.hpp), which neither
/// compiles nor analyses: its bytecode, or its compile failure, and its
/// shot analysis are reused.
[[nodiscard]] ShotBatchResult runShots(const Program& program,
                                       const ShotOptions& opts = {});

} // namespace qirkit::vm
