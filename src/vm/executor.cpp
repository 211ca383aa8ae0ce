#include "vm/executor.hpp"

#include "interp/interpreter.hpp"
#include "qir/names.hpp"
#include "support/cancel.hpp"
#include "support/faultinject.hpp"
#include "support/rng.hpp"
#include "support/telemetry/telemetry.hpp"
#include "vm/cache.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <numeric>
#include <optional>
#include <type_traits>

namespace qirkit::vm {

using interp::TrapError;

namespace {

// Spellings in enum order: index i names the enum value i.
constexpr const char* kEngineNames[] = {"interp", "vm"};
constexpr const char* kExecModeNames[] = {"auto", "resim", "sample"};
constexpr const char* kPrecisionNames[] = {"f64", "f32"};
constexpr const char* kFlagNames[] = {"false", "true"};

template <auto Field>
std::size_t getField(const RunChoices& choices) {
  return static_cast<std::size_t>(choices.*Field);
}

template <auto Field>
void setField(RunChoices& choices, std::size_t index) {
  using Value = std::remove_reference_t<decltype(choices.*Field)>;
  choices.*Field = static_cast<Value>(index);
}

constexpr RunOption kRunOptions[] = {
    {"engine", "engine", kEngineNames, false,
     "bytecode VM (default) or reference interpreter",
     getField<&RunChoices::engine>, setField<&RunChoices::engine>},
    {"exec-mode", "exec_mode", kExecModeNames, false,
     "auto (default) samples when provably sound, else branches",
     getField<&RunChoices::execMode>, setField<&RunChoices::execMode>},
    {"precision", "precision", kPrecisionNames, false,
     "f32 halves state memory (terminal programs)",
     getField<&RunChoices::precision>, setField<&RunChoices::precision>},
    {"force-f32", "force_f32", kFlagNames, true,
     "allow f32 for feedback-dependent programs",
     getField<&RunChoices::forceF32>, setField<&RunChoices::forceF32>},
};

} // namespace

const char* engineName(Engine engine) noexcept {
  return kEngineNames[static_cast<std::size_t>(engine)];
}

const char* execModeName(ExecMode mode) noexcept {
  return kExecModeNames[static_cast<std::size_t>(mode)];
}

bool RunOption::assign(RunChoices& choices, std::string_view spelling) const {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (spelling == values[i]) {
      set(choices, i);
      return true;
    }
  }
  return false;
}

std::string RunOption::allowed() const {
  std::string out;
  for (const char* value : values) {
    out += out.empty() ? "" : "|";
    out += value;
  }
  return out;
}

std::span<const RunOption> runOptions() noexcept { return kRunOptions; }

telemetry::Stage g_compileStage{"compile"};

void ShotBatchResult::keepFailures(std::vector<ShotFailure>&& more) {
  failures.insert(failures.end(), std::make_move_iterator(more.begin()),
                  std::make_move_iterator(more.end()));
  std::ranges::sort(failures, {}, &ShotFailure::shot);
  if (failures.size() > kMaxFailureRecords) {
    failures.erase(failures.begin() + kMaxFailureRecords, failures.end());
  }
}

std::uint64_t deriveRetrySeed(std::uint64_t baseSeed, std::uint64_t shot,
                              std::uint64_t attempt) noexcept {
  SplitMix64 mix(baseSeed ^ (shot * 0x9e3779b97f4a7c15ULL) ^
                 (attempt * 0xbf58476d1ce4e5b9ULL));
  return mix();
}

namespace {

telemetry::Counter g_shotsCompleted{"shots.completed"};
telemetry::Counter g_shotsFailed{"shots.failed"};
telemetry::Counter g_shotsRetries{"shots.retries"};
telemetry::Counter g_shotsInterpFallbacks{"shots.interp_fallbacks"};
telemetry::Counter g_shotsBatches{"shots.batches"};
telemetry::Counter g_shotsDegradedBatches{"shots.degraded_batches"};
telemetry::Counter g_sampleBatches{"shots.sample_mode_batches"};
telemetry::Counter g_shotsSampled{"shots.sampled"};
telemetry::Counter g_sampleFallbacks{"shots.sample_fallbacks"};
telemetry::Counter g_analysisTerminal{"shots.analysis.terminal"};
telemetry::Counter g_analysisFeedback{"shots.analysis.feedback_dependent"};
telemetry::Counter g_deadlineBatches{"shots.deadline_batches"};
telemetry::Counter g_shotsUnstarted{"shots.unstarted"};
telemetry::Counter g_branchBatches{"shots.branch_batches"};
telemetry::Counter g_branchPaths{"shots.branch_paths"};
telemetry::LatencyHistogram g_shotLatency{"shots.latency_ns"};
// The batch's stages, also a serve request's: the names and notes are
// the response's "stages" contract (g_compileStage is shared with serve).
telemetry::Stage g_analyzeStage{"analyze"};
telemetry::Stage g_executeStage{"execute"};
telemetry::Stage g_chunkStage{"execute.chunk"};

/// Per-chunk accumulator, merged into the batch under a mutex (or moved
/// directly in the sequential path).
struct ChunkResult {
  std::map<std::string, std::uint64_t> histogram;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retryAttempts = 0;
  std::uint64_t interpFallbackShots = 0;
  std::map<ErrorCode, std::uint64_t> failureCounts;
  std::vector<ShotFailure> failures;
  /// The chunk stopped early on an expired cancellation token; the shots
  /// it never ran (including one abandoned mid-flight) are in unstarted.
  bool deadlineHit = false;
  std::uint64_t unstarted = 0;
  /// Executions of the branching route (OutcomePaths), trapped ones included.
  std::uint64_t branchPaths = 0;
  /// Stats of the batch's final shot, when this chunk ran it successfully.
  /// Merged into the batch under the merge lock — workers never write the
  /// shared result directly.
  bool hasLastShot = false;
  runtime::RuntimeStats lastShotStats;
  interp::InterpStats lastShotEngineStats;
};

/// The outcome of one successful shot attempt.
struct ShotOutcome {
  std::string bits;
  runtime::RuntimeStats stats;
  interp::InterpStats engineStats;
};

/// §IV.A's attribute inference: reserve the statevector for \p module's
/// declared width, so growing to it moves no amplitude, and bound static
/// addresses by it (RuntimeAbi::bindDeclaredWidth), so the program runs
/// within the width the serve memory guard charged. Simulator indices are
/// still assigned at first use. A width that is absent, above
/// StateVector::kMaxQubits or unallocatable reserves nothing.
void declareWidth(runtime::QuantumRuntime& rt, const ir::Module& module) {
  (void)rt.state().reserveQubits(qir::requiredNumQubits(module));
  rt.bindDeclaredWidth(module);
}

/// One shot on the reference engine: fresh Interpreter + runtime, as the
/// historical interp chunk ran them. Shared by the interp engine path and
/// the VM engine's per-shot fallback. Throws on trap.
ShotOutcome runInterpShot(const ir::Module& module, std::uint64_t seed,
                          const qirkit::CancelToken* cancel = nullptr,
                          sim::Precision precision = sim::Precision::F64) {
  interp::Interpreter interp(module);
  runtime::QuantumRuntime rt(seed, nullptr, precision);
  declareWidth(rt, module);
  interp.setCancelToken(cancel);
  rt.setCancelToken(cancel);
  rt.bind(interp);
  interp.runEntryPoint();
  return {rt.outputBitString(), rt.stats(), interp.stats()};
}

/// Shots per branching window: OutcomePaths holds 4 bytes per shot of a
/// window, so its memory stays bounded whatever the batch size.
constexpr std::uint64_t kBranchWindow = std::uint64_t{1} << 16;

/// The shot-branching route's bookkeeping over one window of shots.
/// Each execution of the program carries a group of shots that agree on
/// every outcome so far. At each collapsing mz or reset past the group's
/// forced prefix, every shot s of the group draws against the one P(1)
/// from its own stream, SplitMix64(seed + s) advanced by the number of
/// outcomes the shot has drawn: the draw per-shot resim makes. The group
/// continues with the larger outcome's shots, and the others wait on a
/// stack with their outcome prefix, to rerun the program from the start
/// with that prefix forced. Groups are ranges of one array of window
/// offsets, and the stack never holds more entries than the current path
/// has outcomes.
class OutcomePaths final : public runtime::QuantumRuntime::OutcomeSource {
public:
  /// One group of the shots [first, first + count), nothing forced.
  void start(std::uint64_t seed, std::uint64_t first, std::uint32_t count) {
    streamBase_ = seed + first;
    shots_.resize(count);
    std::iota(shots_.begin(), shots_.end(), 0U);
    waiting_.clear();
    path_.clear();
    lo_ = 0;
    hi_ = count;
    depth_ = 0;
  }

  /// Make the most recently deferred group current; false when none waits.
  bool nextGroup() {
    if (waiting_.empty()) {
      return false;
    }
    const Waiting group = waiting_.back();
    waiting_.pop_back();
    // Groups deferred after this one had longer prefixes and are done, so
    // path_ still starts with this group's prefix.
    path_.resize(group.depth);
    path_.push_back(group.outcome);
    lo_ = group.lo;
    hi_ = group.hi;
    depth_ = 0;
    return true;
  }

  /// The current group's shots, as offsets into the window.
  [[nodiscard]] std::span<const std::uint32_t> group() const {
    return {shots_.data() + lo_, hi_ - lo_};
  }

  /// Set the current group's shots aside: their path trapped.
  void markTrapped() {
    for (std::uint32_t i = lo_; i < hi_; ++i) {
      shots_[i] |= kTrapped;
    }
  }

  /// The shots set aside by markTrapped, ascending. Call once every group
  /// is done.
  [[nodiscard]] std::span<const std::uint32_t> trapped() {
    auto end = shots_.begin();
    for (const std::uint32_t shot : shots_) {
      if ((shot & kTrapped) != 0) {
        *end++ = shot & ~kTrapped;
      }
    }
    std::sort(shots_.begin(), end);
    return {shots_.data(), static_cast<std::size_t>(end - shots_.begin())};
  }

  bool next(double p1) override {
    if (depth_ < path_.size()) {
      return path_[depth_++];
    }
    const auto first = shots_.begin() + lo_;
    const auto mid = std::partition(first, shots_.begin() + hi_, [&](std::uint32_t shot) {
      SplitMix64 stream(streamBase_ + shot);
      stream.discard(depth_);
      return sim::drawOutcome(p1, stream);
    });
    const auto ones = static_cast<std::uint32_t>(mid - first);
    const std::uint32_t zeros = hi_ - lo_ - ones;
    const bool outcome = ones >= zeros;
    if (ones != 0 && zeros != 0) {
      const std::uint32_t split = lo_ + ones;
      if (outcome) {
        waiting_.push_back({split, hi_, depth_, false});
        hi_ = split;
      } else {
        waiting_.push_back({lo_, split, depth_, true});
        lo_ = split;
      }
    }
    path_.push_back(outcome);
    ++depth_;
    return outcome;
  }

private:
  /// Window offsets stay below kBranchWindow, so the top bit is free.
  static constexpr std::uint32_t kTrapped = std::uint32_t{1} << 31;

  /// A deferred group: shots_[lo, hi), which take \p outcome after the
  /// current path's first \p depth outcomes.
  struct Waiting {
    std::uint32_t lo;
    std::uint32_t hi;
    std::size_t depth;
    bool outcome;
  };

  std::uint64_t streamBase_ = 0;
  std::vector<std::uint32_t> shots_;
  std::vector<Waiting> waiting_;
  std::vector<bool> path_; ///< the current group's outcomes so far
  std::uint32_t lo_ = 0;
  std::uint32_t hi_ = 0;
  std::size_t depth_ = 0; ///< outcomes taken by the current execution
};

/// Executes the shots of one chunk with per-shot fault isolation: a
/// trapping shot is classified, optionally rescued on the reference
/// interpreter (VM engine only), retried when transient, and finally
/// recorded as a failure — never allowed to abort the surrounding shots.
/// With \p branch (VM engine only), the chunk runs outcome paths instead
/// (OutcomePaths), and reruns the shots of a trapping path one by one.
class ChunkRunner {
public:
  ChunkRunner(const ir::Module& module,
              const std::shared_ptr<const BytecodeModule>& compiled,
              Engine engine, const ShotOptions& opts, bool branch)
      : module_(module), opts_(opts), engine_(engine), branch_(branch) {
    // Both engines are constructed once per chunk and reset per shot; the
    // deterministic bump allocator makes a reset Interpreter
    // indistinguishable from a fresh one (identical arena addresses).
    if (engine_ == Engine::Vm) {
      vm_.emplace(compiled);
      rt_.emplace(0, nullptr, opts.precision);
      vm_->setCancelToken(opts.cancel);
      rt_->bind(*vm_);
    } else {
      interp_.emplace(module_);
      rt_.emplace(0, nullptr, opts.precision);
      interp_->setCancelToken(opts.cancel);
      rt_->bind(*interp_);
    }
    rt_->setCancelToken(opts.cancel);
    declareWidth(*rt_, module_);
  }

  void run(std::uint64_t begin, std::uint64_t end, ChunkResult& out) {
    if (branch_) {
      for (std::uint64_t first = begin; first < end; first += kBranchWindow) {
        const std::uint64_t settled = runWindow(
            first, static_cast<std::uint32_t>(std::min(end - first, kBranchWindow)), out);
        if (out.deadlineHit) {
          out.unstarted += end - first - settled;
          return;
        }
      }
      return;
    }
    const qirkit::CancelToken* const cancel = opts_.cancel;
    for (std::uint64_t shot = begin; shot < end; ++shot) {
      // Shot-boundary probe: never start a shot whose token has expired.
      if (cancel != nullptr && cancel->expired()) {
        out.deadlineHit = true;
        out.unstarted += end - shot;
        return;
      }
      runIsolated(shot, out);
      if (out.deadlineHit) {
        // The shot itself was cut mid-flight: it and everything after it
        // in this chunk count as unstarted, never as failed.
        out.unstarted += end - shot;
        return;
      }
    }
  }

private:
  /// The branching route over the \p count shots from \p first: every
  /// outcome path, then the shots of trapped paths one by one in ascending
  /// order, as per-shot resim runs them. Returns the number of shots
  /// settled (completed or failed) before a deadline cut.
  std::uint64_t runWindow(std::uint64_t first, std::uint32_t count, ChunkResult& out) {
    const qirkit::CancelToken* const cancel = opts_.cancel;
    const std::uint64_t lastShot = opts_.shots - 1 - first; // as a window offset
    std::uint64_t settled = 0;
    paths_.start(opts_.seed, first, count);
    do {
      if (cancel != nullptr && cancel->expired()) {
        out.deadlineHit = true;
        return settled;
      }
      ++out.branchPaths;
      ShotOutcome outcome;
      try {
        rt_->reset(paths_);
        outcome = runVm();
      } catch (const std::exception& e) {
        if (classifyException(e).code == ErrorCode::Deadline) {
          out.deadlineHit = true;
          return settled;
        }
        paths_.markTrapped();
        continue;
      }
      const std::span<const std::uint32_t> group = paths_.group();
      record(outcome, group.size(),
             lastShot < count && std::ranges::find(group, lastShot) != group.end(), out);
      settled += group.size();
    } while (paths_.nextGroup());
    for (const std::uint32_t offset : paths_.trapped()) {
      if (cancel != nullptr && cancel->expired()) {
        out.deadlineHit = true;
        return settled;
      }
      runIsolated(first + offset, out);
      if (out.deadlineHit) {
        return settled;
      }
      ++settled;
    }
    return settled;
  }

  ShotOutcome runVm() {
    vm_->reset();
    vm_->resetStats();
    vm_->runEntryPoint();
    return {rt_->outputBitString(), rt_->stats(), vm_->stats()};
  }

  ShotOutcome runVmShot(std::uint64_t seed) {
    rt_->reset(seed);
    return runVm();
  }

  ShotOutcome runHostedInterpShot(std::uint64_t seed) {
    rt_->reset(seed);
    interp_->reset();
    interp_->runEntryPoint();
    return {rt_->outputBitString(), rt_->stats(), interp_->stats()};
  }

  ShotOutcome runAttempt(std::uint64_t seed) {
    return engine_ == Engine::Vm ? runVmShot(seed) : runHostedInterpShot(seed);
  }

  void runIsolated(std::uint64_t shot, ChunkResult& out) {
    // One clock pair per shot, only while telemetry is armed; the latency
    // includes retries and fallback reruns — it is the user-visible cost
    // of delivering (or giving up on) this shot.
    const std::uint64_t t0 = telemetry::enabled() ? telemetry::nowNs() : 0;
    runIsolatedImpl(shot, out);
    if (t0 != 0) {
      g_shotLatency.recordUnchecked(telemetry::nowNs() - t0);
    }
  }

  void runIsolatedImpl(std::uint64_t shot, ChunkResult& out) {
    std::uint64_t attempt = 0;
    for (;;) {
      const std::uint64_t seed = attempt == 0
                                     ? opts_.seed + shot
                                     : deriveRetrySeed(opts_.seed, shot, attempt);
      const bool last = shot + 1 == opts_.shots;
      ClassifiedError failure;
      try {
        record(runAttempt(seed), 1, last, out);
        return;
      } catch (const std::exception& e) {
        failure = classifyException(e);
      }
      if (failure.code == ErrorCode::Deadline) {
        // Not a shot failure: the batch's clock ran out mid-shot. No
        // fallback, no retry — the caller records the cut and stops.
        out.deadlineHit = true;
        return;
      }
      if (engine_ == Engine::Vm && opts_.interpFallback) {
        // Differential disagreement check: if the reference engine
        // completes the shot the VM trapped on, the reference answer
        // stands and the trap is the VM's problem, not the program's.
        try {
          record(runInterpShot(module_, seed, opts_.cancel, opts_.precision), 1,
                 last, out);
          ++out.interpFallbackShots;
          return;
        } catch (const std::exception& e) {
          failure = classifyException(e); // the reference verdict wins
        }
        if (failure.code == ErrorCode::Deadline) {
          out.deadlineHit = true;
          return;
        }
      }
      if (failure.transient && attempt < opts_.retries) {
        ++attempt;
        ++out.retryAttempts;
        continue;
      }
      ++out.failed;
      ++out.failureCounts[failure.code];
      if (telemetry::enabled()) {
        // Same per-code taxonomy as ShotBatchResult::failureCounts,
        // surfaced process-wide as shots.failure_counts.
        telemetry::recordShotFailure(failure.code);
      }
      if (out.failures.size() < ShotBatchResult::kMaxFailureRecords) {
        out.failures.push_back(
            {shot, failure.code, failure.transient, failure.message});
      }
      return;
    }
  }

  /// Count \p shots completed shots that produced \p outcome; \p last: the
  /// batch's final shot is among them.
  static void record(const ShotOutcome& outcome, std::uint64_t shots, bool last,
                     ChunkResult& out) {
    out.completed += shots;
    out.histogram[outcome.bits] += shots;
    if (last) {
      out.hasLastShot = true;
      out.lastShotStats = outcome.stats;
      out.lastShotEngineStats = outcome.engineStats;
    }
  }

  const ir::Module& module_;
  const ShotOptions& opts_;
  Engine engine_;
  bool branch_;
  OutcomePaths paths_;
  std::optional<Vm> vm_;
  std::optional<interp::Interpreter> interp_;
  std::optional<runtime::QuantumRuntime> rt_;
};

/// The terminal-measurement fast path: run the program exactly once on
/// the selected engine with deferred (non-collapsing) measurements, then
/// draw all N shots from the final state. The single simulation may use
/// the batch's thread pool for gate kernels — unlike per-shot resim there
/// is no outer shot parallelism to collide with — and stays bit-identical
/// to a sequential run (disjoint-index kernels, sequential reductions).
/// Throws on any trap; the caller degrades to resim.
void runSampledBatch(const ir::Module& module,
                     const std::shared_ptr<const BytecodeModule>& compiled,
                     Engine engine, const ShotOptions& opts,
                     ShotBatchResult& result) {
  runtime::QuantumRuntime rt(opts.seed, opts.pool, opts.precision);
  rt.setMeasurementMode(runtime::QuantumRuntime::MeasurementMode::Defer);
  rt.setCancelToken(opts.cancel);
  declareWidth(rt, module);
  interp::InterpStats engineStats;
  if (engine == Engine::Vm) {
    Vm machine(compiled);
    machine.setCancelToken(opts.cancel);
    rt.bind(machine);
    machine.runEntryPoint();
    engineStats = machine.stats();
  } else {
    interp::Interpreter interp(module);
    interp.setCancelToken(opts.cancel);
    rt.bind(interp);
    interp.runEntryPoint();
    engineStats = interp.stats();
  }
  // One uniform per shot, drawn sequentially from a stream keyed on the
  // batch seed: the histogram depends only on (program, seed, shots),
  // never on engine or pool size.
  SplitMix64 rng(opts.seed);
  result.histogram = rt.sampleRecordedHistogram(opts.shots, rng);
  result.completedShots = opts.shots;
  result.lastShotStats = rt.stats();
  result.lastShotEngineStats = engineStats;
  result.sampled = true;
}

void mergeChunk(ChunkResult&& chunk, ShotBatchResult& result) {
  for (const auto& [bits, count] : chunk.histogram) {
    result.histogram[bits] += count;
  }
  if (chunk.hasLastShot) {
    result.lastShotStats = chunk.lastShotStats;
    result.lastShotEngineStats = chunk.lastShotEngineStats;
  }
  result.completedShots += chunk.completed;
  result.failedShots += chunk.failed;
  result.deadlineExceeded |= chunk.deadlineHit;
  result.unstartedShots += chunk.unstarted;
  result.branchPaths += chunk.branchPaths;
  result.retryAttempts += chunk.retryAttempts;
  result.interpFallbackShots += chunk.interpFallbackShots;
  for (const auto& [code, count] : chunk.failureCounts) {
    result.failureCounts[code] += count;
  }
  result.keepFailures(std::move(chunk.failures));
}

/// One batch over \p module. A store \p program brings its bytecode (or
/// compile failure) and shot analysis; without one (`run`), the batch
/// compiles and analyses the module itself, in its compile and analyze
/// stages.
ShotBatchResult runBatch(const ir::Module& module, const Program* program,
                         const ShotOptions& opts) {
  g_shotsBatches.add();
  ShotBatchResult result;
  Engine engine = opts.engine;

  // A token that expired before the batch even started (e.g. a job that
  // sat out its deadline in a queue): report everything as unstarted
  // without paying for compilation or analysis.
  if (opts.cancel != nullptr && opts.cancel->expired()) {
    result.engineUsed = engine;
    result.deadlineExceeded = true;
    result.unstartedShots = opts.shots;
    g_deadlineBatches.add();
    g_shotsUnstarted.add(opts.shots);
    telemetry::recordStage(g_executeStage, telemetry::nowNs(), 0,
                           opts.requestTrace, "expired");
    return result;
  }

  // A program no shot can run (no defined entry point, or one that takes
  // parameters) is one error for the batch, raised before analysis and
  // compile: run per shot, it would fail every shot alike, and
  // --max-failed-shots would turn it into an empty histogram. Both
  // engines keep their own check.
  interp::checkEntryPoint(module);

  ShotAnalysis computed;
  const ShotAnalysis* analysis = program != nullptr ? &program->analysis : nullptr;
  const auto analyze = [&]() -> const ShotAnalysis& {
    if (analysis == nullptr) {
      telemetry::Span span(g_analyzeStage, opts.requestTrace);
      computed = analyzeShotProfile(module);
      analysis = &computed;
      span.setNote(computed.profile == ShotProfile::Terminal ? "terminal"
                                                             : "feedback");
    }
    return *analysis;
  };

  // F32 admission: the reduced width is only safe when measurement
  // outcomes cannot steer control flow off rounded amplitudes, i.e. when
  // the terminal-measurement analysis holds. Checked up front (even under
  // --exec-mode=resim, which skips the analysis otherwise) so the refusal
  // costs no compile. --force-f32 overrides for users who accept the
  // accumulated per-gate rounding error.
  if (opts.precision == sim::Precision::F32 && !opts.forceF32 &&
      analyze().profile != ShotProfile::Terminal) {
    throw qirkit::Error(ErrorCode::Usage,
                        "--precision=f32 requires a measurement-terminal "
                        "program (rounding error would steer feedback), "
                        "but the shot analysis found: " +
                            analysis->reason +
                            "; pass --force-f32 to override");
  }
  if (opts.precision == sim::Precision::F32) {
    sim::noteF32Batch();
  }

  std::shared_ptr<const BytecodeModule> compiled;
  if (engine == Engine::Vm) {
    try {
      if (program == nullptr) {
        // Noted "degraded" unless the compile returns.
        telemetry::Span span(g_compileStage, opts.requestTrace, "degraded");
        compiled = compileModule(module);
        span.setNote({});
      } else if (program->compileError) {
        std::rethrow_exception(program->compileError);
      } else {
        compiled = program->bytecode;
      }
    } catch (const std::exception& e) {
      const ClassifiedError failure = classifyException(e);
      if (!opts.interpFallback) {
        throw;
      }
      // Whole-batch graceful degradation: the reference engine needs no
      // bytecode, so a failed compile costs speed, never the answer.
      engine = Engine::Interp;
      result.degradedToInterp = true;
      result.degradeReason = std::string("bytecode compilation failed (") +
                             errorCodeName(failure.code) +
                             "): " + failure.message;
    }
  }
  result.engineUsed = engine;

  if (result.degradedToInterp) {
    g_shotsDegradedBatches.add();
  }

  const auto finish = [&]() -> ShotBatchResult& {
    g_shotsCompleted.add(result.completedShots);
    g_shotsFailed.add(result.failedShots);
    g_shotsRetries.add(result.retryAttempts);
    g_shotsInterpFallbacks.add(result.interpFallbackShots);
    g_branchPaths.add(result.branchPaths);
    if (result.deadlineExceeded) {
      g_deadlineBatches.add();
      g_shotsUnstarted.add(result.unstartedShots);
    }
    if (result.failedShots > opts.maxFailedShots) {
      const ShotFailure& first = result.failures.front();
      throw TrapError("shot " + std::to_string(first.shot) +
                          " failed: " + first.message + " (" +
                          std::to_string(result.failedShots) + " of " +
                          std::to_string(opts.shots) + " shots failed, " +
                          std::to_string(opts.maxFailedShots) + " tolerated)",
                      first.code, first.transient);
    }
    return result;
  };

  // Execution-mode selection: unless resim was requested, classify the
  // program and serve terminal batches from one simulation. Any fault on
  // the sampling path degrades to the per-shot machinery below.
  bool branch = false;
  if (opts.execMode != ExecMode::Resim) {
    const bool terminal = analyze().profile == ShotProfile::Terminal;
    (terminal ? g_analysisTerminal : g_analysisFeedback).add();
    if (!terminal) {
      if (opts.execMode == ExecMode::Sample) {
        throw qirkit::Error(ErrorCode::Usage,
                            "--exec-mode=sample requires a "
                            "measurement-terminal program, but the shot "
                            "analysis found: " +
                                analysis->reason);
      }
      // Per-shot resim's answer from one execution per outcome path. The
      // reference interpreter keeps the per-shot loop, and so does an
      // armed fault injector, whose probe counts are per execution.
      branch = engine == Engine::Vm && !fault::FaultInjector::instance().enabled();
    } else if (opts.shots > 0) {
      // Ends before the resim stage below when the sampling path falls
      // back to it.
      telemetry::Span span(g_executeStage, opts.requestTrace, "sample");
      try {
        runSampledBatch(module, compiled, engine, opts, result);
        g_sampleBatches.add();
        g_shotsSampled.add(result.completedShots);
        return finish();
      } catch (const std::exception& e) {
        const ClassifiedError failure = classifyException(e);
        if (failure.code == ErrorCode::Deadline) {
          // Deadline on the sampling path ends the batch — re-simulating
          // against an already-expired clock could never do better. The
          // single simulation had not finished, so no shot completed.
          result.histogram.clear();
          result.completedShots = 0;
          result.lastShotStats = {};
          result.lastShotEngineStats = {};
          result.sampled = false;
          result.deadlineExceeded = true;
          result.unstartedShots = opts.shots;
          span.setNote("sample-deadline");
          return finish();
        }
        g_sampleFallbacks.add();
        span.setNote("sample-fallback");
        result.sampleFallback = true;
        result.sampleFallbackReason =
            std::string(errorCodeName(failure.code)) + ": " + failure.message;
        result.sampled = false;
        result.histogram.clear();
        result.completedShots = 0;
        result.lastShotStats = {};
        result.lastShotEngineStats = {};
      }
    }
  }

  const auto runChunk = [&](std::uint64_t begin, std::uint64_t end,
                            ChunkResult& out) {
    const telemetry::Span span(g_chunkStage);
    ChunkRunner runner(module, compiled, engine, opts, branch);
    runner.run(begin, end, out);
  };

  result.branched = branch;
  if (branch) {
    g_branchBatches.add();
  }
  const telemetry::Span execute(g_executeStage, opts.requestTrace,
                                branch ? "branch" : "resim");
  if (opts.pool == nullptr || opts.pool->size() <= 1 || opts.shots <= 1) {
    ChunkResult chunk;
    runChunk(0, opts.shots, chunk);
    mergeChunk(std::move(chunk), result);
    return finish();
  }

  const std::uint64_t workers =
      std::min<std::uint64_t>(opts.pool->size(), opts.shots);
  const std::uint64_t chunkSize = (opts.shots + workers - 1) / workers;
  std::mutex mergeMutex;
  std::optional<ClassifiedError> infrastructureError;
  // A TaskGroup waits for exactly this batch's chunks: the pool may be
  // serving other batches (every service tenant shares one), and
  // ThreadPool::wait() would block on their work too.
  TaskGroup group(*opts.pool);
  for (std::uint64_t w = 0; w < workers; ++w) {
    const std::uint64_t begin = w * chunkSize;
    const std::uint64_t end = std::min(opts.shots, begin + chunkSize);
    if (begin >= end) {
      break;
    }
    group.submit([&, begin, end] {
      ChunkResult chunk;
      try {
        runChunk(begin, end, chunk);
      } catch (const std::exception& e) {
        // Per-shot isolation means a chunk only throws on infrastructure
        // failures (engine construction, allocation) — still merged, so
        // completed shots of other chunks are not discarded silently.
        const std::lock_guard<std::mutex> lock(mergeMutex);
        if (!infrastructureError.has_value()) {
          infrastructureError = classifyException(e);
        }
        mergeChunk(std::move(chunk), result);
        return;
      }
      const std::lock_guard<std::mutex> lock(mergeMutex);
      mergeChunk(std::move(chunk), result);
    });
  }
  group.wait();
  if (infrastructureError.has_value()) {
    throw TrapError(infrastructureError->message, infrastructureError->code,
                    infrastructureError->transient);
  }
  return finish();
}

} // namespace

ShotBatchResult runShots(const ir::Module& module, const ShotOptions& opts) {
  return runBatch(module, nullptr, opts);
}

ShotBatchResult runShots(const Program& program, const ShotOptions& opts) {
  return runBatch(*program.module, &program, opts);
}

} // namespace qirkit::vm
