#include "vm/executor.hpp"

#include "interp/interpreter.hpp"
#include "support/cancel.hpp"
#include "support/rng.hpp"
#include "support/telemetry/telemetry.hpp"
#include "vm/cache.hpp"

#include <mutex>
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
     "auto (default) samples when provably sound",
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

/// One shot on the reference engine: fresh Interpreter + runtime, as the
/// historical interp chunk ran them. Shared by the interp engine path and
/// the VM engine's per-shot fallback. Throws on trap.
ShotOutcome runInterpShot(const ir::Module& module, std::uint64_t seed,
                          const qirkit::CancelToken* cancel = nullptr,
                          sim::Precision precision = sim::Precision::F64) {
  interp::Interpreter interp(module);
  runtime::QuantumRuntime rt(seed, nullptr, precision);
  interp.setCancelToken(cancel);
  rt.setCancelToken(cancel);
  rt.bind(interp);
  interp.runEntryPoint();
  return {rt.outputBitString(), rt.stats(), interp.stats()};
}

/// Executes the shots of one chunk with per-shot fault isolation: a
/// trapping shot is classified, optionally rescued on the reference
/// interpreter (VM engine only), retried when transient, and finally
/// recorded as a failure — never allowed to abort the surrounding shots.
class ChunkRunner {
public:
  ChunkRunner(const ir::Module& module,
              const std::shared_ptr<const BytecodeModule>& compiled,
              Engine engine, const ShotOptions& opts)
      : module_(module), opts_(opts), engine_(engine) {
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
  }

  void run(std::uint64_t begin, std::uint64_t end, ChunkResult& out) {
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
  ShotOutcome runVmShot(std::uint64_t seed) {
    rt_->reset(seed);
    vm_->reset();
    vm_->resetStats();
    vm_->runEntryPoint();
    return {rt_->outputBitString(), rt_->stats(), vm_->stats()};
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
      ClassifiedError failure;
      try {
        record(shot, runAttempt(seed), out);
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
          record(shot,
                 runInterpShot(module_, seed, opts_.cancel, opts_.precision),
                 out);
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

  void record(std::uint64_t shot, ShotOutcome outcome, ChunkResult& out) {
    ++out.completed;
    ++out.histogram[outcome.bits];
    if (shot + 1 == opts_.shots) {
      out.hasLastShot = true;
      out.lastShotStats = outcome.stats;
      out.lastShotEngineStats = outcome.engineStats;
    }
  }

  const ir::Module& module_;
  const ShotOptions& opts_;
  Engine engine_;
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
  result.retryAttempts += chunk.retryAttempts;
  result.interpFallbackShots += chunk.interpFallbackShots;
  for (const auto& [code, count] : chunk.failureCounts) {
    result.failureCounts[code] += count;
  }
  for (ShotFailure& failure : chunk.failures) {
    if (result.failures.size() >= ShotBatchResult::kMaxFailureRecords) {
      break;
    }
    result.failures.push_back(std::move(failure));
  }
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
        compiled = compileModule(module, shotCompileOptions());
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
    ChunkRunner runner(module, compiled, engine, opts);
    runner.run(begin, end, out);
  };

  const telemetry::Span resim(g_executeStage, opts.requestTrace, "resim");
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
