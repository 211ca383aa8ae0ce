/// \file telemetry.hpp
/// Process-wide observability registry: counters, max-gauges, and
/// latency histograms, named with dotted paths ("vm.cache.hits") that
/// become the nesting of the machine-readable `--stats` report; and the
/// one timing facility, `Span`, which times a `Stage` of a run into
/// three sinks: the stage's histogram, the Chrome trace (`trace::`) and
/// an attached request trace (request_trace.hpp).
///
/// Probe-cost discipline (shared with support/faultinject.hpp): every
/// probe is gated on one process-wide armed-sinks word read with one
/// relaxed atomic load. Disabled telemetry therefore costs one
/// predictable branch per probe — no clock reads, no atomics RMW, no
/// locks — so the instrumentation can live permanently in hot paths (VM
/// dispatch, gate kernels, per-shot bookkeeping). Hot loops additionally
/// cache the word per call frame, as the VM caches the fault-injection
/// flag.
///
/// Metrics and stages register themselves with the registry at static
/// initialization; the registry renders them either as a human-readable
/// table (`statsText`) or as versioned JSON (`statsJson`,
/// kStatsSchemaVersion) for the CLI's `--stats[=text|json]` flag and the
/// bench harness's BENCH_<name>.json artifacts.
#pragma once

#include "support/error.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qirkit::telemetry {

/// Version of the JSON document emitted by statsJson / the bench
/// artifacts' "telemetry" member ("schema_version" field). Bump on
/// breaking shape changes (2: the "stages" section).
inline constexpr int kStatsSchemaVersion = 2;

class RequestTrace;

namespace detail {
inline constexpr unsigned kStatsSink = 1U;  ///< metrics, stage histograms
inline constexpr unsigned kChromeSink = 2U; ///< the Chrome trace buffer

/// The process-wide armed-sinks word every probe and Span gates on.
[[nodiscard]] std::atomic<unsigned>& armedSinks() noexcept;
void armSink(unsigned sink, bool on) noexcept;
/// Buffer one Chrome event; \p argsJson is a JSON object, or empty.
void appendChromeEvent(std::string_view name, std::uint64_t startNs,
                       std::uint64_t durNs, std::string argsJson);
} // namespace detail

/// One relaxed atomic load: the per-probe cost when telemetry is off.
[[nodiscard]] inline bool enabled() noexcept {
  return (detail::armedSinks().load(std::memory_order_relaxed) &
          detail::kStatsSink) != 0;
}

/// Arm / disarm the stats sink: every metric probe and stage histogram.
void setEnabled(bool on) noexcept;

/// The Chrome trace sink: Spans that end while it is armed are buffered
/// (bounded; drops are counted) as complete ("X") Chrome trace events,
/// loadable in Perfetto or chrome://tracing, and written by flush().
namespace trace {

[[nodiscard]] inline bool enabled() noexcept {
  return (telemetry::detail::armedSinks().load(std::memory_order_relaxed) &
          telemetry::detail::kChromeSink) != 0;
}

/// Arm tracing; events will be written to \p path by flush().
void begin(std::string path);

/// Arm from QIRKIT_TRACE when set. Returns true when tracing was armed.
bool initFromEnv();

/// Write the buffered events as Chrome trace JSON and disarm. Safe to
/// call when tracing was never armed (no-op). Returns false when the
/// output file cannot be written. Call it once at process/tool exit.
bool flush();

/// Number of events dropped because the in-memory buffer was full.
[[nodiscard]] std::uint64_t droppedEvents() noexcept;

} // namespace trace

/// Zero every registered metric and the dynamic per-pass records.
void resetAll();

/// Monotonic nanoseconds (steady clock) — the time base of every latency
/// metric and trace span.
[[nodiscard]] inline std::uint64_t nowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// -- metrics ------------------------------------------------------------------

/// Monotonically increasing event count. Thread-safe; `add` is a no-op
/// (one relaxed load) while telemetry is disabled.
class Counter {
public:
  explicit Counter(const char* name);

  void add(std::uint64_t n = 1) noexcept {
    if (enabled()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  /// Unconditional add for call sites already under an enabled() check.
  void addUnchecked(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] const char* name() const noexcept { return name_; }

private:
  const char* name_;
  std::atomic<std::uint64_t> value_{0};
};

/// High-watermark gauge (e.g. peak statevector bytes). Thread-safe.
class MaxGauge {
public:
  explicit MaxGauge(const char* name);

  void updateMax(std::uint64_t v) noexcept {
    if (!enabled()) {
      return;
    }
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] const char* name() const noexcept { return name_; }

private:
  const char* name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Tag type for metrics that must not self-register with the process
/// registry — the labeled families below own per-label histograms whose
/// lifetime is the family's, not the process's.
struct Unregistered {};

/// Latency histogram with power-of-two nanosecond buckets: bucket i
/// counts samples in [2^i, 2^(i+1)); sub-nanosecond samples land in
/// bucket 0. Tracks count/sum/min/max exactly and serves approximate
/// quantiles (upper bucket bound) from the buckets. Thread-safe.
class LatencyHistogram {
public:
  static constexpr std::size_t kBuckets = 48; // up to ~78 hours in ns

  explicit LatencyHistogram(const char* name);
  /// Non-registering constructor for family-owned member histograms.
  LatencyHistogram(const char* name, Unregistered) noexcept : name_(name) {}

  void record(std::uint64_t ns) noexcept {
    if (enabled()) {
      recordUnchecked(ns);
    }
  }
  void recordUnchecked(std::uint64_t ns) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  /// Approximate p-quantile (0 < p <= 1): the upper bound of the bucket
  /// containing the p*count-th sample; 0 when empty.
  [[nodiscard]] std::uint64_t quantileNs(double p) const noexcept;
  [[nodiscard]] std::uint64_t bucketCount(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset() noexcept;
  [[nodiscard]] const char* name() const noexcept { return name_; }

private:
  const char* name_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Bounded-cardinality counter family dimensioned by one label value
/// (e.g. tenant). At most `maxLabels` label values are live at once;
/// inserting past the bound evicts the least-recently-updated label and
/// counts the eviction, so hostile label churn (a tenant per request)
/// cannot grow memory or the metrics document without bound.
///
/// Probe cost matches the registry discipline: one relaxed atomic load
/// when telemetry is disabled. An *enabled* update takes the family
/// mutex, which confines labeled metrics to request-cadence call sites
/// (admission, job completion) — never per-shot paths (DESIGN 7f).
class LabeledCounter {
public:
  static constexpr std::size_t kDefaultMaxLabels = 32;

  /// \p labelKey names the dimension ("tenant") in exports that carry
  /// label keys (Prometheus exposition).
  explicit LabeledCounter(const char* name,
                          std::size_t maxLabels = kDefaultMaxLabels,
                          const char* labelKey = "label");

  void add(std::string_view label, std::uint64_t n = 1);

  /// Value for one label; 0 when the label is absent (never seen or
  /// evicted).
  [[nodiscard]] std::uint64_t value(std::string_view label) const;
  /// Live labels with their values, label-sorted.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> values() const;
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t maxLabels() const noexcept { return maxLabels_; }
  void reset();
  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] const char* labelKey() const noexcept { return labelKey_; }

private:
  struct Entry {
    std::uint64_t value = 0;
    std::uint64_t lastTick = 0;
  };

  const char* name_;
  const char* labelKey_;
  std::size_t maxLabels_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
  std::uint64_t tick_ = 0;
  std::atomic<std::uint64_t> evictions_{0};
};

/// Bounded-cardinality latency-histogram family dimensioned by one
/// label. Same eviction policy, probe gating, and call-site discipline
/// as LabeledCounter; each live label owns a full LatencyHistogram so
/// per-label quantiles (p50/p95/p99) are available.
class LabeledHistogram {
public:
  static constexpr std::size_t kDefaultMaxLabels = 32;

  explicit LabeledHistogram(const char* name,
                            std::size_t maxLabels = kDefaultMaxLabels,
                            const char* labelKey = "label");

  void record(std::string_view label, std::uint64_t ns);

  /// Visit each live label's histogram under the family lock,
  /// label-sorted. \p fn must not re-enter the family.
  void forEach(const std::function<void(const std::string&,
                                        const LatencyHistogram&)>& fn) const;
  [[nodiscard]] std::vector<std::string> labels() const;
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t maxLabels() const noexcept { return maxLabels_; }
  void reset();
  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] const char* labelKey() const noexcept { return labelKey_; }

private:
  struct Entry {
    std::unique_ptr<LatencyHistogram> hist;
    std::uint64_t lastTick = 0;
  };

  const char* name_;
  const char* labelKey_;
  std::size_t maxLabels_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
  std::uint64_t tick_ = 0;
  std::atomic<std::uint64_t> evictions_{0};
};

/// A named stage of a run: a frontend parse, a pass, bytecode
/// compilation, a serve request's queue wait.
class Stage {
public:
  /// A stage with a latency histogram in the "stages" section of the
  /// stats report, and under the stage's name in snapshots and the
  /// Prometheus text. Static storage duration, like every metric.
  explicit Stage(const char* name);
  /// A stage without a histogram, for an owner that keeps the statistics
  /// itself (the pass manager's passes record). \p name must outlive it.
  Stage(std::string_view name, Unregistered) noexcept : name_(name) {}

  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  /// The stage's histogram; nullptr for an unregistered stage.
  [[nodiscard]] LatencyHistogram* histogram() noexcept {
    return histogram_.has_value() ? &*histogram_ : nullptr;
  }

private:
  std::string_view name_;
  std::optional<LatencyHistogram> histogram_;
};

/// Record one finished interval of \p stage into every armed sink (the
/// stage histogram; a Chrome event with \p note and the request's id and
/// tenant as args) and, unconditionally, into \p trace when attached.
/// The end of every Span; called directly for an interval measured
/// elsewhere, such as a queued job's wait, which crosses threads.
void recordStage(Stage& stage, std::uint64_t startNs,
                 std::uint64_t durNs, RequestTrace* trace = nullptr,
                 std::string_view note = {});

/// RAII timer of one pass through a stage, recorded by recordStage when
/// it ends (end() or destruction). With no sink armed and no request
/// trace it is inert: one relaxed load and a null test, no clock read.
/// \p note must outlive the span; notes are string literals ("miss").
class Span {
public:
  explicit Span(Stage& stage, RequestTrace* trace = nullptr,
                std::string_view note = {}) noexcept
      : stage_(trace != nullptr ||
                       detail::armedSinks().load(std::memory_order_relaxed) != 0
                   ? &stage
                   : nullptr),
        trace_(trace), note_(note), startNs_(stage_ != nullptr ? nowNs() : 0) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Replace the note, e.g. with a verdict known only at the end.
  void setNote(std::string_view note) noexcept { note_ = note; }

  /// End the span now and record it; later calls, and the destructor, do
  /// nothing. Returns the measured nanoseconds, 0 for an inert span.
  std::uint64_t end() noexcept {
    if (stage_ == nullptr) {
      return 0;
    }
    const std::uint64_t durNs = nowNs() - startNs_;
    recordStage(*stage_, startNs_, durNs, trace_, note_);
    stage_ = nullptr;
    return durNs;
  }

  /// Clock reading at construction; 0 for an inert span.
  [[nodiscard]] std::uint64_t startNs() const noexcept { return startNs_; }

private:
  Stage* stage_; ///< nullptr once ended, or when inert
  RequestTrace* trace_;
  std::string_view note_;
  std::uint64_t startNs_;
};

// -- dynamic records ----------------------------------------------------------

/// Accumulated statistics of one named optimization pass, merged across
/// sweeps and PassManager instances in first-run order.
struct PassRecord {
  std::string name;
  std::uint64_t invocations = 0;
  std::uint64_t changes = 0; ///< pipeline entries that reported a change
  std::uint64_t ns = 0;
  /// Net IR growth across all runs: sum of (instructions after -
  /// instructions before). Negative for shrinking passes like DCE.
  std::int64_t irDelta = 0;
};

/// Record one pass execution (PassManager calls this only while enabled).
void recordPassRun(std::string_view name, std::uint64_t ns, bool changed,
                   std::uint64_t irBefore, std::uint64_t irAfter);
[[nodiscard]] std::vector<PassRecord> passRecords();

/// Count a permanently failed shot by classified error code.
void recordShotFailure(ErrorCode code) noexcept;
[[nodiscard]] std::uint64_t shotFailureCount(ErrorCode code) noexcept;

// -- snapshot & reports -------------------------------------------------------

/// A point-in-time copy of every registered metric, cheap enough to take
/// per request: the service's metrics endpoint and per-request deltas are
/// built from two of these, and tests assert on diffs instead of absolute
/// process-lifetime totals.
struct Snapshot {
  struct Scalar {
    std::string name;
    std::uint64_t value = 0;
    /// Counters are monotonic (diff subtracts); gauges are high-watermarks
    /// (diff keeps the later value).
    bool monotonic = true;
  };
  struct Hist {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sumNs = 0;
  };
  std::vector<Scalar> scalars; // counters then gauges, registration order
  std::vector<Hist> histograms;

  /// Value of a scalar by dotted name; 0 when absent.
  [[nodiscard]] std::uint64_t value(std::string_view name) const noexcept;
};

/// Copy the registry's current values (one relaxed load per metric).
[[nodiscard]] Snapshot snapshot();

/// Per-metric delta `after - before`: counters and histogram counts/sums
/// subtract (metrics absent in \p before count from zero); gauges keep the
/// \p after value, since a high-watermark cannot be meaningfully
/// subtracted. Metrics absent in \p after are dropped.
[[nodiscard]] Snapshot diff(const Snapshot& before, const Snapshot& after);

/// Flat JSON rendering of a snapshot — {"vm.cache.hits":3,...} plus
/// "<name>.count"/"<name>.sum_ns" per histogram — used for the service's
/// per-request metrics deltas. Zero-valued entries are omitted so a
/// request's delta stays proportional to what it actually did.
[[nodiscard]] std::string snapshotJson(const Snapshot& snap);

/// Value of a registered counter/gauge by dotted name; 0 when the metric
/// has not been registered (nothing linked in / nothing ran).
[[nodiscard]] std::uint64_t counterValue(std::string_view name) noexcept;
/// Registered (or stage) histogram by name; nullptr when absent.
[[nodiscard]] const LatencyHistogram* findHistogram(std::string_view name) noexcept;

/// Every registered metric of the given kind, in registration order.
/// For exporters (Prometheus text exposition) that need bucket-level or
/// per-label data a Snapshot does not carry. Pointers refer to
/// static-storage metrics and never dangle.
[[nodiscard]] std::vector<const LatencyHistogram*> allHistograms();
[[nodiscard]] std::vector<const LabeledCounter*> allLabeledCounters();
[[nodiscard]] std::vector<const LabeledHistogram*> allLabeledHistograms();

/// The versioned machine-readable report (see README "Observability" for
/// the schema): dotted metric names become nested objects, plus the
/// "passes" array, the "shots.failure_counts" object and the "stages"
/// object, which maps each registered stage that ran to its latency
/// histogram. \p command labels the producing subcommand ("run",
/// "bench:execute", ...).
[[nodiscard]] std::string statsJson(std::string_view command);

/// Human-readable rendering of the same data.
[[nodiscard]] std::string statsText();

/// Minimal JSON string escaping (used by the trace writer and the bench
/// harness as well).
[[nodiscard]] std::string jsonEscape(std::string_view s);

} // namespace qirkit::telemetry
