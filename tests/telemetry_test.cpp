/// Telemetry layer tests: probe gating (disabled probes record nothing
/// and change no program output), counter/gauge/histogram semantics, the
/// compile-cache counters agreeing with CompileCache's own observable
/// Stats across repeated runShots batches, pass records, the versioned
/// --stats JSON report, and Spans feeding their three sinks: stage
/// histograms, the Chrome trace-event writer and request traces.
#include "circuit/generators.hpp"
#include "ir/parser.hpp"
#include "passes/pass.hpp"
#include "qir/compile.hpp"
#include "qir/exporter.hpp"
#include "sim/statevector.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/request_trace.hpp"
#include "support/telemetry/telemetry.hpp"
#include "vm/cache.hpp"
#include "vm/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace qirkit {
namespace {

/// The "count" of \p stage in a statsJson report's stages section; 0 when
/// the stage is absent (it did not run).
std::uint64_t stageCount(const std::string& json, const std::string& stage) {
  const std::size_t section = json.find("\"stages\":{");
  if (section == std::string::npos) {
    return 0;
  }
  const std::string key = "\"" + stage + "\":{\"count\":";
  const std::size_t at = json.find(key, section);
  return at == std::string::npos ? 0 : std::stoull(json.substr(at + key.size()));
}

/// Contents of a file; empty when it cannot be read.
std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Number of Chrome events named \p name in a trace file's contents.
std::size_t chromeEvents(const std::string& content, const std::string& name) {
  const std::string key = "{\"name\":\"" + name + "\"";
  std::size_t n = 0;
  for (std::size_t at = content.find(key); at != std::string::npos;
       at = content.find(key, at + key.size())) {
    ++n;
  }
  return n;
}

/// Every test runs with a clean, enabled registry and a clean global
/// compile cache, and leaves telemetry disabled (the process default).
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    vm::CompileCache::global().clear();
    vm::CompileCache::global().setCapacity(vm::CompileCache::kDefaultCapacity);
    telemetry::setEnabled(true);
    telemetry::resetAll();
  }
  void TearDown() override {
    telemetry::resetAll();
    telemetry::setEnabled(false);
    vm::CompileCache::global().clear();
    vm::CompileCache::global().setCapacity(vm::CompileCache::kDefaultCapacity);
  }
};

TEST_F(TelemetryTest, DisabledProbesRecordNothing) {
  telemetry::setEnabled(false);
  static telemetry::Counter counter{"test.disabled.counter"};
  static telemetry::MaxGauge gauge{"test.disabled.gauge"};
  static telemetry::LatencyHistogram hist{"test.disabled.hist"};
  static telemetry::Stage stage{"test.disabled.stage"};
  counter.add(7);
  gauge.updateMax(42);
  hist.record(1000);
  {
    telemetry::Span span(stage);
    EXPECT_EQ(span.startNs(), 0U); // inert: no clock read
  }
  EXPECT_EQ(counter.value(), 0U);
  EXPECT_EQ(gauge.value(), 0U);
  EXPECT_EQ(hist.count(), 0U);
  EXPECT_EQ(stage.histogram()->count(), 0U);
}

TEST_F(TelemetryTest, CounterGaugeHistogramSemantics) {
  static telemetry::Counter counter{"test.counter"};
  static telemetry::MaxGauge gauge{"test.gauge"};
  static telemetry::LatencyHistogram hist{"test.hist"};
  counter.reset();
  gauge.reset();
  hist.reset();

  counter.add();
  counter.add(9);
  EXPECT_EQ(counter.value(), 10U);
  EXPECT_EQ(telemetry::counterValue("test.counter"), 10U);

  gauge.updateMax(5);
  gauge.updateMax(3); // lower value must not overwrite the high-watermark
  EXPECT_EQ(gauge.value(), 5U);

  hist.record(3);    // bucket [2,4)
  hist.record(1000); // bucket [512, 1024)... -> [2^9, 2^10)
  hist.record(1500);
  EXPECT_EQ(hist.count(), 3U);
  EXPECT_EQ(hist.sum(), 2503U);
  EXPECT_EQ(hist.min(), 3U);
  EXPECT_EQ(hist.max(), 1500U);
  EXPECT_EQ(hist.bucketCount(1), 1U);
  // Quantiles are bucket upper bounds, clamped to the observed max.
  EXPECT_GE(hist.quantileNs(0.99), 1500U);
  ASSERT_NE(telemetry::findHistogram("test.hist"), nullptr);
  EXPECT_EQ(telemetry::findHistogram("test.hist")->count(), 3U);
}

TEST_F(TelemetryTest, CacheCountersMatchObservableCacheStats) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  vm::ShotOptions opts;
  opts.shots = 5;
  opts.engine = vm::Engine::Vm;

  const auto before = vm::CompileCache::global().stats();
  const auto first = vm::runShots(*m, opts);
  const auto second = vm::runShots(*m, opts);
  const auto after = vm::CompileCache::global().stats();

  // The batches themselves observed one miss then one hit.
  EXPECT_EQ(first.cacheMisses, 1U);
  EXPECT_EQ(second.cacheHits, 1U);
  // Telemetry counters agree with the cache's own Stats delta.
  EXPECT_EQ(telemetry::counterValue("vm.cache.misses"), after.misses - before.misses);
  EXPECT_EQ(telemetry::counterValue("vm.cache.hits"), after.hits - before.hits);
  EXPECT_EQ(telemetry::counterValue("vm.cache.misses"), 1U);
  EXPECT_EQ(telemetry::counterValue("vm.cache.hits"), 1U);
  EXPECT_EQ(telemetry::counterValue("vm.cache.evictions"), 0U);
  // Compilation happened exactly once across both batches; the
  // executor's compile stage ran for each.
  const std::string json = telemetry::statsJson("test");
  EXPECT_EQ(stageCount(json, "vm.compile"), 1U);
  EXPECT_EQ(stageCount(json, "compile"), 2U);
}

TEST_F(TelemetryTest, EvictionCountersMatchAtCapacityOne) {
  vm::CompileCache::global().setCapacity(1);
  ir::Context ctx;
  const auto bell = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  const auto ghz = qir::exportCircuit(ctx, circuit::ghz(3, true), {});
  vm::ShotOptions opts;
  opts.shots = 2;
  opts.engine = vm::Engine::Vm;

  (void)vm::runShots(*bell, opts); // miss, insert
  (void)vm::runShots(*ghz, opts);  // miss, evicts bell
  (void)vm::runShots(*bell, opts); // miss again (was evicted), evicts ghz

  const auto stats = vm::CompileCache::global().stats();
  EXPECT_EQ(vm::CompileCache::global().size(), 1U);
  EXPECT_EQ(stats.evictions, 2U);
  EXPECT_EQ(telemetry::counterValue("vm.cache.evictions"), stats.evictions);
  EXPECT_EQ(telemetry::counterValue("vm.cache.misses"), stats.misses);
  EXPECT_EQ(telemetry::counterValue("vm.cache.hits"), stats.hits);
}

TEST_F(TelemetryTest, DisabledTelemetryChangesNoProgramOutput) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(3, true), {});
  vm::ShotOptions opts;
  opts.shots = 50;
  opts.seed = 11;
  // Pin per-shot resim: the per-shot latency histogram asserted below is
  // only fed by that path (the sampling fast path runs one simulation).
  opts.execMode = vm::ExecMode::Resim;

  const auto withTelemetry = vm::runShots(*m, opts);
  telemetry::setEnabled(false);
  vm::CompileCache::global().clear();
  const auto without = vm::runShots(*m, opts);

  EXPECT_EQ(withTelemetry.histogram, without.histogram);
  EXPECT_EQ(withTelemetry.completedShots, without.completedShots);
  // And nothing was recorded while disabled: the shot counters still show
  // only the first (enabled) batch.
  EXPECT_EQ(telemetry::counterValue("shots.completed"), 50U);
  const auto* hist = telemetry::findHistogram("shots.latency_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 50U);
}

TEST_F(TelemetryTest, ShotHistogramAndFailureCounters) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  vm::ShotOptions opts;
  opts.shots = 20;
  opts.execMode = vm::ExecMode::Resim; // per-shot latency needs resim
  (void)vm::runShots(*m, opts);

  const auto* hist = telemetry::findHistogram("shots.latency_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 20U);
  EXPECT_GT(hist->sum(), 0U);
  EXPECT_LE(hist->min(), hist->max());

  telemetry::recordShotFailure(ErrorCode::TrapOutOfBounds);
  telemetry::recordShotFailure(ErrorCode::TrapOutOfBounds);
  EXPECT_EQ(telemetry::shotFailureCount(ErrorCode::TrapOutOfBounds), 2U);
  EXPECT_EQ(telemetry::shotFailureCount(ErrorCode::Trap), 0U);
}

TEST_F(TelemetryTest, KernelCountersSurfaceInStatsJson) {
  // The statevector's swept kernels feed sim.kernel.*: a multi-chunk
  // fused run of several gates bumps blocked_sweeps (a single gate or a
  // single-chunk run takes per-gate passes and doesn't count), and an
  // admitted f32 batch bumps f32_batches once. Both must come out of the
  // --stats JSON report.
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(4, true), {});
  vm::ShotOptions opts;
  opts.shots = 4;
  opts.engine = vm::Engine::Vm;
  opts.precision = sim::Precision::F32;
  (void)vm::runShots(*m, opts);

  sim::StateVector sv(13); // one chunk is 2^12 amplitudes -> two chunks
  sim::SweepGate gates[2];
  for (unsigned q = 0; q < 2; ++q) {
    gates[q].kind = sim::SweepGate::Kind::Unitary1;
    gates[q].q0 = q;
    gates[q].m2 = sim::gateH();
  }
  sv.applyFusedSweep(gates);
  const std::uint64_t blocked =
      telemetry::counterValue("sim.kernel.blocked_sweeps");
  sv.applyFusedSweep({gates, 1}); // one gate: a per-gate pass
  EXPECT_EQ(telemetry::counterValue("sim.kernel.blocked_sweeps"), blocked);

  EXPECT_GT(blocked, 0U);
  EXPECT_EQ(telemetry::counterValue("sim.kernel.f32_batches"), 1U);
  const std::string json = telemetry::statsJson("test");
  EXPECT_NE(json.find("\"blocked_sweeps\""), std::string::npos);
  // Why gates stayed plain calls, one counter per reason.
  EXPECT_NE(json.find("\"unfused\":{\"dynamic_qubit\":"), std::string::npos);
  EXPECT_NE(json.find("\"f32_batches\":1"), std::string::npos);
}

TEST_F(TelemetryTest, PassRecordsAccumulateAcrossSweeps) {
  ir::Context ctx;
  auto module = ir::parseModule(ctx, R"(
define i64 @main() #0 {
entry:
  %a = add i64 2, 3
  %b = mul i64 %a, 4
  ret i64 %b
}
attributes #0 = { "entry_point" }
)");
  qir::transformDirect(*module);

  const auto records = telemetry::passRecords();
  ASSERT_FALSE(records.empty());
  bool sawSccp = false;
  for (const auto& rec : records) {
    EXPECT_GE(rec.invocations, 1U);
    if (rec.name == "sccp") {
      sawSccp = true;
      EXPECT_GE(rec.changes, 1U);
      EXPECT_LT(rec.irDelta, 0); // folding away the arithmetic shrinks the IR
    }
  }
  EXPECT_TRUE(sawSccp);
}

TEST_F(TelemetryTest, StatsJsonIsVersionedAndNested) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  vm::ShotOptions opts;
  opts.shots = 3;
  (void)vm::runShots(*m, opts);

  const std::string json = telemetry::statsJson("test");
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"tool\":\"qirkit\""), std::string::npos);
  EXPECT_NE(json.find("\"command\":\"test\""), std::string::npos);
  // Dotted names render as nesting: vm.cache.misses -> "vm":{"cache":{...}}.
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"misses\":1"), std::string::npos);
  EXPECT_NE(json.find("\"latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"passes\":["), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos); // single line for tail -1
  // The batch's stages, keyed by their full (dotted) names.
  for (const char* stage : {"compile", "vm.compile", "analyze", "execute"}) {
    EXPECT_EQ(stageCount(json, stage), 1U) << stage;
  }
  EXPECT_NE(json.find("\"vm.compile\":{\"count\":1,\"sum_ns\":"),
            std::string::npos);

  const std::string text = telemetry::statsText();
  EXPECT_NE(text.find("qirkit telemetry"), std::string::npos);
  EXPECT_NE(text.find("vm.cache.misses"), std::string::npos);
  EXPECT_NE(text.find("stages.compile: count=1 "), std::string::npos);
}

TEST_F(TelemetryTest, QuantileEdgeCases) {
  // Empty histogram: every quantile answers 0, not a bucket bound.
  telemetry::LatencyHistogram empty("test.quantile.empty",
                                    telemetry::Unregistered{});
  EXPECT_EQ(empty.quantileNs(0.5), 0U);
  EXPECT_EQ(empty.quantileNs(0.99), 0U);

  // Single sample: every quantile clamps to the one observed value,
  // not the bucket's upper bound (128 for a 100ns sample).
  telemetry::LatencyHistogram single("test.quantile.single",
                                     telemetry::Unregistered{});
  single.recordUnchecked(100);
  EXPECT_EQ(single.quantileNs(0.5), 100U);
  EXPECT_EQ(single.quantileNs(0.95), 100U);
  EXPECT_EQ(single.quantileNs(0.99), 100U);

  // Saturated top bucket: samples beyond the last bucket's range land in
  // bucket kBuckets-1; the quantile answers that bucket's bound rather
  // than overflowing or scanning past the array.
  telemetry::LatencyHistogram top("test.quantile.top",
                                  telemetry::Unregistered{});
  top.recordUnchecked(~std::uint64_t{0});
  top.recordUnchecked(~std::uint64_t{0});
  const std::uint64_t q = top.quantileNs(0.99);
  EXPECT_EQ(q, std::uint64_t{1}
                   << std::min<std::size_t>(telemetry::LatencyHistogram::kBuckets,
                                            63));
  EXPECT_EQ(top.count(), 2U);

  // Nearest rank ceil(p*n): with one outlier in 100 samples, p99 is the
  // 99th sample (the bulk's bucket bound), not the outlier.
  telemetry::LatencyHistogram tail("test.quantile.tail",
                                   telemetry::Unregistered{});
  for (int i = 0; i < 99; ++i) {
    tail.recordUnchecked(10);
  }
  tail.recordUnchecked(1'000'000);
  EXPECT_EQ(tail.quantileNs(0.99), 16U); // upper bound of bucket [8, 16)
  EXPECT_EQ(tail.quantileNs(1.0), 1'000'000U);

  // Two samples: the median is the smaller one's bucket, not the larger.
  telemetry::LatencyHistogram pair("test.quantile.pair",
                                   telemetry::Unregistered{});
  pair.recordUnchecked(10);
  pair.recordUnchecked(1'000'000);
  EXPECT_EQ(pair.quantileNs(0.5), 16U);
  EXPECT_EQ(pair.quantileNs(0.99), 1'000'000U);
}

TEST_F(TelemetryTest, StatsJsonCarriesP95) {
  static telemetry::LatencyHistogram hist{"test.p95.hist"};
  hist.record(1000);
  const std::string json = telemetry::statsJson("test");
  EXPECT_NE(json.find("\"p95_ns\":"), std::string::npos);
}

TEST_F(TelemetryTest, LabeledCounterBoundsCardinalityByEvictingLru) {
  static telemetry::LabeledCounter family{"test.labeled.counter", 2, "tenant"};
  family.reset();
  family.add("a");
  family.add("b");
  family.add("a", 4); // refreshes a: b is now least-recently-updated
  family.add("c");    // third label: evicts b
  EXPECT_EQ(family.value("a"), 5U);
  EXPECT_EQ(family.value("c"), 1U);
  EXPECT_EQ(family.value("b"), 0U); // evicted
  EXPECT_EQ(family.evictions(), 1U);
  EXPECT_EQ(family.values().size(), 2U);

  // A re-added evicted label starts from zero (history is gone).
  family.add("b");
  EXPECT_EQ(family.value("b"), 1U);
  EXPECT_EQ(family.evictions(), 2U);
}

TEST_F(TelemetryTest, LabeledCounterGatesOnEnabledFlag) {
  static telemetry::LabeledCounter family{"test.labeled.gated", 4, "tenant"};
  family.reset();
  telemetry::setEnabled(false);
  family.add("t");
  EXPECT_EQ(family.value("t"), 0U);
  EXPECT_TRUE(family.values().empty());
  telemetry::setEnabled(true);
  family.add("t");
  EXPECT_EQ(family.value("t"), 1U);
}

TEST_F(TelemetryTest, LabeledHistogramPerLabelQuantilesAndEviction) {
  static telemetry::LabeledHistogram family{"test.labeled.hist", 2, "tenant"};
  family.reset();
  family.record("a", 100);
  family.record("a", 200);
  family.record("b", 50);
  bool sawA = false;
  family.forEach([&](const std::string& label,
                     const telemetry::LatencyHistogram& h) {
    if (label == "a") {
      sawA = true;
      EXPECT_EQ(h.count(), 2U);
      EXPECT_EQ(h.quantileNs(0.99), 200U);
    }
  });
  EXPECT_TRUE(sawA);
  family.record("c", 10); // evicts a (least recently updated)
  EXPECT_EQ(family.evictions(), 1U);
  const std::vector<std::string> labels = family.labels();
  EXPECT_EQ(labels.size(), 2U);
  EXPECT_EQ(std::count(labels.begin(), labels.end(), "a"), 0);
  EXPECT_EQ(std::count(labels.begin(), labels.end(), "b"), 1);

  // Labeled families render as one leaf in the stats report, label
  // values never split by the dotted-name nesting.
  const std::string json = telemetry::statsJson("test");
  EXPECT_NE(json.find("\"labels\""), std::string::npos);
  EXPECT_NE(json.find("\"evicted\":1"), std::string::npos);
}

TEST_F(TelemetryTest, RequestTraceRecordsStagesRelativeToOrigin) {
  telemetry::RequestTrace trace("acme", "req-1");
  trace.addStage("admission", 5000, 50);
  trace.addStage("queue", 6000, 400);
  trace.addStage("execute", 7000, 900, "sample");
  const std::vector<telemetry::RequestStage> stages = trace.stages();
  ASSERT_EQ(stages.size(), 3U);
  EXPECT_EQ(stages[0].name, "admission");
  EXPECT_EQ(stages[2].note, "sample");

  const std::string json = trace.stagesJson();
  // start_ns is relative to the first recorded stage.
  EXPECT_NE(json.find("{\"stage\":\"admission\",\"start_ns\":0,\"dur_ns\":50}"),
            std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"queue\",\"start_ns\":1000"),
            std::string::npos);
  EXPECT_NE(json.find("\"note\":\"sample\""), std::string::npos);
}

TEST_F(TelemetryTest, RequestTraceEmitsTaggedChromeSpans) {
  static telemetry::Stage queue{"test.request.queue"};
  static telemetry::Stage execute{"test.request.execute"};
  const std::string path = ::testing::TempDir() + "/qirkit_reqtrace_test.json";
  std::remove(path.c_str());
  telemetry::trace::begin(path);
  telemetry::RequestTrace trace("acme", "req-9");
  // An interval measured elsewhere, then a Span: both end in all three
  // sinks.
  telemetry::recordStage(queue, 1000, 200, &trace);
  { const telemetry::Span span(execute, &trace, "resim"); }
  ASSERT_TRUE(telemetry::trace::flush());

  const std::string content = readFile(path);
  // One event per stage, named after the stage and tagged with args
  // carrying the note, the request id and the tenant.
  EXPECT_EQ(chromeEvents(content, "test.request.queue"), 1U);
  EXPECT_EQ(chromeEvents(content, "test.request.execute"), 1U);
  EXPECT_NE(content.find("\"args\":{\"note\":\"resim\",\"request_id\":"
                         "\"req-9\",\"tenant\":\"acme\"}"),
            std::string::npos);
  EXPECT_NE(content.find("\"args\":{\"request_id\":\"req-9\",\"tenant\":"
                         "\"acme\"}"),
            std::string::npos);
  const std::vector<telemetry::RequestStage> stages = trace.stages();
  ASSERT_EQ(stages.size(), 2U);
  EXPECT_EQ(stages[0].name, "test.request.queue");
  EXPECT_EQ(stages[0].durNs, 200U);
  EXPECT_EQ(stages[1].note, "resim");
  EXPECT_EQ(queue.histogram()->count(), 1U);
  EXPECT_EQ(execute.histogram()->count(), 1U);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, DisabledRequestTraceSpansStoreNothing) {
  // Nothing armed: the stage histogram and the Chrome buffer stay empty,
  // while the attached request trace records unconditionally (a serve
  // response returns its stages even under --no-telemetry).
  static telemetry::Stage stage{"test.request.disarmed"};
  telemetry::setEnabled(false);
  ASSERT_FALSE(telemetry::trace::enabled());
  telemetry::RequestTrace trace("t", "r");
  { const telemetry::Span span(stage, &trace, "hit"); }
  telemetry::recordStage(stage, 1, 2, &trace);
  EXPECT_EQ(stage.histogram()->count(), 0U);
  EXPECT_EQ(telemetry::trace::droppedEvents(), 0U);
  ASSERT_EQ(trace.stages().size(), 2U);
  EXPECT_EQ(trace.stages()[0].note, "hit");
}

TEST_F(TelemetryTest, JsonEscape) {
  EXPECT_EQ(telemetry::jsonEscape("plain"), "plain");
  EXPECT_EQ(telemetry::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(telemetry::jsonEscape("x\ny"), "x\\ny");
}

TEST_F(TelemetryTest, TraceWriterEmitsChromeEvents) {
  const std::string path = ::testing::TempDir() + "/qirkit_trace_test.json";
  std::remove(path.c_str());
  static telemetry::Stage outerStage{"outer.region"};
  telemetry::trace::begin(path);
  ASSERT_TRUE(telemetry::trace::enabled());
  {
    const telemetry::Span outer(outerStage);
    // An unregistered stage (a pass's) still reaches the Chrome trace.
    telemetry::Stage innerStage("inner.region", telemetry::Unregistered{});
    const telemetry::Span inner(innerStage);
  }
  ASSERT_TRUE(telemetry::trace::flush());
  EXPECT_FALSE(telemetry::trace::enabled());
  EXPECT_TRUE(telemetry::enabled()); // one word, two independent sinks

  const std::string content = readFile(path);
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"outer.region\""), std::string::npos);
  EXPECT_NE(content.find("\"inner.region\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, ChromeSinkAloneRecordsNoStatistics) {
  // QIRKIT_TRACE without --stats: Spans, pass runs included, reach the
  // Chrome trace while stage histograms and the passes record stay empty.
  static telemetry::Stage stage{"test.chrome.only"};
  const std::string path = ::testing::TempDir() + "/qirkit_chrome_only.json";
  std::remove(path.c_str());
  telemetry::setEnabled(false);
  telemetry::trace::begin(path);
  ASSERT_FALSE(telemetry::enabled());
  {
    const telemetry::Span span(stage, nullptr, "alone");
    EXPECT_NE(span.startNs(), 0U);
  }
  ir::Context ctx;
  auto module = ir::parseModule(ctx, R"(
define i64 @main() #0 {
entry:
  %a = add i64 2, 3
  ret i64 %a
}
attributes #0 = { "entry_point" }
)");
  qir::transformDirect(*module);
  ASSERT_TRUE(telemetry::trace::flush());

  const std::string content = readFile(path);
  EXPECT_EQ(chromeEvents(content, "test.chrome.only"), 1U);
  EXPECT_NE(content.find("\"args\":{\"note\":\"alone\"}"), std::string::npos);
  EXPECT_EQ(chromeEvents(content, "opt.pipeline"), 1U);
  EXPECT_GE(chromeEvents(content, "sccp"), 1U);
  EXPECT_EQ(stage.histogram()->count(), 0U);
  EXPECT_EQ(telemetry::findHistogram("opt.pipeline")->count(), 0U);
  EXPECT_TRUE(telemetry::passRecords().empty());
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, DisabledTraceSpansStoreNothing) {
  static telemetry::Stage stage{"never.recorded"};
  telemetry::setEnabled(false);
  ASSERT_FALSE(telemetry::trace::enabled());
  {
    telemetry::Span span(stage);
    EXPECT_EQ(span.end(), 0U);
  }
  EXPECT_EQ(telemetry::trace::droppedEvents(), 0U);
  EXPECT_EQ(stage.histogram()->count(), 0U);
}

TEST_F(TelemetryTest, PooledResimBatchFeedsEachStageOnceToEverySink) {
  // A feedback program on a 2-worker pool with every sink armed: the
  // stages Spans write from the calling thread (compile, analyze,
  // execute) and from pool threads (execute.chunk) at once.
  const std::string path = ::testing::TempDir() + "/qirkit_batch_trace.json";
  std::remove(path.c_str());
  telemetry::trace::begin(path);
  ir::Context ctx;
  const auto m =
      qir::exportCircuit(ctx, circuit::repetitionCodeCycle(0.3, 1), {});
  ThreadPool pool(2);
  telemetry::RequestTrace trace("acme", "req-pool");
  vm::ShotOptions opts;
  opts.shots = 64;
  opts.pool = &pool;
  opts.requestTrace = &trace;
  const vm::ShotBatchResult result = vm::runShots(*m, opts);
  ASSERT_TRUE(telemetry::trace::flush());
  EXPECT_FALSE(result.sampled);
  EXPECT_EQ(result.completedShots, 64U);

  const std::vector<telemetry::RequestStage> stages = trace.stages();
  ASSERT_EQ(stages.size(), 3U);
  EXPECT_EQ(stages[0].name, "compile");
  EXPECT_EQ(stages[0].note, "miss");
  EXPECT_EQ(stages[1].name, "analyze");
  EXPECT_EQ(stages[1].note, "feedback");
  EXPECT_EQ(stages[2].name, "execute");
  EXPECT_EQ(stages[2].note, "resim");

  const std::string content = readFile(path);
  for (const char* stage : {"compile", "analyze", "execute"}) {
    EXPECT_EQ(chromeEvents(content, stage), 1U) << stage;
  }
  EXPECT_EQ(chromeEvents(content, "execute.chunk"), 2U);
  EXPECT_NE(content.find("\"request_id\":\"req-pool\""), std::string::npos);
  const std::string json = telemetry::statsJson("test");
  EXPECT_EQ(stageCount(json, "execute"), 1U);
  EXPECT_EQ(stageCount(json, "execute.chunk"), 2U);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, ResetAllZeroesEverything) {
  static telemetry::Counter counter{"test.reset.counter"};
  counter.add(3);
  telemetry::recordShotFailure(ErrorCode::Trap);
  telemetry::recordPassRun("some-pass", 10, true, 5, 4);
  telemetry::resetAll();
  EXPECT_EQ(counter.value(), 0U);
  EXPECT_EQ(telemetry::shotFailureCount(ErrorCode::Trap), 0U);
  EXPECT_TRUE(telemetry::passRecords().empty());
}

TEST_F(TelemetryTest, SnapshotCapturesRegisteredProbes) {
  static telemetry::Counter counter{"test.snap.counter"};
  static telemetry::MaxGauge gauge{"test.snap.gauge"};
  static telemetry::LatencyHistogram hist{"test.snap.hist"};
  static telemetry::Stage stage{"test.snap.stage"};
  counter.add(7);
  gauge.updateMax(41);
  hist.record(1000);
  hist.record(500);
  telemetry::recordStage(stage, 10, 700);

  const telemetry::Snapshot snap = telemetry::snapshot();
  EXPECT_EQ(snap.value("test.snap.counter"), 7U);
  EXPECT_EQ(snap.value("test.snap.gauge"), 41U);
  EXPECT_EQ(snap.value("test.never.registered"), 0U);
  bool foundHist = false;
  bool foundStage = false;
  for (const telemetry::Snapshot::Hist& h : snap.histograms) {
    if (h.name == "test.snap.hist") {
      foundHist = true;
      EXPECT_EQ(h.count, 2U);
      EXPECT_EQ(h.sumNs, 1500U);
    }
    if (h.name == "test.snap.stage") { // a stage histogram, by stage name
      foundStage = true;
      EXPECT_EQ(h.count, 1U);
      EXPECT_EQ(h.sumNs, 700U);
    }
  }
  EXPECT_TRUE(foundHist);
  EXPECT_TRUE(foundStage);
  EXPECT_NE(telemetry::snapshotJson(snap).find("\"test.snap.stage.sum_ns\":700"),
            std::string::npos);
  EXPECT_EQ(telemetry::findHistogram("test.snap.stage"), stage.histogram());
  const std::vector<const telemetry::LatencyHistogram*> all =
      telemetry::allHistograms();
  EXPECT_NE(std::find(all.begin(), all.end(), stage.histogram()), all.end());
}

TEST_F(TelemetryTest, DiffIsolatesOneRequestsActivity) {
  static telemetry::Counter counter{"test.diff.counter"};
  static telemetry::MaxGauge gauge{"test.diff.gauge"};
  static telemetry::LatencyHistogram hist{"test.diff.hist"};
  counter.add(10);
  gauge.updateMax(5);
  hist.record(100);

  const telemetry::Snapshot before = telemetry::snapshot();
  counter.add(3);
  gauge.updateMax(9);
  hist.record(250);
  const telemetry::Snapshot delta =
      telemetry::diff(before, telemetry::snapshot());

  // Monotonic scalars subtract; gauges report the current high-water mark.
  EXPECT_EQ(delta.value("test.diff.counter"), 3U);
  EXPECT_EQ(delta.value("test.diff.gauge"), 9U);
  for (const telemetry::Snapshot::Hist& h : delta.histograms) {
    if (h.name == "test.diff.hist") {
      EXPECT_EQ(h.count, 1U);
      EXPECT_EQ(h.sumNs, 250U);
    }
  }
}

TEST_F(TelemetryTest, DiffClampsBackwardCounters) {
  static telemetry::Counter counter{"test.diff.clamp"};
  counter.add(50);
  const telemetry::Snapshot before = telemetry::snapshot();
  // A reset between snapshots makes the counter go backwards; the delta
  // must report the post-reset value, never an underflowed wraparound.
  counter.reset();
  counter.add(2);
  const telemetry::Snapshot delta =
      telemetry::diff(before, telemetry::snapshot());
  EXPECT_EQ(delta.value("test.diff.clamp"), 2U);
}

TEST_F(TelemetryTest, SnapshotJsonOmitsZeroProbes) {
  static telemetry::Counter hot{"test.json.hot"};
  static telemetry::Counter cold{"test.json.cold"};
  static telemetry::LatencyHistogram hist{"test.json.hist"};
  hot.add(4);
  hist.record(2000);
  (void)cold;

  const std::string json = telemetry::snapshotJson(telemetry::snapshot());
  EXPECT_NE(json.find("\"test.json.hot\":4"), std::string::npos);
  EXPECT_EQ(json.find("test.json.cold"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist.count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist.sum_ns\":2000"), std::string::npos);
}

} // namespace
} // namespace qirkit
