// Shared bench harness: runs Google Benchmark with the normal console
// output and additionally writes a machine-readable BENCH_<name>.json
// artifact into the working directory (or into $QIRKIT_BENCH_DIR when
// set), so CI can collect and diff benchmark results across runs. A run
// that ran no benchmark (--benchmark_list_tests, a filter matching
// nothing) writes no artifact, so it never truncates a committed one.
//
// The artifact schema is versioned independently of the --stats schema:
//   { "schema_version": 1, "tool": "qirkit-bench", "bench": "<name>",
//     "benchmarks": [ { "name", "iterations", "real_time_ns",
//                       "cpu_time_ns", "counters": {...} }, ... ],
//     "telemetry": {...} }            // only with QIRKIT_BENCH_TELEMETRY=1
//
// Telemetry stays at its default (disabled) unless QIRKIT_BENCH_TELEMETRY=1,
// so measured numbers reflect the production probe cost.
#pragma once

#include "support/telemetry/telemetry.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace qirkit::bench {

inline constexpr int kBenchSchemaVersion = 1;

namespace detail {

struct RunRecord {
  std::string name;
  std::int64_t iterations = 0;
  double realTimeNs = 0;
  double cpuTimeNs = 0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Console reporter that also collects per-iteration run records.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      RunRecord rec;
      rec.name = run.benchmark_name();
      rec.iterations = static_cast<std::int64_t>(run.iterations);
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      rec.realTimeNs = run.real_accumulated_time * 1e9 / iters;
      rec.cpuTimeNs = run.cpu_accumulated_time * 1e9 / iters;
      for (const auto& [counterName, counter] : run.counters) {
        rec.counters.emplace_back(counterName, counter.value);
      }
      records.push_back(std::move(rec));
    }
  }

  std::vector<RunRecord> records;
};

inline std::string formatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

inline std::string recordsJson(const char* benchName,
                               const std::vector<RunRecord>& records,
                               bool withTelemetry) {
  std::string out = "{\"schema_version\":" + std::to_string(kBenchSchemaVersion) +
                    ",\"tool\":\"qirkit-bench\",\"bench\":\"" +
                    telemetry::jsonEscape(benchName) + "\",\"benchmarks\":[";
  bool first = true;
  for (const RunRecord& rec : records) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"name\":\"" + telemetry::jsonEscape(rec.name) +
           "\",\"iterations\":" + std::to_string(rec.iterations) +
           ",\"real_time_ns\":" + formatDouble(rec.realTimeNs) +
           ",\"cpu_time_ns\":" + formatDouble(rec.cpuTimeNs) + ",\"counters\":{";
    bool firstCounter = true;
    for (const auto& [name, value] : rec.counters) {
      if (!firstCounter) {
        out += ",";
      }
      firstCounter = false;
      out += "\"" + telemetry::jsonEscape(name) + "\":" + formatDouble(value);
    }
    out += "}}";
  }
  out += "]";
  if (withTelemetry) {
    out += ",\"telemetry\":" + telemetry::statsJson("bench");
  }
  out += "}\n";
  return out;
}

} // namespace detail

/// Drop-in replacement for the Initialize/RunSpecifiedBenchmarks tail of a
/// bench main(): runs the registered benchmarks and, when any ran, writes
/// BENCH_<benchName>.json. Returns the process exit code.
inline int runAndReport(int* argc, char** argv, const char* benchName) {
  const char* telemetryEnv = std::getenv("QIRKIT_BENCH_TELEMETRY");
  const bool withTelemetry =
      telemetryEnv != nullptr && telemetryEnv[0] != '\0' &&
      std::string(telemetryEnv) != "0";
  if (withTelemetry) {
    telemetry::setEnabled(true);
  }

  benchmark::Initialize(argc, argv);
  if (benchmark::ReportUnrecognizedArguments(*argc, argv)) {
    return 1;
  }
  detail::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (reporter.records.empty()) {
    return 0;
  }

  std::string dir = ".";
  if (const char* env = std::getenv("QIRKIT_BENCH_DIR");
      env != nullptr && env[0] != '\0') {
    dir = env;
  }
  const std::string path = dir + "/BENCH_" + benchName + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << detail::recordsJson(benchName, reporter.records, withTelemetry);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "warning: could not write bench artifact %s\n",
                 path.c_str());
    return 0; // artifact failure must not fail the bench itself
  }
  std::fprintf(stderr, "bench artifact: %s\n", path.c_str());
  return 0;
}

} // namespace qirkit::bench
