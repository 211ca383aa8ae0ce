/// \file bench_pipeline.cpp
/// The repository's end-to-end benchmark. It drives the real `qirkit`
/// binary — one process per `run` or `compile` operation, or one
/// `qirkit serve` daemon under open-loop load — checks every answer
/// against an independent reference, and prints every metric by name and
/// unit. A separate traced run attributes the time to the repository's
/// modules by replaying each operation's public calls in a fresh process.
///
///   bench_pipeline --workload <name|all> --seed N --seconds S --trace 0|1
///                  [--out FILE.jsonl] [--chrome FILE.json]
///   bench_pipeline --smoke        every workload for about a second each;
///                                 exits 1 on any failed check
///   bench_pipeline replay ...     internal: see replay.cpp
///
/// The last line of stdout is one JSON object:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
/// See README.md for the workloads, the metrics and their bounds.
#include "pipeline.hpp"

#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "support/telemetry/telemetry.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

namespace qirkit::bench::pipeline {
namespace {

namespace fs = std::filesystem;
namespace json = service::json;

// -- metric tables ------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_ms", "ms"},
    {"cpu_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics. Times (ms) are per operation; counts are summed over
/// a workload's programs (sim.qubits: the widest).
constexpr MetricDef kPerLayer[] = {
    {"ir.parse_ms", "ms"},
    {"qasm.parse_ms", "ms"},
    {"qir.export_ms", "ms"},
    {"passes.transform_ms", "ms"},
    {"qir.import_ms", "ms"},
    {"circuit.optimize_ms", "ms"},
    {"circuit.map_ms", "ms"},
    {"qir.profile_ms", "ms"},
    {"ir.print_ms", "ms"},
    {"vm.compile_ms", "ms"},
    {"vm.cache_hit_ms", "ms"},
    {"vm.analyze_ms", "ms"},
    {"vm.exec_ms", "ms"},
    {"runtime.shots_ms", "ms"},
    {"sim.resim_ms", "ms"},
    {"sim.simulate_ms", "ms"},
    {"sim.sample_ms", "ms"},
    {"process.spawn_ms", "ms"},
    {"process.io_ms", "ms"},
    {"process.teardown_ms", "ms"},
    {"process.unattributed_ms", "ms"},
    {"service.admission_ms", "ms"},
    {"service.queue_ms", "ms"},
    {"service.compile_hit_ms", "ms"},
    {"service.compile_miss_ms", "ms"},
    {"service.analyze_ms", "ms"},
    {"service.execute_ms", "ms"},
    {"service.rtt_unattributed_ms", "ms"},
    {"service.parse_request_ms", "ms"},
    {"service.telemetry_delta_ms", "ms"},
    {"service.req_p90_ms", "ms"},
    {"service.req_p99_ms", "ms"},
    {"service.gen_late_p90_ms", "ms"},
    {"ir.instructions", "count"},
    {"passes.instructions_after", "count"},
    {"passes.sweeps", "count"},
    {"circuit.gates", "count"},
    {"circuit.swaps", "count"},
    {"vm.bytecode_instrs", "count"},
    {"vm.fused_blocks", "count"},
    {"vm.fused_sweeps", "count"},
    {"vm.instr_per_shot", "count"},
    {"runtime.gates_per_shot", "count"},
    {"exec.sampled", "count"},
    {"sim.qubits", "count"},
    {"sim.bytes_moved_computed", "bytes"},
    {"service.cache_evictions", "count"},
    {"service.registry_evictions", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.registry_hit_ratio", "ratio"},
};

/// A layer a workload's route never enters is reported as the cost of an
/// empty span (one clock pair), the same rule the replay applies, so
/// every per-layer value is a measurement rather than a constant.
double emptySpanMs() {
  const Clock::time_point t0 = Clock::now();
  return msBetween(t0, Clock::now());
}

/// JSON has no infinity: a latency that failed requests pushed to +inf
/// prints as 1e300.
std::string number(double v) {
  char buf[40];
  if (!std::isfinite(v)) {
    return std::isnan(v) ? "0" : "1e300";
  }
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string quoted(const std::string& s) {
  return "\"" + telemetry::jsonEscape(s) + "\"";
}

// -- results ------------------------------------------------------------------

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems; // setup problems and failed checks
  std::map<std::string, double> metrics;
  /// Per-program (CLI) or per-group (serve) breakdown for --out.
  std::map<std::string, std::map<std::string, double>> programs;
  std::string chromeEvents; // comma-separated trace events (--trace 1)

  [[nodiscard]] bool correct() const { return failed == 0 && problems.empty(); }

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 20) {
      problems.push_back(why);
    }
  }

  /// The result line, metrics named "<prefix><metric>".
  [[nodiscard]] std::string line(bool trace) const {
    return "{\"correct\":" + std::string(correct() ? "true" : "false") +
           ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(attempted, 1)) +
           ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{" +
           metricsJson(trace, "") + "}}";
  }

  /// Every metric of the table, as comma-separated JSON members.
  [[nodiscard]] std::string metricsJson(bool trace, const std::string& prefix) const {
    std::ostringstream out;
    bool first = true;
    const auto emit = [&](const MetricDef& m) {
      const auto it = metrics.find(m.name);
      const double v = it != metrics.end()          ? it->second
                       : std::string(m.unit) == "ms" ? emptySpanMs()
                                                     : 0.0;
      out << (first ? "" : ",") << quoted(prefix + m.name) << ":{\"value\":" << number(v)
          << ",\"unit\":" << quoted(m.unit) << "}";
      first = false;
    };
    if (trace) {
      std::for_each(std::begin(kPerLayer), std::end(kPerLayer), emit);
    } else {
      std::for_each(std::begin(kEndToEnd), std::end(kEndToEnd), emit);
    }
    return out.str();
  }
};

struct Env {
  std::string qirkit; // the CLI under test
  std::string self;   // this binary, for replays
  std::string work;   // scratch directory, removed at exit
  Launcher* launcher; // spawns every measured child
};

// -- CLI workloads ------------------------------------------------------------

std::vector<std::string> cliArgs(const Env& env, const Program& p,
                                 const std::string& outPath) {
  if (p.kind == OpKind::Run) {
    return {env.qirkit, "run", p.file, "--shots", std::to_string(p.shots), "--seed",
            std::to_string(p.shotSeed)};
  }
  return {env.qirkit, "compile", p.file, "--target", p.target, "-o", outPath};
}

/// One checked CLI invocation: a non-zero exit or an answer that differs
/// from the reference by one byte is a failure.
ChildRun invoke(const Env& env, const Program& p, Result& result) {
  const std::string base = env.work + "/" + p.name;
  const std::string out = base + ".out";
  const ChildRun run =
      p.kind == OpKind::Run
          ? env.launcher->run(cliArgs(env, p, out), out, base + ".err")
          : env.launcher->run(cliArgs(env, p, out), base + ".stdout", base + ".err");
  ++result.attempted;
  if (!run.spawned || run.exitCode != 0) {
    result.fail(p.name + ": qirkit exited with " + std::to_string(run.exitCode) + ": " +
                readFile(base + ".err"));
  } else if (readFile(out) != p.expected) {
    result.fail(p.name + ": output differs from the reference");
  }
  return run;
}

/// The quantile of each program's samples that wall_ms and cpu_ms report
/// on the CLI workloads. Other tenants of a shared host only ever add
/// time, and in busy periods they slow a varying share of the
/// invocations by up to 2x, which moves the median between the two
/// speeds; the 10th percentile stays at the program's own cost while a
/// tenth of the window runs at full speed. README.md has the measurements.
constexpr double kCliQuantile = 0.1;

void timedCli(const Env& env, const Corpus& corpus, double seconds, Result& result) {
  for (const Program& p : corpus.programs) {
    (void)invoke(env, p, result); // warm the page cache, check once
  }
  std::map<std::string, std::vector<double>> wall;
  std::map<std::string, std::vector<double>> cpu;
  double peakRss = 0;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; Clock::now() < end; ++i) {
    const Program& p = corpus.programs[i % corpus.programs.size()];
    const ChildRun run = invoke(env, p, result);
    wall[p.name].push_back(run.wallMs);
    cpu[p.name].push_back(run.cpuMs);
    peakRss = std::max(peakRss, run.maxRssMb);
  }
  std::vector<double> wallLow;
  std::vector<double> cpuLow;
  for (const auto& [name, samples] : wall) {
    auto& row = result.programs[name];
    row["wall_p10_ms"] = quantile(samples, kCliQuantile);
    row["wall_p50_ms"] = median(samples);
    row["wall_p90_ms"] = quantile(samples, 0.9);
    row["cpu_p10_ms"] = quantile(cpu[name], kCliQuantile);
    row["cpu_p50_ms"] = median(cpu[name]);
    row["samples"] = static_cast<double>(samples.size());
    wallLow.push_back(row["wall_p10_ms"]);
    cpuLow.push_back(row["cpu_p10_ms"]);
  }
  result.metrics["wall_ms"] = geomean(wallLow);
  result.metrics["cpu_ms"] = geomean(cpuLow);
  result.metrics["peak_rss_mb"] = peakRss;
}

/// process.spawn_ms: `qirkit run` on an entry point that does nothing.
double spawnCost(const Env& env, Result& result) {
  Program empty;
  empty.name = "empty";
  empty.file = env.work + "/empty.ll";
  empty.shots = 1;
  empty.shotSeed = 1;
  writeFile(empty.file,
            "define void @main() #0 {\nentry:\n  ret void\n}\n"
            "attributes #0 = { \"entry_point\" }\n");
  empty.expected = runStdout(1, 0, 0, {{"", 1}});
  std::vector<double> walls;
  for (int i = 0; i < 21; ++i) {
    walls.push_back(invoke(env, empty, result).wallMs);
  }
  return median(walls);
}

struct ProgramTrace {
  std::vector<double> cliWall;
  std::map<std::string, std::vector<double>> layer; // per replay, summed by name
  std::vector<double> inPathTotal;
  std::vector<double> nullExec;
  std::map<std::string, double> counts;
};

/// Run one replay of \p p in a fresh process; returns false on failure.
bool replay(const Env& env, const Program& p, const std::string& host, Result& result,
            ReplayRecord& record) {
  const std::string base = env.work + "/" + p.name + ".replay";
  std::vector<std::string> args = {env.self,   "replay",   "--op",
                                   p.kind == OpKind::Run ? "run" : "compile",
                                   "--in",     p.file,     "--output",
                                   base + ".out", "--spans", base + ".spans",
                                   "--host",   host};
  if (p.kind == OpKind::Run) {
    args.insert(args.end(), {"--shots", std::to_string(p.shots), "--seed",
                             std::to_string(p.shotSeed)});
  } else {
    args.insert(args.end(), {"--target", p.target});
  }
  const ChildRun run = env.launcher->run(args, base + ".stdout", base + ".err");
  ++result.attempted;
  if (!run.spawned || run.exitCode != 0) {
    result.fail(p.name + ": replay exited with " + std::to_string(run.exitCode) + ": " +
                readFile(base + ".err"));
    return false;
  }
  if (host == "sim" && readFile(base + ".out") != p.expected) {
    result.fail(p.name + ": replay output differs from the CLI's");
    return false;
  }
  record = readReplayRecord(base + ".spans");
  return true;
}

void tracedCli(const Env& env, const Corpus& corpus, double seconds, Result& result) {
  const double spawnMs = spawnCost(env, result);
  std::map<std::string, ProgramTrace> traces;
  std::ostringstream chrome;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // trace.json keeps the first kChromeRounds rounds, which show every
  // program's shape; the medians use every round.
  constexpr std::size_t kChromeRounds = 3;
  int replayId = 0;
  const auto addEvents = [&](const ReplayRecord& record, const std::string& program,
                             const std::string& host, double launchUs) {
    if (replayId >= static_cast<int>(2 * kChromeRounds * corpus.programs.size())) {
      return;
    }
    ++replayId;
    for (const ReplayRecord::Span& s : record.spans) {
      chrome << (chrome.tellp() > 0 ? "," : "") << "{\"name\":" << quoted(s.name)
             << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << replayId
             << ",\"ts\":" << number(launchUs + static_cast<double>(s.startNs) / 1e3)
             << ",\"dur\":" << number(static_cast<double>(s.endNs - s.startNs) / 1e3)
             << ",\"args\":{\"program\":" << quoted(program)
             << ",\"host\":" << quoted(host) << "}}";
    }
  };
  // At least one full round, so every program has a trace.
  for (std::size_t i = 0; i < corpus.programs.size() || Clock::now() < end; ++i) {
    const Program& p = corpus.programs[i % corpus.programs.size()];
    ProgramTrace& t = traces[p.name];
    const ChildRun run = invoke(env, p, result);
    t.cliWall.push_back(run.wallMs);

    ReplayRecord record;
    double launchUs = msBetween(start, Clock::now()) * 1e3;
    if (!replay(env, p, "sim", result, record)) {
      continue;
    }
    addEvents(record, p.name, "sim", launchUs);
    std::map<std::string, double> sums;
    double total = 0;
    for (const ReplayRecord::Span& s : record.spans) {
      const double ms = static_cast<double>(s.endNs - s.startNs) / 1e6;
      sums[s.name] += ms;
      for (const StageName& stage : kReplayStages) {
        if (s.name == stage.name && stage.inPath) {
          total += ms;
        }
      }
    }
    for (const auto& [name, ms] : sums) {
      t.layer[name].push_back(ms);
    }
    t.inPathTotal.push_back(total);
    t.counts = record.counts;

    if (p.kind == OpKind::Run) {
      launchUs = msBetween(start, Clock::now()) * 1e3;
      if (replay(env, p, "null", result, record)) {
        addEvents(record, p.name, "null", launchUs);
        for (const ReplayRecord::Span& s : record.spans) {
          if (s.name == "vm.exec") {
            t.nullExec.push_back(static_cast<double>(s.endNs - s.startNs) / 1e6);
          }
        }
      }
    }
  }

  std::map<std::string, std::vector<double>> perLayer; // over programs
  std::map<std::string, double> counts;
  for (auto& [name, t] : traces) {
    auto& row = result.programs[name];
    for (const auto& [layer, samples] : t.layer) {
      row[layer + "_ms"] = median(samples);
    }
    if (!t.nullExec.empty()) {
      row["vm.exec_ms"] = median(t.nullExec);
    }
    row["sim.resim_ms"] = t.counts["exec.sampled"] == 0 && !t.nullExec.empty()
                              ? row["runtime.shots_ms"] - row["vm.exec_ms"]
                              : row["runtime.shots_ms"];
    row["process.spawn_ms"] = spawnMs;
    row["cli_wall_ms"] = median(t.cliWall);
    row["process.unattributed_ms"] = row["cli_wall_ms"] - spawnMs - median(t.inPathTotal);
    row["unattributed_share"] = row["process.unattributed_ms"] / row["cli_wall_ms"];
    row["replays"] = static_cast<double>(t.inPathTotal.size());
    for (const auto& [key, value] : row) {
      perLayer[key].push_back(value);
    }
    for (const auto& [key, value] : t.counts) {
      row[key] = value;
      counts[key] = key == "sim.qubits" ? std::max(counts[key], value) : counts[key] + value;
    }
  }
  for (const MetricDef& m : kPerLayer) {
    if (std::string(m.unit) == "ms" && perLayer.count(m.name) != 0) {
      const std::vector<double>& v = perLayer[m.name];
      result.metrics[m.name] = std::accumulate(v.begin(), v.end(), 0.0) /
                               static_cast<double>(v.size());
    } else if (counts.count(m.name) != 0) {
      result.metrics[m.name] = counts[m.name];
    }
  }
  result.chromeEvents = chrome.str();
}

// -- serve_mix ----------------------------------------------------------------

/// Submit each catalogue program inline once: the daemon parses, compiles
/// and registers it, and its content id becomes the program_ref the
/// schedule's resubmissions use.
void registerCatalogue(Daemon& daemon, Corpus& corpus) {
  service::Client client(daemon.socket());
  for (ServeProgram& p : corpus.catalogue) {
    service::SubmitRequest submit;
    submit.tenant = "setup";
    submit.program = p.text;
    submit.shots = p.shots;
    submit.seed = 1;
    const json::Value response = json::parse(client.call(service::submitRequestJson(submit)));
    const json::Value* id = response.find("program_id");
    if (id == nullptr || !id->isString()) {
      corpus.problems.push_back(p.name + ": registration failed");
      continue;
    }
    p.ref = id->string;
  }
  for (ServeRequest& r : corpus.schedule) {
    if (r.kind == ServeRequest::Kind::Ref) {
      service::SubmitRequest submit;
      submit.tenant = tenantName(r.connection);
      submit.programRef = corpus.catalogue[r.group].ref;
      submit.shots = corpus.catalogue[r.group].shots;
      submit.seed = r.seed;
      r.line = service::submitRequestJson(submit);
    }
  }
}

struct ServeSample {
  std::size_t group = 0;
  bool ok = false;
  double latencyMs = 0; // from the due time
  double lateMs = 0;    // send time - due time
  double rttMs = 0;     // send to response
  std::vector<std::pair<std::string, double>> stages; // stage[note] -> ms
};

/// Check one response against the reference; fills the sample's stages.
bool checkResponse(const std::string& line, const Histogram& expected, ServeSample& s,
                   std::string& why) {
  const json::Value response = json::parse(line);
  const json::Value* ok = response.find("ok");
  if (ok == nullptr || !ok->isBool() || !ok->boolean) {
    why = "not ok: " + line.substr(0, 200);
    return false;
  }
  Histogram got;
  if (const json::Value* h = response.find("histogram")) {
    for (const auto& [bits, count] : h->object) {
      got[bits] = static_cast<std::uint64_t>(count.number);
    }
  }
  if (got != expected) {
    why = "histogram differs from the reference";
    return false;
  }
  if (const json::Value* stages = response.find("stages")) {
    for (const json::Value& stage : stages->array) {
      const json::Value* name = stage.find("stage");
      const json::Value* note = stage.find("note");
      const json::Value* dur = stage.find("dur_ns");
      if (name == nullptr || dur == nullptr) {
        continue;
      }
      std::string key = name->string;
      if (key == "compile" && note != nullptr) {
        key = note->string == "miss" ? "compile_miss" : "compile_hit";
      }
      s.stages.emplace_back(key, dur->number / 1e6);
    }
  }
  return true;
}

void serveConnection(const std::string& socket, const Corpus& corpus, unsigned connection,
                     Clock::time_point t0, std::vector<ServeSample>& samples,
                     std::vector<std::string>& errors) {
  std::optional<service::Client> client;
  for (const ServeRequest& r : corpus.schedule) {
    if (r.connection != connection) {
      continue;
    }
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(r.dueS));
    std::this_thread::sleep_until(due);
    ServeSample s;
    s.group = r.group;
    const Clock::time_point sent = Clock::now();
    std::string why;
    try {
      if (!client) {
        client.emplace(socket);
      }
      const std::string response = client->call(r.line);
      const Clock::time_point done = Clock::now();
      s.latencyMs = msBetween(due, done);
      s.rttMs = msBetween(sent, done);
      s.ok = checkResponse(response, corpus.expected(r), s, why);
    } catch (const std::exception& e) {
      client.reset(); // reconnect for the next request
      why = e.what();
    }
    s.lateMs = msBetween(due, sent);
    if (!s.ok) {
      s.latencyMs = std::numeric_limits<double>::infinity(); // misses every limit
      errors.push_back("request " + r.line.substr(0, 80) + ": " + why);
    }
    samples.push_back(std::move(s));
  }
}

double metricsNumber(const json::Value& root, std::initializer_list<const char*> path) {
  const json::Value* v = &root;
  for (const char* key : path) {
    v = v->find(key);
    if (v == nullptr) {
      return 0;
    }
  }
  return v->number;
}

void serveWindow(Daemon& daemon, const Corpus& corpus, bool trace, Result& result) {
  constexpr unsigned kConnections = 4;
  {
    // Warm-up: every tenant touches every catalogue program once.
    for (unsigned c = 0; c < kConnections; ++c) {
      service::Client client(daemon.socket());
      for (std::size_t g = 0; g < corpus.catalogue.size(); ++g) {
        service::SubmitRequest submit;
        submit.tenant = tenantName(c);
        submit.programRef = corpus.catalogue[g].ref;
        submit.shots = corpus.catalogue[g].shots;
        submit.seed = 1;
        ServeSample s;
        std::string why;
        ++result.attempted;
        if (!checkResponse(client.call(service::submitRequestJson(submit)),
                           corpus.catalogue[g].expected.at(1), s, why)) {
          result.fail(corpus.catalogue[g].name + " warm-up: " + why);
        }
      }
    }
  }

  std::vector<std::vector<ServeSample>> samples(kConnections);
  std::vector<std::vector<std::string>> errors(kConnections);
  const double cpu0 = daemon.cpuMs();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        serveConnection(daemon.socket(), corpus, c, t0, samples[c], errors[c]);
      });
    }
  }
  const double cpuMs = daemon.cpuMs() - cpu0;

  std::vector<ServeSample> all;
  for (unsigned c = 0; c < kConnections; ++c) {
    all.insert(all.end(), samples[c].begin(), samples[c].end());
    for (const std::string& e : errors[c]) {
      result.fail(e);
    }
  }
  result.attempted += all.size();
  const std::size_t completed = static_cast<std::size_t>(
      std::count_if(all.begin(), all.end(), [](const ServeSample& s) { return s.ok; }));

  std::map<std::size_t, std::vector<double>> byGroup;
  std::vector<double> latency;
  std::vector<double> late;
  for (const ServeSample& s : all) {
    byGroup[s.group].push_back(s.latencyMs);
    latency.push_back(s.latencyMs);
    late.push_back(s.lateMs);
  }
  std::vector<double> p50;
  for (const auto& [group, samplesOfGroup] : byGroup) {
    const std::string name =
        group < corpus.catalogue.size() ? corpus.catalogue[group].name : "fresh";
    auto& row = result.programs[name];
    row["wall_ms"] = median(samplesOfGroup);
    row["wall_p90_ms"] = quantile(samplesOfGroup, 0.9);
    row["samples"] = static_cast<double>(samplesOfGroup.size());
    p50.push_back(row["wall_ms"]);
  }
  result.metrics["wall_ms"] = geomean(p50);
  result.metrics["cpu_ms"] = cpuMs / static_cast<double>(std::max<std::size_t>(completed, 1));
  result.metrics["peak_rss_mb"] = daemon.peakRssMb();
  if (!trace) {
    return;
  }

  std::map<std::string, std::vector<double>> stages;
  std::vector<double> unattributed;
  for (const ServeSample& s : all) {
    if (!s.ok) {
      continue;
    }
    double sum = 0;
    for (const auto& [name, ms] : s.stages) {
      stages[name].push_back(ms);
      sum += ms;
    }
    unattributed.push_back(s.rttMs - sum);
  }
  for (const auto& [name, values] : stages) {
    result.metrics["service." + name + "_ms"] = median(values);
  }
  result.metrics["service.rtt_unattributed_ms"] = median(unattributed);
  result.metrics["service.req_p90_ms"] = quantile(latency, 0.9);
  result.metrics["service.req_p99_ms"] = quantile(latency, 0.99);
  result.metrics["service.gen_late_p90_ms"] = quantile(late, 0.9);

  // The per-request costs the daemon pays outside the stages, timed
  // in-process on the same inputs.
  std::vector<double> parse;
  for (const ServeRequest& r : corpus.schedule) {
    const Clock::time_point a = Clock::now();
    (void)service::parseRequest(r.line);
    parse.push_back(msBetween(a, Clock::now()));
  }
  result.metrics["service.parse_request_ms"] = median(parse);
  telemetry::setEnabled(true);
  std::vector<double> delta;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point a = Clock::now();
    const telemetry::Snapshot before = telemetry::snapshot();
    (void)telemetry::snapshotJson(telemetry::diff(before, telemetry::snapshot()));
    delta.push_back(msBetween(a, Clock::now()));
  }
  telemetry::setEnabled(false);
  result.metrics["service.telemetry_delta_ms"] = median(delta);

  service::Client client(daemon.socket());
  const json::Value metrics =
      json::parse(client.call(service::metricsRequestJson(service::MetricsRequest{})));
  const double hits = metricsNumber(metrics, {"cache", "hits"}) +
                      metricsNumber(metrics, {"cache", "coalesced"});
  const double misses = metricsNumber(metrics, {"cache", "misses"});
  const double regHits = metricsNumber(metrics, {"telemetry", "serve.programs.hits"});
  const double regMisses = metricsNumber(metrics, {"telemetry", "serve.programs.misses"});
  result.metrics["service.cache_hit_ratio"] = hits / std::max(1.0, hits + misses);
  result.metrics["service.registry_hit_ratio"] =
      regHits / std::max(1.0, regHits + regMisses);
  result.metrics["service.cache_evictions"] = metricsNumber(metrics, {"cache", "evictions"});
  result.metrics["service.registry_evictions"] =
      metricsNumber(metrics, {"telemetry", "serve.programs.evictions"});

  // The first requests' stages only, to keep trace.json small.
  std::ostringstream chrome;
  for (std::size_t i = 0; i < std::min<std::size_t>(all.size(), 200); ++i) {
    double ts = 0;
    for (const auto& [name, ms] : all[i].stages) {
      chrome << (chrome.tellp() > 0 ? "," : "") << "{\"name\":" << quoted(name)
             << ",\"ph\":\"X\",\"pid\":2,\"tid\":" << i << ",\"ts\":" << number(ts)
             << ",\"dur\":" << number(ms * 1e3) << "}";
      ts += ms * 1e3;
    }
  }
  result.chromeEvents = chrome.str();
}

// -- one workload -------------------------------------------------------------

bool sameCorpus(const Corpus& a, const Corpus& b) {
  if (a.programs.size() != b.programs.size() || a.schedule.size() != b.schedule.size() ||
      a.catalogue.size() != b.catalogue.size() || a.freshExpected != b.freshExpected) {
    return false;
  }
  for (std::size_t i = 0; i < a.catalogue.size(); ++i) {
    if (a.catalogue[i].text != b.catalogue[i].text ||
        a.catalogue[i].expected != b.catalogue[i].expected) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.programs.size(); ++i) {
    if (a.programs[i].text != b.programs[i].text ||
        a.programs[i].expected != b.programs[i].expected) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    if (a.schedule[i].line != b.schedule[i].line) {
      return false;
    }
  }
  return true;
}

Result runWorkload(const Env& env, const std::string& workload, std::uint64_t seed,
                   double seconds, bool trace, int setups) {
  Result result;
  const std::string dir = env.work + "/" + workload;
  fs::create_directories(dir);
  const Env workEnv{env.qirkit, env.self, dir, env.launcher};

  // Set up several times and report the median; every repeat must build
  // the identical corpus, which checks that generation is seeded.
  std::optional<Corpus> corpus;
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setupS;
  for (int i = 0; i < setups; ++i) {
    if (daemon) {
      daemon->stop();
      daemon.reset();
    }
    const Clock::time_point t0 = Clock::now();
    Corpus c = buildCorpus(workload, seed, dir, seconds);
    if (workload == "serve_mix") {
      daemon = std::make_unique<Daemon>(env.qirkit, dir + "/serve.sock", dir + "/serve.log");
      registerCatalogue(*daemon, c);
    }
    setupS.push_back(msBetween(t0, Clock::now()) / 1e3);
    if (corpus && !sameCorpus(*corpus, c)) {
      c.problems.push_back("setup is not deterministic for seed " + std::to_string(seed));
    }
    corpus = std::move(c);
  }
  result.problems = corpus->problems;
  result.metrics["setup_s"] = median(setupS);

  if (daemon) {
    serveWindow(*daemon, *corpus, trace, result);
    if (trace) {
      result.metrics["process.spawn_ms"] = spawnCost(workEnv, result);
    }
    if (!daemon->stop()) {
      result.problems.push_back("serve daemon did not drain and exit cleanly");
    }
  } else if (trace) {
    tracedCli(workEnv, *corpus, seconds, result);
  } else {
    timedCli(workEnv, *corpus, seconds, result);
  }
  return result;
}

std::string runDocument(const std::string& workload, std::uint64_t seed, double seconds,
                        bool trace, const Result& r) {
  std::ostringstream out;
  out << "{\"workload\":" << quoted(workload) << ",\"seed\":" << seed
      << ",\"seconds\":" << number(seconds) << ",\"trace\":" << (trace ? 1 : 0)
      << ",\"result\":" << r.line(trace) << ",\"programs\":{";
  bool first = true;
  for (const auto& [name, row] : r.programs) {
    out << (first ? "" : ",") << quoted(name) << ":{";
    first = false;
    bool firstField = true;
    for (const auto& [key, value] : row) {
      out << (firstField ? "" : ",") << quoted(key) << ":" << number(value);
      firstField = false;
    }
    out << "}";
  }
  out << "},\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    out << (i == 0 ? "" : ",") << quoted(r.problems[i]);
  }
  out << "]}";
  return out.str();
}

// -- command line -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string chrome;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument(key + " expects a value");
    }
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--out") a.out = value;
    else if (key == "--chrome") a.chrome = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  const bool known = a.workload == "all" ||
                     std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) !=
                         kWorkloads.end();
  if (!a.smoke && !known) {
    throw std::invalid_argument("--workload must be all or one of terminal_wide, "
                                "feedback_shots, compile_route, serve_mix");
  }
  return a;
}

/// A scratch directory beside the binary, addressed relative to the
/// working directory when possible so the daemon's socket path stays well
/// under the 108-byte sun_path limit.
Env makeEnv(Launcher& launcher) {
  const fs::path self = fs::read_symlink("/proc/self/exe");
  const fs::path work = self.parent_path() / ("work-" + std::to_string(::getpid()));
  fs::create_directories(work);
  fs::path rel = fs::relative(work);
  if (rel.empty() || rel.string().size() >= work.string().size()) {
    rel = work;
  }
  return Env{QIRKIT_CLI, self.string(), rel.string(), &launcher};
}

int benchMain(int argc, char** argv) {
  Launcher launcher;
  const Args args = parseArgs(argc, argv);
  const Env env = makeEnv(launcher);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{env.work};

  if (args.smoke) {
    bool ok = true;
    for (const std::string& w : kWorkloads) {
      const Result r = runWorkload(env, w, args.seed, 1.0, false, 1);
      std::cout << w << ": attempted " << r.attempted << ", failed " << r.failed
                << (r.correct() ? ", correct" : ", NOT correct") << "\n";
      for (const std::string& p : r.problems) {
        std::cout << "  " << p << "\n";
      }
      ok = ok && r.correct();
    }
    return ok ? 0 : 1;
  }

  const std::vector<std::string> workloads =
      args.workload == "all" ? kWorkloads : std::vector<std::string>{args.workload};
  std::ostringstream documents;
  std::ostringstream chrome;
  Result total;
  std::string allMetrics; // --workload all: every workload's, prefixed
  const int setups = args.trace ? 1 : 3;
  for (const std::string& w : workloads) {
    const Result r = runWorkload(env, w, args.seed, args.seconds, args.trace, setups);
    for (const std::string& p : r.problems) {
      std::cerr << "bench_pipeline: " << w << ": " << p << "\n";
    }
    documents << runDocument(w, args.seed, args.seconds, args.trace, r) << "\n";
    if (!r.chromeEvents.empty()) {
      chrome << (chrome.tellp() > 0 ? "," : "") << r.chromeEvents;
    }
    allMetrics += (allMetrics.empty() ? "" : ",") + r.metricsJson(args.trace, w + ".");
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.problems.insert(total.problems.end(), r.problems.begin(), r.problems.end());
    total.metrics = r.metrics;
  }
  if (!args.out.empty()) {
    writeFile(args.out, documents.str());
  }
  if (!args.chrome.empty()) {
    writeFile(args.chrome, "{\"traceEvents\":[" + chrome.str() + "]}\n");
  }
  if (workloads.size() > 1) {
    std::cout << "{\"correct\":" << (total.correct() ? "true" : "false")
              << ",\"attempted\":" << total.attempted << ",\"failed\":" << total.failed
              << ",\"metrics\":{" << allMetrics << "}}\n";
  } else {
    std::cout << total.line(args.trace) << "\n";
  }
  return 0;
}

} // namespace
} // namespace qirkit::bench::pipeline

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "replay") {
      return qirkit::bench::pipeline::replayMain(argc, argv);
    }
    return qirkit::bench::pipeline::benchMain(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_pipeline: " << e.what() << "\n";
    return 2;
  }
}
