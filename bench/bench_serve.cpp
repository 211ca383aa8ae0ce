/// Service-mode throughput: `qirkit serve` answering cached submits over
/// its Unix-domain socket vs the one-CLI-process-per-request baseline the
/// daemon replaces. The baseline spawns the real `qirkit run` binary per
/// iteration (fork/exec + dynamic loading + cold parse/compile), which is
/// exactly the workflow `serve` exists to amortize; a second in-process
/// reference isolates just the parse+compile cost with no process spawn.
/// The served path pays the socket round-trip and the admission queue but
/// reuses the program store's loaded, compiled and analysed program, which
/// is where the (expected >= 5x) win comes from on a cached workload.
#include "ir/context.hpp"
#include "ir/parser.hpp"
#include "qasm/parser.hpp"
#include "qir/exporter.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "vm/cache.hpp"
#include "vm/executor.hpp"

#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.hpp"

extern char** environ;

namespace {

using namespace qirkit;

/// A deep-but-narrow workload (4 qubits, 300 gates): the per-request cost
/// a cold process pays is dominated by spawn + parse + export + bytecode
/// compilation, which is exactly what the daemon's program store
/// amortizes. Simulation itself is cheap (16 amplitudes) and
/// paid by both sides, so the ratio isolates the caching win.
std::string workloadText() {
  std::string s = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                  "qreg q[4];\ncreg c[4];\n";
  for (int i = 0; i < 150; ++i) {
    const std::string a = std::to_string(i % 4);
    const std::string b = std::to_string((i + 1) % 4);
    s += "h q[" + a + "];\ncx q[" + a + "], q[" + b + "];\n";
  }
  s += "measure q -> c;\n";
  return s;
}

const std::string& workloadQasm() {
  static const std::string text = workloadText();
  return text;
}

constexpr std::uint64_t kShots = 100;

/// Raw per-iteration wall times (ns) of one benchmark, so the reported
/// percentiles are exact order statistics, giving the report the tail the
/// mean hides.
using LatencyTally = std::vector<std::uint64_t>;

/// Run \p body once and record its wall time.
template <typename Body>
void timeInto(LatencyTally& tally, Body&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  tally.push_back(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

/// Attach p50/p95/p99 iteration-latency counters to the row: nearest-rank
/// order statistics of the samples. kAvgThreads keeps threaded benchmarks
/// reporting a per-thread percentile instead of a meaningless sum.
void reportPercentiles(benchmark::State& state, LatencyTally& tally) {
  std::sort(tally.begin(), tally.end());
  const auto q = [&](double p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(tally.size())));
    const double ns =
        tally.empty() ? 0.0
                      : static_cast<double>(tally[std::max<std::size_t>(rank, 1) - 1]);
    return benchmark::Counter(ns, benchmark::Counter::kAvgThreads);
  };
  state.counters["p50_ns"] = q(0.50);
  state.counters["p95_ns"] = q(0.95);
  state.counters["p99_ns"] = q(0.99);
}

/// One daemon shared by every serve benchmark in this process, started on
/// first use and torn down at exit through the Server destructor.
service::Server& daemon() {
  static std::unique_ptr<service::Server> server = [] {
    service::ServerOptions options;
    options.socketPath =
        "/tmp/qirkit_bench_serve_" + std::to_string(::getpid()) + ".sock";
    options.runners = 2;
    options.poolThreads = 2;
    auto s = std::make_unique<service::Server>(options);
    s->start();
    return s;
  }();
  return *server;
}

std::string submitLine(const std::string& tenant, const std::string& ref) {
  service::SubmitRequest request;
  request.tenant = tenant;
  request.programRef = ref;
  request.shots = kShots;
  request.seed = 7;
  return service::submitRequestJson(request);
}

/// Register the workload once and return its content id.
std::string registerProgram(service::Client& client) {
  service::SubmitRequest request;
  request.tenant = "bench";
  request.program = workloadQasm();
  request.shots = kShots;
  request.seed = 7;
  const service::json::Value response =
      service::json::parse(client.call(service::submitRequestJson(request)));
  return response.find("program_id")->string;
}

double cacheHitRate() {
  const vm::CompileCache::Stats stats = daemon().cache().stats();
  const std::uint64_t lookups = stats.hits + stats.coalesced + stats.misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(stats.hits + stats.coalesced) /
                            static_cast<double>(lookups);
}

/// Locate the qirkit CLI next to this benchmark binary (build/bench/
/// bench_serve -> build/tools/qirkit); QIRKIT_BIN overrides.
std::string qirkitBinaryPath() {
  if (const char* env = ::getenv("QIRKIT_BIN"); env != nullptr && *env != '\0')
    return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0)
    return {};
  std::string self(buf, static_cast<std::size_t>(n));
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos)
    return {};
  const std::string candidate =
      self.substr(0, slash) + "/../tools/qirkit";
  return ::access(candidate.c_str(), X_OK) == 0 ? candidate : std::string();
}

/// The workload written to disk once for the per-process baseline, removed
/// at exit.
const std::string& workloadFile() {
  static const std::string path = [] {
    std::string p =
        "/tmp/qirkit_bench_serve_" + std::to_string(::getpid()) + ".qasm";
    std::ofstream out(p);
    out << workloadQasm();
    return p;
  }();
  static const struct Cleanup {
    const std::string& path;
    ~Cleanup() { ::unlink(path.c_str()); }
  } cleanup{path};
  return path;
}

/// Run one `qirkit run` child to completion with output discarded.
/// Returns false if spawning or the child failed.
bool runCliOnce(const std::string& bin) {
  std::vector<std::string> args = {bin,  "run",     workloadFile(),
                                   "--shots", "100", "--seed", "7"};
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args)
    argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, bin.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0)
    return false;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid)
    return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// The served hot path: persistent connection, program resubmitted by
/// content id, every request a program-store hit.
void BM_ServeSubmitCached(benchmark::State& state) {
  service::Client client(daemon().options().socketPath);
  const std::string ref = registerProgram(client);
  const std::string line = submitLine("bench", ref);
  LatencyTally tally;
  for (auto _ : state) {
    timeInto(tally, [&] { benchmark::DoNotOptimize(client.call(line)); });
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["requests_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["cache_hit_rate"] = cacheHitRate();
  state.counters["shots_per_request"] = static_cast<double>(kShots);
  reportPercentiles(state, tally);
}
BENCHMARK(BM_ServeSubmitCached)->UseRealTime()->Unit(benchmark::kMicrosecond);

/// Several tenants hammering the daemon at once over their own
/// connections: measures multiplexing of the queue, runners, and the
/// shared pool rather than single-connection latency.
void BM_ServeConcurrentTenants(benchmark::State& state) {
  service::Client client(daemon().options().socketPath);
  const std::string ref = registerProgram(client);
  const std::string line =
      submitLine("tenant" + std::to_string(state.thread_index()), ref);
  LatencyTally tally;
  for (auto _ : state) {
    timeInto(tally, [&] { benchmark::DoNotOptimize(client.call(line)); });
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["requests_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["cache_hit_rate"] =
      benchmark::Counter(cacheHitRate(), benchmark::Counter::kAvgThreads);
  reportPercentiles(state, tally);
}
BENCHMARK(BM_ServeConcurrentTenants)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// The baseline the daemon replaces: one `qirkit run` process per request,
/// each paying fork/exec + process start-up + cold parse + compile before
/// a single shot executes.
void BM_ServePerProcessBaseline(benchmark::State& state) {
  const std::string bin = qirkitBinaryPath();
  if (bin.empty()) {
    state.SkipWithError("qirkit CLI not found next to bench_serve "
                        "(set QIRKIT_BIN to override)");
    return;
  }
  LatencyTally tally;
  for (auto _ : state) {
    bool ok = true;
    timeInto(tally, [&] { ok = runCliOnce(bin); });
    if (!ok) {
      state.SkipWithError("qirkit run child failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["requests_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["shots_per_request"] = static_cast<double>(kShots);
  reportPercentiles(state, tally);
}
BENCHMARK(BM_ServePerProcessBaseline)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// In-process reference: the same cold parse + compile + execute a fresh
/// CLI process performs, minus the spawn. Isolates how much of the
/// per-process cost is compilation (amortized by the daemon's program
/// store) versus process startup.
void BM_ServeColdCompileInProcess(benchmark::State& state) {
  LatencyTally tally;
  for (auto _ : state) {
    timeInto(tally, [&] {
      ir::Context ctx;
      const circuit::Circuit c = qasm::parse(workloadQasm());
      qir::ExportOptions exportOptions;
      exportOptions.addressing = qir::Addressing::Static;
      const auto module = qir::exportCircuit(ctx, c, exportOptions);
      vm::ShotOptions options;
      options.shots = kShots;
      options.seed = 7;
      benchmark::DoNotOptimize(vm::runShots(*module, options));
    });
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["requests_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["shots_per_request"] = static_cast<double>(kShots);
  reportPercentiles(state, tally);
}
BENCHMARK(BM_ServeColdCompileInProcess)->Unit(benchmark::kMicrosecond);

// --- Overload protection under hostile load --------------------------------

/// A 30-qubit program whose predicted statevector (2^30 amplitudes at 16
/// bytes each = 16 GiB) dwarfs the overload daemon's memory budget: the
/// admission guard must reject it upfront, before any allocation.
const std::string& oversizedQasm() {
  static const std::string text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                                  "qreg q[30];\ncreg c[30];\nh q[0];\n"
                                  "measure q -> c;\n";
  return text;
}

/// A daemon with deliberately tight limits for the overload scenario: a
/// small memory budget (any job >= 22 qubits is over) and a per-tenant
/// pending quota the hostile tenants will sustain 4x over.
service::Server& overloadDaemon() {
  static std::unique_ptr<service::Server> server = [] {
    service::ServerOptions options;
    options.socketPath =
        "/tmp/qirkit_bench_overload_" + std::to_string(::getpid()) + ".sock";
    // One runner so the in-budget tenant's jobs never share the simulation
    // pool with hostile work: protection has to come from admission (quota
    // and memory rejects) and queue TTL, which is exactly what the
    // throughput ratio measures.
    options.runners = 1;
    options.poolThreads = 2;
    options.queue.memoryBudgetBytes = 64ULL << 20U;
    options.queue.tenantMaxPending = 1;
    options.queue.maxShotsPerJob = 100'000'000;
    auto s = std::make_unique<service::Server>(options);
    s->start();
    return s;
  }();
  return *server;
}

std::string overloadSubmitLine(const std::string& tenant,
                               const std::string& ref, std::uint64_t shots,
                               std::uint64_t deadlineMs) {
  service::SubmitRequest request;
  request.tenant = tenant;
  request.programRef = ref;
  request.shots = shots;
  request.seed = 11;
  // Resim defeats the terminal-measurement sampling fast path, so shot
  // count translates into real runner occupancy.
  request.execMode = vm::ExecMode::Resim;
  request.deadlineMs = deadlineMs;
  return service::submitRequestJson(request);
}

struct OverloadTally {
  std::atomic<std::uint64_t> deadlineRejects{0};
  std::atomic<std::uint64_t> resourceRejects{0};
  std::atomic<std::uint64_t> retryHints{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> unexpected{0};
};

/// Bucket one hostile response: a deadline cut, a structured overload
/// rejection (counting retry_after_ms hints), a completion, or — the
/// failure mode this benchmark exists to catch — anything else.
void classifyHostileResponse(const std::string& line, OverloadTally& tally) {
  const service::json::Value response = service::json::parse(line);
  if (const service::json::Value* ok = response.find("ok");
      ok != nullptr && ok->boolean) {
    tally.completed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (response.find("retry_after_ms") != nullptr) {
    tally.retryHints.fetch_add(1, std::memory_order_relaxed);
  }
  const service::json::Value* error = response.find("error");
  const service::json::Value* code =
      error == nullptr ? nullptr : error->find("code");
  if (code != nullptr && code->string == "deadline") {
    tally.deadlineRejects.fetch_add(1, std::memory_order_relaxed);
  } else if (code != nullptr && code->string == "resource-limit") {
    tally.resourceRejects.fetch_add(1, std::memory_order_relaxed);
  } else {
    tally.unexpected.fetch_add(1, std::memory_order_relaxed);
  }
}

/// The pause the steady tenant leaves between requests (applied to the
/// baseline and the contended phase alike, so the ratio stays fair): it
/// keeps the serial client from racing the runner's pending-slot release
/// at tenantMaxPending == 1, and is negligible against the ~300 ms jobs.
constexpr std::chrono::milliseconds kSteadyGap{1};

double measureRps(service::Client& client, const std::string& line,
                  int calls) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < calls; ++i) {
    benchmark::DoNotOptimize(client.call(line));
    std::this_thread::sleep_for(kSteadyGap);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return secs <= 0.0 ? 0.0 : static_cast<double>(calls) / secs;
}

/// The overload scenario from the robustness work: an in-budget tenant's
/// throughput is measured uncontended, then again while 4 hostile tenants
/// sustain 4x their pending quota (4 connections each against a quota of
/// 1), alternating 2M-shot jobs with a 1 ms deadline and 30-qubit programs
/// the memory guard must turn away. The daemon must never crash, every
/// hostile rejection must be structured (error[deadline] /
/// error[resource-limit], retry_after_ms on the retryable ones), and the
/// in-budget tenant should keep >= 80% of its uncontended throughput —
/// reported as `throughput_ratio`.
void BM_ServeOverload(benchmark::State& state) {
  service::Server& server = overloadDaemon();
  service::ClientOptions retrying;
  retrying.connectRetries = 5;
  service::Client steady(server.options().socketPath, retrying);
  const std::string ref = registerProgram(steady);
  // Heavy enough (~tens of ms of resim) that per-request queueing noise
  // does not swamp the signal; no deadline, so every request completes.
  const std::string steadyLine = overloadSubmitLine("steady", ref, 10'000, 0);

  for (int i = 0; i < 3; ++i) {
    benchmark::DoNotOptimize(steady.call(steadyLine)); // warm the caches
  }
  const double baselineRps = measureRps(steady, steadyLine, 10);

  OverloadTally overloadTally;
  std::atomic<bool> stop{false};
  std::vector<std::thread> hostiles;
  for (int tenant = 0; tenant < 4; ++tenant) {
    for (int conn = 0; conn < 4; ++conn) {
      hostiles.emplace_back([&server, &retrying, &ref, &overloadTally, &stop,
                             tenant, conn] {
        const std::string name = "hostile" + std::to_string(tenant);
        try {
          service::Client client(server.options().socketPath, retrying);
          const std::string deadlineLine =
              overloadSubmitLine(name, ref, 2'000'000, 1);
          const std::string oversizeLine = [&] {
            service::SubmitRequest request;
            request.tenant = name;
            request.program = oversizedQasm();
            request.shots = 100;
            request.seed = 11;
            return service::submitRequestJson(request);
          }();
          bool big = (conn % 2) == 0;
          while (!stop.load(std::memory_order_relaxed)) {
            classifyHostileResponse(
                client.call(big ? deadlineLine : oversizeLine), overloadTally);
            big = !big;
            // Sustained pressure, not a pure reject spin: ~40 attempts/s
            // per connection keeps every hostile tenant far over quota
            // without the rejection path itself monopolizing the CPU.
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
          }
        } catch (const std::exception&) {
          overloadTally.unexpected.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }

  // Let the hostile load ramp before measuring the in-budget tenant.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  LatencyTally tally;
  std::uint64_t contendedCalls = 0;
  const auto contendedStart = std::chrono::steady_clock::now();
  for (auto _ : state) {
    timeInto(tally, [&] { benchmark::DoNotOptimize(steady.call(steadyLine)); });
    std::this_thread::sleep_for(kSteadyGap);
    ++contendedCalls;
  }
  const double contendedSecs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    contendedStart)
          .count();

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : hostiles) {
    t.join();
  }

  // The daemon must still be alive and serving in-budget work. Retry a
  // few times: the last hostile pending slots may still be draining.
  bool aliveAfterLoad = false;
  for (int attempt = 0; attempt < 5 && !aliveAfterLoad; ++attempt) {
    const service::json::Value after =
        service::json::parse(steady.call(steadyLine));
    const service::json::Value* ok = after.find("ok");
    aliveAfterLoad = ok != nullptr && ok->boolean;
    if (!aliveAfterLoad) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  if (!aliveAfterLoad) {
    state.SkipWithError("daemon stopped serving in-budget work after load");
    return;
  }
  if (overloadTally.unexpected.load() != 0) {
    state.SkipWithError("hostile load drew an unstructured response");
    return;
  }

  const double contendedRps =
      contendedSecs <= 0.0
          ? 0.0
          : static_cast<double>(contendedCalls) / contendedSecs;
  state.SetItemsProcessed(static_cast<std::int64_t>(contendedCalls));
  state.counters["baseline_rps"] = baselineRps;
  state.counters["contended_rps"] = contendedRps;
  state.counters["throughput_ratio"] =
      baselineRps <= 0.0 ? 0.0 : contendedRps / baselineRps;
  state.counters["hostile_deadline_rejects"] =
      static_cast<double>(overloadTally.deadlineRejects.load());
  state.counters["hostile_resource_rejects"] =
      static_cast<double>(overloadTally.resourceRejects.load());
  state.counters["hostile_retry_hints"] =
      static_cast<double>(overloadTally.retryHints.load());
  state.counters["hostile_completed"] =
      static_cast<double>(overloadTally.completed.load());
  reportPercentiles(state, tally);
}
BENCHMARK(BM_ServeOverload)
    ->Iterations(20)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
  return qirkit::bench::runAndReport(&argc, argv, "bench_serve");
}
