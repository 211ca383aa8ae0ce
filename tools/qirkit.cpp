/// \file qirkit.cpp
/// The qirkit command-line driver: every adoption route of the paper as a
/// subcommand.
///
///   qirkit parse <file.ll>                      parse + verify + stats
///   qirkit validate <file.ll> [--profile P]     QIR profile validation
///   qirkit opt <file.ll> [-o out.ll]            classical pipeline (§III.B b1)
///   qirkit compile <file.ll> [--target T]
///                  [--addressing static|dynamic]
///                  [--reuse] [--defer-mz]
///                  [-o out.ll]                  full compile (§III.B b2 + §IV.A)
///   qirkit run <file.ll|file.qasm> [--shots N]
///                  [--seed S] [--jobs N]
///                  [execution options: vm::runOptions()]
///                  [--max-failed-shots N]
///                  [--retries N]
///                  [--no-fallback]              execute + runtime (§III.C);
///                                               vm = bytecode engine,
///                                               interp = reference
///                                               tree-walker;
///                                               failed shots are classified
///                                               and isolated (tolerating up
///                                               to --max-failed-shots, with
///                                               --retries attempts for
///                                               transient faults)
///   qirkit translate <in> --to qir|qasm
///                  [--addressing A] [-o out]    format conversion (§III.A)
///   qirkit partition <file.ll>                  hybrid placement (§IV.B)
///   qirkit feasibility <file.ll> [--budget NS]
///                  [--model fpga|cpu]           coherence-budget check (§IV.B)
///
/// Targets: line:N, ring:N, grid:RxC, full:N.
///
/// Observability: `--stats[=text|json]` (run|compile|opt) arms the
/// process-wide telemetry registry and prints the report on stderr after
/// the command; json is the versioned schema documented in README
/// "Observability". QIRKIT_TRACE=<file> writes Chrome trace-event JSON
/// (Perfetto / chrome://tracing) spanning parse → opt → compile → execute.
///
/// Exit-code contract: 0 success; 1 diagnostics (parse/verify/semantic
/// errors, runtime traps, nonconforming input); 2 usage errors; 3 internal
/// faults. Classified errors print to stderr as
/// `qirkit: error[<code>]: <message> at <loc>`.
/// QIRKIT_FAULT_INJECT arms the deterministic fault injector (see
/// support/faultinject.hpp) for drilling the recovery paths.
#include "circuit/executor.hpp"
#include "circuit/mapping.hpp"
#include "circuit/reuse.hpp"
#include "hybrid/hybrid.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "qasm/load.hpp"
#include "qasm/parser.hpp"
#include "qasm/printer.hpp"
#include "qir/compile.hpp"
#include "qir/exporter.hpp"
#include "qir/importer.hpp"
#include "qir/profiles.hpp"
#include "runtime/runtime.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/telemetry.hpp"
#include "vm/executor.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <csignal>

#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace {

using namespace qirkit;
namespace json = qirkit::service::json;

/// Bad invocation: reported as error[usage], exit 2 per the contract.
[[noreturn]] void fail(const std::string& message) {
  throw qirkit::Error(ErrorCode::Usage, message);
}

/// Parse a numeric option value; garbage — including negative values,
/// which std::stoull would silently wrap — is a usage error, not an abort.
std::uint64_t parseUint(const std::string& value, const std::string& name) {
  const bool digitsOnly =
      !value.empty() && std::all_of(value.begin(), value.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      });
  if (!digitsOnly) {
    fail("--" + name + " expects a non-negative integer, got '" + value + "'");
  }
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    fail("--" + name + " value '" + value + "' is out of range");
  }
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw qirkit::Error(ErrorCode::Io, "cannot open '" + path + "'");
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void writeOutput(const std::optional<std::string>& path, const std::string& text) {
  if (!path) {
    std::cout << text;
    return;
  }
  std::ofstream out(*path, std::ios::binary);
  if (!out) {
    throw qirkit::Error(ErrorCode::Io, "cannot write '" + *path + "'");
  }
  out << text;
}

/// Minimal flag parser: positional args + --key value / --flag.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  std::map<std::string, bool> flags;

  [[nodiscard]] std::string option(const std::string& key,
                                   const std::string& fallback = {}) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return flags.count(key) != 0;
  }
};

/// The options one subcommand accepts besides the common --stats: options
/// that take a value ("output" is also spelled -o) and bare flags. run and
/// submit also accept every entry of the run-option table.
struct Accepts {
  std::vector<std::string> values;
  std::vector<std::string> flags;
  bool runOptions = false;
};

/// Parse \p command's arguments: exactly one positional plus the options
/// it accepts. Anything else is a usage error, never silently ignored.
Args parseArgs(int argc, char** argv, int start, const std::string& command,
               Accepts accepts) {
  if (accepts.runOptions) {
    for (const vm::RunOption& option : vm::runOptions()) {
      (option.flag ? accepts.flags : accepts.values).emplace_back(option.cli);
    }
  }
  const auto listed = [](const std::vector<std::string>& names,
                         const std::string& key) {
    return std::find(names.begin(), names.end(), key) != names.end();
  };
  Args args;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 || arg == "-o") {
      std::string key = arg == "-o" ? "output" : arg.substr(2);
      std::optional<std::string> inlineValue; // --key=value form
      if (const auto eq = key.find('='); eq != std::string::npos) {
        inlineValue = key.substr(eq + 1);
        key = key.substr(0, eq);
      }
      const bool takesValue = listed(accepts.values, key);
      // --stats takes an *optional* format: bare --stats means text.
      const bool optionalValue = key == "stats";
      if (!takesValue && !optionalValue && !listed(accepts.flags, key)) {
        fail("'" + command + "' does not accept " + arg.substr(0, arg.find('=')));
      }
      if (inlineValue) {
        if (!takesValue && !optionalValue) {
          fail("option --" + key + " does not take a value");
        }
        args.options[key] = *inlineValue;
      } else if (takesValue) {
        if (i + 1 >= argc) {
          fail("option --" + key + " expects a value");
        }
        args.options[key] = argv[++i];
      } else if (optionalValue) {
        const std::string next = i + 1 < argc ? argv[i + 1] : "";
        if (next == "text" || next == "json") {
          args.options[key] = argv[++i];
        } else {
          args.options[key] = "text";
        }
      } else {
        args.flags[key] = true;
      }
    } else if (!args.positional.empty()) {
      fail("unexpected argument '" + arg + "'");
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

/// Read the run-option table's flags into \p choices: the one parser
/// behind both run and submit.
void applyRunOptions(const Args& args, vm::RunChoices& choices) {
  for (const vm::RunOption& option : vm::runOptions()) {
    if (option.flag) {
      if (args.flag(option.cli)) {
        (void)option.assign(choices, "true");
      }
    } else if (const auto it = args.options.find(option.cli);
               it != args.options.end() && !option.assign(choices, it->second)) {
      fail(std::string("--") + option.cli + " expects " + option.allowed() +
           ", got '" + it->second + "'");
    }
  }
}

circuit::Target parseTarget(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    fail("target must be line:N, ring:N, grid:RxC, or full:N");
  }
  const std::string kind = spec.substr(0, colon);
  const std::string rest = spec.substr(colon + 1);
  if (kind == "grid") {
    const auto x = rest.find('x');
    if (x == std::string::npos) {
      fail("grid target must be grid:RxC");
    }
    return circuit::Target::grid(
        static_cast<unsigned>(parseUint(rest.substr(0, x), "target")),
        static_cast<unsigned>(parseUint(rest.substr(x + 1), "target")));
  }
  const auto n = static_cast<unsigned>(parseUint(rest, "target"));
  if (kind == "line") {
    return circuit::Target::line(n);
  }
  if (kind == "ring") {
    return circuit::Target::ring(n);
  }
  if (kind == "full") {
    return circuit::Target::fullyConnected(n);
  }
  fail("unknown target kind '" + kind + "'");
}

int cmdParse(const Args& args) {
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, readFile(args.positional[0]));
  const auto errors = ir::verifyModule(*module);
  std::cout << "functions: " << module->functions().size() << "\n";
  std::cout << "globals: " << module->globals().size() << "\n";
  std::cout << "instructions: " << module->instructionCount() << "\n";
  const ir::Function* entry = module->entryPoint();
  if (entry != nullptr) {
    std::cout << "entry point: @" << entry->name() << " ("
              << entry->blocks().size() << " blocks)\n";
  }
  std::cout << "profile: " << qir::profileName(qir::detectProfile(*module)) << "\n";
  if (errors.empty()) {
    std::cout << "verifier: clean\n";
    return 0;
  }
  for (const std::string& error : errors) {
    std::cout << "verifier: " << error << "\n";
  }
  return 1;
}

int cmdValidate(const Args& args) {
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, readFile(args.positional[0]));
  const std::string profileName = args.option("profile", "base");
  const qir::Profile profile = profileName == "base"       ? qir::Profile::Base
                               : profileName == "adaptive" ? qir::Profile::Adaptive
                               : profileName == "full"
                                   ? qir::Profile::Full
                                   : (fail("unknown profile '" + profileName + "'"),
                                      qir::Profile::Full);
  const qir::ProfileReport report = qir::validateProfile(*module, profile);
  if (report.conforms) {
    std::cout << "conforms to " << qir::profileName(profile) << "\n";
    return 0;
  }
  std::cout << "does NOT conform to " << qir::profileName(profile) << ":\n";
  for (const std::string& violation : report.violations) {
    std::cout << "  " << violation << "\n";
  }
  return 1;
}

int cmdOpt(const Args& args) {
  ir::Context ctx;
  auto module = ir::parseModule(ctx, readFile(args.positional[0]));
  ir::verifyModuleOrThrow(*module); // the passes assume well-formed IR
  const std::size_t before = module->instructionCount();
  const std::size_t sweeps = qir::transformDirect(*module);
  ir::verifyModuleOrThrow(*module);
  std::cerr << "optimized: " << before << " -> " << module->instructionCount()
            << " instructions in " << sweeps << " sweeps\n";
  writeOutput(args.options.count("output") != 0U
                  ? std::optional<std::string>(args.option("output"))
                  : std::nullopt,
              ir::printModule(*module));
  return 0;
}

int cmdCompile(const Args& args) {
  ir::Context ctx;
  const std::string& path = args.positional[0];
  auto module = qasm::loadProgram(ctx, readFile(path), path,
                                  qir::Addressing::Dynamic);
  qir::CompileOptions options;
  options.runClassicalPipeline = false; // the loader already ran it
  if (!args.option("target").empty()) {
    options.target = parseTarget(args.option("target"));
  }
  options.outputAddressing = args.option("addressing", "static") == "dynamic"
                                 ? qir::Addressing::Dynamic
                                 : qir::Addressing::Static;
  options.deferMeasurements = args.flag("defer-mz");
  qir::CompileResult result = qir::compileToTarget(ctx, *module, options);
  if (args.flag("reuse")) {
    const circuit::ReuseResult reuse = circuit::reuseQubits(result.circuit);
    std::cerr << "qubit reuse: " << reuse.qubitsBefore << " -> "
              << reuse.qubitsAfter << " qubits (" << reuse.resetsInserted
              << " resets)\n";
    qir::ExportOptions exportOptions;
    exportOptions.addressing = options.outputAddressing;
    result.module = qir::exportCircuit(ctx, reuse.circuit, exportOptions);
    result.circuit = reuse.circuit;
  }
  std::cerr << "compiled: " << result.circuit.summary() << "\n";
  std::cerr << "profile: " << qir::profileName(result.profile)
            << ", swaps: " << result.swapsInserted << "\n";
  writeOutput(args.options.count("output") != 0U
                  ? std::optional<std::string>(args.option("output"))
                  : std::nullopt,
              ir::printModule(*result.module));
  return 0;
}

int cmdRun(const Args& args) {
  ir::Context ctx;
  const std::string& path = args.positional[0];
  const auto module =
      qasm::loadProgram(ctx, readFile(path), path, qir::Addressing::Static);
  vm::ShotOptions options;
  applyRunOptions(args, options);
  options.shots = parseUint(args.option("shots", "100"), "shots");
  options.seed = parseUint(args.option("seed", "1"), "seed");
  options.maxFailedShots =
      parseUint(args.option("max-failed-shots", "0"), "max-failed-shots");
  options.retries = parseUint(args.option("retries", "0"), "retries");
  options.interpFallback = !args.flag("no-fallback");
  const auto jobs =
      static_cast<std::size_t>(parseUint(args.option("jobs", "1"), "jobs"));
  if (jobs > 1) {
    // The process-wide shared pool, not a private one: the CLI goes
    // through the same injection seam the service uses, so every --jobs
    // run exercises batch execution on a shared pool.
    ThreadPool::configureGlobal(jobs);
    options.pool = &ThreadPool::global();
  }
  const std::uint64_t timeoutMs =
      parseUint(args.option("timeout-ms", "0"), "timeout-ms");
  qirkit::CancelToken cancel;
  if (timeoutMs != 0) {
    cancel.setTimeoutNs(timeoutMs * 1'000'000ULL);
    options.cancel = &cancel;
  }
  const vm::ShotBatchResult result = vm::runShots(*module, options);
  std::cerr << "engine: " << vm::engineName(result.engineUsed) << "\n";
  if (result.sampled) {
    std::cerr << "exec mode: sample (simulated once, sampled "
              << result.completedShots << " shots)\n";
  }
  if (result.branched) {
    std::cerr << "exec mode: branch (" << result.branchPaths
              << " outcome paths for " << options.shots << " shots)\n";
  }
  if (result.sampleFallback) {
    std::cerr << "warning: sampling path degraded to per-shot resimulation: "
              << result.sampleFallbackReason << "\n";
  }
  if (result.degradedToInterp) {
    std::cerr << "warning: degraded to the reference interpreter: "
              << result.degradeReason << "\n";
  }
  if (result.interpFallbackShots != 0) {
    std::cerr << "warning: " << result.interpFallbackShots
              << " shot(s) trapped on the vm and were rerun on the "
                 "interpreter\n";
  }
  if (result.retryAttempts != 0) {
    std::cerr << "warning: " << result.retryAttempts
              << " transient-fault retry attempt(s)\n";
  }
  if (result.failedShots != 0) {
    std::cerr << "warning: " << result.failedShots << " of " << options.shots
              << " shot(s) failed:";
    for (const auto& [code, count] : result.failureCounts) {
      std::cerr << " " << qirkit::errorCodeName(code) << " x" << count;
    }
    std::cerr << "\n";
  }
  // stdout carries only the program's answer, so a degraded batch prints
  // byte-identical output to a native interpreter run.
  std::cout << "shots: " << options.shots
            << ", gates/shot: " << result.lastShotStats.gatesApplied
            << ", measurements/shot: " << result.lastShotStats.measurements
            << "\n";
  for (const auto& [bits, count] : result.histogram) {
    std::cout << (bits.empty() ? "(no recorded output)" : bits) << ": " << count
              << "\n";
  }
  if (result.deadlineExceeded) {
    // Partial-results contract: the truncated histogram above covers
    // exactly the completed shots; the batch as a whole still failed its
    // deadline, so the exit code says so.
    std::cerr << "qirkit: error[deadline]: --timeout-ms " << timeoutMs
              << " expired after " << result.completedShots << " of "
              << options.shots << " shot(s); histogram covers completed "
              << "shots only (" << result.unstartedShots << " never ran)\n";
    return 1;
  }
  return 0;
}

int cmdTranslate(const Args& args) {
  const std::string inputPath = args.positional[0];
  const std::string text = readFile(inputPath);
  const std::string to = args.option("to");
  if (to != "qir" && to != "qasm") {
    fail("--to must be qir or qasm");
  }
  // Load into the circuit IR: OpenQASM 2 parses straight to a circuit,
  // QIR and OpenQASM 3 are imported from their module.
  circuit::Circuit c;
  if (qasm::classifySource(text, inputPath) == qasm::SourceFormat::Qasm2) {
    c = qasm::parse(text);
  } else {
    ir::Context ctx;
    c = qir::importFromModule(
        *qasm::loadProgram(ctx, text, inputPath, qir::Addressing::Static));
  }
  std::string out;
  if (to == "qasm") {
    out = qasm::print(c);
  } else {
    ir::Context ctx;
    qir::ExportOptions options;
    options.addressing = args.option("addressing", "static") == "dynamic"
                             ? qir::Addressing::Dynamic
                             : qir::Addressing::Static;
    out = ir::printModule(*qir::exportCircuit(ctx, c, options));
  }
  writeOutput(args.options.count("output") != 0U
                  ? std::optional<std::string>(args.option("output"))
                  : std::nullopt,
              out);
  return 0;
}

int cmdPartition(const Args& args) {
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, readFile(args.positional[0]));
  const hybrid::PartitionReport report = hybrid::partitionHybrid(*module);
  for (const auto& [placement, count] : report.counts) {
    std::cout << hybrid::placementName(placement) << ": " << count
              << " instructions\n";
  }
  return 0;
}

int cmdFeasibility(const Args& args) {
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, readFile(args.positional[0]));
  double budget = 0.0;
  try {
    budget = std::stod(args.option("budget", "1000"));
  } catch (const std::exception&) {
    fail("--budget expects a number, got '" + args.option("budget") + "'");
  }
  const hybrid::LatencyModel model =
      args.option("model", "fpga") == "cpu" ? hybrid::LatencyModel::ionTrapCPU()
                                            : hybrid::LatencyModel::superconductingFPGA();
  const hybrid::FeasibilityReport report =
      hybrid::checkFeasibility(*module, model, budget);
  std::cout << "feedback paths: " << report.paths.size() << "\n";
  std::cout << "worst path: " << report.worstPathNs << " ns (budget " << budget
            << " ns)\n";
  std::cout << "feasible: " << (report.feasible ? "yes" : "NO") << "\n";
  for (const std::string& reason : report.reasons) {
    std::cout << "  " << reason << "\n";
  }
  return report.feasible ? 0 : 1;
}

/// The daemon instance the signal handler asks to stop. requestShutdown()
/// only stores a relaxed atomic flag, which is async-signal-safe.
std::atomic<service::Server*> g_server{nullptr};

extern "C" void handleServeSignal(int /*signum*/) {
  if (service::Server* server = g_server.load(std::memory_order_relaxed)) {
    server->requestShutdown();
  }
}

int cmdServe(const Args& args) {
  service::ServerOptions options;
  options.socketPath = args.positional[0];
  // An absent option keeps its default; a present one is raised to
  // \p floor.
  const auto setUint = [&](const char* name, auto& field, std::uint64_t floor) {
    if (!args.option(name).empty()) {
      field = static_cast<std::remove_reference_t<decltype(field)>>(
          std::max(floor, parseUint(args.option(name), name)));
    }
  };
  const auto setRate = [&](const char* name, double& field, double floor,
                           const char* expects) {
    if (!args.option(name).empty()) {
      try {
        field = std::stod(args.option(name));
      } catch (const std::exception&) {
        field = floor - 1;
      }
      if (field < floor) {
        fail(std::string("--") + name + " expects " + expects + ", got '" +
             args.option(name) + "'");
      }
    }
  };
  setUint("runners", options.runners, 1);
  setUint("jobs", options.poolThreads, 0); // 0 sizes the pool to the hardware
  setUint("program-capacity", options.programCapacity, 1);
  setUint("max-frame-bytes", options.maxFrameBytes, 1);
  setUint("queue-capacity", options.queue.capacity, 1);
  setUint("tenant-pending", options.queue.tenantMaxPending, 1);
  setUint("max-shots", options.queue.maxShotsPerJob, 1);
  setRate("rate-limit", options.queue.ratePerSec, 0, "a non-negative number");
  setRate("rate-burst", options.queue.rateBurst, 1, "a number >= 1");
  if (!args.option("memory-budget-mb").empty()) { // 0 disables the guard
    options.queue.memoryBudgetBytes =
        parseUint(args.option("memory-budget-mb"), "memory-budget-mb") << 20U;
  }
  setUint("watchdog-factor", options.watchdogFactor, 0);
  setUint("flight-capacity", options.flightCapacity, 1);
  setUint("slow-threshold-ms", options.slowThresholdMs, 0);
  service::Server server(std::move(options));
  server.start();
  g_server.store(&server, std::memory_order_relaxed);
  std::signal(SIGINT, handleServeSignal);
  std::signal(SIGTERM, handleServeSignal);
  std::cerr << "qirkit serve: listening on " << server.options().socketPath
            << " (" << server.options().runners << " runners)\n";
  server.run();
  g_server.store(nullptr, std::memory_order_relaxed);
  std::cerr << "qirkit serve: shut down\n";
  return 0;
}

int exitCodeFor(qirkit::ErrorCode code) noexcept;

/// Numeric member of a response object; 0 when absent.
std::uint64_t fieldU64(const json::Value& root, std::string_view key) {
  const json::Value* v = root.find(key);
  return v == nullptr ? 0 : v->asU64(key);
}

/// Unpack an {"ok":false,...} response: print the daemon's classified
/// error in the CLI's own error format and return the contract exit code.
int reportServiceError(const json::Value& root) {
  const json::Value* error = root.find("error");
  const json::Value* code = error ? error->find("code") : nullptr;
  const json::Value* message = error ? error->find("message") : nullptr;
  const std::string codeName =
      code != nullptr && code->isString() ? code->string : "internal";
  std::cerr << "qirkit: error[" << codeName << "]: "
            << (message != nullptr && message->isString() ? message->string
                                                          : "malformed error response")
            << "\n";
  return exitCodeFor(errorCodeFromName(codeName));
}

/// Print a service verb's raw response and map it onto the exit contract.
int printResponse(const std::string& response) {
  std::cout << response << "\n";
  const json::Value root = json::parse(response);
  const json::Value* ok = root.find("ok");
  return ok != nullptr && ok->isBool() && ok->boolean ? 0
                                                      : reportServiceError(root);
}

int cmdSubmit(const Args& args) {
  const std::string socket = args.option("socket");
  if (socket.empty()) {
    fail("submit requires --socket <path>");
  }
  service::ClientOptions clientOptions;
  clientOptions.connectRetries = static_cast<unsigned>(
      parseUint(args.option("connect-retries", "0"), "connect-retries"));
  service::Client client(socket, clientOptions);

  const std::string& target = args.positional[0];
  if (target == "cancel") {
    service::CancelRequest cancel;
    cancel.tenant = args.option("tenant", "cli");
    cancel.requestId = args.option("request-id");
    if (cancel.requestId.empty()) {
      fail("submit cancel requires --request-id <id>");
    }
    return printResponse(client.call(service::cancelRequestJson(cancel)));
  }
  if (target == "metrics") {
    const std::string format = args.option("format", "json");
    if (format != "json" && format != "prometheus") {
      fail("--format expects json or prometheus, got '" + format + "'");
    }
    service::MetricsRequest metrics;
    metrics.prometheus = format == "prometheus";
    const std::string response =
        client.call(service::metricsRequestJson(metrics));
    const json::Value root = json::parse(response);
    const json::Value* ok = root.find("ok");
    if (ok == nullptr || !ok->isBool() || !ok->boolean) {
      std::cout << response << "\n";
      return reportServiceError(root);
    }
    if (metrics.prometheus) {
      // Unwrap the escaped exposition text: stdout carries exactly what a
      // Prometheus textfile collector expects, not the JSON envelope.
      const json::Value* body = root.find("body");
      std::cout << (body != nullptr && body->isString() ? body->string : "");
      return 0;
    }
    std::cout << response << "\n";
    return 0;
  }
  if (target == "events") {
    service::EventsRequest events;
    events.tenant = args.option("tenant"); // empty = every tenant
    events.limit = parseUint(args.option("limit", "0"), "limit");
    return printResponse(client.call(service::eventsRequestJson(events)));
  }
  if (target == "ping" || target == "shutdown") {
    const service::RequestType type = target == "ping"
                                          ? service::RequestType::Ping
                                          : service::RequestType::Shutdown;
    return printResponse(client.call(service::simpleRequestJson(type)));
  }

  service::SubmitRequest request;
  applyRunOptions(args, request);
  request.tenant = args.option("tenant", "cli");
  if (target.rfind('@', 0) == 0) {
    request.programRef = target.substr(1); // resubmit by content id
  } else {
    request.program = readFile(target);
  }
  request.shots = parseUint(args.option("shots", "100"), "shots");
  if (!args.option("seed").empty()) {
    request.seed = parseUint(args.option("seed"), "seed");
  }
  if (!args.option("priority").empty()) {
    try {
      request.priority = std::stoll(args.option("priority"));
    } catch (const std::exception&) {
      fail("--priority expects an integer, got '" + args.option("priority") +
           "'");
    }
  }
  request.deadlineMs =
      parseUint(args.option("deadline-ms", "0"), "deadline-ms");
  request.requestId = args.option("request-id");

  const std::string response =
      client.call(service::submitRequestJson(request));
  if (args.flag("json")) {
    std::cout << response << "\n";
    const json::Value root = json::parse(response);
    const json::Value* ok = root.find("ok");
    return ok != nullptr && ok->isBool() && ok->boolean ? 0 : 1;
  }
  const json::Value root = json::parse(response);
  const json::Value* ok = root.find("ok");
  if (ok == nullptr || !ok->isBool() || !ok->boolean) {
    return reportServiceError(root);
  }
  // stderr: the serve-side attribution `qirkit run` has no equivalent for.
  const json::Value* programId = root.find("program_id");
  std::cerr << "job " << fieldU64(root, "job_id") << ": program @"
            << (programId != nullptr ? programId->string : "?") << ", seed "
            << fieldU64(root, "seed") << ", queue "
            << fieldU64(root, "queue_wait_ns") / 1000 << " us, exec "
            << fieldU64(root, "exec_ns") / 1000 << " us\n";
  if (args.flag("verbose-timing")) {
    // Per-stage breakdown from the response's trace context, on stderr so
    // stdout stays byte-identical to `qirkit run`.
    if (const json::Value* stages = root.find("stages")) {
      for (const json::Value& stage : stages->array) {
        const json::Value* name = stage.find("stage");
        const json::Value* note = stage.find("note");
        std::cerr << "  stage "
                  << (name != nullptr && name->isString() ? name->string : "?");
        if (note != nullptr && note->isString()) {
          std::cerr << " [" << note->string << "]";
        }
        std::cerr << ": start +" << fieldU64(stage, "start_ns") / 1000
                  << " us, took " << fieldU64(stage, "dur_ns") / 1000
                  << " us\n";
      }
    }
  }
  // stdout: byte-identical to `qirkit run` so histograms diff with cmp.
  std::cout << "shots: " << fieldU64(root, "shots")
            << ", gates/shot: " << fieldU64(root, "gates_per_shot")
            << ", measurements/shot: "
            << fieldU64(root, "measurements_per_shot") << "\n";
  if (const json::Value* histogram = root.find("histogram")) {
    for (const auto& [bits, count] : histogram->object) {
      std::cout << (bits.empty() ? "(no recorded output)" : bits) << ": "
                << static_cast<std::uint64_t>(count.number) << "\n";
    }
  }
  return 0;
}

void usage() {
  std::cerr
      << "usage: qirkit <parse|validate|opt|compile|run|translate|"
         "partition|feasibility|serve|submit> <file> [options]\n"
         "common options:\n"
         "  --stats[=text|json]   print telemetry (parse/pass/vm/cache/shot\n"
         "                        metrics) on stderr after the command\n"
         "  -o <path>             write primary output to a file (opt,\n"
         "                        compile, translate)\n"
         "run options: --shots N --seed S --jobs N\n"
         "             --retries N --max-failed-shots N --no-fallback\n"
         "             --timeout-ms N (partial histogram + error[deadline])\n"
         "             and the execution options below\n"
         "compile options: --target line:N|ring:N|grid:RxC|full:N\n"
         "             --addressing static|dynamic --reuse --defer-mz\n"
         "serve: qirkit serve <socket> [--runners N] [--jobs N]\n"
         "             [--program-capacity N] [--queue-capacity N]\n"
         "             [--tenant-pending N]\n"
         "             [--max-shots N] [--max-frame-bytes N]\n"
         "             [--rate-limit R/s] [--rate-burst B]\n"
         "             [--memory-budget-mb N] [--watchdog-factor N]\n"
         "             [--flight-capacity N] [--slow-threshold-ms N]\n"
         "submit: qirkit submit <file|@program-id|metrics|events|ping|"
         "shutdown|cancel>\n"
         "             --socket <path> [--tenant T] [--shots N] [--seed S]\n"
         "             [--priority P] [--deadline-ms N] [--request-id ID]\n"
         "             [--connect-retries N] [--json] [--verbose-timing]\n"
         "             and the execution options below\n"
         "             metrics: [--format json|prometheus] (prometheus text\n"
         "             exposition on stdout); events: [--tenant T] [--limit N]\n"
         "             (flight-recorder replay of recent requests)\n"
         "execution options (run and submit):\n";
  for (const vm::RunOption& option : vm::runOptions()) {
    std::string spelling = "  --";
    spelling += option.cli;
    if (!option.flag) {
      spelling += ' ';
      spelling += option.allowed();
    }
    spelling.resize(std::max<std::size_t>(spelling.size() + 1, 34), ' ');
    std::cerr << spelling << option.help << "\n";
  }
  std::cerr
      << "environment:\n"
         "  QIRKIT_TRACE=<file>       write Chrome trace-event JSON "
         "(Perfetto)\n"
         "  QIRKIT_FAULT_INJECT=...   arm the deterministic fault injector\n"
         "see the header of tools/qirkit.cpp or README.md for details\n";
}

/// The documented exit-code contract: 0 success, 1 diagnostics/trap,
/// 2 usage, 3 internal.
int exitCodeFor(qirkit::ErrorCode code) noexcept {
  switch (code) {
  case ErrorCode::Usage:
    return 2;
  case ErrorCode::Internal:
    return 3;
  default:
    return 1;
  }
}

} // namespace

int main(int argc, char** argv) {
  // Flush any armed trace on every exit path (including thrown
  // diagnostics) so a failed run still yields a loadable trace.
  struct TraceFlusher {
    ~TraceFlusher() {
      if (!qirkit::telemetry::trace::flush()) {
        std::cerr << "qirkit: warning: could not write QIRKIT_TRACE file\n";
      }
    }
  } traceFlusher;
  try {
    qirkit::fault::FaultInjector::instance().configureFromEnv();
    qirkit::telemetry::trace::initFromEnv();
    if (argc < 3) {
      usage();
      return 2;
    }
    struct Command {
      const char* name;
      int (*run)(const Args&);
      Accepts accepts;
    };
    const Command commands[] = {
        {"parse", cmdParse, {}},
        {"validate", cmdValidate, {{"profile"}, {}}},
        {"opt", cmdOpt, {{"output"}, {}}},
        {"compile", cmdCompile,
         {{"target", "addressing", "output"}, {"reuse", "defer-mz"}}},
        {"run", cmdRun,
         {{"shots", "seed", "jobs", "max-failed-shots", "retries",
           "timeout-ms"},
          {"no-fallback"},
          true}},
        {"translate", cmdTranslate, {{"to", "addressing", "output"}, {}}},
        {"partition", cmdPartition, {}},
        {"feasibility", cmdFeasibility, {{"budget", "model"}, {}}},
        {"serve", cmdServe,
         {{"runners", "jobs", "program-capacity",
           "max-frame-bytes", "queue-capacity", "tenant-pending", "max-shots",
           "rate-limit", "rate-burst", "memory-budget-mb", "watchdog-factor",
           "flight-capacity", "slow-threshold-ms"},
          {}}},
        {"submit", cmdSubmit,
         {{"socket", "connect-retries", "tenant", "request-id", "format",
           "limit", "shots", "seed", "priority", "deadline-ms"},
          {"json", "verbose-timing"},
          true}},
    };
    const std::string command = argv[1];
    const auto* const it =
        std::find_if(std::begin(commands), std::end(commands),
                     [&](const Command& c) { return command == c.name; });
    if (it == std::end(commands)) {
      usage();
      return 2;
    }
    const Args args = parseArgs(argc, argv, 2, command, it->accepts);
    if (args.positional.empty()) {
      usage();
      return 2;
    }
    const bool statsRequested = args.options.count("stats") != 0U;
    const std::string statsFormat = args.option("stats", "text");
    if (statsRequested) {
      if (statsFormat != "text" && statsFormat != "json") {
        fail("--stats expects text or json, got '" + statsFormat + "'");
      }
      qirkit::telemetry::setEnabled(true);
    }
    const int rc = it->run(args);
    if (statsRequested) {
      // stderr keeps stdout byte-identical with and without --stats.
      if (statsFormat == "json") {
        std::cerr << qirkit::telemetry::statsJson(command) << "\n";
      } else {
        std::cerr << qirkit::telemetry::statsText();
      }
    }
    return rc;
  } catch (const qirkit::Error& e) {
    std::cerr << "qirkit: " << e.formatted() << "\n";
    return exitCodeFor(e.code());
  } catch (const std::exception& e) {
    std::cerr << "qirkit: error[internal]: " << e.what() << "\n";
    return 3;
  }
}
