/// \file replay.cpp
/// `bench_pipeline replay`: one `qirkit run` or `qirkit compile` operation
/// re-enacted in a fresh process through the same public calls, in the
/// CLI's order, with a steady-clock pair around each. Nothing inside the
/// program is instrumented; attribution comes only from these calls.
///
/// --host null substitutes a host whose externs and fused blocks do
/// nothing, so the execution span (vm.exec) holds VM dispatch and the
/// extern-call boundary only; the difference to the simulated run is the
/// runtime's and the simulator's share. runtime::RecordingRuntime cannot
/// play this role: recording the circuit costs more per shot than
/// simulating these small states does (README.md, "Splitting execution").
#include "pipeline.hpp"

#include "circuit/mapping.hpp"
#include "circuit/optimizer.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "qasm/parser.hpp"
#include "qasm/qasm3.hpp"
#include "qir/compile.hpp"
#include "qir/importer.hpp"
#include "qir/profiles.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"
#include "vm/cache.hpp"
#include "vm/shot_analysis.hpp"
#include "vm/vm.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace qirkit::bench::pipeline {

namespace {

class Recorder {
public:
  template <typename Body>
  decltype(auto) time(const char* name, Body&& body) {
    const Clock::time_point t0 = Clock::now();
    struct Close {
      Recorder& self;
      const char* name;
      Clock::time_point t0;
      ~Close() { self.add(name, t0, Clock::now()); }
    } close{*this, name, t0};
    return body();
  }

  void count(const std::string& name, double value) { counts_[name] = value; }

  /// Stages this operation's route never entered still get a span: an
  /// empty clock pair, so every stage reads as a measurement.
  void write(const std::string& path) {
    for (const StageName& stage : kReplayStages) {
      if (!seen(stage.name)) {
        time(stage.name, [] {});
      }
    }
    std::ofstream out(path);
    for (const ReplayRecord::Span& s : spans_) {
      out << "span " << s.name << " " << s.startNs << " " << s.endNs << "\n";
    }
    for (const auto& [name, value] : counts_) {
      out << "count " << name << " " << value << "\n";
    }
    if (!out.flush()) {
      throw std::runtime_error("cannot write spans to '" + path + "'");
    }
  }

private:
  void add(const char* name, Clock::time_point t0, Clock::time_point t1) {
    const auto ns = [&](Clock::time_point t) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count());
    };
    spans_.push_back({name, ns(t0), ns(t1)});
  }
  bool seen(std::string_view name) const {
    for (const ReplayRecord::Span& s : spans_) {
      if (s.name == name) {
        return true;
      }
    }
    return false;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<ReplayRecord::Span> spans_;
  std::map<std::string, double> counts_;
};

/// Every extern returns 0 (measurements read as 0) and every fused block
/// is dropped; the VM's own work is unchanged.
class NullHost final : public interp::FusedGateHost {
public:
  void bind(vm::Vm& machine) {
    for (const std::string& name : machine.module().externNames) {
      machine.bindExternal(name, [](std::span<const interp::RtValue>,
                                    interp::ExternContext&) {
        return interp::RtValue::makeInt(0);
      });
    }
    machine.bindFusedHost(this);
  }
  void applyFusedBlock(const interp::FusedBlock&) override {}
  void applyFusedSweep(std::span<const interp::FusedBlock>) override {}
};

struct Options {
  std::string op, in, output, spans, target, host = "sim";
  std::uint64_t shots = 0, seed = 0;
};

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--op") o.op = value;
    else if (key == "--in") o.in = value;
    else if (key == "--output") o.output = value;
    else if (key == "--spans") o.spans = value;
    else if (key == "--target") o.target = value;
    else if (key == "--host") o.host = value;
    else if (key == "--shots") o.shots = std::stoull(value);
    else if (key == "--seed") o.seed = std::stoull(value);
    else throw std::invalid_argument("replay: unknown option " + key);
  }
  if ((o.op != "run" && o.op != "compile") || o.in.empty() || o.output.empty() ||
      o.spans.empty()) {
    throw std::invalid_argument("replay: needs --op run|compile --in --output --spans");
  }
  return o;
}

/// tools/qirkit.cpp loadModule, one public call per span.
std::unique_ptr<ir::Module> load(Recorder& rec, ir::Context& ctx, const Options& o,
                                 const std::string& text, qir::Addressing addressing) {
  switch (sourceKind(o.in, text)) {
  case SourceKind::Qasm3:
    return rec.time("qasm.parse", [&] { return qasm::compileQasm3(ctx, text); });
  case SourceKind::Qasm2: {
    const circuit::Circuit c = rec.time("qasm.parse", [&] { return qasm::parse(text); });
    qir::ExportOptions options;
    options.addressing = addressing;
    return rec.time("qir.export", [&] { return qir::exportCircuit(ctx, c, options); });
  }
  case SourceKind::Qir:
    break;
  }
  return rec.time("ir.parse", [&] { return ir::parseModule(ctx, text, o.in); });
}

void countBytecode(Recorder& rec, const vm::BytecodeModule& bytecode) {
  double blocks = 0;
  double sweeps = 0;
  for (const vm::CompiledFunction& fn : bytecode.functions) {
    blocks += static_cast<double>(fn.fusedBlocks.size());
    sweeps += static_cast<double>(fn.fusedSweeps.size());
  }
  rec.count("vm.bytecode_instrs", static_cast<double>(bytecode.instructionCount()));
  rec.count("vm.fused_blocks", blocks);
  rec.count("vm.fused_sweeps", sweeps);
}

/// cmdRun -> vm::runShots with the CLI's defaults (VM engine, fusion,
/// the build's dispatch loop, no pool).
std::string replayRun(Recorder& rec, const Options& o, const ir::Module& module,
                      std::shared_ptr<const vm::BytecodeModule>& compiled) {
  const vm::DispatchMode dispatch = vm::defaultDispatchMode();
  const vm::CompileOptions compileOptions{
      .fuseGates = true,
      .dispatch = dispatch,
      .superinstructions = dispatch == vm::DispatchMode::Threaded};
  compiled = rec.time("vm.compile", [&] {
    return vm::CompileCache::global().getOrCompile(module, compileOptions);
  });
  rec.time("vm.cache_hit", [&] {
    return vm::CompileCache::global().getOrCompile(module, compileOptions);
  });
  countBytecode(rec, *compiled);
  const vm::ShotAnalysis analysis =
      rec.time("vm.analyze", [&] { return vm::analyzeShotProfile(module); });
  const bool sampled = analysis.profile == vm::ShotProfile::Terminal && o.shots > 0;
  rec.count("exec.sampled", sampled ? 1 : 0);

  if (o.host == "null") {
    vm::Vm machine(compiled);
    NullHost host;
    host.bind(machine);
    rec.time("vm.exec", [&] {
      for (std::uint64_t s = 0; s < (sampled ? 1 : o.shots); ++s) {
        machine.reset();
        machine.runEntryPoint();
      }
    });
    return {};
  }

  Histogram histogram;
  runtime::RuntimeStats stats;
  interp::InterpStats engineStats;
  std::uint64_t kernelPasses = 0;
  unsigned qubits = 0;
  if (sampled) {
    runtime::QuantumRuntime rt(o.seed, nullptr, sim::Precision::F64);
    rt.setMeasurementMode(runtime::QuantumRuntime::MeasurementMode::Defer);
    rec.time("sim.simulate", [&] {
      vm::Vm machine(compiled);
      rt.bind(machine);
      machine.runEntryPoint();
      engineStats = machine.stats();
    });
    histogram = rec.time("sim.sample", [&] {
      SplitMix64 rng(o.seed);
      return rt.sampleRecordedHistogram(o.shots, rng);
    });
    stats = rt.stats();
    kernelPasses = rt.state().gateCount();
    qubits = rt.state().numQubits();
  } else {
    vm::Vm machine(compiled);
    runtime::QuantumRuntime rt(0, nullptr, sim::Precision::F64);
    rt.bind(machine);
    rec.time("runtime.shots", [&] {
      for (std::uint64_t s = 0; s < o.shots; ++s) {
        rt.reset(o.seed + s);
        machine.reset();
        machine.resetStats();
        machine.runEntryPoint();
        ++histogram[rt.outputBitString()];
      }
    });
    stats = rt.stats();
    engineStats = machine.stats();
    kernelPasses = rt.state().gateCount() * o.shots;
    qubits = rt.state().numQubits();
  }
  rec.count("vm.instr_per_shot", static_cast<double>(engineStats.instructionsExecuted));
  rec.count("runtime.gates_per_shot", static_cast<double>(stats.gatesApplied));
  rec.count("sim.qubits", qubits);
  rec.count("sim.bytes_moved_computed",
            static_cast<double>(kernelPasses) * 2.0 * 16.0 *
                static_cast<double>(std::uint64_t{1} << qubits));
  return runStdout(o.shots, stats.gatesApplied, stats.measurements, histogram);
}

/// cmdCompile -> qir::compileToTarget, step by step.
std::string replayCompile(Recorder& rec, const Options& o, ir::Context& ctx,
                          ir::Module& module) {
  const std::size_t sweeps =
      rec.time("passes.transform", [&] { return qir::transformDirect(module, 1 << 16); });
  rec.count("passes.sweeps", static_cast<double>(sweeps));
  rec.count("passes.instructions_after", static_cast<double>(module.instructionCount()));
  circuit::Circuit c = rec.time("qir.import", [&] { return qir::importFromModule(module); });
  rec.time("circuit.optimize", [&] { return circuit::optimizeCircuit(c); });
  const circuit::MappingResult mapping = rec.time("circuit.map", [&] {
    return circuit::mapCircuit(circuit::decomposeToCXBasis(c), parseTarget(o.target));
  });
  c = mapping.mapped;
  rec.time("circuit.optimize", [&] { return circuit::optimizeCircuit(c); });
  rec.count("circuit.gates", static_cast<double>(c.gateCount()));
  rec.count("circuit.swaps", static_cast<double>(mapping.swapsInserted));
  const auto out = rec.time("qir.export", [&] {
    return qir::exportCircuit(ctx, c, qir::ExportOptions{});
  });
  rec.time("qir.profile", [&] { return qir::detectProfile(*out); });
  return rec.time("ir.print", [&] { return ir::printModule(*out); });
}

} // namespace

int replayMain(int argc, char** argv) {
  const Options o = parseOptions(argc, argv);
  Recorder rec;
  const std::string text = rec.time("process.io", [&] { return readFile(o.in); });
  auto ctx = std::make_unique<ir::Context>();
  auto module = load(rec, *ctx, o, text,
                     o.op == "run" ? qir::Addressing::Static : qir::Addressing::Dynamic);
  rec.count("ir.instructions", static_cast<double>(module->instructionCount()));
  std::shared_ptr<const vm::BytecodeModule> compiled;
  const std::string output = o.op == "run" ? replayRun(rec, o, *module, compiled)
                                           : replayCompile(rec, o, *ctx, *module);
  rec.time("process.io", [&] { writeFile(o.output, output); });
  rec.time("process.teardown", [&] {
    compiled.reset();
    module.reset();
    ctx.reset();
  });
  rec.write(o.spans);
  return 0;
}

ReplayRecord readReplayRecord(const std::string& path) {
  ReplayRecord record;
  std::istringstream in(readFile(path));
  std::string kind;
  std::string name;
  while (in >> kind >> name) {
    if (kind == "span") {
      ReplayRecord::Span s;
      s.name = name;
      in >> s.startNs >> s.endNs;
      record.spans.push_back(std::move(s));
    } else {
      in >> record.counts[name];
    }
  }
  return record;
}

} // namespace qirkit::bench::pipeline
