/// \file corpus.cpp
/// The seeded workload corpus of bench_pipeline and its reference answers.
/// Every random circuit, rotation angle, shot seed, arrival time and fresh
/// serve program is drawn from the workload seed; the programs are written
/// to files exactly as a user would hand them to `qirkit`.
///
/// References are independent of the code path they check: `run` answers
/// come from the reference interpreter (Engine::Interp), whose seeded
/// histograms equal the VM's by contract; `compile` output is checked for
/// well-formedness, profile conformance, coupling and measured-bit
/// marginals against the input program.
#include "pipeline.hpp"

#include "workloads.hpp"

#include "circuit/generators.hpp"
#include "circuit/mapping.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "qasm/parser.hpp"
#include "qasm/printer.hpp"
#include "qasm/qasm3.hpp"
#include "qir/compile.hpp"
#include "qir/importer.hpp"
#include "qir/profiles.hpp"
#include "service/protocol.hpp"
#include "support/rng.hpp"
#include "vm/executor.hpp"

#include <cmath>
#include <numbers>
#include <sstream>

namespace qirkit::bench::pipeline {

namespace {

/// An independent stream per use of the seed, so adding a draw to one
/// program never shifts another's.
SplitMix64 stream(std::uint64_t seed, std::uint64_t salt) {
  return SplitMix64(seed * 0x9e3779b97f4a7c15ULL + salt);
}

/// The examples/openqasm3_frontend.cpp shape on 6 qubits: nested FOR
/// loops whose variable drives both the qubit index and the angle, then a
/// mid-circuit measurement with a classically conditioned X.
std::string layeredQasm3(unsigned layers, unsigned phase) {
  std::ostringstream s;
  s << "OPENQASM 3;\ninclude \"stdgates.inc\";\nqubit[6] q;\nbit[6] c;\n"
    << "for int layer in [0:" << layers - 1 << "] {\n"
    << "  for int i in [0:5] {\n    ry(pi * (layer + " << phase
    << ") / 16) q[i];\n  }\n"
    << "  for int i in [0:4] {\n    cx q[i], q[i+1];\n  }\n}\n"
    << "c[0] = measure q[0];\nif (c[0] == 1) {\n  x q[0];\n}\n"
    << "for int i in [0:5] {\n  c[i] = measure q[i];\n}\n";
  return s.str();
}

std::string qir(const circuit::Circuit& c, qir::Addressing addressing) {
  return qirTextFor(c, addressing, /*recordOutput=*/true);
}

std::unique_ptr<ir::Module> load(ir::Context& ctx, const Program& p,
                                 qir::Addressing addressing) {
  switch (sourceKind(p.file, p.text)) {
  case SourceKind::Qasm3:
    return qasm::compileQasm3(ctx, p.text);
  case SourceKind::Qasm2: {
    qir::ExportOptions options;
    options.addressing = addressing;
    return qir::exportCircuit(ctx, qasm::parse(p.text), options);
  }
  case SourceKind::Qir:
    break;
  }
  return ir::parseModule(ctx, p.text, p.file);
}

vm::ShotBatchResult interpShots(const ir::Module& module, std::uint64_t shots,
                                std::uint64_t seed) {
  vm::ShotOptions options;
  options.shots = shots;
  options.seed = seed;
  options.engine = vm::Engine::Interp;
  return vm::runShots(module, options);
}

/// Per-bit frequency of '1' over a histogram of equal-length bit strings.
std::vector<double> marginals(const Histogram& h) {
  std::vector<double> ones;
  std::uint64_t total = 0;
  for (const auto& [bits, count] : h) {
    ones.resize(std::max(ones.size(), bits.size()), 0.0);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      ones[i] += bits[i] == '1' ? static_cast<double>(count) : 0.0;
    }
    total += count;
  }
  for (double& v : ones) {
    v /= static_cast<double>(total);
  }
  return ones;
}

constexpr std::uint64_t kMarginalShots = 8192;
constexpr double kMarginalTolerance = 0.03;
/// Largest register the marginal check simulates; wider outputs keep the
/// structural checks only.
constexpr unsigned kMarginalMaxQubits = 16;

void referenceRun(Program& p) {
  ir::Context ctx;
  const auto module = load(ctx, p, qir::Addressing::Static);
  const vm::ShotBatchResult r = interpShots(*module, p.shots, p.shotSeed);
  p.expected = runStdout(p.shots, r.lastShotStats.gatesApplied,
                         r.lastShotStats.measurements, r.histogram);
}

/// The compile reference: the output of the same public pipeline, which
/// every CLI invocation must reproduce byte for byte, after it passes the
/// structural and statistical checks.
void referenceCompile(Program& p, std::vector<std::string>& problems) {
  ir::Context ctx;
  auto module = load(ctx, p, qir::Addressing::Dynamic);
  qir::CompileOptions options;
  options.target = parseTarget(p.target);
  const qir::CompileResult compiled = qir::compileToTarget(ctx, *module, options);
  p.expected = ir::printModule(*compiled.module);

  const auto fail = [&](const std::string& why) {
    problems.push_back(p.name + ": " + why);
  };
  ir::Context outCtx;
  const auto out = ir::parseModule(outCtx, p.expected);
  if (!ir::verifyModule(*out).empty()) {
    fail("compiled output does not verify");
  }
  if (!qir::validateProfile(*out, qir::detectProfile(*out)).conforms) {
    fail("compiled output violates its detected profile");
  }
  const circuit::Circuit mapped = qir::importFromModule(*out);
  if (!circuit::respectsCoupling(mapped, *options.target)) {
    fail("compiled output violates the coupling of " + p.target);
  }
  if (p.expected.find("result_record_output") == std::string::npos ||
      mapped.numQubits() > kMarginalMaxQubits) {
    return;
  }
  ir::Context inCtx;
  const auto in = load(inCtx, p, qir::Addressing::Dynamic);
  const std::vector<double> a = marginals(interpShots(*in, kMarginalShots, p.shotSeed).histogram);
  const std::vector<double> b = marginals(interpShots(*out, kMarginalShots, p.shotSeed).histogram);
  if (a.size() != b.size()) {
    fail("compiled output records a different number of bits");
    return;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > kMarginalTolerance) {
      fail("bit " + std::to_string(i) + " marginal moved from " + std::to_string(a[i]) +
           " to " + std::to_string(b[i]));
    }
  }
}

void addProgram(Corpus& corpus, const std::string& dir, std::string name,
                std::string ext, std::string text, OpKind kind, std::uint64_t shots,
                std::uint64_t shotSeed, std::string target = {}) {
  Program p;
  p.file = dir + "/" + name + ext;
  p.name = std::move(name);
  p.kind = kind;
  p.text = std::move(text);
  p.shots = shots;
  p.shotSeed = shotSeed;
  p.target = std::move(target);
  writeFile(p.file, p.text);
  if (kind == OpKind::Run) {
    referenceRun(p);
  } else {
    referenceCompile(p, corpus.problems);
  }
  corpus.programs.push_back(std::move(p));
}

/// terminal_wide: measurement-terminal circuits wide enough that the
/// statevector kernels, fusion sweeps and sampling do nearly all the work.
void terminalWide(Corpus& c, std::uint64_t seed, const std::string& dir) {
  SplitMix64 rng = stream(seed, 1);
  const std::uint64_t shots = 4096;
  addProgram(c, dir, "ghz22", ".ll", qir(circuit::ghz(22), qir::Addressing::Static),
             OpKind::Run, shots, rng());
  addProgram(c, dir, "qft20", ".ll",
             qir(circuit::qft(20, /*measured=*/true), qir::Addressing::Static),
             OpKind::Run, shots, rng());
  addProgram(c, dir, "random20x40", ".ll",
             qir(circuit::randomCircuit(20, 40, rng()), qir::Addressing::Static),
             OpKind::Run, shots, rng());
  addProgram(c, dir, "random18x40", ".qasm",
             qasm::print(circuit::randomCircuit(18, 40, rng())), OpKind::Run, shots,
             rng());
}

/// feedback_shots: mid-circuit measurement forces per-shot resimulation
/// on at most 64 amplitudes, so VM dispatch, the runtime ABI and per-shot
/// reset dominate.
void feedbackShots(Corpus& c, std::uint64_t seed, const std::string& dir) {
  SplitMix64 rng = stream(seed, 2);
  const double theta = rng.uniform() * std::numbers::pi;
  const auto errorQubit = static_cast<unsigned>(rng() % 4); // 3: no error
  addProgram(c, dir, "repcode", ".ll",
             qir(circuit::repetitionCodeCycle(theta, errorQubit), qir::Addressing::Static),
             OpKind::Run, 20000, rng());
  addProgram(c, dir, "feedback64", ".ll", feedbackProgram(64), OpKind::Run, 20000, rng());
  addProgram(c, dir, "layered6", ".qasm",
             layeredQasm3(16, 1 + static_cast<unsigned>(rng() % 8)), OpKind::Run, 5000,
             rng());
}

/// compile_route: frontends, the classical passes, import, the circuit
/// optimizer, the mapper and export/print; no VM and no simulation.
void compileRoute(Corpus& c, std::uint64_t seed, const std::string& dir) {
  SplitMix64 rng = stream(seed, 3);
  addProgram(c, dir, "ex4loop64", ".ll", ex4LoopProgram(64), OpKind::Compile, 0, 0,
             "grid:8x8");
  addProgram(c, dir, "variational32x8", ".ll", variationalLoopProgram(32, 8),
             OpKind::Compile, 0, 0, "grid:3x3");
  addProgram(c, dir, "layered6", ".qasm",
             layeredQasm3(16, 1 + static_cast<unsigned>(rng() % 8)), OpKind::Compile, 0,
             rng(), "line:6");
  addProgram(c, dir, "qft16dyn", ".ll",
             qir(circuit::qft(16, /*measured=*/true), qir::Addressing::Dynamic),
             OpKind::Compile, 0, rng(), "grid:4x4");
  addProgram(c, dir, "random24x60dyn", ".ll",
             qir(circuit::randomCircuit(24, 60, rng()), qir::Addressing::Dynamic),
             OpKind::Compile, 0, rng(), "grid:5x5");
}

Histogram interpHistogram(const std::string& text, std::uint64_t shots,
                          std::uint64_t seed) {
  ir::Context ctx;
  const auto module = ir::parseModule(ctx, text);
  return interpShots(*module, shots, seed).histogram;
}

constexpr double kServeRate = 300.0; // requests per second
constexpr unsigned kServeConnections = 4;
constexpr std::uint64_t kServeSeeds = 8;
constexpr std::uint64_t kFreshShots = 500;

/// serve_mix: a fixed catalogue resubmitted by reference or inline text,
/// plus fresh programs that miss every cache, arriving as a Poisson
/// process over kServeConnections tenants.
void serveMix(Corpus& c, std::uint64_t seed, double seconds) {
  SplitMix64 rng = stream(seed, 4);
  const double theta = rng.uniform() * std::numbers::pi;
  const auto errorQubit = static_cast<unsigned>(rng() % 4);
  c.catalogue = {
      {"repcode", qir(circuit::repetitionCodeCycle(theta, errorQubit),
                      qir::Addressing::Static), 1000, {}, {}},
      {"feedback64", feedbackProgram(64), 2000, {}, {}},
      {"ghz14", qir(circuit::ghz(14), qir::Addressing::Static), 1000, {}, {}},
      {"random12x20", qir(circuit::randomCircuit(12, 20, rng()), qir::Addressing::Static),
       1000, {}, {}},
      {"qft12", qir(circuit::qft(12, /*measured=*/true), qir::Addressing::Static), 1000,
       {}, {}},
  };
  for (ServeProgram& p : c.catalogue) {
    for (std::uint64_t s = 1; s <= kServeSeeds; ++s) {
      p.expected[s] = interpHistogram(p.text, p.shots, s);
    }
  }

  // Poisson arrivals. Fresh programs are generated now so the window
  // itself does no generation work.
  const std::size_t freshGroup = c.catalogue.size();
  std::vector<std::string> freshText;
  std::size_t index = 0;
  for (double t = -std::log(1.0 - rng.uniform()) / kServeRate; t < seconds;
       t += -std::log(1.0 - rng.uniform()) / kServeRate, ++index) {
    ServeRequest r;
    r.dueS = t;
    r.connection = static_cast<unsigned>(index % kServeConnections);
    const double u = rng.uniform();
    r.kind = u < 0.7   ? ServeRequest::Kind::Ref
             : u < 0.9 ? ServeRequest::Kind::Inline
                       : ServeRequest::Kind::Fresh;
    r.seed = 1 + rng() % kServeSeeds;
    r.group = r.kind == ServeRequest::Kind::Fresh ? freshGroup
                                                  : static_cast<std::size_t>(rng() % freshGroup);
    if (r.kind == ServeRequest::Kind::Fresh) {
      freshText.push_back(
          qir(circuit::randomCircuit(10, 20, rng()), qir::Addressing::Static));
    }
    c.schedule.push_back(std::move(r));
  }
  for (ServeRequest& r : c.schedule) {
    service::SubmitRequest submit;
    submit.tenant = tenantName(r.connection);
    submit.seed = r.seed;
    if (r.kind == ServeRequest::Kind::Fresh) {
      r.fresh = c.freshExpected.size();
      submit.program = freshText[r.fresh];
      submit.shots = kFreshShots;
      c.freshExpected.push_back(interpHistogram(submit.program, kFreshShots, r.seed));
    } else {
      const ServeProgram& p = c.catalogue[r.group];
      submit.shots = p.shots;
      if (r.kind == ServeRequest::Kind::Ref) {
        continue; // the line needs the program id registration returns
      }
      submit.program = p.text;
    }
    r.line = service::submitRequestJson(submit);
  }
}

} // namespace

SourceKind sourceKind(const std::string& path, const std::string& text) {
  const auto header = text.find("OPENQASM");
  if (!path.ends_with(".qasm") && header == std::string::npos) {
    return SourceKind::Qir;
  }
  return header != std::string::npos && text.find("OPENQASM 3", header) == header
             ? SourceKind::Qasm3
             : SourceKind::Qasm2;
}

circuit::Target parseTarget(const std::string& spec) {
  const std::string rest = spec.substr(spec.find(':') + 1);
  if (spec.rfind("grid:", 0) == 0) {
    const auto x = rest.find('x');
    return circuit::Target::grid(static_cast<unsigned>(std::stoul(rest.substr(0, x))),
                                 static_cast<unsigned>(std::stoul(rest.substr(x + 1))));
  }
  return circuit::Target::line(static_cast<unsigned>(std::stoul(rest)));
}

std::string runStdout(std::uint64_t shots, std::uint64_t gatesPerShot,
                      std::uint64_t measurementsPerShot, const Histogram& histogram) {
  std::ostringstream out;
  out << "shots: " << shots << ", gates/shot: " << gatesPerShot
      << ", measurements/shot: " << measurementsPerShot << "\n";
  for (const auto& [bits, count] : histogram) {
    out << (bits.empty() ? "(no recorded output)" : bits) << ": " << count << "\n";
  }
  return out.str();
}

Corpus buildCorpus(const std::string& workload, std::uint64_t seed,
                   const std::string& dir, double seconds) {
  Corpus corpus;
  if (workload == "terminal_wide") {
    terminalWide(corpus, seed, dir);
  } else if (workload == "feedback_shots") {
    feedbackShots(corpus, seed, dir);
  } else if (workload == "compile_route") {
    compileRoute(corpus, seed, dir);
  } else if (workload == "serve_mix") {
    serveMix(corpus, seed, seconds);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return corpus;
}

} // namespace qirkit::bench::pipeline
