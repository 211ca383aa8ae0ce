/// \file pipeline.hpp
/// Shared pieces of bench_pipeline, the repository's end-to-end benchmark:
/// exact order statistics, child-process control with rusage, the seeded
/// workload corpus with its reference answers, and the in-process replay
/// that attributes a CLI operation's time to the repository's modules.
#pragma once

#include "circuit/mapping.hpp"

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qirkit::bench::pipeline {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// -- exact order statistics ---------------------------------------------------

/// The p-quantile of the raw samples, linearly interpolated between the
/// two neighbouring order statistics; NaN when \p samples is empty.
[[nodiscard]] double quantile(std::vector<double> samples, double p);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}
[[nodiscard]] double geomean(const std::vector<double>& values);

// -- files and child processes ------------------------------------------------

[[nodiscard]] std::string readFile(const std::string& path);
void writeFile(const std::string& path, const std::string& text);

/// One spawned child, timed from just before the spawn to just after the
/// reap; cpu and peak RSS come from the child's own rusage (wait4).
struct ChildRun {
  bool spawned = false;
  int exitCode = -1; // -1 when the child died on a signal
  double wallMs = 0;
  double cpuMs = 0;
  double maxRssMb = 0;
};

/// Spawns the measured children from a process forked when the benchmark
/// starts. Linux carries the spawning process's peak RSS into a child's
/// ru_maxrss at exec, so children spawned by the benchmark itself, after it
/// simulated the reference answers, would report its peak instead of their
/// own; the launcher's peak stays at a few MiB.
class Launcher {
public:
  /// Fork the launcher; call before the benchmark allocates anything large
  /// and before it starts threads.
  Launcher();
  ~Launcher();
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  /// Run \p argv to completion with stdout and stderr sent to files.
  [[nodiscard]] ChildRun run(const std::vector<std::string>& argv,
                             const std::string& stdoutPath, const std::string& stderrPath);

private:
  pid_t pid_ = -1;
  int fd_ = -1;
};

/// A `qirkit serve` daemon owned by the benchmark. The destructor stops
/// it (shutdown verb, then SIGKILL after a grace period) and reaps it.
class Daemon {
public:
  Daemon(const std::string& qirkit, const std::string& socketPath,
         const std::string& logPath);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }
  /// User+system CPU the daemon has used so far (/proc/<pid>/stat).
  [[nodiscard]] double cpuMs() const;
  /// The daemon's peak resident set so far (VmHWM).
  [[nodiscard]] double peakRssMb() const;
  /// Ask the daemon to drain and exit; true when it exited cleanly.
  bool stop();

private:
  std::string socket_;
  pid_t pid_ = -1;
};

// -- corpus -------------------------------------------------------------------

/// How tools/qirkit.cpp reads an input: OpenQASM by extension or header,
/// version 3 by its header, QIR text otherwise.
enum class SourceKind { Qir, Qasm2, Qasm3 };
[[nodiscard]] SourceKind sourceKind(const std::string& path, const std::string& text);

/// A `--target` spec as the corpus uses it: line:N or grid:RxC.
[[nodiscard]] circuit::Target parseTarget(const std::string& spec);

enum class OpKind { Run, Compile };

/// One program of a CLI workload: the file `qirkit run|compile` is pointed
/// at, its arguments, and the answer every invocation must reproduce.
struct Program {
  std::string name;
  OpKind kind = OpKind::Run;
  std::string file; // path of the input file
  std::string text; // its contents
  std::uint64_t shots = 0;
  std::uint64_t shotSeed = 0;
  std::string target; // compile: line:N / grid:RxC
  /// run: the exact stdout; compile: the exact output module text.
  std::string expected;
};

using Histogram = std::map<std::string, std::uint64_t>;

/// One program of the serve catalogue, with its reference histogram for
/// each request seed.
struct ServeProgram {
  std::string name;
  std::string text;
  std::uint64_t shots = 0;
  std::map<std::uint64_t, Histogram> expected; // request seed -> histogram
  std::string ref;                             // content id once registered
};

/// One scheduled serve request. group indexes the catalogue, or equals the
/// catalogue size for fresh programs, whose reference is freshExpected
/// [fresh].
struct ServeRequest {
  double dueS = 0;
  unsigned connection = 0;
  enum class Kind { Ref, Inline, Fresh } kind = Kind::Ref;
  std::size_t group = 0;
  std::size_t fresh = 0;
  std::uint64_t seed = 0;
  std::string line;
};

struct Corpus {
  std::vector<Program> programs;        // CLI workloads
  std::vector<ServeProgram> catalogue;  // serve_mix
  std::vector<Histogram> freshExpected; // serve_mix fresh programs
  std::vector<ServeRequest> schedule;   // serve_mix
  /// Setup-time check failures (a broken generator or reference).
  std::vector<std::string> problems;

  [[nodiscard]] const Histogram& expected(const ServeRequest& r) const {
    return r.group < catalogue.size() ? catalogue[r.group].expected.at(r.seed)
                                      : freshExpected[r.fresh];
  }
};

/// The serve tenant connection \p connection submits as.
[[nodiscard]] inline std::string tenantName(unsigned connection) {
  std::string name = "t";
  name += std::to_string(connection);
  return name;
}

inline const std::vector<std::string> kWorkloads = {
    "terminal_wide", "feedback_shots", "compile_route", "serve_mix"};

/// Generate \p workload's corpus from \p seed, write its input files under
/// \p dir and compute every reference answer in-process. serve_mix also
/// builds its request schedule for a window of \p seconds.
[[nodiscard]] Corpus buildCorpus(const std::string& workload, std::uint64_t seed,
                                 const std::string& dir, double seconds);

/// `qirkit run` stdout for a histogram, byte for byte.
[[nodiscard]] std::string runStdout(std::uint64_t shots, std::uint64_t gatesPerShot,
                                    std::uint64_t measurementsPerShot,
                                    const Histogram& histogram);

// -- traced replay ------------------------------------------------------------

/// Stages every replay reports, in pipeline order. in-path stages sum to
/// the replay's share of a CLI invocation; the others are probes.
struct StageName {
  const char* name;
  bool inPath;
};
inline constexpr StageName kReplayStages[] = {
    {"process.io", true},       {"ir.parse", true},
    {"qasm.parse", true},       {"qir.export", true},
    {"passes.transform", true}, {"qir.import", true},
    {"circuit.optimize", true}, {"circuit.map", true},
    {"qir.profile", true},      {"ir.print", true},
    {"vm.compile", true},       {"vm.analyze", true},
    {"sim.simulate", true},     {"sim.sample", true},
    {"runtime.shots", true},    {"process.teardown", true},
    {"vm.cache_hit", false},    {"vm.exec", false},
};

/// `bench_pipeline replay ...`: run one CLI operation's public calls
/// in-process with a steady-clock pair around each, write the operation's
/// output to --output and its spans and counts to --spans.
int replayMain(int argc, char** argv);

/// A replay's spans (name, start, end in ns since the replay started) and
/// its counts, as read back by the parent.
struct ReplayRecord {
  struct Span {
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
  };
  std::vector<Span> spans;
  std::map<std::string, double> counts;
};

[[nodiscard]] ReplayRecord readReplayRecord(const std::string& path);

} // namespace qirkit::bench::pipeline
