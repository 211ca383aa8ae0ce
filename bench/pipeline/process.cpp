/// \file process.cpp
/// Order statistics, file helpers and child-process control for
/// bench_pipeline.
#include "pipeline.hpp"

#include "service/client.hpp"
#include "service/protocol.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace qirkit::bench::pipeline {

double quantile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0 || samples[lo] == samples[lo + 1]) {
    return samples[lo]; // also keeps +inf (a failed request) from turning into NaN
  }
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double logSum = 0;
  for (const double v : values) {
    logSum += std::log(v);
  }
  return std::exp(logSum / static_cast<double>(values.size()));
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read '" + path + "'");
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.flush()) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
}

namespace {

std::vector<char*> argvOf(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  return argv;
}

double tvMs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
}

ChildRun runChild(const std::vector<std::string>& args, const std::string& stdoutPath,
                  const std::string& stderrPath) {
  std::vector<char*> argv = argvOf(args);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, stdoutPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, stderrPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ChildRun run;
  pid_t pid = -1;
  const Clock::time_point t0 = Clock::now();
  const int rc = ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    return run;
  }
  run.spawned = true;
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.wallMs = msBetween(t0, Clock::now());
  run.cpuMs = tvMs(usage.ru_utime) + tvMs(usage.ru_stime);
  run.maxRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
  run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

bool readAll(int fd, void* data, std::size_t size) {
  auto* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool writeAll(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Requests are a string count, then each string as length + bytes: the
/// argv, then the stdout and stderr paths. The reply is the ChildRun.
[[noreturn]] void launcherLoop(int fd) {
  while (true) {
    std::uint32_t count = 0;
    if (!readAll(fd, &count, sizeof(count)) || count < 3) {
      ::_exit(0);
    }
    std::vector<std::string> strings(count);
    for (std::string& s : strings) {
      std::uint32_t size = 0;
      if (!readAll(fd, &size, sizeof(size))) {
        ::_exit(0);
      }
      s.resize(size);
      if (!readAll(fd, s.data(), size)) {
        ::_exit(0);
      }
    }
    const std::string err = strings.back();
    strings.pop_back();
    const std::string out = strings.back();
    strings.pop_back();
    const ChildRun run = runChild(strings, out, err);
    if (!writeAll(fd, &run, sizeof(run))) {
      ::_exit(0);
    }
  }
}

} // namespace

Launcher::Launcher() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("cannot create the launcher socket");
  }
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(fds[0]);
    launcherLoop(fds[1]);
  }
  ::close(fds[1]);
  if (pid_ < 0) {
    ::close(fds[0]);
    throw std::runtime_error("cannot fork the launcher");
  }
  fd_ = fds[0];
}

Launcher::~Launcher() {
  ::close(fd_);
  ::waitpid(pid_, nullptr, 0);
}

ChildRun Launcher::run(const std::vector<std::string>& argv, const std::string& stdoutPath,
                       const std::string& stderrPath) {
  std::vector<std::string> strings = argv;
  strings.push_back(stdoutPath);
  strings.push_back(stderrPath);
  const auto count = static_cast<std::uint32_t>(strings.size());
  bool ok = writeAll(fd_, &count, sizeof(count));
  for (const std::string& s : strings) {
    const auto size = static_cast<std::uint32_t>(s.size());
    ok = ok && writeAll(fd_, &size, sizeof(size)) && writeAll(fd_, s.data(), size);
  }
  ChildRun run;
  if (!ok || !readAll(fd_, &run, sizeof(run))) {
    throw std::runtime_error("the launcher process is gone");
  }
  return run;
}

Daemon::Daemon(const std::string& qirkit, const std::string& socketPath,
               const std::string& logPath)
    : socket_(socketPath) {
  const std::vector<std::string> args = {qirkit, "serve", socketPath, "--runners",
                                         "2",    "--jobs", "2"};
  std::vector<char*> argv = argvOf(args);
  const int log = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log < 0) {
    throw std::runtime_error("cannot open daemon log '" + logPath + "'");
  }
  // fork rather than posix_spawn: the child arms PR_SET_PDEATHSIG so a
  // benchmark killed mid-run never leaves a daemon behind. Between fork
  // and exec the child calls only async-signal-safe functions.
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log);
  if (pid_ < 0) {
    throw std::runtime_error("cannot fork the serve daemon");
  }
  // Wait until it answers a ping (the client retries while the socket is
  // still missing or refusing).
  service::ClientOptions options;
  options.connectRetries = 40;
  options.backoffBaseMs = 5;
  options.backoffCapMs = 100;
  try {
    service::Client client(socket_, options);
    (void)client.call(service::simpleRequestJson(service::RequestType::Ping));
  } catch (...) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    throw;
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

bool Daemon::stop() {
  if (pid_ <= 0) {
    return true;
  }
  try {
    service::Client client(socket_);
    (void)client.call(service::simpleRequestJson(service::RequestType::Shutdown));
  } catch (const std::exception&) {
  }
  int status = 0;
  for (int i = 0; i < 1000; ++i) { // up to 10 s to drain
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  return false;
}

double Daemon::cpuMs() const {
  // Fields 14 and 15 of /proc/<pid>/stat, counted after the parenthesised
  // command name (which may itself contain spaces).
  const std::string stat = readFile("/proc/" + std::to_string(pid_) + "/stat");
  std::istringstream in(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i >= 14) {
      ticks += std::stod(field);
    }
  }
  return ticks * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peakRssMb() const {
  std::istringstream in(readFile("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0; // kB
    }
  }
  return 0;
}

} // namespace qirkit::bench::pipeline
