#include "service/server.hpp"

#include "ir/context.hpp"
#include "ir/module.hpp"
#include "qasm/load.hpp"
#include "qir/names.hpp"
#include "service/prometheus.hpp"
#include "sim/statevector.hpp"
#include "support/cancel.hpp"
#include "support/telemetry/request_trace.hpp"
#include "support/telemetry/telemetry.hpp"
#include "vm/executor.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <sstream>

namespace qirkit::service {

namespace {

telemetry::Counter g_requests{"serve.requests"};
telemetry::Counter g_rejectedFrames{"serve.protocol.rejected_frames"};
telemetry::Counter g_jobsCompleted{"serve.jobs.completed"};
telemetry::Counter g_jobsFailed{"serve.jobs.failed"};
telemetry::Counter g_jobsExpired{"serve.jobs.expired"};
telemetry::Counter g_drainCancelled{"serve.drain.cancelled"};
telemetry::Counter g_cancelRequests{"serve.cancel.requests"};
telemetry::Counter g_memoryRejected{"serve.admission.memory_rejected"};
telemetry::Counter g_watchdogScans{"serve.watchdog.scans"};
telemetry::Counter g_watchdogFlagged{"serve.watchdog.flagged"};
telemetry::LatencyHistogram g_jobLatency{"serve.job.latency_ns"};
/// Queue-wait vs execute-time split of the job latency above; recorded
/// before the per-job after-snapshot so every submit response's metrics
/// delta carries its own wait/run samples.
telemetry::LatencyHistogram g_queueWait{"serve.queue.wait_ns"};
telemetry::LatencyHistogram g_execTime{"serve.exec.run_ns"};

/// Per-tenant outcome counters and latency families (bounded
/// cardinality: beyond kDefaultMaxLabels live tenants the
/// least-recently-updated label is evicted and counted — DESIGN 7f).
telemetry::LabeledCounter g_tenantCompleted{
    "serve.tenant.completed", telemetry::LabeledCounter::kDefaultMaxLabels,
    "tenant"};
telemetry::LabeledCounter g_tenantFailed{
    "serve.tenant.failed", telemetry::LabeledCounter::kDefaultMaxLabels,
    "tenant"};
telemetry::LabeledCounter g_tenantExpired{
    "serve.tenant.deadline_expired",
    telemetry::LabeledCounter::kDefaultMaxLabels, "tenant"};
/// SLO split: jobs that carried a deadline and finished inside it.
telemetry::LabeledCounter g_tenantDeadlineOk{
    "serve.tenant.deadline_ok", telemetry::LabeledCounter::kDefaultMaxLabels,
    "tenant"};
telemetry::LabeledCounter g_tenantRejected{
    "serve.tenant.rejected", telemetry::LabeledCounter::kDefaultMaxLabels,
    "tenant"};
/// Reject rate by admission cause ("queue-capacity", "tenant-pending",
/// "shot-ceiling", "rate-limit", "memory", "draining").
telemetry::LabeledCounter g_rejectByCause{
    "serve.reject.by_cause", telemetry::LabeledCounter::kDefaultMaxLabels,
    "cause"};
telemetry::LabeledHistogram g_tenantQueueWait{
    "serve.tenant.queue_wait_ns",
    telemetry::LabeledHistogram::kDefaultMaxLabels, "tenant"};
telemetry::LabeledHistogram g_tenantExec{
    "serve.tenant.exec_ns", telemetry::LabeledHistogram::kDefaultMaxLabels,
    "tenant"};

// A request's stages after its store lookup (vm::g_compileStage) and
// around the executor's execute.
telemetry::Stage g_admissionStage{"admission"};
telemetry::Stage g_queueStage{"queue"};
telemetry::Stage g_watchdogStage{"serve.watchdog.flag"};

/// Frame-reject bookkeeping that must work with telemetry disabled: the
/// metrics endpoint reports these unconditionally.
std::atomic<std::uint64_t> g_rejectedFramesExact{0};
std::atomic<std::uint64_t> g_jobsCompletedExact{0};
std::atomic<std::uint64_t> g_jobsFailedExact{0};
std::atomic<std::uint64_t> g_jobsExpiredExact{0};
std::atomic<std::uint64_t> g_drainCancelledExact{0};
std::atomic<std::uint64_t> g_memoryRejectedExact{0};
std::atomic<std::uint64_t> g_watchdogFlaggedExact{0};

/// Deadline responses carry the partial results: how far the batch got and
/// the histogram over the completed shots.
std::string deadlineExtrasJson(const vm::ShotBatchResult& batch) {
  std::ostringstream out;
  out << "\"completed_shots\":" << batch.completedShots
      << ",\"unstarted_shots\":" << batch.unstartedShots << ",\"histogram\":{";
  bool first = true;
  for (const auto& [bits, count] : batch.histogram) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << telemetry::jsonEscape(bits) << "\":" << count;
  }
  out << "}";
  return out.str();
}

/// Percentile summary of one histogram for the metrics verb's latency
/// section. Quantiles are bucket upper bounds (see LatencyHistogram).
std::string percentilesJson(const telemetry::LatencyHistogram& h) {
  std::ostringstream out;
  out << "{\"count\":" << h.count() << ",\"p50_ns\":" << h.quantileNs(0.5)
      << ",\"p95_ns\":" << h.quantileNs(0.95)
      << ",\"p99_ns\":" << h.quantileNs(0.99) << "}";
  return out.str();
}

/// Write the whole buffer; MSG_NOSIGNAL so a vanished client costs an
/// error return, not a SIGPIPE. Returns false when the peer is gone.
bool writeAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), queue_(options_.queue),
      cache_(
          [](ir::Context& context, std::string_view text) {
            return qasm::loadProgram(context, text, {},
                                     qir::Addressing::Static);
          },
          options_.programCapacity),
      pool_(options_.poolThreads),
      flight_(options_.flightCapacity,
              options_.slowThresholdMs * 1'000'000ULL) {}

Server::~Server() {
  stop();
}

void Server::start() {
  if (options_.enableTelemetry) {
    telemetry::setEnabled(true);
  }
  if (options_.socketPath.empty()) {
    throw qirkit::Error(ErrorCode::Usage, "serve requires a socket path");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
    throw qirkit::Error(ErrorCode::Usage,
                        "socket path longer than " +
                            std::to_string(sizeof(addr.sun_path) - 1) +
                            " bytes: '" + options_.socketPath + "'");
  }
  std::memcpy(addr.sun_path, options_.socketPath.c_str(),
              options_.socketPath.size() + 1);

  // A stale socket file from a dead daemon would make bind fail forever;
  // reclaim it, but never delete something that is not a socket.
  struct stat st{};
  if (::lstat(options_.socketPath.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      throw qirkit::Error(ErrorCode::Io, "socket path '" + options_.socketPath +
                                             "' exists and is not a socket");
    }
    ::unlink(options_.socketPath.c_str());
  }

  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    throw qirkit::Error(ErrorCode::Io,
                        std::string("socket: ") + std::strerror(errno));
  }
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listenFd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw qirkit::Error(ErrorCode::Io, "cannot listen on '" +
                                           options_.socketPath + "': " + why);
  }

  startedNs_ = telemetry::nowNs();
  const std::size_t runners = std::max<std::size_t>(1, options_.runners);
  runnerThreads_.reserve(runners);
  for (std::size_t i = 0; i < runners; ++i) {
    runnerThreads_.emplace_back([this] { runnerLoop(); });
  }
  acceptThread_ = std::thread([this] { acceptLoop(); });
  watchdogThread_ = std::thread([this] { watchdogLoop(); });
}

void Server::run() {
  std::unique_lock lock(shutdownMutex_);
  // Polling wait: requestShutdown() may be invoked from a signal handler,
  // where notifying a condition variable is not async-signal-safe.
  while (!stopping_.load(std::memory_order_relaxed)) {
    shutdownCv_.wait_for(lock, std::chrono::milliseconds(100));
  }
  lock.unlock();
  stop();
}

void Server::requestShutdown() {
  stopping_.store(true, std::memory_order_relaxed);
}

void Server::stop() {
  {
    const std::lock_guard lock(shutdownMutex_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_relaxed);

  // Order matters: close admission first so queued jobs drain, join the
  // runners (fulfilling every pending submit future), and only then break
  // the connections those futures were answering.
  queue_.close();
  for (std::thread& runner : runnerThreads_) {
    runner.join();
  }
  runnerThreads_.clear();

  if (watchdogThread_.joinable()) {
    watchdogThread_.join();
  }
  if (acceptThread_.joinable()) {
    acceptThread_.join();
  }
  // The runners have fulfilled every submit future, but the connection
  // threads those futures woke may not have written their responses yet —
  // shutting the sockets down now would turn a drained job's result into
  // a torn connection. Wait for in-flight handlers to flush (bounded, in
  // case a client has stopped reading its socket).
  for (int i = 0;
       i < 5000 && busyRequests_.load(std::memory_order_acquire) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    const std::lock_guard lock(connectionsMutex_);
    for (auto& [fd, thread] : connections_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  while (true) {
    std::pair<int, std::thread> conn(-1, std::thread());
    {
      const std::lock_guard lock(connectionsMutex_);
      if (connections_.empty()) {
        break;
      }
      conn = std::move(connections_.front());
      connections_.pop_front();
    }
    conn.second.join();
    ::close(conn.first);
  }

  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(options_.socketPath.c_str());
  }
}

void Server::acceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd p{listenFd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, 100);
    if (ready <= 0) {
      continue;
    }
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    const std::lock_guard lock(connectionsMutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    connections_.emplace_back(
        std::piecewise_construct, std::forward_as_tuple(fd),
        std::forward_as_tuple([this, fd] { connectionLoop(fd); }));
  }
}

void Server::connectionLoop(int fd) {
  std::string buffer;
  char chunk[65536];
  // After an oversized frame is rejected, input is discarded up to the
  // next newline so the connection resynchronizes instead of tearing down.
  bool discarding = false;

  const auto respond = [&](const std::string& line) {
    return writeAll(fd, line + "\n");
  };
  const auto rejectFrame = [&](ErrorCode code, const std::string& message) {
    g_rejectedFrames.add();
    g_rejectedFramesExact.fetch_add(1, std::memory_order_relaxed);
    return respond(errorResponseJson(code, message));
  };

  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0 || (n < 0 && errno != EINTR)) {
      break;
    }
    if (n < 0) {
      continue;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));

    bool connectionAlive = true;
    while (connectionAlive) {
      const auto newline = buffer.find('\n');
      if (newline == std::string::npos) {
        if (!discarding && buffer.size() > options_.maxFrameBytes) {
          connectionAlive = rejectFrame(
              ErrorCode::Usage,
              "frame exceeds " + std::to_string(options_.maxFrameBytes) +
                  " bytes; dropping input until the next newline");
          discarding = true;
          buffer.clear();
        }
        break;
      }
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (discarding) {
        discarding = false;
        continue;
      }
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      if (line.empty()) {
        continue;
      }
      if (line.size() > options_.maxFrameBytes) {
        connectionAlive = rejectFrame(
            ErrorCode::Usage,
            "frame of " + std::to_string(line.size()) + " bytes exceeds the " +
                std::to_string(options_.maxFrameBytes) + "-byte limit");
        continue;
      }
      g_requests.add();
      // Frame decoding and request handling fail differently: a frame
      // that is not valid JSON is a *protocol* reject (counted, like the
      // CLI's error[usage] for bad options); a well-formed frame whose
      // handling throws — including a program that fails to parse — is an
      // ordinary structured error. Both keep the connection alive.
      Request request;
      bool frameOk = false;
      try {
        request = parseRequest(line);
        frameOk = true;
      } catch (const qirkit::Error& e) {
        if (e.code() == ErrorCode::Parse) {
          connectionAlive = rejectFrame(e.code(), e.message());
        } else {
          connectionAlive = respond(errorResponseJson(e.code(), e.message()));
        }
      }
      if (!frameOk) {
        continue;
      }
      busyRequests_.fetch_add(1, std::memory_order_relaxed);
      std::string response;
      try {
        response = handleRequest(request);
      } catch (const qirkit::Error& e) {
        response = errorResponseJson(e.code(), e.message());
      } catch (const std::exception& e) {
        response = errorResponseJson(ErrorCode::Internal, e.what());
      }
      connectionAlive = respond(response);
      busyRequests_.fetch_sub(1, std::memory_order_release);
    }
    if (!connectionAlive) {
      break;
    }
  }
}

std::string Server::handleRequest(const Request& request) {
  switch (request.type) {
  case RequestType::Ping:
    return pingResponseJson();
  case RequestType::Metrics:
    return request.metrics.prometheus ? prometheusMetricsJson()
                                      : metricsJson();
  case RequestType::Events:
    return handleEvents(request.events);
  case RequestType::Shutdown:
    requestShutdown();
    return "{\"v\":" + std::to_string(kProtocolVersion) +
           ",\"ok\":true,\"type\":\"shutdown\"}";
  case RequestType::Cancel:
    return handleCancel(request.cancel);
  case RequestType::Submit:
    return handleSubmit(request.submit);
  }
  throw qirkit::Error(ErrorCode::Internal, "unhandled request type");
}

std::string Server::handleSubmit(const SubmitRequest& request) {
  // The request's trace context: born here, threaded through the queue
  // into the executor via ShotOptions, delivered back in the response's
  // "stages" array and the flight recorder.
  auto trace = std::make_shared<telemetry::RequestTrace>(request.tenant,
                                                         request.requestId);
  // The store lookup is the request's compile stage: a miss loads,
  // compiles and analyses the program; a hit reuses all three.
  telemetry::Span compile(vm::g_compileStage, trace.get());
  vm::CompileCache::Lookup lookup;
  if (request.programRef.empty()) {
    lookup = cache_.getOrLoad(request.program);
  } else {
    lookup.program = cache_.find(request.programRef);
    if (lookup.program == nullptr) {
      throw qirkit::Error(ErrorCode::Usage,
                          "unknown program_ref '" + request.programRef +
                              "' (evicted or never submitted); resubmit the "
                              "program text");
    }
  }
  compile.setNote(lookup.outcome);
  compile.end();
  const std::shared_ptr<const vm::Program>& program = lookup.program;
  telemetry::Span admission(g_admissionStage, trace.get());

  auto active = std::make_shared<ActiveJob>();
  active->tenant = request.tenant;
  active->requestId = request.requestId;
  active->shots = request.shots;
  active->deadlineMs = request.deadlineMs;
  // The width the executor reserves; 0 (no required_num_qubits attribute)
  // bypasses the guard and relies on the StateVector allocation guard.
  const unsigned qubits = qir::requiredNumQubits(*program->module);
  active->stateBytes =
      qubits == 0 ? 0
                  : sim::StateVector::predictedBytes(qubits, request.precision);
  active->admittedNs = qirkit::CancelToken::nowNs();
  active->cancel = std::make_shared<qirkit::CancelToken>();
  if (request.deadlineMs != 0) {
    // Armed from admission, so queue wait counts against the budget and
    // the job can expire while still pending (the queue TTL).
    active->cancel->setTimeoutNs(request.deadlineMs * 1'000'000ULL);
    active->deadlineNs = active->cancel->deadlineNs();
  }

  auto delivered = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = delivered->get_future();

  Job job;
  job.request = request;
  job.program = program;
  job.cacheHit = std::string_view(lookup.outcome) != "miss";
  job.deadlineNs = active->deadlineNs;
  job.cancel = active->cancel;
  job.trace = trace;
  job.active = active;
  job.deliver = [delivered](std::string response) {
    delivered->set_value(std::move(response));
  };
  try {
    // Register before the push: the runner may pop (and finish) the job
    // before push even returns, and the cancel verb / watchdog must be
    // able to see it for that whole window.
    registerActive(active);
    // Stage ended before the push so a fast runner's "queue" stage
    // always lands after it; the push itself is a couple of map updates.
    admission.end();
    try {
      queue_.push(std::move(job)); // throws AdmissionError on quota violations
    } catch (...) {
      unregisterActive(active);
      throw;
    }
  } catch (const AdmissionError& e) {
    // Only a registration (memory) rejection ends admission here; a
    // queue rejection comes after the stage has ended.
    admission.setNote("rejected");
    admission.end();
    g_tenantRejected.add(request.tenant);
    g_rejectByCause.add(e.cause().empty() ? "other" : e.cause());
    FlightRecord rec;
    rec.tenant = request.tenant;
    rec.requestId = request.requestId;
    rec.programId = program->id;
    rec.shots = request.shots;
    rec.totalNs = telemetry::nowNs() - admission.startNs();
    rec.outcome = "rejected";
    rec.errorCode = errorCodeName(e.code());
    rec.cause = e.cause();
    rec.stagesJson = trace->stagesJson();
    flight_.record(std::move(rec));
    // Overload rejections carry the machine-readable retry hint; 0 means
    // the limit is static and a retry can never succeed, so no hint.
    return errorResponseJson(e.code(), e.message(),
                             e.retryAfterMs() == 0
                                 ? std::string()
                                 : "\"retry_after_ms\":" +
                                       std::to_string(e.retryAfterMs()));
  }
  std::string response = future.get();
  unregisterActive(active);
  return response;
}

std::string Server::handleCancel(const CancelRequest& request) {
  g_cancelRequests.add();
  bool found = false;
  {
    const std::lock_guard lock(activeMutex_);
    for (const std::shared_ptr<ActiveJob>& active : active_) {
      if (active->tenant == request.tenant && !active->requestId.empty() &&
          active->requestId == request.requestId) {
        active->cancel->cancel();
        found = true;
      }
    }
  }
  return cancelResponseJson(found);
}

void Server::registerActive(const std::shared_ptr<ActiveJob>& active) {
  const std::lock_guard lock(activeMutex_);
  const std::uint64_t budget = options_.memoryBudgetBytes;
  if (budget != 0 && active->stateBytes != 0) {
    if (active->stateBytes > budget) {
      g_memoryRejected.add();
      g_memoryRejectedExact.fetch_add(1, std::memory_order_relaxed);
      throw AdmissionError("predicted statevector footprint (" +
                               std::to_string(active->stateBytes) +
                               " bytes) exceeds the memory budget (" +
                               std::to_string(budget) + " bytes)",
                           0, "memory"); // can never fit; no retry hint
    }
    if (inFlightStateBytes_ + active->stateBytes > budget) {
      g_memoryRejected.add();
      g_memoryRejectedExact.fetch_add(1, std::memory_order_relaxed);
      throw AdmissionError("predicted statevector footprint (" +
                               std::to_string(active->stateBytes) +
                               " bytes) does not fit: " +
                               std::to_string(inFlightStateBytes_) +
                               " bytes already in flight against a " +
                               std::to_string(budget) + "-byte budget",
                           100, "memory");
    }
  }
  inFlightStateBytes_ += active->stateBytes;
  active_.push_back(active);
}

void Server::unregisterActive(const std::shared_ptr<ActiveJob>& active) {
  const std::lock_guard lock(activeMutex_);
  inFlightStateBytes_ -= active->stateBytes;
  active_.remove(active);
}

void Server::runnerLoop() {
  while (true) {
    std::optional<Job> job = queue_.pop();
    if (!job.has_value()) {
      return;
    }
    const bool draining = stopping_.load(std::memory_order_relaxed);
    if (job->cancel != nullptr && job->cancel->expired()) {
      // Queue TTL: the deadline ran out (or the cancel verb fired) while
      // the job was still pending — it never starts executing.
      g_jobsExpired.add();
      g_jobsExpiredExact.fetch_add(1, std::memory_order_relaxed);
      g_tenantExpired.add(job->request.tenant);
      const std::uint64_t waitNs = telemetry::nowNs() - job->enqueuedNs;
      telemetry::recordStage(g_queueStage, job->enqueuedNs, waitNs,
                             job->trace.get(), "ttl-expired");
      const auto active = std::static_pointer_cast<ActiveJob>(job->active);
      const bool watchdogHit =
          active != nullptr &&
          active->watchdogFlagged.load(std::memory_order_relaxed);
      const bool cancelled = job->cancel->cancelled();
      const std::string why =
          cancelled
              ? "job cancelled while pending"
              : "deadline of " + std::to_string(job->request.deadlineMs) +
                    "ms expired while the job was queued";
      failJob(*job, ErrorCode::Deadline, why,
              "\"completed_shots\":0,\"unstarted_shots\":" +
                  std::to_string(job->request.shots),
              waitNs, 0,
              watchdogHit ? "watchdog" : cancelled ? "cancel" : "queue-ttl");
    } else if (draining) {
      // Graceful drain: already-running jobs flush, still-queued jobs get
      // an explicit cancelled disposition instead of executing into
      // shutdown. Each disposition is logged so an operator can account
      // for every job the SIGTERM displaced.
      g_drainCancelled.add();
      g_drainCancelledExact.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "qirkit serve: drain: job %llu (tenant '%s') cancelled "
                   "before execution\n",
                   static_cast<unsigned long long>(job->id),
                   job->request.tenant.c_str());
      const std::uint64_t waitNs = telemetry::nowNs() - job->enqueuedNs;
      telemetry::recordStage(g_queueStage, job->enqueuedNs, waitNs,
                             job->trace.get(), "drain");
      failJob(*job, ErrorCode::Deadline,
              "service is draining; job cancelled before execution",
              "\"completed_shots\":0,\"unstarted_shots\":" +
                  std::to_string(job->request.shots),
              waitNs, 0, "drain");
    } else {
      executeJob(*job);
    }
    queue_.onJobFinished(job->request.tenant);
  }
}

void Server::watchdogLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (options_.watchdogFactor == 0) {
      continue;
    }
    g_watchdogScans.add();
    const std::uint64_t now = qirkit::CancelToken::nowNs();
    const std::lock_guard lock(activeMutex_);
    for (const std::shared_ptr<ActiveJob>& active : active_) {
      if (active->deadlineNs == 0 || active->watchdogFlagged) {
        continue;
      }
      const std::uint64_t budgetNs =
          active->deadlineMs * 1'000'000ULL * options_.watchdogFactor;
      if (now - active->admittedNs <= budgetNs) {
        continue;
      }
      // The job outlived N x its own deadline: either a runner is stuck
      // inside it or its cooperative probes stopped firing. Flag once and
      // force the token as a backstop.
      active->watchdogFlagged = true;
      active->cancel->cancel();
      g_watchdogFlagged.add();
      g_watchdogFlaggedExact.fetch_add(1, std::memory_order_relaxed);
      const telemetry::Span span(g_watchdogStage);
      std::fprintf(stderr,
                   "qirkit serve: watchdog: job (tenant '%s'%s%s%s) exceeded "
                   "%ux its %llums deadline; forcing cancellation\n",
                   active->tenant.c_str(),
                   active->requestId.empty() ? "" : ", request_id '",
                   active->requestId.c_str(),
                   active->requestId.empty() ? "" : "'",
                   options_.watchdogFactor,
                   static_cast<unsigned long long>(active->deadlineMs));
    }
  }
}

void Server::executeJob(Job& job) {
  const auto active = std::static_pointer_cast<ActiveJob>(job.active);
  telemetry::RequestTrace* const trace = job.trace.get();
  const std::uint64_t startNs = telemetry::nowNs();
  const std::uint64_t queueWaitNs = startNs - job.enqueuedNs;
  telemetry::recordStage(g_queueStage, job.enqueuedNs, queueWaitNs, trace);
  const telemetry::Snapshot before = telemetry::snapshot();

  vm::ShotOptions opts;
  static_cast<vm::RunChoices&>(opts) = job.request;
  opts.shots = job.request.shots;
  opts.seed = job.seed;
  opts.pool = &pool_;
  opts.cancel = job.cancel.get(); // null when the job set no deadline/tag
  opts.requestTrace = trace;      // the execute stage

  // Cause attribution for deadline outcomes: the watchdog flag beats the
  // cancel flag (the watchdog cancels through the same token).
  const auto deadlineCause = [&]() -> const char* {
    if (active != nullptr &&
        active->watchdogFlagged.load(std::memory_order_relaxed)) {
      return "watchdog";
    }
    if (job.cancel != nullptr && job.cancel->cancelled()) {
      return "cancel";
    }
    return "deadline";
  };

  SubmitResponse response;
  response.programId = job.program->id;
  response.cacheHit = job.cacheHit;
  response.jobId = job.id;
  response.shots = job.request.shots;
  response.seed = job.seed;
  try {
    response.batch = vm::runShots(*job.program, opts);
  } catch (const std::exception& e) {
    const ClassifiedError failure = classifyException(e);
    g_jobsFailed.add();
    g_jobsFailedExact.fetch_add(1, std::memory_order_relaxed);
    g_tenantFailed.add(job.request.tenant);
    std::string extras = failure.code == ErrorCode::Deadline
                             ? "\"completed_shots\":0,\"unstarted_shots\":" +
                                   std::to_string(job.request.shots)
                             : std::string();
    failJob(job, failure.code, failure.message, std::move(extras), queueWaitNs,
            telemetry::nowNs() - startNs,
            failure.code == ErrorCode::Deadline ? deadlineCause() : "");
    return;
  }
  if (response.batch.deadlineExceeded) {
    // Partial-results contract: the batch stopped at a shot boundary, so
    // the histogram covers exactly the completed shots. Surface it in the
    // structured error instead of pretending the job succeeded.
    g_jobsExpired.add();
    g_jobsExpiredExact.fetch_add(1, std::memory_order_relaxed);
    g_tenantExpired.add(job.request.tenant);
    const std::string why =
        job.cancel != nullptr && job.cancel->cancelled()
            ? "job cancelled after " +
                  std::to_string(response.batch.completedShots) + " of " +
                  std::to_string(job.request.shots) + " shots"
            : "deadline of " + std::to_string(job.request.deadlineMs) +
                  "ms exceeded after " +
                  std::to_string(response.batch.completedShots) + " of " +
                  std::to_string(job.request.shots) + " shots";
    failJob(job, ErrorCode::Deadline, why, deadlineExtrasJson(response.batch),
            queueWaitNs, telemetry::nowNs() - startNs, deadlineCause());
    return;
  }
  const std::uint64_t endNs = telemetry::nowNs();
  const std::uint64_t execNs = endNs - startNs;
  // Latency probes fire before the after-snapshot so this response's own
  // metrics delta carries the job's queue-wait and execution samples.
  g_jobLatency.record(endNs - job.enqueuedNs);
  g_queueWait.record(queueWaitNs);
  g_execTime.record(execNs);
  g_tenantCompleted.add(job.request.tenant);
  g_tenantQueueWait.record(job.request.tenant, queueWaitNs);
  g_tenantExec.record(job.request.tenant, execNs);
  if (job.request.deadlineMs != 0) {
    g_tenantDeadlineOk.add(job.request.tenant);
  }
  response.queueWaitNs = queueWaitNs;
  response.execNs = execNs;
  response.metricsDeltaJson =
      telemetry::snapshotJson(telemetry::diff(before, telemetry::snapshot()));
  g_jobsCompleted.add();
  g_jobsCompletedExact.fetch_add(1, std::memory_order_relaxed);
  if (trace != nullptr) {
    response.stagesJson = trace->stagesJson();
  }
  recordFlight(job, queueWaitNs, execNs, "ok", "", "", response.stagesJson);
  job.deliver(submitResponseJson(response));
}

void Server::failJob(const Job& job, ErrorCode code, const std::string& message,
                     std::string extras, std::uint64_t queueWaitNs,
                     std::uint64_t execNs, std::string cause) {
  std::string stages = job.trace != nullptr ? job.trace->stagesJson() : "";
  if (!stages.empty()) {
    extras += (extras.empty() ? "\"stages\":" : ",\"stages\":") + stages;
  }
  recordFlight(job, queueWaitNs, execNs, "error", errorCodeName(code),
               std::move(cause), std::move(stages));
  job.deliver(errorResponseJson(code, message, extras));
}

void Server::recordFlight(const Job& job, std::uint64_t queueWaitNs,
                          std::uint64_t execNs, const char* outcome,
                          const char* errorCode, std::string cause,
                          std::string stagesJson) {
  FlightRecord rec;
  rec.jobId = job.id;
  rec.tenant = job.request.tenant;
  rec.requestId = job.request.requestId;
  rec.programId = job.program->id;
  rec.shots = job.request.shots;
  rec.queueWaitNs = queueWaitNs;
  rec.execNs = execNs;
  rec.totalNs = telemetry::nowNs() - job.enqueuedNs;
  rec.outcome = outcome;
  rec.errorCode = errorCode;
  rec.cause = std::move(cause);
  rec.stagesJson = std::move(stagesJson);
  flight_.record(std::move(rec));
}

std::string Server::handleEvents(const EventsRequest& request) {
  std::ostringstream out;
  out << "{\"v\":" << kProtocolVersion << ",\"ok\":true,\"type\":\"events\""
      << ",\"recorded\":" << flight_.recorded()
      << ",\"capacity\":" << flight_.capacity()
      << ",\"slow_threshold_ms\":" << options_.slowThresholdMs
      << ",\"events\":"
      << flight_.eventsJson(request.tenant,
                            static_cast<std::size_t>(request.limit))
      << "}";
  return out.str();
}

std::string Server::prometheusMetricsJson() {
  return "{\"v\":" + std::to_string(kProtocolVersion) +
         ",\"ok\":true,\"type\":\"metrics\",\"format\":\"prometheus\"," +
         "\"body\":\"" + telemetry::jsonEscape(prometheusText()) + "\"}";
}

std::string Server::metricsJson() {
  const QueueStats queue = queue_.stats();
  const vm::CompileCache::Stats cache = cache_.stats();
  const std::uint64_t lookups = cache.hits + cache.coalesced + cache.misses;
  const double hitRate =
      lookups == 0 ? 0.0
                   : static_cast<double>(cache.hits + cache.coalesced) /
                         static_cast<double>(lookups);
  char hitRateBuf[32];
  std::snprintf(hitRateBuf, sizeof(hitRateBuf), "%.4f", hitRate);

  std::uint64_t inFlightBytes = 0;
  std::size_t activeJobs = 0;
  {
    const std::lock_guard lock(activeMutex_);
    inFlightBytes = inFlightStateBytes_;
    activeJobs = active_.size();
  }

  std::ostringstream out;
  out << "{\"v\":" << kProtocolVersion << ",\"ok\":true,\"type\":\"metrics\""
      << ",\"uptime_ns\":" << (telemetry::nowNs() - startedNs_)
      << ",\"queue\":{\"depth\":" << queue.depth
      << ",\"capacity\":" << queue_.limits().capacity
      << ",\"admitted\":" << queue.admitted
      << ",\"rejected\":" << queue.rejected
      << ",\"rate_limited\":" << queue.rateLimited
      << ",\"finished\":" << queue.finished << ",\"tenants\":{";
  bool first = true;
  for (const QueueStats::Tenant& tenant : queue.tenants) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << telemetry::jsonEscape(tenant.name)
        << "\":{\"pending\":" << tenant.pending
        << ",\"admitted\":" << tenant.admitted << "}";
  }
  out << "}},\"cache\":{\"hits\":" << cache.hits
      << ",\"coalesced\":" << cache.coalesced
      << ",\"misses\":" << cache.misses
      << ",\"evictions\":" << cache.evictions << ",\"size\":" << cache_.size()
      << ",\"capacity\":" << cache_.capacity() << ",\"hit_rate\":" << hitRateBuf
      << "},\"pool\":{\"workers\":" << pool_.size()
      << "},\"runners\":" << runnerThreads_.size()
      << ",\"jobs\":{\"completed\":"
      << g_jobsCompletedExact.load(std::memory_order_relaxed)
      << ",\"failed\":" << g_jobsFailedExact.load(std::memory_order_relaxed)
      << ",\"expired\":" << g_jobsExpiredExact.load(std::memory_order_relaxed)
      << ",\"drained\":"
      << g_drainCancelledExact.load(std::memory_order_relaxed)
      << "},\"memory\":{\"in_flight_bytes\":" << inFlightBytes
      << ",\"budget_bytes\":" << options_.memoryBudgetBytes
      << ",\"active_jobs\":" << activeJobs
      << ",\"rejected\":"
      << g_memoryRejectedExact.load(std::memory_order_relaxed)
      << "},\"watchdog\":{\"factor\":" << options_.watchdogFactor
      << ",\"flagged\":"
      << g_watchdogFlaggedExact.load(std::memory_order_relaxed)
      << "},\"latency\":{\"job\":" << percentilesJson(g_jobLatency)
      << ",\"queue_wait\":" << percentilesJson(g_queueWait)
      << ",\"exec\":" << percentilesJson(g_execTime)
      << "},\"flight\":{\"capacity\":" << flight_.capacity()
      << ",\"recorded\":" << flight_.recorded()
      << ",\"slow_threshold_ms\":" << options_.slowThresholdMs
      << "},\"protocol\":{\"rejected_frames\":"
      << g_rejectedFramesExact.load(std::memory_order_relaxed)
      << "},\"telemetry\":" << telemetry::snapshotJson(telemetry::snapshot())
      << "}";
  return out.str();
}

} // namespace qirkit::service
