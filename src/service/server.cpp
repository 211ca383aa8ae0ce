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

// A request's stages besides its store lookup (vm::g_compileStage), its
// admission (queue.cpp) and the executor's execute.
telemetry::Stage g_queueStage{"queue"};
telemetry::Stage g_watchdogStage{"serve.watchdog.flag"};

/// Deadline responses carry the partial results: how far the batch got and
/// the histogram over the completed shots, or, for a job that never ran
/// (\p batch null), that none of its \p shots started.
std::string deadlineExtrasJson(const vm::ShotBatchResult* batch, std::uint64_t shots) {
  if (batch == nullptr) {
    return "\"completed_shots\":0,\"unstarted_shots\":" + std::to_string(shots);
  }
  std::ostringstream out;
  out << "\"completed_shots\":" << batch->completedShots
      << ",\"unstarted_shots\":" << batch->unstartedShots << ",\"histogram\":{";
  bool first = true;
  for (const auto& [bits, count] : batch->histogram) {
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
  // The serve observability surface (per-tenant families, latency
  // percentiles, the metrics verb's counters) reads the telemetry
  // registry, so the daemon runs armed.
  telemetry::setEnabled(true);
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
        response = handleRequest(std::move(request));
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

std::string Server::handleRequest(Request request) {
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
    return handleSubmit(std::move(request.submit));
  }
  throw qirkit::Error(ErrorCode::Internal, "unhandled request type");
}

std::string Server::handleSubmit(SubmitRequest request) {
  const auto job = std::make_shared<Job>(std::move(request));
  std::future<std::string> response = job->response.get_future();
  try {
    queue_.admit(job, [this](Job& loading) { loadProgram(loading); });
  } catch (const AdmissionError& e) {
    // Overload rejections carry the machine-readable retry hint; 0 means
    // the limit is static and a retry can never succeed, so no hint.
    settle(*job, {.outcome = Outcome::Rejected,
                  .code = e.code(),
                  .message = e.message(),
                  .extras = e.retryAfterMs() == 0
                                ? std::string()
                                : "\"retry_after_ms\":" +
                                      std::to_string(e.retryAfterMs()),
                  .cause = e.cause()});
  }
  return response.get();
}

void Server::loadProgram(Job& job) {
  const SubmitRequest& request = job.request;
  // The store lookup is the request's compile stage: a miss loads,
  // compiles and analyses the program; a hit reuses all three.
  telemetry::Span compile(vm::g_compileStage, &job.trace);
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
  job.program = lookup.program;
  job.cacheHit = std::string_view(lookup.outcome) != "miss";
  // The charge is the declared width, which the executor reserves and the
  // runtime enforces; 0 (no required_num_qubits attribute) bypasses the
  // memory guard and relies on the StateVector allocation guard.
  const unsigned qubits = qir::requiredNumQubits(*job.program->module);
  job.stateBytes =
      qubits == 0 ? 0 : sim::StateVector::predictedBytes(qubits, request.precision);
  if (request.deadlineMs != 0) {
    // Armed before the job is queued, so queue wait counts against the
    // budget and the job can expire while still pending (the queue TTL).
    job.cancel.setTimeoutNs(request.deadlineMs * 1'000'000ULL);
  }
}

std::string Server::handleCancel(const CancelRequest& request) {
  g_cancelRequests.add();
  return cancelResponseJson(queue_.cancel(request.tenant, request.requestId));
}

void Server::runnerLoop() {
  while (const std::shared_ptr<Job> job = queue_.pop()) {
    const std::uint64_t waitNs = telemetry::nowNs() - job->admittedNs;
    const bool lapsed = !job->started;
    if (!lapsed && !stopping_.load(std::memory_order_relaxed)) {
      telemetry::recordStage(g_queueStage, job->admittedNs, waitNs, &job->trace);
      executeJob(*job, waitNs);
      continue;
    }
    // A job never starts when it lapsed in the queue (the queue TTL: its
    // deadline ran out, or the cancel verb fired, while it was pending)
    // or, during a graceful drain, while it is still queued: running jobs
    // flush, queued ones get an explicit disposition instead of executing
    // into shutdown.
    const bool cancelled = job->cancel.cancelled();
    telemetry::recordStage(g_queueStage, job->admittedNs, waitNs, &job->trace,
                           lapsed ? "ttl-expired" : "drain");
    settle(*job, {.outcome = lapsed ? Outcome::Lapsed : Outcome::Drained,
                  .code = ErrorCode::Deadline,
                  .message = !lapsed    ? "service is draining; job cancelled before execution"
                             : cancelled ? "job cancelled while pending"
                                         : "deadline of " +
                                               std::to_string(job->request.deadlineMs) +
                                               "ms expired while the job was queued",
                  .cause = !lapsed ? "drain" : cancelled ? "cancel" : "queue-ttl",
                  .queueWaitNs = waitNs});
  }
}

void Server::watchdogLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (options_.watchdogFactor == 0) {
      continue;
    }
    g_watchdogScans.add();
    for (const std::shared_ptr<Job>& job : queue_.flagOverdue(options_.watchdogFactor)) {
      g_watchdogFlagged.add();
      const telemetry::Span span(g_watchdogStage);
      const std::string& requestId = job->request.requestId;
      std::fprintf(stderr,
                   "qirkit serve: watchdog: job (tenant '%s'%s%s%s) exceeded "
                   "%ux its %llums deadline; forcing cancellation\n",
                   job->request.tenant.c_str(),
                   requestId.empty() ? "" : ", request_id '", requestId.c_str(),
                   requestId.empty() ? "" : "'", options_.watchdogFactor,
                   static_cast<unsigned long long>(job->request.deadlineMs));
    }
  }
}

void Server::executeJob(Job& job, std::uint64_t queueWaitNs) {
  const std::uint64_t startNs = telemetry::nowNs();
  const telemetry::Snapshot before = telemetry::snapshot();

  vm::ShotOptions opts;
  static_cast<vm::RunChoices&>(opts) = job.request;
  opts.shots = job.request.shots;
  opts.seed = job.seed;
  opts.pool = &pool_;
  opts.cancel = &job.cancel;
  opts.requestTrace = &job.trace; // the execute stage

  vm::ShotBatchResult batch;
  try {
    batch = vm::runShots(*job.program, opts);
  } catch (const std::exception& e) {
    const ClassifiedError failure = classifyException(e);
    settle(job, {.outcome = Outcome::Failed,
                 .code = failure.code,
                 .message = failure.message,
                 .queueWaitNs = queueWaitNs,
                 .execNs = telemetry::nowNs() - startNs});
    return;
  }
  const std::uint64_t execNs = telemetry::nowNs() - startNs;
  if (batch.deadlineExceeded) {
    // Partial-results contract: the batch stopped at a shot boundary, so
    // the histogram covers exactly the completed shots. Surface it in the
    // structured error instead of pretending the job succeeded.
    const std::string progress = std::to_string(batch.completedShots) + " of " +
                                 std::to_string(job.request.shots) + " shots";
    settle(job, {.outcome = Outcome::Cut,
                 .code = ErrorCode::Deadline,
                 .message = job.cancel.cancelled()
                                ? "job cancelled after " + progress
                                : "deadline of " +
                                      std::to_string(job.request.deadlineMs) +
                                      "ms exceeded after " + progress,
                 .queueWaitNs = queueWaitNs,
                 .execNs = execNs},
           &batch);
    return;
  }
  settle(job, {.queueWaitNs = queueWaitNs, .execNs = execNs}, &batch, &before);
}

void Server::settle(Job& job, Ending ending, vm::ShotBatchResult* batch,
                    const telemetry::Snapshot* before) {
  const std::string& tenant = job.request.tenant;
  if (ending.outcome != Outcome::Rejected) {
    queue_.finish(job);
  }
  if (ending.code == ErrorCode::Deadline) {
    ending.extras = deadlineExtrasJson(batch, job.request.shots);
    // The watchdog flag beats the cancel flag (the watchdog cancels
    // through the same token).
    if (ending.cause.empty()) {
      ending.cause = job.watchdogFlagged ? "watchdog"
                     : job.cancel.cancelled() ? "cancel"
                                              : "deadline";
    }
  }
  switch (ending.outcome) {
  case Outcome::Rejected:
    g_tenantRejected.add(tenant);
    g_rejectByCause.add(ending.cause);
    break;
  case Outcome::Lapsed:
  case Outcome::Cut:
    g_jobsExpired.add();
    g_tenantExpired.add(tenant);
    break;
  case Outcome::Drained:
    // Each disposition is logged so an operator can account for every
    // job the SIGTERM displaced.
    g_drainCancelled.add();
    std::fprintf(stderr,
                 "qirkit serve: drain: job %llu (tenant '%s') cancelled "
                 "before execution\n",
                 static_cast<unsigned long long>(job.id), tenant.c_str());
    break;
  case Outcome::Failed:
    g_jobsFailed.add();
    g_tenantFailed.add(tenant);
    break;
  case Outcome::Completed:
    // Before the after-snapshot, so the response's own metrics delta
    // carries the job's queue-wait and execution samples.
    g_jobLatency.record(telemetry::nowNs() - job.admittedNs);
    g_queueWait.record(ending.queueWaitNs);
    g_execTime.record(ending.execNs);
    g_tenantQueueWait.record(tenant, ending.queueWaitNs);
    g_tenantExec.record(tenant, ending.execNs);
    g_jobsCompleted.add();
    g_tenantCompleted.add(tenant);
    if (job.request.deadlineMs != 0) {
      g_tenantDeadlineOk.add(tenant);
    }
    break;
  }

  std::string stages = job.trace.stagesJson();
  std::string body;
  if (ending.outcome == Outcome::Completed) {
    SubmitResponse response;
    response.programId = job.program->id;
    response.cacheHit = job.cacheHit;
    response.jobId = job.id;
    response.shots = job.request.shots;
    response.seed = job.seed;
    response.batch = std::move(*batch);
    response.queueWaitNs = ending.queueWaitNs;
    response.execNs = ending.execNs;
    response.metricsDeltaJson =
        telemetry::snapshotJson(telemetry::diff(*before, telemetry::snapshot()));
    response.stagesJson = stages;
    body = submitResponseJson(response);
  } else {
    body = errorResponseJson(ending.code, ending.message,
                             ending.extras + (ending.extras.empty() ? "" : ",") +
                                 "\"stages\":" + stages);
  }

  FlightRecord rec;
  rec.jobId = job.id;
  rec.tenant = tenant;
  rec.requestId = job.request.requestId;
  rec.programId = job.program != nullptr ? job.program->id : std::string();
  rec.shots = job.request.shots;
  rec.queueWaitNs = ending.queueWaitNs;
  rec.execNs = ending.execNs;
  rec.totalNs = telemetry::nowNs() - job.admittedNs;
  rec.outcome = ending.outcome == Outcome::Completed  ? "ok"
                : ending.outcome == Outcome::Rejected ? "rejected"
                                                      : "error";
  if (ending.outcome != Outcome::Completed) {
    rec.errorCode = errorCodeName(ending.code);
  }
  rec.cause = std::move(ending.cause);
  rec.stagesJson = std::move(stages);
  flight_.record(std::move(rec));
  job.response.set_value(std::move(body));
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
      << ",\"jobs\":{\"completed\":" << g_jobsCompleted.value()
      << ",\"failed\":" << g_jobsFailed.value()
      << ",\"expired\":" << g_jobsExpired.value()
      << ",\"drained\":" << g_drainCancelled.value()
      << "},\"memory\":{\"in_flight_bytes\":" << queue.inFlightBytes
      << ",\"budget_bytes\":" << queue_.limits().memoryBudgetBytes
      << ",\"active_jobs\":" << queue.unfinished
      << ",\"rejected\":" << queue.memoryRejected
      << "},\"watchdog\":{\"factor\":" << options_.watchdogFactor
      << ",\"flagged\":" << g_watchdogFlagged.value()
      << "},\"latency\":{\"job\":" << percentilesJson(g_jobLatency)
      << ",\"queue_wait\":" << percentilesJson(g_queueWait)
      << ",\"exec\":" << percentilesJson(g_execTime)
      << "},\"flight\":{\"capacity\":" << flight_.capacity()
      << ",\"recorded\":" << flight_.recorded()
      << ",\"slow_threshold_ms\":" << options_.slowThresholdMs
      << "},\"protocol\":{\"rejected_frames\":" << g_rejectedFrames.value()
      << "},\"telemetry\":" << telemetry::snapshotJson(telemetry::snapshot())
      << "}";
  return out.str();
}

} // namespace qirkit::service
