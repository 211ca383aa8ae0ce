/// \file server.hpp
/// The `qirkit serve` daemon: a Unix-domain stream socket speaking the
/// line-delimited JSON protocol (protocol.hpp), an admission queue
/// (queue.hpp), one program store (vm::CompileCache: content-addressed,
/// so tenants can resubmit by id and pay loading, compiling and analysis
/// once), and one shared ThreadPool that every job's shot chunks
/// multiplex onto.
///
/// Threading model: one accept thread, one thread per live connection
/// (reads frames, resolves the program, admits jobs, blocks on the job's
/// completion), and `runners` job-runner threads popping the queue and
/// running each job's store Program on the injected pool. Runner threads
/// are the only place programs execute, so `runners` bounds concurrent
/// batches while the pool bounds total shot-kernel parallelism — nothing
/// oversubscribes.
///
/// Everything the per-process CLI treats as a singleton is a member here:
/// the store and the pool live and die with the Server, which is why a
/// test (or bench) can run several servers in one process.
#pragma once

#include "service/flight_recorder.hpp"
#include "service/protocol.hpp"
#include "service/queue.hpp"
#include "support/parallel.hpp"
#include "vm/cache.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace qirkit::service {

struct ServerOptions {
  /// Filesystem path of the Unix-domain socket. Created on start(),
  /// unlinked on stop().
  std::string socketPath;
  /// Job-runner threads: concurrent batches in flight.
  std::size_t runners = 2;
  /// Shot worker pool shared by every batch; 0 sizes to the hardware.
  std::size_t poolThreads = 0;
  /// Resident bound of the program store.
  std::size_t programCapacity = vm::CompileCache::kDefaultCapacity;
  /// Longest accepted request frame in bytes.
  std::size_t maxFrameBytes = kDefaultMaxFrameBytes;
  /// Upfront memory-admission budget: the predicted statevector
  /// footprints (2^n * sizeof(complex<double>)) of every in-flight job
  /// may not sum past this — the excess request is rejected with
  /// error[resource-limit] at admission instead of OOM-killing the daemon
  /// mid-simulation. 0 disables the guard. Programs whose width cannot be
  /// predicted (no required_num_qubits attribute) are admitted with a
  /// footprint of 0 and rely on the StateVector bad_alloc guard instead.
  std::uint64_t memoryBudgetBytes = 8ULL << 30U;
  /// Watchdog: a job still unfinished after watchdogFactor x its own
  /// deadline budget (counted from admission) is flagged and its token
  /// force-cancelled — the backstop for a runner stuck inside a shot that
  /// stops probing. 0 disables; jobs without deadlines are never flagged.
  unsigned watchdogFactor = 4;
  /// Flight recorder: how many recent request records the `events` verb
  /// can replay. Clamped to at least 1.
  std::size_t flightCapacity = 256;
  /// Requests slower than this (admission to delivery) keep their full
  /// per-stage trace in the flight recorder even when they succeed;
  /// errored requests always keep theirs. 0 marks nothing as slow.
  std::uint64_t slowThresholdMs = 1000;
  /// Arm the process-wide telemetry registry on start(). The serve
  /// observability surface (per-tenant families, latency percentiles,
  /// the telemetry section of the metrics verb) feeds from it, so the
  /// daemon runs armed by default; `--no-telemetry` opts out and leaves
  /// every probe at its one-relaxed-load disabled cost.
  bool enableTelemetry = true;
  QueueLimits queue;
};

class Server {
public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and spawn the accept + runner threads. Throws
  /// Error(ErrorCode::Io) when the path cannot be bound.
  void start();

  /// Block until a shutdown request (or requestShutdown()) arrives, then
  /// drain and join everything.
  void run();

  /// Ask the daemon to stop: close admission, stop accepting, wake run().
  void requestShutdown();

  /// Drain and join without blocking in run() (used by in-process tests
  /// and the bench fixture; idempotent).
  void stop();

  [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }
  [[nodiscard]] vm::CompileCache& cache() noexcept { return cache_; }

  /// The metrics document served for {"type":"metrics"}: queue depth and
  /// quotas, per-tenant gauges, program-store size and hit rate, protocol
  /// rejects, and the full telemetry snapshot.
  [[nodiscard]] std::string metricsJson();

private:
  /// One admitted-but-unfinished job, as the overload machinery sees it:
  /// the cancel verb resolves (tenant, request_id) to the token, the
  /// watchdog scans deadlines, and the memory guard accounts stateBytes.
  /// Registered before the queue push (the runner may pop immediately),
  /// unregistered once the submit response is delivered.
  struct ActiveJob {
    std::shared_ptr<qirkit::CancelToken> cancel;
    std::string tenant;
    std::string requestId; // empty: not cancellable by verb
    std::uint64_t deadlineMs = 0;
    std::uint64_t deadlineNs = 0; // absolute; 0 = none
    std::uint64_t admittedNs = 0;
    std::uint64_t stateBytes = 0; // predicted footprint
    std::uint64_t shots = 0;
    /// Set by the watchdog before it force-cancels; read lock-free by the
    /// runner to attribute the resulting deadline error to "watchdog"
    /// rather than a client cancel.
    std::atomic<bool> watchdogFlagged{false};
  };

  void acceptLoop();
  void connectionLoop(int fd);
  void runnerLoop();
  void watchdogLoop();
  /// Dispatch one well-formed frame; returns the response line.
  std::string handleRequest(const Request& request);
  /// Admission path of a submit: look the program up in the store,
  /// enqueue, and wait for the runner's response.
  std::string handleSubmit(const SubmitRequest& request);
  std::string handleCancel(const CancelRequest& request);
  /// Replay the flight recorder for {"type":"events"}.
  std::string handleEvents(const EventsRequest& request);
  /// The metrics verb's format=prometheus mode: the exposition text,
  /// escaped into the JSON response's "body" field.
  std::string prometheusMetricsJson();
  void executeJob(Job& job);
  /// Archive one finished (or expired) job into the flight recorder with
  /// \p stagesJson, the job's stage list as rendered for its response.
  void recordFlight(const Job& job, std::uint64_t queueWaitNs,
                    std::uint64_t execNs, const char* outcome,
                    const char* errorCode, std::string cause,
                    std::string stagesJson);
  /// Archive \p job as failed, then deliver its error response: \p extras
  /// plus the job's stage list, rendered once for both.
  void failJob(const Job& job, ErrorCode code, const std::string& message,
               std::string extras, std::uint64_t queueWaitNs,
               std::uint64_t execNs, std::string cause);
  /// Memory-admission guard + registration; throws AdmissionError when
  /// the predicted footprint does not fit the budget.
  void registerActive(const std::shared_ptr<ActiveJob>& active);
  void unregisterActive(const std::shared_ptr<ActiveJob>& active);

  ServerOptions options_;
  AdmissionQueue queue_;
  vm::CompileCache cache_;
  ThreadPool pool_;
  FlightRecorder flight_;
  std::uint64_t startedNs_ = 0;

  int listenFd_ = -1;
  std::thread acceptThread_;
  std::thread watchdogThread_;
  std::vector<std::thread> runnerThreads_;

  std::mutex activeMutex_;
  std::list<std::shared_ptr<ActiveJob>> active_;
  std::uint64_t inFlightStateBytes_ = 0;

  std::mutex connectionsMutex_;
  std::list<std::pair<int, std::thread>> connections_;
  /// Requests currently between decode and response write; stop() waits
  /// for this to reach zero before shutting the sockets down, so drained
  /// jobs deliver their final responses instead of torn connections.
  std::atomic<std::size_t> busyRequests_{0};

  std::mutex shutdownMutex_;
  std::condition_variable shutdownCv_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
};

} // namespace qirkit::service
