/// \file server.hpp
/// The `qirkit serve` daemon: a Unix-domain stream socket speaking the
/// line-delimited JSON protocol (protocol.hpp), an admission queue
/// (queue.hpp), one program store (vm::CompileCache: content-addressed,
/// so tenants can resubmit by id and pay loading, compiling and analysis
/// once), and one shared ThreadPool that every job's shot chunks
/// multiplex onto.
///
/// Threading model: one accept thread, one thread per live connection
/// (reads frames, admits each job around its program-store lookup, blocks
/// on the job's response), a watchdog thread, and `runners` job-runner
/// threads popping the queue and running each job's store Program on the
/// injected pool. Runner threads are the only place programs execute, so
/// `runners` bounds concurrent batches while the pool bounds total
/// shot-kernel parallelism — nothing oversubscribes.
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

namespace qirkit::telemetry {
struct Snapshot;
} // namespace qirkit::telemetry

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
  /// Watchdog: a running job still unfinished after watchdogFactor x its
  /// own deadline budget (counted from admission) is flagged and its token
  /// force-cancelled — the backstop for a runner stuck inside a shot that
  /// stops probing. A job that lapses in the queue is a queue TTL, never
  /// the watchdog's. 0 disables; jobs without deadlines are never flagged.
  unsigned watchdogFactor = 4;
  /// Flight recorder: how many recent request records the `events` verb
  /// can replay. Clamped to at least 1.
  std::size_t flightCapacity = 256;
  /// Requests slower than this (admission to delivery) keep their full
  /// per-stage trace in the flight recorder even when they succeed;
  /// errored requests always keep theirs. 0 marks nothing as slow.
  std::uint64_t slowThresholdMs = 1000;
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
  /// How a job ended. settle() counts each outcome once.
  enum class Outcome : std::uint8_t {
    Rejected,  ///< refused at admission
    Lapsed,    ///< its deadline ran out, or it was cancelled, while queued
    Drained,   ///< still queued when the daemon began to drain
    Failed,    ///< the batch threw a classified error
    Cut,       ///< its deadline or a cancel stopped the batch part-way
    Completed, ///< ran all its shots
  };
  /// One outcome, as settle() counts, archives and answers it.
  struct Ending {
    Outcome outcome = Outcome::Completed;
    ErrorCode code = ErrorCode::Internal; ///< every outcome but Completed
    std::string message{};
    std::string extras{}; ///< the retry hint; deadline members are derived
    std::string cause{};  ///< the flight record's cause; derived when empty
    std::uint64_t queueWaitNs = 0;
    std::uint64_t execNs = 0;
  };

  void acceptLoop();
  void connectionLoop(int fd);
  void runnerLoop();
  void watchdogLoop();
  /// Dispatch one well-formed frame; returns the response line.
  std::string handleRequest(Request request);
  /// A submit: admit the job around its program-store lookup, then wait
  /// for its response.
  std::string handleSubmit(SubmitRequest request);
  /// The load step of admission: look the program up in the store (the
  /// request's compile stage), size its memory charge and arm its
  /// deadline.
  void loadProgram(Job& job);
  std::string handleCancel(const CancelRequest& request);
  /// Replay the flight recorder for {"type":"events"}.
  std::string handleEvents(const EventsRequest& request);
  /// The metrics verb's format=prometheus mode: the exposition text,
  /// escaped into the JSON response's "body" field.
  std::string prometheusMetricsJson();
  void executeJob(Job& job, std::uint64_t queueWaitNs);
  /// Settle \p job: release its queue slot (an admitted job), count the
  /// outcome, archive the flight record and deliver the response. The
  /// stage list is rendered once for both. A job that ran passes its
  /// \p batch; a completed one also the telemetry snapshot taken
  /// \p before it ran.
  void settle(Job& job, Ending ending, vm::ShotBatchResult* batch = nullptr,
              const telemetry::Snapshot* before = nullptr);

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
