/// \file queue.hpp
/// The service's admission queue: the single point where multi-tenancy is
/// enforced, and the one place an unfinished job is held. Admission takes
/// two steps around the program-store lookup: the quotas that need no
/// program (draining, per-job shot ceiling, queue capacity, per-tenant
/// pending bound, per-tenant rate limit) before it, so an over-quota
/// submit costs no load, and the memory budget right after it. Scheduling
/// is round-robin across tenants with per-tenant priority ordering, so one
/// chatty tenant can delay its own jobs but never starve another tenant's.
/// One mutex guards the quotas, the memory budget and the set of
/// unfinished jobs that the cancel verb and the watchdog scan.
///
/// Seeds: a job that names no seed draws the next value from its tenant's
/// deterministic SplitMix64 stream (keyed on the tenant name), so a
/// tenant's unseeded jobs are reproducible across daemon restarts yet
/// decorrelated from every other tenant's.
#pragma once

#include "service/protocol.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/telemetry/request_trace.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qirkit::vm {
struct Program;
} // namespace qirkit::vm

namespace qirkit::service {

/// A structured admission rejection: error[resource-limit] plus a
/// machine-readable hint for when the caller should try again.
/// retryAfterMs == 0 means "never" — the request violates a static limit
/// (shot ceiling, oversized state) and would be rejected identically on
/// every retry.
class AdmissionError : public qirkit::Error {
public:
  AdmissionError(const std::string& message, std::uint64_t retryAfterMs,
                 std::string cause)
      : Error(ErrorCode::ResourceLimit, message), retryAfterMs_(retryAfterMs),
        cause_(std::move(cause)) {}

  [[nodiscard]] std::uint64_t retryAfterMs() const noexcept {
    return retryAfterMs_;
  }
  /// Stable machine-readable reject cause ("queue-capacity",
  /// "tenant-pending", "shot-ceiling", "rate-limit", "memory", ...) —
  /// the label of the per-tenant reject-by-cause SLO counters.
  [[nodiscard]] const std::string& cause() const noexcept { return cause_; }

private:
  std::uint64_t retryAfterMs_ = 0;
  std::string cause_;
};

/// One submitted job: the one record the connection thread, the queue, a
/// runner, the cancel verb and the watchdog share, from admission to the
/// delivery of its response.
struct Job {
  explicit Job(SubmitRequest submitted)
      : request(std::move(submitted)), trace(request.tenant, request.requestId) {}

  SubmitRequest request;
  telemetry::RequestTrace trace;      // its stages, returned in the response
  qirkit::CancelToken cancel;         // the batch's, the cancel verb's, the watchdog's
  std::promise<std::string> response; // fulfilled once, by Server::settle

  // Filled in by the load step between the two admission steps.
  /// The program-store entry, alive for the job's lifetime (an eviction
  /// only drops the store's reference).
  std::shared_ptr<const vm::Program> program;
  bool cacheHit = false;       // the lookup found it resident or joined its load
  std::uint64_t stateBytes = 0; // memory charge; 0 when no width is declared

  // Stamped by the queue.
  std::uint64_t id = 0;   // admitted jobs only
  std::uint64_t seed = 0; // resolved at admission
  /// Steady-clock tick at which the job entered the queue, or, for a
  /// rejected job, at which the refused admission step began. Queue wait,
  /// the watchdog's budget and the flight record's total count from it.
  std::uint64_t admittedNs = 0;
  /// Popped with its deadline unexpired, so a runner takes it up; the
  /// watchdog scans only these. Guarded by the queue's mutex.
  bool started = false;
  /// Set by the watchdog before it force-cancels the job, so the deadline
  /// outcome is attributed to it rather than to the cancel verb.
  std::atomic<bool> watchdogFlagged{false};
};

struct QueueLimits {
  /// Total queued jobs across all tenants; admission beyond it is
  /// error[resource-limit].
  std::size_t capacity = 256;
  /// Queued + running jobs per tenant.
  std::size_t tenantMaxPending = 16;
  /// Largest shot count one job may request.
  std::uint64_t maxShotsPerJob = 1U << 20U;
  /// Per-tenant token-bucket rate limit: sustained admissions per second
  /// (0 disables) with \p rateBurst of headroom. The bucket refills
  /// continuously from the monotonic clock, so the limit acts over a
  /// sliding window rather than fixed epochs; violations reject with
  /// error[resource-limit] and a retry_after_ms hint sized to the token
  /// deficit.
  double ratePerSec = 0.0;
  double rateBurst = 8.0;
  /// Upfront memory budget: the predicted statevector footprints
  /// (Job::stateBytes) of the unfinished jobs may not sum past it, so an
  /// excess request is rejected at admission instead of OOM-killing the
  /// daemon mid-simulation. 0 disables the guard.
  std::uint64_t memoryBudgetBytes = 8ULL << 30U;
};

/// Point-in-time view for the metrics endpoint.
struct QueueStats {
  std::size_t depth = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;       // every admission reject
  std::uint64_t rateLimited = 0;    // subset of rejected
  std::uint64_t memoryRejected = 0; // subset of rejected
  std::uint64_t finished = 0;
  std::size_t unfinished = 0;       // admitted, response not yet settled
  std::uint64_t inFlightBytes = 0;  // their summed stateBytes
  struct Tenant {
    std::string name;
    std::size_t pending = 0; // queued + running
    std::uint64_t admitted = 0;
  };
  std::vector<Tenant> tenants;
};

class AdmissionQueue {
public:
  explicit AdmissionQueue(QueueLimits limits) : limits_(limits) {}

  /// Admit \p job: check the quotas that need no program, run \p load
  /// outside the lock (it resolves the program and Job::stateBytes), then
  /// check the memory budget and enqueue the job with its id, seed and
  /// admission tick. Throws AdmissionError naming the violated quota, or
  /// what \p load throws; either way the job holds no slot. Thread-safe;
  /// wakes one blocked pop().
  void admit(const std::shared_ptr<Job>& job,
             const std::function<void(Job&)>& load = {});

  /// Next job in fair order; blocks while the queue is open and empty.
  /// Marks it started unless its token already expired while it waited.
  /// Returns nullptr once close()d and drained.
  [[nodiscard]] std::shared_ptr<Job> pop();

  /// Release an admitted job's tenant slot and memory charge, and forget
  /// it, once its outcome is settled.
  void finish(const Job& job);

  /// Cancel every unfinished job tagged (\p tenant, \p requestId), queued
  /// or running. Returns whether one was found.
  bool cancel(const std::string& tenant, const std::string& requestId);

  /// The watchdog's scan: flag and cancel each started job that is still
  /// unfinished \p factor times its deadline after admission, and return
  /// those newly flagged.
  std::vector<std::shared_ptr<Job>> flagOverdue(unsigned factor);

  /// Stop admitting (admit throws ResourceLimit) and wake every pop().
  /// Already-queued jobs still drain.
  void close();

  [[nodiscard]] QueueStats stats() const;
  [[nodiscard]] const QueueLimits& limits() const noexcept { return limits_; }

private:
  struct Tenant {
    std::deque<std::shared_ptr<Job>> queued; // priority-ordered, FIFO within a priority
    std::size_t pending = 0; // loading + queued + running
    std::uint64_t admitted = 0;
    std::uint64_t seedState = 0; // SplitMix64 state, lazily keyed on name
    bool seeded = false;
    /// Token bucket (when QueueLimits::ratePerSec > 0): current tokens
    /// and the monotonic tick of the last refill.
    double rateTokens = 0;
    std::uint64_t rateRefillNs = 0;
    bool rateInit = false;
  };

  /// The quotas that need no program; on success the job's tenant holds a
  /// pending slot, and the job a queue place, while its program loads.
  void reserve(Job& job);
  /// Count a reject, record the admission stage from \p stageStartNs, and
  /// throw.
  [[noreturn]] void rejectLocked(Job& job, std::uint64_t stageStartNs,
                                 const std::string& why,
                                 std::uint64_t retryAfterMs, const char* cause);
  [[nodiscard]] std::size_t depthLocked() const;

  QueueLimits limits_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::map<std::string, Tenant> tenants_;
  /// Round-robin cursor: the tenant scheduled *after* this name (map
  /// order) serves next, so no tenant is drained twice in a row while
  /// another waits.
  std::string cursor_;
  /// Jobs past the quotas whose program is loading: they count against
  /// the queue capacity, so the load cannot overfill it.
  std::size_t loading_ = 0;
  /// Admitted jobs not yet finished, queued or running.
  std::vector<std::shared_ptr<Job>> unfinished_;
  std::uint64_t inFlightBytes_ = 0;
  std::uint64_t nextJobId_ = 1;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t rateLimited_ = 0;
  std::uint64_t memoryRejected_ = 0;
  std::uint64_t finished_ = 0;
  bool closed_ = false;
};

} // namespace qirkit::service
