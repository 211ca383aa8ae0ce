/// \file queue.hpp
/// The service's admission queue: the single point where multi-tenancy is
/// enforced. Admission applies the quotas (global queue capacity, per-
/// tenant pending bound, per-job shot ceiling) and resolves each job's
/// seed; scheduling is round-robin across tenants with per-tenant priority
/// ordering, so one chatty tenant can delay its own jobs but never starve
/// another tenant's.
///
/// Seeds: a job that names no seed draws the next value from its tenant's
/// deterministic SplitMix64 stream (keyed on the tenant name), so a
/// tenant's unseeded jobs are reproducible across daemon restarts yet
/// decorrelated from every other tenant's.
#pragma once

#include "service/protocol.hpp"
#include "support/error.hpp"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace qirkit {
class CancelToken;
} // namespace qirkit

namespace qirkit::vm {
struct Program;
} // namespace qirkit::vm

namespace qirkit::telemetry {
class RequestTrace;
} // namespace qirkit::telemetry

namespace qirkit::service {

/// A structured admission rejection: error[resource-limit] plus a
/// machine-readable hint for when the caller should try again.
/// retryAfterMs == 0 means "never" — the request violates a static limit
/// (shot ceiling, oversized state) and would be rejected identically on
/// every retry.
class AdmissionError : public qirkit::Error {
public:
  AdmissionError(const std::string& message, std::uint64_t retryAfterMs,
                 std::string cause = {})
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

/// One admitted unit of work. The runner fulfills `deliver` with the final
/// response line (result or structured error); the connection thread holds
/// the matching future.
struct Job {
  std::uint64_t id = 0;
  SubmitRequest request;
  std::uint64_t seed = 0;       // resolved at admission
  /// The program-store entry, held alive for the job's whole lifetime (an
  /// eviction only drops the store's reference).
  std::shared_ptr<const vm::Program> program;
  /// The store lookup found the program resident or joined its load.
  bool cacheHit = false;
  std::uint64_t enqueuedNs = 0; // for queue-wait attribution
  /// Absolute steady-clock deadline (CancelToken::nowNs units; 0 = none).
  /// Armed at admission, so queue wait counts against the budget and a
  /// job can expire while still pending (queue TTL).
  std::uint64_t deadlineNs = 0;
  /// The job's cancellation token: shared by the executing batch, the
  /// cancel verb, and the watchdog. Null for jobs that set neither a
  /// deadline nor a request id.
  std::shared_ptr<qirkit::CancelToken> cancel;
  /// The request-scoped trace context (request_trace.hpp), created at
  /// admission and carried to the executing batch via ShotOptions.
  std::shared_ptr<telemetry::RequestTrace> trace;
  /// The server's ActiveJob record for this job (opaque: the type lives
  /// in server.hpp), so the runner can attribute a cancellation to the
  /// watchdog vs the cancel verb when it records the outcome.
  std::shared_ptr<void> active;
  std::function<void(std::string)> deliver;
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
};

/// Point-in-time view for the metrics endpoint.
struct QueueStats {
  std::size_t depth = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t rateLimited = 0; // subset of rejected
  std::uint64_t finished = 0;
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

  /// Admit \p job (assigning id, seed, and enqueue tick) or throw
  /// Error(ErrorCode::ResourceLimit) naming the violated quota.
  /// Thread-safe; wakes one blocked pop().
  void push(Job job);

  /// Next job in fair order; blocks while the queue is open and empty.
  /// Returns nullopt once close()d and drained.
  [[nodiscard]] std::optional<Job> pop();

  /// Release the tenant's pending slot after its job ran (or failed).
  void onJobFinished(const std::string& tenant);

  /// Stop admitting (push throws ResourceLimit) and wake every pop().
  /// Already-queued jobs still drain.
  void close();

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] QueueStats stats() const;
  [[nodiscard]] const QueueLimits& limits() const noexcept { return limits_; }

private:
  struct Tenant {
    std::deque<Job> queued; // priority-ordered, FIFO within a priority
    std::size_t pending = 0;
    std::uint64_t admitted = 0;
    std::uint64_t seedState = 0; // SplitMix64 state, lazily keyed on name
    bool seeded = false;
    /// Token bucket (when QueueLimits::ratePerSec > 0): current tokens
    /// and the monotonic tick of the last refill.
    double rateTokens = 0;
    std::uint64_t rateRefillNs = 0;
    bool rateInit = false;
  };

  [[nodiscard]] std::size_t depthLocked() const;

  QueueLimits limits_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::map<std::string, Tenant> tenants_;
  /// Round-robin cursor: the tenant scheduled *after* this name (map
  /// order) serves next, so no tenant is drained twice in a row while
  /// another waits.
  std::string cursor_;
  std::uint64_t nextJobId_ = 1;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t rateLimited_ = 0;
  std::uint64_t finished_ = 0;
  bool closed_ = false;
};

} // namespace qirkit::service
