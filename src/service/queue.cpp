#include "service/queue.hpp"

#include "support/cancel.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"
#include "support/telemetry/telemetry.hpp"

#include <algorithm>
#include <cmath>

namespace qirkit::service {

namespace {

telemetry::Counter g_admitted{"serve.queue.admitted"};
telemetry::Counter g_rejected{"serve.queue.rejected"};
telemetry::Counter g_rateLimited{"serve.queue.rate_limited"};
telemetry::MaxGauge g_peakDepth{"serve.queue.peak_depth"};

} // namespace

void AdmissionQueue::push(Job job) {
  const std::string& tenantName = job.request.tenant;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // retryAfterMs: 0 = permanent (static limit), nonzero = back off and
    // retry — surfaced on the wire as the retry_after_ms hint. The cause
    // is the stable label of the per-tenant reject-by-cause counters.
    const auto reject = [&](const std::string& why, std::uint64_t retryAfterMs,
                            const char* cause) {
      ++rejected_;
      g_rejected.add();
      throw AdmissionError(why, retryAfterMs, cause);
    };
    if (closed_) {
      reject("service is shutting down", 0, "draining");
    }
    if (job.request.shots > limits_.maxShotsPerJob) {
      reject("job requests " + std::to_string(job.request.shots) +
                 " shots; per-job limit is " +
                 std::to_string(limits_.maxShotsPerJob),
             0, "shot-ceiling");
    }
    if (depthLocked() >= limits_.capacity) {
      reject("admission queue is full (" + std::to_string(limits_.capacity) +
                 " jobs)",
             100, "queue-capacity");
    }
    Tenant& tenant = tenants_[tenantName];
    if (tenant.pending >= limits_.tenantMaxPending) {
      reject("tenant '" + tenantName + "' already has " +
                 std::to_string(tenant.pending) + " pending jobs (limit " +
                 std::to_string(limits_.tenantMaxPending) + ")",
             50, "tenant-pending");
    }
    if (limits_.ratePerSec > 0) {
      // Continuous token-bucket refill: one token per admission,
      // ratePerSec tokens/s restored, capped at the burst. Refilling on
      // every attempt makes the window slide instead of stepping.
      const std::uint64_t now = qirkit::CancelToken::nowNs();
      if (!tenant.rateInit) {
        tenant.rateTokens = limits_.rateBurst;
        tenant.rateRefillNs = now;
        tenant.rateInit = true;
      } else {
        const double elapsedSec =
            static_cast<double>(now - tenant.rateRefillNs) * 1e-9;
        tenant.rateTokens = std::min(
            limits_.rateBurst,
            tenant.rateTokens + elapsedSec * limits_.ratePerSec);
        tenant.rateRefillNs = now;
      }
      if (tenant.rateTokens < 1.0) {
        const double deficitSec =
            (1.0 - tenant.rateTokens) / limits_.ratePerSec;
        const auto retryMs = static_cast<std::uint64_t>(
            std::ceil(deficitSec * 1e3));
        ++rateLimited_;
        g_rateLimited.add();
        reject("tenant '" + tenantName + "' exceeded its admission rate (" +
                   std::to_string(limits_.ratePerSec) + "/s, burst " +
                   std::to_string(limits_.rateBurst) + ")",
               std::max<std::uint64_t>(retryMs, 1), "rate-limit");
      }
      tenant.rateTokens -= 1.0;
    }
    job.id = nextJobId_++;
    if (job.request.seed.has_value()) {
      job.seed = *job.request.seed;
    } else {
      if (!tenant.seeded) {
        tenant.seedState = fnv1a(tenantName);
        tenant.seeded = true;
      }
      SplitMix64 stream(tenant.seedState);
      job.seed = stream();
      tenant.seedState = job.seed;
    }
    job.enqueuedNs = telemetry::nowNs();
    // Priority ordering within the tenant: higher priority first, FIFO
    // among equals.
    auto at = tenant.queued.end();
    while (at != tenant.queued.begin() &&
           std::prev(at)->request.priority < job.request.priority) {
      --at;
    }
    tenant.queued.insert(at, std::move(job));
    ++tenant.pending;
    ++tenant.admitted;
    ++admitted_;
    g_admitted.add();
    g_peakDepth.updateMax(depthLocked());
  }
  ready_.notify_one();
}

std::optional<Job> AdmissionQueue::pop() {
  std::unique_lock lock(mutex_);
  ready_.wait(lock, [this] { return closed_ || depthLocked() != 0; });
  if (depthLocked() == 0) {
    return std::nullopt; // closed and drained
  }
  // Fair pick: the first non-empty tenant strictly after the cursor in
  // map order, wrapping around.
  auto it = tenants_.upper_bound(cursor_);
  for (std::size_t scanned = 0; scanned <= tenants_.size(); ++scanned, ++it) {
    if (it == tenants_.end()) {
      it = tenants_.begin();
    }
    if (!it->second.queued.empty()) {
      break;
    }
  }
  cursor_ = it->first;
  Job job = std::move(it->second.queued.front());
  it->second.queued.pop_front();
  return job;
}

void AdmissionQueue::onJobFinished(const std::string& tenant) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(tenant);
  if (it != tenants_.end() && it->second.pending > 0) {
    --it->second.pending;
  }
  ++finished_;
}

void AdmissionQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

std::size_t AdmissionQueue::depthLocked() const {
  std::size_t n = 0;
  for (const auto& [name, tenant] : tenants_) {
    n += tenant.queued.size();
  }
  return n;
}

std::size_t AdmissionQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return depthLocked();
}

QueueStats AdmissionQueue::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  QueueStats stats;
  stats.depth = depthLocked();
  stats.admitted = admitted_;
  stats.rejected = rejected_;
  stats.rateLimited = rateLimited_;
  stats.finished = finished_;
  for (const auto& [name, tenant] : tenants_) {
    stats.tenants.push_back({name, tenant.pending, tenant.admitted});
  }
  return stats;
}

} // namespace qirkit::service
