#include "service/queue.hpp"

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
telemetry::Counter g_memoryRejected{"serve.admission.memory_rejected"};
telemetry::MaxGauge g_peakDepth{"serve.queue.peak_depth"};
/// The admission step that enqueued the job, or the one that refused it
/// (noted "rejected").
telemetry::Stage g_admissionStage{"admission"};

} // namespace

void AdmissionQueue::admit(const std::shared_ptr<Job>& job,
                           const std::function<void(Job&)>& load) {
  reserve(*job);
  if (load) {
    try {
      load(*job);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      --loading_;
      --tenants_[job->request.tenant].pending;
      throw;
    }
  }
  const std::uint64_t startNs = telemetry::nowNs();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --loading_;
    if (closed_) {
      // Closed while the program loaded: no runner may be left to pop it.
      --tenants_[job->request.tenant].pending;
      rejectLocked(*job, startNs, "service is shutting down", 0, "draining");
    }
    const std::uint64_t budget = limits_.memoryBudgetBytes;
    const std::uint64_t bytes = job->stateBytes;
    if (budget != 0 && inFlightBytes_ + bytes > budget) {
      // A job that alone exceeds the budget can never fit: no retry hint.
      const bool never = bytes > budget;
      --tenants_[job->request.tenant].pending;
      rejectLocked(*job, startNs,
                   "predicted statevector footprint (" + std::to_string(bytes) +
                       (never ? " bytes) exceeds the memory budget (" +
                                    std::to_string(budget) + " bytes)"
                              : " bytes) does not fit: " +
                                    std::to_string(inFlightBytes_) +
                                    " bytes already in flight against a " +
                                    std::to_string(budget) + "-byte budget"),
                   never ? 0 : 100, "memory");
    }
    Tenant& tenant = tenants_[job->request.tenant];
    job->id = nextJobId_++;
    if (job->request.seed.has_value()) {
      job->seed = *job->request.seed;
    } else {
      if (!tenant.seeded) {
        tenant.seedState = fnv1a(job->request.tenant);
        tenant.seeded = true;
      }
      SplitMix64 stream(tenant.seedState);
      job->seed = stream();
      tenant.seedState = job->seed;
    }
    // Recorded before the job becomes visible to a runner, so its "queue"
    // stage always lands after this one.
    job->admittedNs = telemetry::nowNs();
    telemetry::recordStage(g_admissionStage, startNs, job->admittedNs - startNs,
                           &job->trace);
    // Priority ordering within the tenant: higher priority first, FIFO
    // among equals.
    auto at = tenant.queued.end();
    while (at != tenant.queued.begin() &&
           (*std::prev(at))->request.priority < job->request.priority) {
      --at;
    }
    tenant.queued.insert(at, job);
    unfinished_.push_back(job);
    inFlightBytes_ += bytes;
    ++tenant.admitted;
    ++admitted_;
    g_admitted.add();
    g_peakDepth.updateMax(depthLocked());
  }
  ready_.notify_one();
}

void AdmissionQueue::reserve(Job& job) {
  const std::uint64_t startNs = telemetry::nowNs();
  const SubmitRequest& request = job.request;
  const std::lock_guard<std::mutex> lock(mutex_);
  // retryAfterMs: 0 = permanent (static limit), nonzero = back off and
  // retry — surfaced on the wire as the retry_after_ms hint. The cause is
  // the stable label of the per-tenant reject-by-cause counters.
  if (closed_) {
    rejectLocked(job, startNs, "service is shutting down", 0, "draining");
  }
  if (request.shots > limits_.maxShotsPerJob) {
    rejectLocked(job, startNs,
                 "job requests " + std::to_string(request.shots) +
                     " shots; per-job limit is " +
                     std::to_string(limits_.maxShotsPerJob),
                 0, "shot-ceiling");
  }
  if (depthLocked() + loading_ >= limits_.capacity) {
    rejectLocked(job, startNs,
                 "admission queue is full (" + std::to_string(limits_.capacity) +
                     " jobs)",
                 100, "queue-capacity");
  }
  Tenant& tenant = tenants_[request.tenant];
  if (tenant.pending >= limits_.tenantMaxPending) {
    rejectLocked(job, startNs,
                 "tenant '" + request.tenant + "' already has " +
                     std::to_string(tenant.pending) + " pending jobs (limit " +
                     std::to_string(limits_.tenantMaxPending) + ")",
                 50, "tenant-pending");
  }
  if (limits_.ratePerSec > 0) {
    // Continuous token-bucket refill: one token per admission, ratePerSec
    // tokens/s restored, capped at the burst. Refilling on every attempt
    // makes the window slide instead of stepping.
    const std::uint64_t now = qirkit::CancelToken::nowNs();
    if (!tenant.rateInit) {
      tenant.rateTokens = limits_.rateBurst;
      tenant.rateRefillNs = now;
      tenant.rateInit = true;
    } else {
      const double elapsedSec =
          static_cast<double>(now - tenant.rateRefillNs) * 1e-9;
      tenant.rateTokens = std::min(
          limits_.rateBurst, tenant.rateTokens + elapsedSec * limits_.ratePerSec);
      tenant.rateRefillNs = now;
    }
    if (tenant.rateTokens < 1.0) {
      const double deficitSec = (1.0 - tenant.rateTokens) / limits_.ratePerSec;
      const auto retryMs =
          static_cast<std::uint64_t>(std::ceil(deficitSec * 1e3));
      rejectLocked(job, startNs,
                   "tenant '" + request.tenant + "' exceeded its admission rate (" +
                       std::to_string(limits_.ratePerSec) + "/s, burst " +
                       std::to_string(limits_.rateBurst) + ")",
                   std::max<std::uint64_t>(retryMs, 1), "rate-limit");
    }
    tenant.rateTokens -= 1.0;
  }
  ++tenant.pending;
  ++loading_;
}

void AdmissionQueue::rejectLocked(Job& job, std::uint64_t stageStartNs,
                                  const std::string& why,
                                  std::uint64_t retryAfterMs, const char* cause) {
  ++rejected_;
  g_rejected.add();
  if (std::string_view(cause) == "rate-limit") {
    ++rateLimited_;
    g_rateLimited.add();
  } else if (std::string_view(cause) == "memory") {
    ++memoryRejected_;
    g_memoryRejected.add();
  }
  job.admittedNs = stageStartNs;
  telemetry::recordStage(g_admissionStage, stageStartNs,
                         telemetry::nowNs() - stageStartNs, &job.trace, "rejected");
  throw AdmissionError(why, retryAfterMs, cause);
}

std::shared_ptr<Job> AdmissionQueue::pop() {
  std::unique_lock lock(mutex_);
  ready_.wait(lock, [this] { return closed_ || depthLocked() != 0; });
  if (depthLocked() == 0) {
    return nullptr; // closed and drained
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
  std::shared_ptr<Job> job = std::move(it->second.queued.front());
  it->second.queued.pop_front();
  // A job whose deadline lapsed (or that was cancelled) while queued never
  // starts, so the watchdog never takes its lapse for a stuck runner.
  job->started = !job->cancel.expired();
  return job;
}

void AdmissionQueue::finish(const Job& job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  --tenants_[job.request.tenant].pending;
  inFlightBytes_ -= job.stateBytes;
  std::erase_if(unfinished_, [&](const std::shared_ptr<Job>& j) { return j.get() == &job; });
  ++finished_;
}

bool AdmissionQueue::cancel(const std::string& tenant, const std::string& requestId) {
  const std::lock_guard<std::mutex> lock(mutex_);
  bool found = false;
  for (const std::shared_ptr<Job>& job : unfinished_) {
    if (job->request.tenant == tenant && !requestId.empty() &&
        job->request.requestId == requestId) {
      job->cancel.cancel();
      found = true;
    }
  }
  return found;
}

std::vector<std::shared_ptr<Job>> AdmissionQueue::flagOverdue(unsigned factor) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t now = telemetry::nowNs(); // not before any admittedNs
  std::vector<std::shared_ptr<Job>> flagged;
  for (const std::shared_ptr<Job>& job : unfinished_) {
    const std::uint64_t deadlineMs = job->request.deadlineMs;
    if (!job->started || deadlineMs == 0 || job->watchdogFlagged) {
      continue;
    }
    if (now - job->admittedNs <= deadlineMs * 1'000'000ULL * factor) {
      continue;
    }
    // The job outlived N x its own deadline: either its runner is stuck
    // inside it or its cooperative probes stopped firing. Flag once and
    // force the token as a backstop.
    job->watchdogFlagged = true;
    job->cancel.cancel();
    flagged.push_back(job);
  }
  return flagged;
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

QueueStats AdmissionQueue::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  QueueStats stats;
  stats.depth = depthLocked();
  stats.admitted = admitted_;
  stats.rejected = rejected_;
  stats.rateLimited = rateLimited_;
  stats.memoryRejected = memoryRejected_;
  stats.finished = finished_;
  stats.unfinished = unfinished_.size();
  stats.inFlightBytes = inFlightBytes_;
  for (const auto& [name, tenant] : tenants_) {
    stats.tenants.push_back({name, tenant.pending, tenant.admitted});
  }
  return stats;
}

} // namespace qirkit::service
