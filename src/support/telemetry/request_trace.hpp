/// \file request_trace.hpp
/// Request-scoped trace context: an ordered list of named stages (with
/// wall-clock start/duration and an optional note) keyed by the
/// originating tenant and request id. One RequestTrace accompanies a
/// service job from admission to response delivery, threaded through
/// ShotOptions alongside the CancelToken, so the per-stage breakdown —
/// admission → queue wait → compile (hit/miss/coalesced) → analyze →
/// execute — can be returned in the response and archived in the flight
/// recorder.
///
/// It is the third sink of telemetry::Span (telemetry.hpp), and records
/// unconditionally: a serve response returns its stages whatever sinks
/// are armed. The cost is a clock pair and one short mutex
/// section per stage, at request cadence; the per-shot path never sees a
/// RequestTrace.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qirkit::telemetry {

/// One recorded stage of a request's lifetime.
struct RequestStage {
  std::string name;     ///< "admission", "queue", "compile", "execute", ...
  std::string note;     ///< optional qualifier: "hit", "miss", "terminal", ...
  std::uint64_t startNs = 0;
  std::uint64_t durNs = 0;
};

/// The span tree of one request (flat stage list — stages at this
/// granularity never overlap, so parent links add nothing). Thread-safe:
/// the connection thread records admission while the runner thread later
/// records execution stages.
class RequestTrace {
public:
  RequestTrace(std::string tenant, std::string requestId)
      : tenant_(std::move(tenant)), requestId_(std::move(requestId)) {}

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  void addStage(std::string_view name, std::uint64_t startNs,
                std::uint64_t durNs, std::string_view note = {});

  [[nodiscard]] const std::string& tenant() const noexcept { return tenant_; }
  [[nodiscard]] const std::string& requestId() const noexcept { return requestId_; }

  /// Copy of the stages recorded so far, in recording order.
  [[nodiscard]] std::vector<RequestStage> stages() const;

  /// JSON array: [{"stage":"queue","start_ns":N,"dur_ns":N},...] with a
  /// "note" member on stages that have one. start_ns is relative to the
  /// first recorded stage, so the array is stable across daemon uptime.
  [[nodiscard]] std::string stagesJson() const;

private:
  std::string tenant_;
  std::string requestId_;
  mutable std::mutex mutex_;
  std::vector<RequestStage> stages_;
};

} // namespace qirkit::telemetry
