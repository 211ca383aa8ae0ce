/// \file protocol.hpp
/// The wire protocol of `qirkit serve`: line-delimited JSON over a local
/// stream socket. Each request is one JSON object on one line; each
/// response is one JSON object on one line. The connection is persistent —
/// a malformed or oversized frame earns a structured error response (and a
/// telemetry counter), never a torn-down connection, mirroring how the CLI
/// turns bad numeric options into error[usage] instead of an abort.
///
/// Requests ("type" selects the verb):
///   {"type":"submit","tenant":T,"program":TEXT,...}   run a shot batch
///   {"type":"submit","tenant":T,"program_ref":ID,...} rerun a stored
///                                                     program by content id
///   {"type":"metrics"}                                service gauges + cache
///                                                     + telemetry snapshot
///   {"type":"metrics","format":"prometheus"}          same data as Prometheus
///                                                     text exposition (in the
///                                                     "body" response field)
///   {"type":"events","tenant":T?,"limit":N?}          recent request records
///                                                     from the flight recorder
///   {"type":"ping"}                                   liveness probe
///   {"type":"cancel","tenant":T,"request_id":R}       cancel a tagged job
///   {"type":"shutdown"}                               drain and exit
///
/// Submit fields: shots (default 100), seed (default: the tenant's seed
/// stream), the run-option table's fields (vm::runOptions(): engine
/// "vm"|"interp", exec_mode "auto"|"resim"|"sample", precision
/// "f64"|"f32", force_f32 bool), priority (higher runs earlier within the
/// tenant), deadline_ms (wall budget from admission; 0/absent = none —
/// covers queue wait, so a job can expire while still pending), request_id
/// (caller tag that makes the job addressable by the cancel verb). Unknown
/// fields are ignored, including the retired fusion and dispatch: the
/// server always runs fused code on its build's default dispatch loop.
///
/// Responses: {"ok":true,...} per verb, or
///   {"ok":false,"error":{"code":"<kebab-case ErrorCode>","message":M},...}
/// — the same taxonomy (support/error.hpp) the CLI maps to exit codes, so
/// `qirkit submit` preserves the exit-code contract end to end. Overload
/// rejections (error[resource-limit]) carry a top-level "retry_after_ms"
/// hint; deadline cuts (error[deadline]) carry "completed_shots" /
/// "unstarted_shots" so callers see how far the job got.
#pragma once

#include "support/error.hpp"
#include "vm/executor.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace qirkit::service {

/// Protocol revision carried in every response ("v" field).
inline constexpr int kProtocolVersion = 1;

/// Frames longer than this (bytes, excluding the newline) are rejected
/// with error[usage] and skipped; the connection stays usable.
inline constexpr std::size_t kDefaultMaxFrameBytes = 4U << 20U;

enum class RequestType : std::uint8_t {
  Submit,
  Metrics,
  Ping,
  Cancel,
  Shutdown,
  Events,
};

struct SubmitRequest : vm::RunChoices {
  std::string tenant;
  std::string program;    // inline program text (QIR .ll or OpenQASM 2/3)
  std::string programRef; // content id returned by an earlier submit
  std::uint64_t shots = 100;
  std::optional<std::uint64_t> seed; // absent: drawn from the tenant stream
  std::int64_t priority = 0;
  /// Wall-clock budget in milliseconds, measured from admission — queue
  /// wait counts, so a job can expire while still pending. 0 = none.
  std::uint64_t deadlineMs = 0;
  /// Caller-chosen tag; a non-empty id makes the job addressable by the
  /// cancel verb (scoped to the tenant, so tenants cannot cancel each
  /// other's work).
  std::string requestId;
};

/// The cancel verb: request the cooperative cancellation of the job tagged
/// (tenant, request_id). Affects pending and running jobs alike.
struct CancelRequest {
  std::string tenant;
  std::string requestId;
};

/// The metrics verb: "format" selects JSON (default) or Prometheus text
/// exposition (returned escaped in the response's "body" field, since the
/// transport is line-delimited JSON).
struct MetricsRequest {
  bool prometheus = false;
};

/// The events verb: query the flight recorder's recent request records,
/// newest last. An empty tenant returns every tenant; limit 0 means all
/// retained records.
struct EventsRequest {
  std::string tenant;
  std::uint64_t limit = 0;
};

struct Request {
  RequestType type = RequestType::Ping;
  SubmitRequest submit;   // meaningful when type == Submit
  CancelRequest cancel;   // meaningful when type == Cancel
  MetricsRequest metrics; // meaningful when type == Metrics
  EventsRequest events;   // meaningful when type == Events
};

/// Parse one request line. Throws qirkit::Error — ErrorCode::Parse for
/// malformed JSON, ErrorCode::Usage for a structurally valid frame with a
/// missing/invalid field — for the server to map onto an error response.
[[nodiscard]] Request parseRequest(std::string_view line);

/// Serialize a submit request to one frame (no trailing newline).
[[nodiscard]] std::string submitRequestJson(const SubmitRequest& request);

/// Serialize a bodyless request (metrics / ping / shutdown / events).
[[nodiscard]] std::string simpleRequestJson(RequestType type);

/// Serialize a cancel request.
[[nodiscard]] std::string cancelRequestJson(const CancelRequest& request);

/// Serialize a metrics request (carries "format" only when non-default).
[[nodiscard]] std::string metricsRequestJson(const MetricsRequest& request);

/// Serialize an events request.
[[nodiscard]] std::string eventsRequestJson(const EventsRequest& request);

/// Render the structured error response for a classified failure.
/// \p extraJson, when non-empty, is spliced verbatim as additional
/// top-level members (e.g. "\"retry_after_ms\":100") — the channel for
/// machine-readable recovery hints beside the error object.
[[nodiscard]] std::string errorResponseJson(ErrorCode code,
                                            const std::string& message,
                                            const std::string& extraJson = {});

/// Render the cancel response: whether a live job with that id was found
/// (its submit response still arrives on the submitting connection, as
/// error[deadline]).
[[nodiscard]] std::string cancelResponseJson(bool found);

/// Render the ping response.
[[nodiscard]] std::string pingResponseJson();

/// The submit response: histogram plus the per-shot stats `qirkit run`
/// prints, the program's content id, whether the program store already
/// held it, queue/exec timings, and the per-request telemetry delta (a
/// snapshotJson object).
struct SubmitResponse {
  std::string programId;
  bool cacheHit = false; // "cache":{"hits":1,"misses":0}, else the reverse
  std::uint64_t jobId = 0;
  std::uint64_t shots = 0;
  std::uint64_t seed = 0;
  vm::ShotBatchResult batch;
  std::uint64_t queueWaitNs = 0;
  std::uint64_t execNs = 0;
  std::string metricsDeltaJson; // "{}" when telemetry is disabled
  /// Per-stage breakdown from the request trace (a JSON array,
  /// RequestTrace::stagesJson); empty omits the "stages" member.
  std::string stagesJson;
};

[[nodiscard]] std::string submitResponseJson(const SubmitResponse& response);

} // namespace qirkit::service
