#include "service/protocol.hpp"

#include "service/json.hpp"
#include "support/telemetry/telemetry.hpp"

#include <cmath>
#include <sstream>

namespace qirkit::service {

namespace {

using telemetry::jsonEscape;

[[noreturn]] void badField(const std::string& message) {
  throw qirkit::Error(ErrorCode::Usage, message);
}

std::string stringField(const json::Value& root, std::string_view key,
                        std::string fallback = {}) {
  const json::Value* v = root.find(key);
  if (v == nullptr) {
    return fallback;
  }
  if (!v->isString()) {
    badField("field '" + std::string(key) + "' must be a string");
  }
  return v->string;
}

SubmitRequest parseSubmit(const json::Value& root) {
  SubmitRequest req;
  req.tenant = stringField(root, "tenant");
  if (req.tenant.empty()) {
    badField("submit requires a non-empty 'tenant'");
  }
  req.program = stringField(root, "program");
  req.programRef = stringField(root, "program_ref");
  if (req.program.empty() == req.programRef.empty()) {
    badField("submit requires exactly one of 'program' or 'program_ref'");
  }
  if (const json::Value* v = root.find("shots")) {
    req.shots = v->asU64("shots");
  }
  if (const json::Value* v = root.find("seed")) {
    req.seed = v->asU64("seed");
  }
  for (const vm::RunOption& option : vm::runOptions()) {
    const json::Value* v = root.find(option.wire);
    if (v == nullptr) {
      continue;
    }
    const bool ok = option.flag
                        ? v->isBool() &&
                              option.assign(req, v->boolean ? "true" : "false")
                        : v->isString() && option.assign(req, v->string);
    if (!ok) {
      badField("field '" + std::string(option.wire) + "' must be " +
               (option.flag ? "a boolean" : option.allowed()));
    }
  }
  if (const json::Value* v = root.find("priority")) {
    if (!v->isNumber() || std::floor(v->number) != v->number) {
      badField("field 'priority' must be an integer");
    }
    req.priority = static_cast<std::int64_t>(v->number);
  }
  if (const json::Value* v = root.find("deadline_ms")) {
    req.deadlineMs = v->asU64("deadline_ms");
  }
  req.requestId = stringField(root, "request_id");
  return req;
}

CancelRequest parseCancel(const json::Value& root) {
  CancelRequest req;
  req.tenant = stringField(root, "tenant");
  req.requestId = stringField(root, "request_id");
  if (req.tenant.empty() || req.requestId.empty()) {
    badField("cancel requires non-empty 'tenant' and 'request_id'");
  }
  return req;
}

MetricsRequest parseMetrics(const json::Value& root) {
  MetricsRequest req;
  const std::string format = stringField(root, "format", "json");
  if (format == "prometheus") {
    req.prometheus = true;
  } else if (format != "json") {
    badField("field 'format' must be json or prometheus");
  }
  return req;
}

EventsRequest parseEvents(const json::Value& root) {
  EventsRequest req;
  req.tenant = stringField(root, "tenant");
  if (const json::Value* v = root.find("limit")) {
    req.limit = v->asU64("limit");
  }
  return req;
}

} // namespace

Request parseRequest(std::string_view line) {
  const json::Value root = json::parse(line);
  if (!root.isObject()) {
    badField("request must be a JSON object");
  }
  const std::string type = stringField(root, "type");
  Request req;
  if (type == "submit") {
    req.type = RequestType::Submit;
    req.submit = parseSubmit(root);
  } else if (type == "metrics") {
    req.type = RequestType::Metrics;
    req.metrics = parseMetrics(root);
  } else if (type == "events") {
    req.type = RequestType::Events;
    req.events = parseEvents(root);
  } else if (type == "ping") {
    req.type = RequestType::Ping;
  } else if (type == "cancel") {
    req.type = RequestType::Cancel;
    req.cancel = parseCancel(root);
  } else if (type == "shutdown") {
    req.type = RequestType::Shutdown;
  } else {
    badField(type.empty() ? "request is missing 'type'"
                          : "unknown request type '" + type + "'");
  }
  return req;
}

std::string submitRequestJson(const SubmitRequest& request) {
  std::ostringstream out;
  out << "{\"type\":\"submit\",\"tenant\":\"" << jsonEscape(request.tenant)
      << "\"";
  if (!request.program.empty()) {
    out << ",\"program\":\"" << jsonEscape(request.program) << "\"";
  }
  if (!request.programRef.empty()) {
    out << ",\"program_ref\":\"" << jsonEscape(request.programRef) << "\"";
  }
  out << ",\"shots\":" << request.shots;
  if (request.seed.has_value()) {
    out << ",\"seed\":" << *request.seed;
  }
  for (const vm::RunOption& option : vm::runOptions()) {
    const char* quote = option.flag ? "" : "\"";
    out << ",\"" << option.wire << "\":" << quote
        << option.values[option.get(request)] << quote;
  }
  out << ",\"priority\":" << request.priority;
  if (request.deadlineMs != 0) {
    out << ",\"deadline_ms\":" << request.deadlineMs;
  }
  if (!request.requestId.empty()) {
    out << ",\"request_id\":\"" << jsonEscape(request.requestId) << "\"";
  }
  out << "}";
  return out.str();
}

std::string cancelRequestJson(const CancelRequest& request) {
  std::ostringstream out;
  out << "{\"type\":\"cancel\",\"tenant\":\"" << jsonEscape(request.tenant)
      << "\",\"request_id\":\"" << jsonEscape(request.requestId) << "\"}";
  return out.str();
}

std::string simpleRequestJson(RequestType type) {
  const char* name = type == RequestType::Metrics    ? "metrics"
                     : type == RequestType::Shutdown ? "shutdown"
                     : type == RequestType::Events   ? "events"
                                                     : "ping";
  return std::string("{\"type\":\"") + name + "\"}";
}

std::string metricsRequestJson(const MetricsRequest& request) {
  return request.prometheus
             ? std::string("{\"type\":\"metrics\",\"format\":\"prometheus\"}")
             : std::string("{\"type\":\"metrics\"}");
}

std::string eventsRequestJson(const EventsRequest& request) {
  std::ostringstream out;
  out << "{\"type\":\"events\"";
  if (!request.tenant.empty()) {
    out << ",\"tenant\":\"" << jsonEscape(request.tenant) << "\"";
  }
  if (request.limit != 0) {
    out << ",\"limit\":" << request.limit;
  }
  out << "}";
  return out.str();
}

std::string errorResponseJson(ErrorCode code, const std::string& message,
                              const std::string& extraJson) {
  std::ostringstream out;
  out << "{\"v\":" << kProtocolVersion
      << ",\"ok\":false,\"error\":{\"code\":\"" << errorCodeName(code)
      << "\",\"message\":\"" << jsonEscape(message) << "\"}";
  if (!extraJson.empty()) {
    out << "," << extraJson;
  }
  out << "}";
  return out.str();
}

std::string cancelResponseJson(bool found) {
  std::ostringstream out;
  out << "{\"v\":" << kProtocolVersion << ",\"ok\":true,\"type\":\"cancel\""
      << ",\"found\":" << (found ? "true" : "false") << "}";
  return out.str();
}

std::string pingResponseJson() {
  std::ostringstream out;
  out << "{\"v\":" << kProtocolVersion << ",\"ok\":true,\"type\":\"pong\"}";
  return out.str();
}

std::string submitResponseJson(const SubmitResponse& response) {
  const vm::ShotBatchResult& batch = response.batch;
  std::ostringstream out;
  out << "{\"v\":" << kProtocolVersion << ",\"ok\":true,\"type\":\"result\""
      << ",\"job_id\":" << response.jobId << ",\"program_id\":\""
      << jsonEscape(response.programId) << "\",\"shots\":" << response.shots
      << ",\"seed\":" << response.seed << ",\"engine\":\""
      << vm::engineName(batch.engineUsed) << "\",\"sampled\":"
      << (batch.sampled ? "true" : "false")
      << ",\"gates_per_shot\":" << batch.lastShotStats.gatesApplied
      << ",\"measurements_per_shot\":" << batch.lastShotStats.measurements
      << ",\"completed_shots\":" << batch.completedShots
      << ",\"failed_shots\":" << batch.failedShots << ",\"histogram\":{";
  bool first = true;
  for (const auto& [bits, count] : batch.histogram) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << jsonEscape(bits) << "\":" << count;
  }
  out << "},\"failure_counts\":{";
  first = true;
  for (const auto& [code, count] : batch.failureCounts) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << errorCodeName(code) << "\":" << count;
  }
  out << "},\"cache\":{\"hits\":" << (response.cacheHit ? 1 : 0)
      << ",\"misses\":" << (response.cacheHit ? 0 : 1) << "}"
      << ",\"queue_wait_ns\":" << response.queueWaitNs
      << ",\"exec_ns\":" << response.execNs << ",\"metrics\":"
      << (response.metricsDeltaJson.empty() ? "{}" : response.metricsDeltaJson);
  if (!response.stagesJson.empty()) {
    out << ",\"stages\":" << response.stagesJson;
  }
  if (batch.degradedToInterp) {
    out << ",\"degraded\":\"" << jsonEscape(batch.degradeReason) << "\"";
  }
  if (batch.sampleFallback) {
    out << ",\"sample_fallback\":\"" << jsonEscape(batch.sampleFallbackReason)
        << "\"";
  }
  out << "}";
  return out.str();
}

} // namespace qirkit::service
