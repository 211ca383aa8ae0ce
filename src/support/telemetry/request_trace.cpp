#include "support/telemetry/request_trace.hpp"

#include "support/telemetry/telemetry.hpp"

#include <sstream>

namespace qirkit::telemetry {

void RequestTrace::addStage(std::string_view name, std::uint64_t startNs,
                            std::uint64_t durNs, std::string_view note) {
  const std::lock_guard<std::mutex> lock(mutex_);
  RequestStage stage;
  stage.name = std::string(name);
  stage.note = std::string(note);
  stage.startNs = startNs;
  stage.durNs = durNs;
  stages_.push_back(std::move(stage));
}

std::vector<RequestStage> RequestTrace::stages() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stages_;
}

std::string RequestTrace::stagesJson() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  std::uint64_t origin = 0;
  for (const RequestStage& stage : stages_) {
    if (origin == 0 || (stage.startNs != 0 && stage.startNs < origin)) {
      origin = stage.startNs;
    }
  }
  out << "[";
  bool first = true;
  for (const RequestStage& stage : stages_) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "{\"stage\":\"" << jsonEscape(stage.name)
        << "\",\"start_ns\":" << (stage.startNs >= origin ? stage.startNs - origin : 0)
        << ",\"dur_ns\":" << stage.durNs;
    if (!stage.note.empty()) {
      out << ",\"note\":\"" << jsonEscape(stage.note) << "\"";
    }
    out << "}";
  }
  out << "]";
  return out.str();
}

} // namespace qirkit::telemetry
