#include "support/telemetry/telemetry.hpp"

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <vector>

namespace qirkit::telemetry {

namespace {

struct Event {
  std::string name;
  std::string argsJson; // pre-rendered JSON object; empty = no args
  std::uint64_t startNs = 0;
  std::uint64_t durNs = 0;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::mutex mutex;
  std::string path;
  std::uint64_t anchorNs = 0; // ts origin, set when armed
  std::vector<Event> events;
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint32_t> nextTid{1};

  /// Bounds the buffer: a runaway span producer degrades to drop
  /// counting instead of unbounded memory growth.
  static constexpr std::size_t kMaxEvents = 1U << 20;

  static TraceState& instance() {
    static TraceState s;
    return s;
  }
};

std::uint32_t thisThreadId() noexcept {
  thread_local std::uint32_t id =
      TraceState::instance().nextTid.fetch_add(1, std::memory_order_relaxed);
  return id;
}

} // namespace

void detail::appendChromeEvent(std::string_view name, std::uint64_t startNs,
                               std::uint64_t durNs, std::string argsJson) {
  TraceState& s = TraceState::instance();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (!trace::enabled()) {
    return; // flushed between the span's end and the lock
  }
  if (s.events.size() >= TraceState::kMaxEvents) {
    s.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event ev;
  ev.name = std::string(name);
  ev.argsJson = std::move(argsJson);
  ev.startNs = startNs;
  ev.durNs = durNs;
  ev.tid = thisThreadId();
  s.events.push_back(std::move(ev));
}

namespace trace {

void begin(std::string path) {
  TraceState& s = TraceState::instance();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.path = std::move(path);
  s.anchorNs = nowNs();
  s.events.clear();
  s.dropped.store(0, std::memory_order_relaxed);
  detail::armSink(detail::kChromeSink, true);
}

bool initFromEnv() {
  const char* path = std::getenv("QIRKIT_TRACE");
  if (path == nullptr || *path == '\0') {
    return false;
  }
  begin(path);
  return true;
}

bool flush() {
  TraceState& s = TraceState::instance();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (!enabled()) {
    return true;
  }
  detail::armSink(detail::kChromeSink, false);
  std::ofstream out(s.path, std::ios::binary);
  if (!out) {
    return false;
  }
  // Chrome trace-event format: complete ("X") events, ts/dur in
  // microseconds. Fractional microseconds keep nanosecond precision.
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const Event& ev : s.events) {
    if (!first) {
      out << ",";
    }
    first = false;
    const std::uint64_t rel = ev.startNs >= s.anchorNs ? ev.startNs - s.anchorNs : 0;
    const double ts = static_cast<double>(rel) / 1000.0;
    const double dur = static_cast<double>(ev.durNs) / 1000.0;
    out << "{\"name\":\"" << jsonEscape(ev.name)
        << "\",\"cat\":\"qirkit\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.tid
        << ",\"ts\":" << ts << ",\"dur\":" << dur;
    if (!ev.argsJson.empty()) {
      out << ",\"args\":" << ev.argsJson;
    }
    out << "}";
  }
  out << "]}";
  s.events.clear();
  return static_cast<bool>(out);
}

std::uint64_t droppedEvents() noexcept {
  return TraceState::instance().dropped.load(std::memory_order_relaxed);
}

} // namespace trace
} // namespace qirkit::telemetry
