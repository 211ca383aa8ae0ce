#include "support/telemetry/telemetry.hpp"

#include "support/telemetry/request_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>

namespace qirkit::telemetry {

namespace detail {

std::atomic<unsigned>& armedSinks() noexcept {
  static std::atomic<unsigned> sinks{0};
  return sinks;
}

void armSink(unsigned sink, bool on) noexcept {
  if (on) {
    armedSinks().fetch_or(sink, std::memory_order_relaxed);
  } else {
    armedSinks().fetch_and(~sink, std::memory_order_relaxed);
  }
}

} // namespace detail

namespace {

/// Registration lists. Metrics have static storage duration and register
/// themselves on construction; the mutex-guarded vectors inside a
/// function-local struct sidestep static-initialization-order hazards.
struct Registry {
  std::mutex mutex;
  std::vector<Counter*> counters;
  std::vector<MaxGauge*> gauges;
  std::vector<LatencyHistogram*> histograms;
  std::vector<LabeledCounter*> labeledCounters;
  std::vector<LabeledHistogram*> labeledHistograms;
  std::vector<LatencyHistogram*> stages; // Stage::histogram(), by stage name

  std::mutex passMutex;
  std::vector<PassRecord> passes; // first-run order, merged by name

  std::array<std::atomic<std::uint64_t>, kNumErrorCodes> shotFailures{};

  static Registry& instance() {
    static Registry r;
    return r;
  }
};

} // namespace

Counter::Counter(const char* name) : name_(name) {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.counters.push_back(this);
}

MaxGauge::MaxGauge(const char* name) : name_(name) {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.gauges.push_back(this);
}

LatencyHistogram::LatencyHistogram(const char* name) : name_(name) {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.histograms.push_back(this);
}

Stage::Stage(const char* name) : name_(name) {
  histogram_.emplace(name, Unregistered{});
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.stages.push_back(&*histogram_);
}

void recordStage(Stage& stage, std::uint64_t startNs,
                 std::uint64_t durNs, RequestTrace* trace,
                 std::string_view note) {
  const unsigned sinks = detail::armedSinks().load(std::memory_order_relaxed);
  if ((sinks & detail::kStatsSink) != 0 && stage.histogram() != nullptr) {
    stage.histogram()->recordUnchecked(durNs);
  }
  if ((sinks & detail::kChromeSink) != 0) {
    // Event args: the note and the request's identity, each when present.
    std::string args;
    if (!note.empty()) {
      args += ",\"note\":\"" + jsonEscape(note) + "\"";
    }
    if (trace != nullptr) {
      args += ",\"request_id\":\"" + jsonEscape(trace->requestId()) +
              "\",\"tenant\":\"" + jsonEscape(trace->tenant()) + "\"";
    }
    if (!args.empty()) {
      args.front() = '{';
      args += '}';
    }
    detail::appendChromeEvent(stage.name(), startNs, durNs, std::move(args));
  }
  if (trace != nullptr) {
    trace->addStage(stage.name(), startNs, durNs, note);
  }
}

LabeledCounter::LabeledCounter(const char* name, std::size_t maxLabels,
                               const char* labelKey)
    : name_(name), labelKey_(labelKey), maxLabels_(maxLabels == 0 ? 1 : maxLabels) {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.labeledCounters.push_back(this);
}

void LabeledCounter::add(std::string_view label, std::uint64_t n) {
  if (!enabled()) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(label);
  if (it != entries_.end()) {
    it->second.value += n;
    it->second.lastTick = ++tick_;
    return;
  }
  if (entries_.size() >= maxLabels_) {
    // Evict the least-recently-updated label. O(labels) scan, but only
    // on insert past the bound — steady-state tenant sets never pay it.
    auto victim = entries_.begin();
    for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
      if (cand->second.lastTick < victim->second.lastTick) {
        victim = cand;
      }
    }
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  entries_.emplace(std::string(label), Entry{n, ++tick_});
}

std::uint64_t LabeledCounter::value(std::string_view label) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(label);
  return it == entries_.end() ? 0 : it->second.value;
}

std::vector<std::pair<std::string, std::uint64_t>> LabeledCounter::values() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(entries_.size());
  for (const auto& [label, entry] : entries_) {
    out.emplace_back(label, entry.value);
  }
  return out;
}

void LabeledCounter::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  tick_ = 0;
  evictions_.store(0, std::memory_order_relaxed);
}

LabeledHistogram::LabeledHistogram(const char* name, std::size_t maxLabels,
                                   const char* labelKey)
    : name_(name), labelKey_(labelKey), maxLabels_(maxLabels == 0 ? 1 : maxLabels) {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.labeledHistograms.push_back(this);
}

void LabeledHistogram::record(std::string_view label, std::uint64_t ns) {
  if (!enabled()) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(label);
  if (it == entries_.end()) {
    if (entries_.size() >= maxLabels_) {
      auto victim = entries_.begin();
      for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
        if (cand->second.lastTick < victim->second.lastTick) {
          victim = cand;
        }
      }
      entries_.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    it = entries_
             .emplace(std::string(label),
                      Entry{std::make_unique<LatencyHistogram>(name_, Unregistered{}), 0})
             .first;
  }
  it->second.lastTick = ++tick_;
  it->second.hist->recordUnchecked(ns);
}

void LabeledHistogram::forEach(
    const std::function<void(const std::string&, const LatencyHistogram&)>& fn) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [label, entry] : entries_) {
    fn(label, *entry.hist);
  }
}

std::vector<std::string> LabeledHistogram::labels() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [label, entry] : entries_) {
    out.push_back(label);
  }
  return out;
}

void LabeledHistogram::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  tick_ = 0;
  evictions_.store(0, std::memory_order_relaxed);
}

void LatencyHistogram::recordUnchecked(std::uint64_t ns) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (ns < cur &&
         !min_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (ns > cur &&
         !max_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  std::size_t bucket = 0;
  while (bucket + 1 < kBuckets && (std::uint64_t{1} << (bucket + 1)) <= ns) {
    ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::min() const noexcept {
  const std::uint64_t v = min_.load(std::memory_order_relaxed);
  return v == ~std::uint64_t{0} ? 0 : v;
}

std::uint64_t LatencyHistogram::quantileNs(double p) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) {
    return 0;
  }
  // Nearest rank: the ceil(p*n)-th smallest sample, 1-based. The epsilon
  // keeps a product that lands a hair above an integer (0.07 * 100 is
  // 7.000000000000001) from moving up one rank.
  const double exact = std::min(p, 1.0) * static_cast<double>(total);
  const std::uint64_t rank =
      exact <= 1.0 ? 1 : static_cast<std::uint64_t>(std::ceil(exact - 1e-9));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Upper bucket bound, clamped to the exact observed max.
      const std::uint64_t bound = std::uint64_t{1} << std::min<std::size_t>(i + 1, 63);
      return std::min(bound, max());
    }
  }
  return max();
}

void LatencyHistogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
}

void setEnabled(bool on) noexcept {
  detail::armSink(detail::kStatsSink, on);
}

void resetAll() {
  Registry& r = Registry::instance();
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (Counter* c : r.counters) {
      c->reset();
    }
    for (MaxGauge* g : r.gauges) {
      g->reset();
    }
    for (LatencyHistogram* h : r.histograms) {
      h->reset();
    }
    for (LabeledCounter* c : r.labeledCounters) {
      c->reset();
    }
    for (LabeledHistogram* h : r.labeledHistograms) {
      h->reset();
    }
    for (LatencyHistogram* h : r.stages) {
      h->reset();
    }
  }
  {
    const std::lock_guard<std::mutex> lock(r.passMutex);
    r.passes.clear();
  }
  for (auto& f : r.shotFailures) {
    f.store(0, std::memory_order_relaxed);
  }
}

void recordPassRun(std::string_view name, std::uint64_t ns, bool changed,
                   std::uint64_t irBefore, std::uint64_t irAfter) {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.passMutex);
  for (PassRecord& rec : r.passes) {
    if (rec.name == name) {
      ++rec.invocations;
      rec.changes += changed ? 1 : 0;
      rec.ns += ns;
      rec.irDelta += static_cast<std::int64_t>(irAfter) -
                     static_cast<std::int64_t>(irBefore);
      return;
    }
  }
  PassRecord rec;
  rec.name = std::string(name);
  rec.invocations = 1;
  rec.changes = changed ? 1 : 0;
  rec.ns = ns;
  rec.irDelta =
      static_cast<std::int64_t>(irAfter) - static_cast<std::int64_t>(irBefore);
  r.passes.push_back(std::move(rec));
}

std::vector<PassRecord> passRecords() {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.passMutex);
  return r.passes;
}

void recordShotFailure(ErrorCode code) noexcept {
  const auto i = static_cast<std::size_t>(code);
  if (i < kNumErrorCodes) {
    Registry::instance().shotFailures[i].fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t shotFailureCount(ErrorCode code) noexcept {
  const auto i = static_cast<std::size_t>(code);
  return i < kNumErrorCodes
             ? Registry::instance().shotFailures[i].load(std::memory_order_relaxed)
             : 0;
}

std::uint64_t Snapshot::value(std::string_view name) const noexcept {
  for (const Scalar& s : scalars) {
    if (s.name == name) {
      return s.value;
    }
  }
  return 0;
}

Snapshot snapshot() {
  Registry& r = Registry::instance();
  Snapshot snap;
  const std::lock_guard<std::mutex> lock(r.mutex);
  snap.scalars.reserve(r.counters.size() + r.gauges.size());
  for (const Counter* c : r.counters) {
    snap.scalars.push_back({c->name(), c->value(), /*monotonic=*/true});
  }
  for (const MaxGauge* g : r.gauges) {
    snap.scalars.push_back({g->name(), g->value(), /*monotonic=*/false});
  }
  // Flat names: stage histograms sit beside the others without clashing.
  for (const auto* list : {&r.histograms, &r.stages}) {
    for (const LatencyHistogram* h : *list) {
      snap.histograms.push_back({h->name(), h->count(), h->sum()});
    }
  }
  return snap;
}

Snapshot diff(const Snapshot& before, const Snapshot& after) {
  Snapshot out;
  out.scalars.reserve(after.scalars.size());
  for (const Snapshot::Scalar& s : after.scalars) {
    std::uint64_t base = 0;
    if (s.monotonic) {
      for (const Snapshot::Scalar& b : before.scalars) {
        if (b.name == s.name) {
          base = b.value;
          break;
        }
      }
    }
    // A reset between the snapshots can make a counter go backwards;
    // clamp so the delta never underflows into garbage.
    out.scalars.push_back(
        {s.name, s.value >= base ? s.value - base : s.value, s.monotonic});
  }
  out.histograms.reserve(after.histograms.size());
  for (const Snapshot::Hist& h : after.histograms) {
    std::uint64_t baseCount = 0;
    std::uint64_t baseSum = 0;
    for (const Snapshot::Hist& b : before.histograms) {
      if (b.name == h.name) {
        baseCount = b.count;
        baseSum = b.sumNs;
        break;
      }
    }
    out.histograms.push_back(
        {h.name, h.count >= baseCount ? h.count - baseCount : h.count,
         h.sumNs >= baseSum ? h.sumNs - baseSum : h.sumNs});
  }
  return out;
}

std::string snapshotJson(const Snapshot& snap) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  const auto emit = [&](const std::string& name, std::uint64_t value) {
    if (value == 0) {
      return;
    }
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << jsonEscape(name) << "\":" << value;
  };
  for (const Snapshot::Scalar& s : snap.scalars) {
    emit(s.name, s.value);
  }
  for (const Snapshot::Hist& h : snap.histograms) {
    emit(h.name + ".count", h.count);
    emit(h.name + ".sum_ns", h.sumNs);
  }
  out << "}";
  return out.str();
}

std::uint64_t counterValue(std::string_view name) noexcept {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const Counter* c : r.counters) {
    if (name == c->name()) {
      return c->value();
    }
  }
  for (const MaxGauge* g : r.gauges) {
    if (name == g->name()) {
      return g->value();
    }
  }
  return 0;
}

const LatencyHistogram* findHistogram(std::string_view name) noexcept {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto* list : {&r.histograms, &r.stages}) {
    for (const LatencyHistogram* h : *list) {
      if (name == h->name()) {
        return h;
      }
    }
  }
  return nullptr;
}

std::vector<const LatencyHistogram*> allHistograms() {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<const LatencyHistogram*> all(r.histograms.begin(),
                                           r.histograms.end());
  all.insert(all.end(), r.stages.begin(), r.stages.end());
  return all;
}

std::vector<const LabeledCounter*> allLabeledCounters() {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return {r.labeledCounters.begin(), r.labeledCounters.end()};
}

std::vector<const LabeledHistogram*> allLabeledHistograms() {
  Registry& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return {r.labeledHistograms.begin(), r.labeledHistograms.end()};
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\r': out += "\\r"; break;
    case '\t': out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
  }
  return out;
}

namespace {

/// Tree of dotted metric names: "vm.cache.hits" nests hits under cache
/// under vm. Leaves hold pre-rendered JSON fragments.
struct Node {
  std::map<std::string, Node> children;
  std::string leaf; // rendered JSON when non-empty
};

void insert(Node& root, std::string_view path, std::string leafJson) {
  Node* node = &root;
  while (true) {
    const auto dot = path.find('.');
    if (dot == std::string_view::npos) {
      node = &node->children[std::string(path)];
      break;
    }
    node = &node->children[std::string(path.substr(0, dot))];
    path = path.substr(dot + 1);
  }
  node->leaf = std::move(leafJson);
}

void render(const Node& node, std::ostringstream& out) {
  if (!node.leaf.empty()) {
    out << node.leaf;
    return;
  }
  out << "{";
  bool first = true;
  for (const auto& [key, child] : node.children) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << jsonEscape(key) << "\":";
    render(child, out);
  }
  out << "}";
}

std::string histogramJson(const LatencyHistogram& h) {
  std::ostringstream out;
  out << "{\"count\":" << h.count() << ",\"sum_ns\":" << h.sum()
      << ",\"min_ns\":" << h.min() << ",\"max_ns\":" << h.max()
      << ",\"p50_ns\":" << h.quantileNs(0.50)
      << ",\"p90_ns\":" << h.quantileNs(0.90)
      << ",\"p95_ns\":" << h.quantileNs(0.95)
      << ",\"p99_ns\":" << h.quantileNs(0.99) << ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const std::uint64_t n = h.bucketCount(i);
    if (n == 0) {
      continue;
    }
    if (!first) {
      out << ",";
    }
    first = false;
    out << "{\"le_ns\":" << (std::uint64_t{1} << std::min<std::size_t>(i + 1, 63))
        << ",\"count\":" << n << "}";
  }
  out << "]}";
  return out.str();
}

/// A labeled family renders as one leaf object so label values holding
/// dots are never split by the dotted-name nesting:
/// {"labels":{"tenant-a":...},"evicted":N}.
std::string labeledCounterJson(const LabeledCounter& c) {
  std::ostringstream out;
  out << "{\"labels\":{";
  bool first = true;
  for (const auto& [label, value] : c.values()) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << jsonEscape(label) << "\":" << value;
  }
  out << "},\"evicted\":" << c.evictions() << "}";
  return out.str();
}

std::string labeledHistogramJson(const LabeledHistogram& h) {
  std::ostringstream out;
  out << "{\"labels\":{";
  bool first = true;
  h.forEach([&](const std::string& label, const LatencyHistogram& hist) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << jsonEscape(label) << "\":" << histogramJson(hist);
  });
  out << "},\"evicted\":" << h.evictions() << "}";
  return out.str();
}

std::string passesJson() {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const PassRecord& rec : passRecords()) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "{\"name\":\"" << jsonEscape(rec.name)
        << "\",\"invocations\":" << rec.invocations
        << ",\"changes\":" << rec.changes << ",\"ns\":" << rec.ns
        << ",\"ir_delta\":" << rec.irDelta << "}";
  }
  out << "]";
  return out.str();
}

/// The stage histograms that recorded anything, name-sorted. The caller
/// holds the registry mutex.
std::vector<const LatencyHistogram*> stagesRun(const Registry& r) {
  std::vector<const LatencyHistogram*> ran;
  for (const LatencyHistogram* h : r.stages) {
    if (h->count() != 0) {
      ran.push_back(h);
    }
  }
  std::sort(ran.begin(), ran.end(),
            [](const LatencyHistogram* a, const LatencyHistogram* b) {
              return std::string_view(a->name()) < std::string_view(b->name());
            });
  return ran;
}

std::string shotFailuresJson() {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (std::size_t i = 0; i < kNumErrorCodes; ++i) {
    const std::uint64_t n = shotFailureCount(static_cast<ErrorCode>(i));
    if (n == 0) {
      continue;
    }
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << errorCodeName(static_cast<ErrorCode>(i)) << "\":" << n;
  }
  out << "}";
  return out.str();
}

} // namespace

std::string statsJson(std::string_view command) {
  Registry& r = Registry::instance();
  Node root;
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (const Counter* c : r.counters) {
      insert(root, c->name(), std::to_string(c->value()));
    }
    for (const MaxGauge* g : r.gauges) {
      insert(root, g->name(), std::to_string(g->value()));
    }
    for (const LatencyHistogram* h : r.histograms) {
      insert(root, h->name(), histogramJson(*h));
    }
    for (const LabeledCounter* c : r.labeledCounters) {
      insert(root, c->name(), labeledCounterJson(*c));
    }
    for (const LabeledHistogram* h : r.labeledHistograms) {
      insert(root, h->name(), labeledHistogramJson(*h));
    }
    // One leaf, so dotted stage names ("parse.full") are never split by
    // the metric-name nesting.
    std::string stages;
    for (const LatencyHistogram* h : stagesRun(r)) {
      stages += (stages.empty() ? "{\"" : ",\"") + jsonEscape(h->name()) +
                "\":" + histogramJson(*h);
    }
    insert(root, "stages", stages.empty() ? "{}" : stages + "}");
  }
  insert(root, "passes", passesJson());
  insert(root, "shots.failure_counts", shotFailuresJson());

  std::ostringstream out;
  out << "{\"schema_version\":" << kStatsSchemaVersion << ",\"tool\":\"qirkit\""
      << ",\"command\":\"" << jsonEscape(command) << "\",";
  bool first = true;
  for (const auto& [key, child] : root.children) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << jsonEscape(key) << "\":";
    render(child, out);
  }
  out << "}";
  return out.str();
}

std::string statsText() {
  Registry& r = Registry::instance();
  std::ostringstream out;
  out << "-- qirkit telemetry (schema v" << kStatsSchemaVersion << ") --\n";
  std::vector<std::pair<std::string, std::uint64_t>> scalars;
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (const Counter* c : r.counters) {
      scalars.emplace_back(c->name(), c->value());
    }
    for (const MaxGauge* g : r.gauges) {
      scalars.emplace_back(g->name(), g->value());
    }
  }
  std::sort(scalars.begin(), scalars.end());
  for (const auto& [name, value] : scalars) {
    out << name << " = " << value << "\n";
  }
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    const auto histogramLine = [&](std::string_view name,
                                   const LatencyHistogram& h) {
      out << name << ": count=" << h.count() << " sum=" << h.sum()
          << "ns min=" << h.min() << "ns p50~" << h.quantileNs(0.5)
          << "ns p95~" << h.quantileNs(0.95) << "ns p99~" << h.quantileNs(0.99)
          << "ns max=" << h.max() << "ns\n";
    };
    for (const LatencyHistogram* h : r.histograms) {
      histogramLine(h->name(), *h);
    }
    for (const LatencyHistogram* h : stagesRun(r)) {
      histogramLine("stages." + std::string(h->name()), *h);
    }
    for (const LabeledCounter* c : r.labeledCounters) {
      for (const auto& [label, value] : c->values()) {
        out << c->name() << "{" << label << "} = " << value << "\n";
      }
      if (c->evictions() != 0) {
        out << c->name() << ".evicted = " << c->evictions() << "\n";
      }
    }
    for (const LabeledHistogram* lh : r.labeledHistograms) {
      lh->forEach([&](const std::string& label, const LatencyHistogram& h) {
        out << lh->name() << "{" << label << "}: count=" << h.count()
            << " p50~" << h.quantileNs(0.5) << "ns p95~" << h.quantileNs(0.95)
            << "ns p99~" << h.quantileNs(0.99) << "ns\n";
      });
      if (lh->evictions() != 0) {
        out << lh->name() << ".evicted = " << lh->evictions() << "\n";
      }
    }
  }
  const std::vector<PassRecord> passes = passRecords();
  if (!passes.empty()) {
    out << "passes (pipeline order):\n";
    for (const PassRecord& rec : passes) {
      out << "  " << rec.name << ": " << rec.invocations << " invocations, "
          << rec.changes << " changing, " << rec.ns / 1000 << " us, ir delta "
          << rec.irDelta << "\n";
    }
  }
  for (std::size_t i = 0; i < kNumErrorCodes; ++i) {
    const std::uint64_t n = shotFailureCount(static_cast<ErrorCode>(i));
    if (n != 0) {
      out << "shots.failure_counts." << errorCodeName(static_cast<ErrorCode>(i))
          << " = " << n << "\n";
    }
  }
  return out.str();
}

} // namespace qirkit::telemetry
