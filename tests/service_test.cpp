/// Tests for the `qirkit serve` subsystem: the JSON micro-parser, the
/// wire-protocol request validation, the admission queue's quotas /
/// fairness / deterministic per-tenant seed streams, and a live in-process
/// server exercised over a real Unix-domain socket — concurrent tenants,
/// cross-request program-store hits in the metrics document, structured
/// error responses for malformed and oversized frames that leave the
/// connection usable, and the resource-limit taxonomy for quota rejects.
#include "ir/context.hpp"
#include "qasm/load.hpp"
#include "service/client.hpp"
#include "service/flight_recorder.hpp"
#include "service/json.hpp"
#include "service/prometheus.hpp"
#include "service/protocol.hpp"
#include "service/queue.hpp"
#include "service/server.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace qirkit::service {
namespace {

constexpr const char* kBellQasm =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[2];\n"
    "creg c[2];\n"
    "h q[0];\n"
    "cx q[0], q[1];\n"
    "measure q -> c;\n";

// ---------------------------------------------------------------- json --

TEST(ServiceJsonTest, ParsesNestedDocument) {
  const json::Value v = json::parse(
      R"({"a":1,"b":"x\n\"y\"","c":[true,false,null],"d":{"e":-2.5}})");
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.find("a")->asU64("a"), 1U);
  EXPECT_EQ(v.find("b")->string, "x\n\"y\"");
  ASSERT_EQ(v.find("c")->array.size(), 3U);
  EXPECT_TRUE(v.find("c")->array[0].boolean);
  EXPECT_TRUE(v.find("c")->array[2].isNull());
  EXPECT_DOUBLE_EQ(v.find("d")->find("e")->number, -2.5);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServiceJsonTest, RejectsMalformedInputWithByteOffset) {
  for (const char* bad : {"{", "{\"a\":}", "[1,]", "tru", "\"unterminated",
                          "{\"a\":1} trailing", "{'a':1}"}) {
    try {
      (void)json::parse(bad);
      FAIL() << "accepted malformed input: " << bad;
    } catch (const qirkit::Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Parse) << bad;
      EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos) << bad;
    }
  }
}

TEST(ServiceJsonTest, RejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) {
    deep += "[";
  }
  EXPECT_THROW((void)json::parse(deep), qirkit::Error);
}

TEST(ServiceJsonTest, AsU64RejectsNonIntegers) {
  const json::Value v = json::parse(R"({"neg":-1,"frac":1.5,"str":"9"})");
  EXPECT_THROW((void)v.find("neg")->asU64("neg"), qirkit::Error);
  EXPECT_THROW((void)v.find("frac")->asU64("frac"), qirkit::Error);
  EXPECT_THROW((void)v.find("str")->asU64("str"), qirkit::Error);
}

// ------------------------------------------------------------ protocol --

TEST(ServiceProtocolTest, ParsesFullSubmitRequest) {
  const Request req = parseRequest(
      R"({"type":"submit","tenant":"alice","program":"text","shots":64,)"
      R"("seed":7,"engine":"interp","exec_mode":"resim","precision":"f32",)"
      R"("force_f32":true,"priority":-3})");
  ASSERT_EQ(req.type, RequestType::Submit);
  EXPECT_EQ(req.submit.tenant, "alice");
  EXPECT_EQ(req.submit.program, "text");
  EXPECT_EQ(req.submit.shots, 64U);
  ASSERT_TRUE(req.submit.seed.has_value());
  EXPECT_EQ(*req.submit.seed, 7U);
  EXPECT_EQ(req.submit.engine, vm::Engine::Interp);
  EXPECT_EQ(req.submit.execMode, vm::ExecMode::Resim);
  EXPECT_EQ(req.submit.precision, sim::Precision::F32);
  EXPECT_TRUE(req.submit.forceF32);
  EXPECT_EQ(req.submit.priority, -3);
}

TEST(ServiceProtocolTest, SubmitRequestJsonRoundTrips) {
  SubmitRequest original;
  original.tenant = "t\"quoted\"";
  original.program = "line1\nline2";
  original.shots = 9;
  original.seed = 123;
  original.engine = vm::Engine::Interp;
  original.execMode = vm::ExecMode::Sample;
  original.precision = sim::Precision::F32;
  original.forceF32 = true;
  original.priority = 4;
  const Request parsed = parseRequest(submitRequestJson(original));
  EXPECT_EQ(parsed.submit.tenant, original.tenant);
  EXPECT_EQ(parsed.submit.program, original.program);
  EXPECT_EQ(parsed.submit.shots, original.shots);
  EXPECT_EQ(parsed.submit.seed, original.seed);
  EXPECT_EQ(parsed.submit.engine, original.engine);
  EXPECT_EQ(parsed.submit.execMode, original.execMode);
  EXPECT_EQ(parsed.submit.precision, original.precision);
  EXPECT_EQ(parsed.submit.forceF32, original.forceF32);
  EXPECT_EQ(parsed.submit.priority, original.priority);
}

TEST(ServiceProtocolTest, RejectsStructurallyInvalidRequests) {
  const auto expectUsage = [](const char* line) {
    try {
      (void)parseRequest(line);
      FAIL() << "accepted: " << line;
    } catch (const qirkit::Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Usage) << line;
    }
  };
  expectUsage(R"({"type":"warp"})");
  expectUsage(R"({"shots":5})"); // missing type
  expectUsage(R"({"type":"submit","program":"x"})"); // missing tenant
  expectUsage(R"({"type":"submit","tenant":"a"})"); // no program
  expectUsage(
      R"({"type":"submit","tenant":"a","program":"x","program_ref":"y"})");
  expectUsage(R"({"type":"submit","tenant":"a","program":"x","shots":-1})");
  expectUsage(
      R"({"type":"submit","tenant":"a","program":"x","engine":"gpu"})");
  expectUsage(
      R"({"type":"submit","tenant":"a","program":"x","force_f32":"yes"})");
  expectUsage(
      R"({"type":"submit","tenant":"a","program":"x","priority":1.5})");
  EXPECT_THROW((void)parseRequest("not json"), qirkit::Error);
}

TEST(ServiceProtocolTest, DeadlineAndRequestIdRoundTrip) {
  SubmitRequest original;
  original.tenant = "alice";
  original.program = "x";
  original.deadlineMs = 1500;
  original.requestId = "req-42";
  const Request parsed = parseRequest(submitRequestJson(original));
  EXPECT_EQ(parsed.submit.deadlineMs, 1500U);
  EXPECT_EQ(parsed.submit.requestId, "req-42");

  // Absent fields default to "no deadline" / "not cancellable".
  const Request bare = parseRequest(
      R"({"type":"submit","tenant":"a","program":"x"})");
  EXPECT_EQ(bare.submit.deadlineMs, 0U);
  EXPECT_TRUE(bare.submit.requestId.empty());
}

TEST(ServiceProtocolTest, CancelVerbParsesAndValidates) {
  CancelRequest original;
  original.tenant = "alice";
  original.requestId = "req-42";
  const Request parsed = parseRequest(cancelRequestJson(original));
  ASSERT_EQ(parsed.type, RequestType::Cancel);
  EXPECT_EQ(parsed.cancel.tenant, "alice");
  EXPECT_EQ(parsed.cancel.requestId, "req-42");

  // Both fields are mandatory: a cancel that names no job is a usage
  // error, not a no-op.
  for (const char* bad :
       {R"({"type":"cancel"})", R"({"type":"cancel","tenant":"a"})",
        R"({"type":"cancel","request_id":"r"})"}) {
    try {
      (void)parseRequest(bad);
      FAIL() << "accepted: " << bad;
    } catch (const qirkit::Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Usage) << bad;
    }
  }
}

TEST(ServiceProtocolTest, ErrorResponseSplicesExtraMembers) {
  const json::Value v = json::parse(errorResponseJson(
      ErrorCode::ResourceLimit, "too busy", "\"retry_after_ms\":125"));
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->string, "resource-limit");
  EXPECT_EQ(v.find("retry_after_ms")->asU64("retry_after_ms"), 125U);
}

TEST(ServiceProtocolTest, MetricsFormatRoundTrips) {
  EXPECT_FALSE(parseRequest(R"({"type":"metrics"})").metrics.prometheus);
  EXPECT_FALSE(
      parseRequest(R"({"type":"metrics","format":"json"})").metrics.prometheus);
  EXPECT_TRUE(parseRequest(R"({"type":"metrics","format":"prometheus"})")
                  .metrics.prometheus);
  EXPECT_THROW((void)parseRequest(R"({"type":"metrics","format":"xml"})"),
               qirkit::Error);

  MetricsRequest req;
  req.prometheus = true;
  EXPECT_TRUE(parseRequest(metricsRequestJson(req)).metrics.prometheus);
  req.prometheus = false;
  EXPECT_FALSE(parseRequest(metricsRequestJson(req)).metrics.prometheus);
}

TEST(ServiceProtocolTest, EventsVerbRoundTrips) {
  const Request bare = parseRequest(R"({"type":"events"})");
  ASSERT_EQ(bare.type, RequestType::Events);
  EXPECT_TRUE(bare.events.tenant.empty());
  EXPECT_EQ(bare.events.limit, 0U);

  EventsRequest req;
  req.tenant = "acme";
  req.limit = 7;
  const Request parsed = parseRequest(eventsRequestJson(req));
  ASSERT_EQ(parsed.type, RequestType::Events);
  EXPECT_EQ(parsed.events.tenant, "acme");
  EXPECT_EQ(parsed.events.limit, 7U);
}

TEST(ServiceProtocolTest, SubmitResponseCarriesStages) {
  SubmitResponse response;
  response.programId = "abc";
  response.jobId = 4;
  response.shots = 2;
  response.stagesJson =
      R"([{"stage":"queue","start_ns":0,"dur_ns":10}])";
  const json::Value v = json::parse(submitResponseJson(response));
  const json::Value* stages = v.find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->array.size(), 1U);
  EXPECT_EQ(stages->array[0].find("stage")->string, "queue");
}

// ----------------------------------------------------- flight recorder --

TEST(FlightRecorderTest, RingWrapsAndQueriesNewestFirstBounded) {
  FlightRecorder recorder(/*capacity=*/3, /*slowThresholdNs=*/0);
  for (int i = 1; i <= 5; ++i) {
    FlightRecord rec;
    rec.jobId = static_cast<std::uint64_t>(i);
    rec.tenant = i % 2 == 0 ? "even" : "odd";
    rec.outcome = "ok";
    recorder.record(std::move(rec));
  }
  EXPECT_EQ(recorder.recorded(), 5U);

  // Only the newest `capacity` records survive, oldest first.
  const std::vector<FlightRecord> all = recorder.query();
  ASSERT_EQ(all.size(), 3U);
  EXPECT_EQ(all.front().jobId, 3U);
  EXPECT_EQ(all.back().jobId, 5U);
  EXPECT_EQ(all.back().seq, 5U);

  // Tenant filter plus newest-limit truncation.
  const std::vector<FlightRecord> odd = recorder.query("odd", 1);
  ASSERT_EQ(odd.size(), 1U);
  EXPECT_EQ(odd.front().jobId, 5U);
}

TEST(FlightRecorderTest, KeepsStageTraceOnlyForSlowOrErroredRequests) {
  FlightRecorder recorder(/*capacity=*/8, /*slowThresholdNs=*/1000);
  const auto submit = [&](std::uint64_t totalNs, const char* outcome) {
    FlightRecord rec;
    rec.totalNs = totalNs;
    rec.outcome = outcome;
    rec.stagesJson = R"([{"stage":"queue","start_ns":0,"dur_ns":1}])";
    recorder.record(std::move(rec));
  };
  submit(10, "ok");      // fast + healthy: trace dropped
  submit(5000, "ok");    // slow: trace kept, marked slow
  submit(10, "error");   // errored: trace kept even though fast
  const std::vector<FlightRecord> records = recorder.query();
  ASSERT_EQ(records.size(), 3U);
  EXPECT_TRUE(records[0].stagesJson.empty());
  EXPECT_FALSE(records[0].slow);
  EXPECT_FALSE(records[1].stagesJson.empty());
  EXPECT_TRUE(records[1].slow);
  EXPECT_FALSE(records[2].stagesJson.empty());
  EXPECT_FALSE(records[2].slow);

  // The events JSON view carries the kept traces and omits the dropped.
  const std::string json = recorder.eventsJson();
  const json::Value v = json::parse(json);
  ASSERT_EQ(v.array.size(), 3U);
  EXPECT_EQ(v.array[0].find("stages"), nullptr);
  ASSERT_NE(v.array[1].find("stages"), nullptr);
  EXPECT_TRUE(v.array[1].find("slow")->boolean);
}

TEST(PrometheusTest, SanitizesMetricNames) {
  EXPECT_EQ(prometheusName("serve.job.latency_ns"),
            "qirkit_serve_job_latency_ns");
  EXPECT_EQ(prometheusName("a-b.c"), "qirkit_a_b_c");
}

// --------------------------------------------------------------- queue --

std::shared_ptr<Job> makeJob(const std::string& tenant, std::int64_t priority = 0,
                             std::uint64_t shots = 10) {
  SubmitRequest request;
  request.tenant = tenant;
  request.priority = priority;
  request.shots = shots;
  return std::make_shared<Job>(request);
}

TEST(AdmissionQueueTest, EnforcesEveryQuota) {
  QueueLimits limits;
  limits.capacity = 3;
  limits.tenantMaxPending = 2;
  limits.maxShotsPerJob = 100;
  AdmissionQueue queue(limits);

  EXPECT_THROW(queue.admit(makeJob("a", 0, 101)), qirkit::Error); // shot cap
  queue.admit(makeJob("a"));
  queue.admit(makeJob("a"));
  EXPECT_THROW(queue.admit(makeJob("a")), qirkit::Error); // tenant pending
  queue.admit(makeJob("b"));
  EXPECT_THROW(queue.admit(makeJob("c")), qirkit::Error); // global capacity
  EXPECT_EQ(queue.stats().rejected, 3U);
  EXPECT_EQ(queue.stats().admitted, 3U);

  // Finishing a job frees the tenant slot (capacity frees on pop).
  const std::shared_ptr<Job> popped = queue.pop();
  ASSERT_NE(popped, nullptr);
  queue.finish(*popped);
  queue.admit(makeJob("a"));

  queue.close();
  EXPECT_THROW(queue.admit(makeJob("a")), qirkit::Error); // closed
}

TEST(AdmissionQueueTest, RoundRobinAcrossTenantsPriorityWithin) {
  AdmissionQueue queue(QueueLimits{});
  queue.admit(makeJob("alice", 0)); // id 1
  queue.admit(makeJob("alice", 5)); // id 2, jumps the tenant queue
  queue.admit(makeJob("alice", 0)); // id 3
  queue.admit(makeJob("bob", 0));   // id 4

  std::vector<std::uint64_t> order;
  for (int i = 0; i < 4; ++i) {
    auto job = queue.pop();
    ASSERT_NE(job, nullptr);
    order.push_back(job->id);
  }
  // Fair interleave between tenants; alice's high-priority job first
  // among hers: alice(2), bob(4), alice(1), alice(3).
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 4, 1, 3}));

  queue.close();
  EXPECT_EQ(queue.pop(), nullptr); // closed and drained
}

TEST(AdmissionQueueTest, TenantSeedStreamsAreDeterministicAndDistinct) {
  AdmissionQueue first{QueueLimits{}};
  AdmissionQueue second{QueueLimits{}};
  std::vector<std::uint64_t> seedsA;
  std::vector<std::uint64_t> seedsB;
  for (int i = 0; i < 3; ++i) {
    first.admit(makeJob("alice"));
    first.admit(makeJob("bob"));
  }
  for (int i = 0; i < 6; ++i) {
    auto job = first.pop();
    ASSERT_NE(job, nullptr);
    (job->request.tenant == "alice" ? seedsA : seedsB).push_back(job->seed);
  }
  // A fresh daemon replays the identical per-tenant stream...
  for (int i = 0; i < 3; ++i) {
    second.admit(makeJob("alice"));
  }
  for (int i = 0; i < 3; ++i) {
    auto job = second.pop();
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->seed, seedsA[static_cast<std::size_t>(i)]);
  }
  // ...streams advance (no repeated seeds) and tenants are decorrelated.
  EXPECT_NE(seedsA[0], seedsA[1]);
  EXPECT_NE(seedsA[0], seedsB[0]);

  // An explicit seed bypasses the stream entirely.
  const std::shared_ptr<Job> pinned = makeJob("alice");
  pinned->request.seed = 42;
  second.admit(pinned);
  auto job = second.pop();
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->seed, 42U);
}

TEST(AdmissionQueueTest, TokenBucketRateLimitsWithRetryHint) {
  QueueLimits limits;
  limits.ratePerSec = 200; // one token every 5ms
  limits.rateBurst = 2;
  AdmissionQueue queue(limits);

  queue.admit(makeJob("alice"));
  queue.admit(makeJob("alice"));
  try {
    queue.admit(makeJob("alice"));
    FAIL() << "third admission must exhaust the burst";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.code(), ErrorCode::ResourceLimit);
    EXPECT_GE(e.retryAfterMs(), 1U);
    EXPECT_LE(e.retryAfterMs(), 5U); // deficit of at most one token
  }
  EXPECT_EQ(queue.stats().rateLimited, 1U);
  EXPECT_EQ(queue.stats().rejected, 1U); // rate-limited is a subset

  // The bucket refills continuously: after a token's worth of wall time
  // the same tenant is admitted again — a sliding window, not an epoch.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.admit(makeJob("alice"));

  // Other tenants have their own bucket and are unaffected.
  queue.admit(makeJob("bob"));
  queue.close();
}

TEST(AdmissionQueueTest, AFailedLoadGivesItsSlotBack) {
  QueueLimits limits;
  limits.tenantMaxPending = 1;
  AdmissionQueue queue(limits);
  EXPECT_THROW(queue.admit(makeJob("alice"),
                           [](Job&) { throw qirkit::Error(ErrorCode::Parse, "bad text"); }),
               qirkit::Error);
  queue.admit(makeJob("alice")); // the one pending slot is free again
  EXPECT_EQ(queue.stats().admitted, 1U);
  EXPECT_EQ(queue.stats().rejected, 0U);
}

TEST(AdmissionQueueTest, AQueueThatClosesWhileAProgramLoadsRefusesTheJob) {
  AdmissionQueue queue(QueueLimits{});
  try {
    queue.admit(makeJob("alice"), [&](Job&) { queue.close(); });
    FAIL() << "a closed queue took a job no runner may be left to run";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.cause(), "draining");
  }
  EXPECT_EQ(queue.pop(), nullptr); // closed and empty
  EXPECT_EQ(queue.stats().tenants[0].pending, 0U);
}

// -------------------------------------------------------------- server --

/// A live daemon on a unique temp socket, torn down with the fixture.
class ServeTest : public ::testing::Test {
protected:
  void SetUp() override {
    socketPath_ = "/tmp/qirkit_serve_test_" + std::to_string(::getpid()) +
                  "_" + std::to_string(counter_++) + ".sock";
    ServerOptions options;
    options.socketPath = socketPath_;
    options.runners = 2;
    options.poolThreads = 2;
    options.queue.maxShotsPerJob = 1000;
    server_ = std::make_unique<Server>(options);
    server_->start();
  }
  void TearDown() override {
    server_->stop();
    server_.reset();
  }

  std::string submitLine(const std::string& tenant, std::uint64_t shots,
                         std::uint64_t seed) const {
    SubmitRequest req;
    req.tenant = tenant;
    req.program = kBellQasm;
    req.shots = shots;
    req.seed = seed;
    return submitRequestJson(req);
  }

  /// Tear the fixture daemon down and bring one up with tweaked options
  /// (same socket). Used by the overload/cancellation tests, which need
  /// a single runner or bespoke budgets.
  void restart(const std::function<void(ServerOptions&)>& tweak) {
    server_->stop();
    ServerOptions options;
    options.socketPath = socketPath_;
    options.runners = 1;
    options.poolThreads = 2;
    // These tests use multi-million-shot jobs as "slow work"; keep the
    // per-job shot ceiling out of their way.
    options.queue.maxShotsPerJob = 100'000'000;
    tweak(options);
    server_ = std::make_unique<Server>(options);
    server_->start();
  }

  /// A submit that keeps the single runner busy for seconds unless
  /// cancelled: per-shot resimulation pins the cost to shots x circuit.
  std::string slowSubmitLine(const std::string& tenant,
                             const std::string& requestId,
                             std::uint64_t shots,
                             std::uint64_t deadlineMs = 0) const {
    SubmitRequest req;
    req.tenant = tenant;
    req.program = kBellQasm;
    req.shots = shots;
    req.seed = 1;
    req.execMode = vm::ExecMode::Resim;
    req.requestId = requestId;
    req.deadlineMs = deadlineMs;
    return submitRequestJson(req);
  }

  static std::string cancelLine(const std::string& tenant,
                                const std::string& requestId) {
    CancelRequest req;
    req.tenant = tenant;
    req.requestId = requestId;
    return cancelRequestJson(req);
  }

  static int counter_;
  std::string socketPath_;
  std::unique_ptr<Server> server_;
};

int ServeTest::counter_ = 0;

TEST_F(ServeTest, PingAndShutdownVerbs) {
  Client client(socketPath_);
  const json::Value pong = json::parse(client.call(R"({"type":"ping"})"));
  EXPECT_TRUE(pong.find("ok")->boolean);
  EXPECT_EQ(pong.find("type")->string, "pong");
}

TEST_F(ServeTest, ConcurrentTenantsShareTheCompileCache) {
  // jobs.completed counts across the process, so read it as a delta.
  const auto completedJobs = [&] {
    Client client(socketPath_);
    return json::parse(client.call(R"({"type":"metrics"})"))
        .find("jobs")
        ->find("completed")
        ->asU64("completed");
  };
  const std::uint64_t completedBefore = completedJobs();
  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::vector<std::string> histograms(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client(socketPath_);
        for (int i = 0; i < 3; ++i) {
          const json::Value v = json::parse(
              client.call(submitLine("tenant" + std::to_string(c % 2),
                                     /*shots=*/40, /*seed=*/9)));
          if (!v.find("ok")->boolean) {
            ++failures;
            return;
          }
          std::string bits;
          for (const auto& [key, count] : v.find("histogram")->object) {
            bits += key + "=" + std::to_string(
                                    static_cast<std::uint64_t>(count.number)) +
                    ";";
          }
          histograms[static_cast<std::size_t>(c)] = bits;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  ASSERT_EQ(failures.load(), 0);
  // Same program + same seed must mean the same histogram for everyone,
  // whichever runner/pool thread served it.
  for (int c = 1; c < kClients; ++c) {
    EXPECT_EQ(histograms[static_cast<std::size_t>(c)], histograms[0]);
  }
  EXPECT_FALSE(histograms[0].empty());

  // The metrics document must show cross-request cache reuse: 12 submits
  // of one program = 1 miss, the rest hits/coalesced.
  Client metricsClient(socketPath_);
  const json::Value metrics =
      json::parse(metricsClient.call(R"({"type":"metrics"})"));
  const json::Value* cache = metrics.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("misses")->asU64("misses"), 1U);
  EXPECT_GE(cache->find("hits")->asU64("hits") +
                cache->find("coalesced")->asU64("coalesced"),
            11U);
  EXPECT_EQ(metrics.find("queue")->find("admitted")->asU64("admitted"), 12U);
  EXPECT_EQ(completedJobs() - completedBefore, 12U);
}

TEST_F(ServeTest, MalformedFrameKeepsConnectionAlive) {
  Client client(socketPath_);
  client.sendRaw("this is not json\n");
  const json::Value error = json::parse(client.readLine());
  EXPECT_FALSE(error.find("ok")->boolean);
  EXPECT_EQ(error.find("error")->find("code")->string, "parse");

  // Same connection, next frame: fully functional.
  const json::Value pong = json::parse(client.call(R"({"type":"ping"})"));
  EXPECT_TRUE(pong.find("ok")->boolean);

  const json::Value metrics =
      json::parse(client.call(R"({"type":"metrics"})"));
  EXPECT_GE(metrics.find("protocol")
                ->find("rejected_frames")
                ->asU64("rejected_frames"),
            1U);
}

TEST_F(ServeTest, OversizedFrameIsRejectedAndSkipped) {
  // Rebuild the server with a tiny frame limit.
  server_->stop();
  ServerOptions options;
  options.socketPath = socketPath_;
  options.maxFrameBytes = 64;
  server_ = std::make_unique<Server>(options);
  server_->start();

  Client client(socketPath_);
  client.sendRaw(std::string(500, 'x') + "\n");
  const json::Value error = json::parse(client.readLine());
  EXPECT_FALSE(error.find("ok")->boolean);
  EXPECT_EQ(error.find("error")->find("code")->string, "usage");
  // The oversized frame was discarded, not interpreted; the connection
  // still answers the next (small) request.
  const json::Value pong = json::parse(client.call(R"({"type":"ping"})"));
  EXPECT_TRUE(pong.find("ok")->boolean);
}

TEST_F(ServeTest, KernelTelemetrySurfacesInMetricsAndPrometheus) {
  Client client(socketPath_);
  SubmitRequest req;
  req.tenant = "alice";
  req.program = kBellQasm;
  req.shots = 10;
  req.seed = 3;
  req.precision = sim::Precision::F32;
  const json::Value result = json::parse(client.call(submitRequestJson(req)));
  ASSERT_TRUE(result.find("ok")->boolean);
  // A lone H ahead of the measurements: fusing it would save no kernel
  // pass, so it stays a plain call and the pass says why.
  req.program = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\n"
                "h q[0];\nmeasure q -> c;\n";
  req.precision = sim::Precision::F64;
  ASSERT_TRUE(json::parse(client.call(submitRequestJson(req))).find("ok")->boolean);

  // The metrics verb's telemetry section omits zero probes, so presence
  // of f32_batches proves the f32 submit above actually moved it.
  const std::string metrics = client.call(R"({"type":"metrics"})");
  EXPECT_NE(metrics.find("sim.kernel.f32_batches"), std::string::npos);
  EXPECT_NE(metrics.find("sim.fusion.unfused.lone"), std::string::npos);

  // The Prometheus exposition renders every registered scalar under the
  // sanitized qirkit_ prefix — including the SIMD lane count, which stays
  // zero on scalar builds but must still be scrapeable.
  const std::string prom =
      client.call(R"({"type":"metrics","format":"prometheus"})");
  EXPECT_NE(prom.find("qirkit_sim_kernel_blocked_sweeps"), std::string::npos);
  EXPECT_NE(prom.find("qirkit_sim_kernel_simd_lanes"), std::string::npos);
  EXPECT_NE(prom.find("qirkit_sim_kernel_f32_batches"), std::string::npos);
  EXPECT_NE(prom.find("qirkit_sim_fusion_unfused_dynamic_qubit"), std::string::npos);
}

TEST_F(ServeTest, QuotaViolationsMapToResourceLimit) {
  Client client(socketPath_);
  SubmitRequest req;
  req.tenant = "greedy";
  req.program = kBellQasm;
  req.shots = 5000; // over the fixture's 1000-shot ceiling
  const json::Value error = json::parse(client.call(submitRequestJson(req)));
  EXPECT_FALSE(error.find("ok")->boolean);
  EXPECT_EQ(error.find("error")->find("code")->string, "resource-limit");
}

TEST_F(ServeTest, ProgramRefResubmissionSkipsReparsing) {
  Client client(socketPath_);
  const json::Value first =
      json::parse(client.call(submitLine("alice", 30, 5)));
  ASSERT_TRUE(first.find("ok")->boolean);
  const std::string programId = first.find("program_id")->string;
  ASSERT_FALSE(programId.empty());

  SubmitRequest byRef;
  byRef.tenant = "alice";
  byRef.programRef = programId;
  byRef.shots = 30;
  byRef.seed = 5;
  const json::Value second =
      json::parse(client.call(submitRequestJson(byRef)));
  ASSERT_TRUE(second.find("ok")->boolean);
  EXPECT_EQ(second.find("program_id")->string, programId);

  // Identical program + seed: identical histogram through either route.
  std::string h1;
  std::string h2;
  for (const auto& [k, v] : first.find("histogram")->object) {
    h1 += k + ":" + std::to_string(static_cast<std::uint64_t>(v.number)) + ",";
  }
  for (const auto& [k, v] : second.find("histogram")->object) {
    h2 += k + ":" + std::to_string(static_cast<std::uint64_t>(v.number)) + ",";
  }
  EXPECT_EQ(h1, h2);

  // An unknown ref is a usage error, and says so.
  SubmitRequest bogus;
  bogus.tenant = "alice";
  bogus.programRef = "doesnotexist12345";
  const json::Value error = json::parse(client.call(submitRequestJson(bogus)));
  EXPECT_FALSE(error.find("ok")->boolean);
  EXPECT_EQ(error.find("error")->find("code")->string, "usage");
}

TEST_F(ServeTest, DeadlineJobReturnsPartialResultsAndDaemonSurvives) {
  restart([](ServerOptions&) {}); // single runner, default (large) quotas

  Client client(socketPath_);
  // Far more shots than 10ms of per-shot resimulation can complete.
  const json::Value v = json::parse(
      client.call(slowSubmitLine("alice", "", 2'000'000, /*deadlineMs=*/10)));
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->string, "deadline");
  const std::uint64_t completed =
      v.find("completed_shots")->asU64("completed_shots");
  const std::uint64_t unstarted =
      v.find("unstarted_shots")->asU64("unstarted_shots");
  EXPECT_EQ(completed + unstarted, 2'000'000U);
  EXPECT_GT(unstarted, 0U);
  // Partial results: the histogram covers exactly the completed shots.
  std::uint64_t histogramTotal = 0;
  ASSERT_NE(v.find("histogram"), nullptr);
  for (const auto& [bits, count] : v.find("histogram")->object) {
    histogramTotal += static_cast<std::uint64_t>(count.number);
  }
  EXPECT_EQ(histogramTotal, completed);

  // The daemon shrugged the deadline off: next request runs to completion.
  const json::Value ok = json::parse(client.call(submitLine("alice", 20, 3)));
  EXPECT_TRUE(ok.find("ok")->boolean);
}

TEST_F(ServeTest, CancelVerbStopsARunningJob) {
  restart([](ServerOptions&) {});

  std::string response;
  std::thread submitter([&] {
    Client client(socketPath_);
    response = client.call(slowSubmitLine("alice", "long-job", 3'000'000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  Client controller(socketPath_);
  const json::Value cancelled =
      json::parse(controller.call(cancelLine("alice", "long-job")));
  EXPECT_TRUE(cancelled.find("ok")->boolean);
  EXPECT_TRUE(cancelled.find("found")->boolean);
  submitter.join();

  // Whether the cancel landed while the job was queued or mid-batch, the
  // submitter sees the deadline taxonomy entry, never a hang or a crash.
  const json::Value v = json::parse(response);
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->string, "deadline");

  // A cancel for a job that no longer exists reports found=false.
  const json::Value missing =
      json::parse(controller.call(cancelLine("alice", "long-job")));
  EXPECT_TRUE(missing.find("ok")->boolean);
  EXPECT_FALSE(missing.find("found")->boolean);

  // Tenants cannot cancel each other's jobs: wrong tenant, same id.
  std::string response2;
  std::thread submitter2([&] {
    Client client(socketPath_);
    response2 = client.call(slowSubmitLine("alice", "scoped", 3'000'000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const json::Value foreign =
      json::parse(controller.call(cancelLine("mallory", "scoped")));
  EXPECT_FALSE(foreign.find("found")->boolean);
  const json::Value owned =
      json::parse(controller.call(cancelLine("alice", "scoped")));
  EXPECT_TRUE(owned.find("found")->boolean);
  submitter2.join();
  EXPECT_FALSE(json::parse(response2).find("ok")->boolean);
}

TEST_F(ServeTest, CancelWhilePendingNeverExecutesTheJob) {
  restart([](ServerOptions&) {});

  std::string longResponse;
  std::thread longJob([&] {
    Client client(socketPath_);
    longResponse = client.call(slowSubmitLine("alice", "hog", 3'000'000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  // The runner is busy with the hog, so this job sits in the queue.
  std::string pendingResponse;
  std::thread pendingJob([&] {
    Client client(socketPath_);
    pendingResponse = client.call(slowSubmitLine("bob", "queued", 500));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  Client controller(socketPath_);
  const json::Value cancelled =
      json::parse(controller.call(cancelLine("bob", "queued")));
  EXPECT_TRUE(cancelled.find("found")->boolean);

  // Unblock the runner so the cancelled pending job is popped.
  (void)controller.call(cancelLine("alice", "hog"));
  pendingJob.join();
  longJob.join();

  const json::Value v = json::parse(pendingResponse);
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->string, "deadline");
  // Cancelled while pending: zero shots ever ran.
  EXPECT_EQ(v.find("completed_shots")->asU64("completed_shots"), 0U);
  EXPECT_EQ(v.find("unstarted_shots")->asU64("unstarted_shots"), 500U);
}

TEST_F(ServeTest, QueueTtlExpiresJobsAndReleasesTenantQuota) {
  restart([](ServerOptions& options) { options.queue.tenantMaxPending = 2; });

  std::string hogResponse;
  std::thread hog([&] {
    Client client(socketPath_);
    hogResponse = client.call(slowSubmitLine("alice", "hog", 3'000'000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  // Queued behind the hog with a deadline shorter than the hog's runtime:
  // this job's TTL expires while it is still pending.
  std::string ttlResponse;
  std::thread ttlJob([&] {
    Client client(socketPath_);
    ttlResponse = client.call(
        slowSubmitLine("alice", "ttl", 500, /*deadlineMs=*/150));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Tenant quota is now exhausted (hog running + ttl queued): a third job
  // rejects with resource-limit and a retry hint.
  Client controller(socketPath_);
  const json::Value third = json::parse(
      controller.call(slowSubmitLine("alice", "", 10)));
  EXPECT_FALSE(third.find("ok")->boolean);
  EXPECT_EQ(third.find("error")->find("code")->string, "resource-limit");
  ASSERT_NE(third.find("retry_after_ms"), nullptr);
  EXPECT_GE(third.find("retry_after_ms")->asU64("retry_after_ms"), 1U);

  // Wait past the TTL, cancel the hog; the runner pops the expired job
  // and delivers error[deadline] without ever executing it.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  (void)controller.call(cancelLine("alice", "hog"));
  ttlJob.join();
  hog.join();

  const json::Value v = json::parse(ttlResponse);
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->string, "deadline");
  EXPECT_EQ(v.find("completed_shots")->asU64("completed_shots"), 0U);
  EXPECT_EQ(v.find("unstarted_shots")->asU64("unstarted_shots"), 500U);

  // Both slots released: the tenant can admit again.
  const json::Value after = json::parse(controller.call(submitLine("alice", 10, 1)));
  EXPECT_TRUE(after.find("ok")->boolean);
}

TEST_F(ServeTest, MemoryAdmissionGuardRejectsOversizedPrograms) {
  restart([](ServerOptions& options) {
    // 1 MiB: a 16-qubit f64 state, or a 17-qubit f32 state, at most.
    options.queue.memoryBudgetBytes = 1U << 20U;
  });

  // 17 qubits predict a 2 MiB statevector: rejected upfront, before any
  // allocation, with no retry hint (it can never fit).
  std::string wide = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                     "qreg q[17];\ncreg c[17];\nh q[0];\nmeasure q -> c;\n";
  SubmitRequest req;
  req.tenant = "alice";
  req.program = wide;
  req.shots = 5;
  Client client(socketPath_);
  const json::Value v = json::parse(client.call(submitRequestJson(req)));
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->string, "resource-limit");
  EXPECT_NE(v.find("error")->find("message")->string.find("memory budget"),
            std::string::npos);
  EXPECT_EQ(v.find("retry_after_ms"), nullptr);

  // The same program in f32 predicts exactly 1 MiB: admitted, and it runs
  // all its shots.
  req.precision = sim::Precision::F32;
  const json::Value f32 = json::parse(client.call(submitRequestJson(req)));
  ASSERT_TRUE(f32.find("ok")->boolean);
  EXPECT_EQ(f32.find("shots")->asU64("shots"), 5U);
  std::uint64_t f32Shots = 0;
  for (const auto& [bits, count] : f32.find("histogram")->object) {
    f32Shots += static_cast<std::uint64_t>(count.number);
  }
  EXPECT_EQ(f32Shots, 5U);

  // In-budget work is unaffected.
  const json::Value ok = json::parse(client.call(submitLine("alice", 10, 1)));
  EXPECT_TRUE(ok.find("ok")->boolean);

  // The metrics document accounts for the rejection and the budget.
  const json::Value metrics =
      json::parse(client.call(R"({"type":"metrics"})"));
  const json::Value* memory = metrics.find("memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ(memory->find("budget_bytes")->asU64("budget_bytes"), 1U << 20U);
  EXPECT_GE(memory->find("rejected")->asU64("rejected"), 1U);
}

TEST_F(ServeTest, AnUnderDeclaredWidthTrapsInsteadOfPassingTheMemoryGuard) {
  restart([](ServerOptions& options) { options.queue.memoryBudgetBytes = 1U << 20U; });
  // Declares 2 qubits (a 64-byte charge) but touches 17 static addresses,
  // a 2 MiB state: the runtime refuses the third address.
  std::string program = R"(
declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
entry:
)";
  for (unsigned q = 0; q < 17; ++q) {
    program += "  call void @__quantum__qis__h__body(ptr " +
               (q == 0 ? std::string("null") : "inttoptr (i64 " + std::to_string(q) + " to ptr)") +
               ")\n";
  }
  program += "  ret void\n}\nattributes #0 = { \"entry_point\" \"required_num_qubits\"=\"2\" }\n";
  Client client(socketPath_);
  SubmitRequest req;
  req.tenant = "alice";
  req.program = program;
  req.shots = 3;
  for (const vm::Engine engine : {vm::Engine::Vm, vm::Engine::Interp}) {
    req.engine = engine;
    const json::Value error = json::parse(client.call(submitRequestJson(req)));
    ASSERT_FALSE(error.find("ok")->boolean) << vm::engineName(engine);
    EXPECT_EQ(error.find("error")->find("code")->string, "trap-invalid-qubit")
        << vm::engineName(engine);
  }
  const json::Value good = json::parse(client.call(submitLine("alice", 10, 1)));
  EXPECT_TRUE(good.find("ok")->boolean);
}

TEST_F(ServeTest, AnOverQuotaSubmitNeverLoadsItsProgram) {
  restart([](ServerOptions& options) {
    options.queue.ratePerSec = 0.01; // one admission, then none for 100 s
    options.queue.rateBurst = 1;
    options.programCapacity = 2;
  });
  Client client(socketPath_);
  for (unsigned k = 1; k <= 3; ++k) {
    SubmitRequest req;
    req.tenant = "alice";
    req.program = std::string(kBellQasm) + "// fresh program " + std::to_string(k) + "\n";
    req.shots = 10;
    const json::Value v = json::parse(client.call(submitRequestJson(req)));
    if (k == 1) {
      EXPECT_TRUE(v.find("ok")->boolean);
      continue;
    }
    EXPECT_FALSE(v.find("ok")->boolean) << k;
    EXPECT_EQ(v.find("error")->find("code")->string, "resource-limit") << k;
    ASSERT_NE(v.find("retry_after_ms"), nullptr) << k;
    EXPECT_GE(v.find("retry_after_ms")->asU64("retry_after_ms"), 1U) << k;
  }
  // The rejected programs were neither loaded nor allowed to evict the
  // admitted one.
  const json::Value metrics = json::parse(client.call(R"({"type":"metrics"})"));
  EXPECT_EQ(metrics.find("cache")->find("misses")->asU64("misses"), 1U);
  EXPECT_EQ(metrics.find("cache")->find("evictions")->asU64("evictions"), 0U);
  EXPECT_EQ(metrics.find("queue")->find("rate_limited")->asU64("rate_limited"), 2U);
}

TEST_F(ServeTest, AJobThatLapsesInTheQueueIsAQueueTtlNotTheWatchdogs) {
  restart([](ServerOptions&) {}); // one runner, watchdog factor 4
  Client controller(socketPath_);
  const auto metric = [&](const char* section, const char* key) {
    const json::Value metrics = json::parse(controller.call(R"({"type":"metrics"})"));
    return metrics.find(section)->find(key)->asU64(key);
  };
  const auto waitFor = [&](const std::function<bool()>& ready) {
    for (int i = 0; i < 500 && !ready(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  const std::uint64_t flaggedBefore = metric("watchdog", "flagged");

  std::string hogResponse;
  std::thread hog([&] {
    Client client(socketPath_);
    hogResponse = client.call(slowSubmitLine("alice", "hog", 3'000'000));
  });
  waitFor([&] { return metric("memory", "active_jobs") == 1 && metric("queue", "depth") == 0; });

  // Behind the hog with a 5 ms budget, it waits far past 4 x 5 ms and
  // several 50 ms watchdog scans before the runner pops it.
  std::string lapsedResponse;
  std::thread lapsed([&] {
    Client client(socketPath_);
    lapsedResponse = client.call(slowSubmitLine("bob", "lapsed", 500, /*deadlineMs=*/5));
  });
  waitFor([&] { return metric("queue", "depth") == 1; });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  (void)controller.call(cancelLine("alice", "hog"));
  lapsed.join();
  hog.join();

  const json::Value v = json::parse(lapsedResponse);
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->string, "deadline");
  EXPECT_EQ(v.find("error")->find("message")->string,
            "deadline of 5ms expired while the job was queued");
  EXPECT_EQ(v.find("unstarted_shots")->asU64("unstarted_shots"), 500U);
  EXPECT_EQ(metric("watchdog", "flagged"), flaggedBefore);

  const json::Value events =
      json::parse(controller.call(R"({"type":"events","tenant":"bob"})"));
  const json::Value* list = events.find("events");
  ASSERT_NE(list, nullptr);
  ASSERT_FALSE(list->array.empty());
  EXPECT_EQ(list->array.back().find("request_id")->string, "lapsed");
  EXPECT_EQ(list->array.back().find("cause")->string, "queue-ttl");
}

namespace {

/// Occurrences of \p needle in \p haystack (for exposition-body asserts).
std::size_t countOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// The value of an unlabeled scalar series in an exposition body, e.g.
/// "qirkit_serve_tenant_completed_evicted 3" -> 3. Fails the test when
/// the series is absent.
std::uint64_t expositionScalar(const std::string& body,
                               const std::string& series) {
  const std::string prefix = series + " ";
  std::size_t at = body.rfind("\n" + prefix);
  if (at != std::string::npos) {
    ++at; // step past the newline
  } else if (body.rfind(prefix, 0) == 0) {
    at = 0;
  } else {
    ADD_FAILURE() << "series '" << series << "' not in exposition body";
    return 0;
  }
  return std::stoull(body.substr(at + prefix.size()));
}

} // namespace

TEST_F(ServeTest, SubmitResponseReportsStageTimings) {
  Client client(socketPath_);
  const json::Value v = json::parse(client.call(submitLine("alice", 20, 3)));
  ASSERT_TRUE(v.find("ok")->boolean);

  // Every response carries the request's span tree: admission through
  // execute, each with a start offset and duration.
  const json::Value* stages = v.find("stages");
  ASSERT_NE(stages, nullptr);
  std::vector<std::string> names;
  names.reserve(stages->array.size());
  for (const json::Value& stage : stages->array) {
    names.push_back(stage.find("stage")->string);
    EXPECT_NE(stage.find("dur_ns"), nullptr);
    EXPECT_NE(stage.find("start_ns"), nullptr);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "admission"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "queue"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "compile"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "execute"), names.end());

  // The telemetry delta splits queue wait from execute time.
  const json::Value* metrics = v.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find("serve.queue.wait_ns.count"), nullptr);
  EXPECT_GE(metrics->find("serve.queue.wait_ns.count")->asU64("count"), 1U);
  ASSERT_NE(metrics->find("serve.exec.run_ns.count"), nullptr);
}

TEST_F(ServeTest, MetricsDocumentCarriesLatencyPercentiles) {
  Client client(socketPath_);
  ASSERT_TRUE(json::parse(client.call(submitLine("alice", 20, 3)))
                  .find("ok")
                  ->boolean);
  const json::Value metrics =
      json::parse(client.call(R"({"type":"metrics"})"));
  const json::Value* latency = metrics.find("latency");
  ASSERT_NE(latency, nullptr);
  for (const char* which : {"job", "queue_wait", "exec"}) {
    const json::Value* h = latency->find(which);
    ASSERT_NE(h, nullptr) << which;
    EXPECT_GE(h->find("count")->asU64("count"), 1U) << which;
    EXPECT_GE(h->find("p99_ns")->asU64("p99_ns"),
              h->find("p50_ns")->asU64("p50_ns"))
        << which;
  }
  const json::Value* flight = metrics.find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->find("capacity")->asU64("capacity"), 256U);
  EXPECT_GE(flight->find("recorded")->asU64("recorded"), 1U);

  // The telemetry snapshot carries each stage histogram under the
  // stage's name, bytecode compilation included.
  const json::Value* telemetry = metrics.find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  for (const char* name : {"admission.count", "queue.count", "compile.count",
                           "execute.count", "vm.compile.count",
                           "vm.compile.sum_ns"}) {
    ASSERT_NE(telemetry->find(name), nullptr) << name;
    EXPECT_GE(telemetry->find(name)->asU64(name), 1U) << name;
  }
}

TEST_F(ServeTest, DeadlineCutRequestIsDiagnosableFromTheFlightRecorder) {
  restart([](ServerOptions& options) {
    options.slowThresholdMs = 1; // everything below counts as slow
  });

  Client client(socketPath_);
  const json::Value error = json::parse(client.call(
      slowSubmitLine("dl-tenant", "req-dl", /*shots=*/2'000'000,
                     /*deadlineMs=*/50)));
  ASSERT_FALSE(error.find("ok")->boolean);
  ASSERT_EQ(error.find("error")->find("code")->string, "deadline");
  // The error response itself carries the span tree.
  ASSERT_NE(error.find("stages"), nullptr);

  // The flight recorder archived the request with per-stage timings.
  const json::Value events = json::parse(
      client.call(R"({"type":"events","tenant":"dl-tenant"})"));
  ASSERT_TRUE(events.find("ok")->boolean);
  EXPECT_EQ(events.find("type")->string, "events");
  EXPECT_GE(events.find("recorded")->asU64("recorded"), 1U);
  EXPECT_EQ(events.find("slow_threshold_ms")->asU64("slow_threshold_ms"), 1U);
  const json::Value* list = events.find("events");
  ASSERT_NE(list, nullptr);
  ASSERT_FALSE(list->array.empty());
  const json::Value& rec = list->array.back();
  EXPECT_EQ(rec.find("tenant")->string, "dl-tenant");
  EXPECT_EQ(rec.find("request_id")->string, "req-dl");
  EXPECT_EQ(rec.find("outcome")->string, "error");
  EXPECT_EQ(rec.find("error")->string, "deadline");
  EXPECT_EQ(rec.find("cause")->string, "deadline");
  EXPECT_TRUE(rec.find("slow")->boolean);
  EXPECT_GE(rec.find("total_ns")->asU64("total_ns"), 1'000'000U);

  // Slow + errored: the full stage trace was captured automatically.
  const json::Value* stages = rec.find("stages");
  ASSERT_NE(stages, nullptr);
  bool sawExecute = false;
  for (const json::Value& stage : stages->array) {
    sawExecute = sawExecute || stage.find("stage")->string == "execute";
  }
  EXPECT_TRUE(sawExecute);

  // A tenant filter for someone else returns an empty list.
  const json::Value other = json::parse(
      client.call(R"({"type":"events","tenant":"nobody"})"));
  EXPECT_TRUE(other.find("events")->array.empty());
}

TEST_F(ServeTest, PrometheusExpositionExposesPerTenantSeries) {
  Client client(socketPath_);
  ASSERT_TRUE(json::parse(client.call(submitLine("prom-tenant", 20, 3)))
                  .find("ok")
                  ->boolean);

  const json::Value v = json::parse(
      client.call(R"({"type":"metrics","format":"prometheus"})"));
  ASSERT_TRUE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("format")->string, "prometheus");
  const json::Value* body = v.find("body");
  ASSERT_NE(body, nullptr);
  const std::string& text = body->string;

  EXPECT_NE(text.find("# TYPE qirkit_serve_tenant_completed counter"),
            std::string::npos);
  EXPECT_NE(text.find("qirkit_serve_tenant_completed{tenant=\"prom-tenant\"} "),
            std::string::npos);
  // Per-tenant histograms expose cumulative buckets plus sum/count.
  EXPECT_NE(
      text.find("qirkit_serve_tenant_queue_wait_ns_bucket{tenant=\"prom-tenant\",le=\""),
      std::string::npos);
  EXPECT_NE(
      text.find("qirkit_serve_tenant_exec_ns_count{tenant=\"prom-tenant\"} "),
      std::string::npos);
  // Unlabeled histograms render too, with the +Inf closing bucket, and
  // so do the stage histograms.
  EXPECT_NE(text.find("qirkit_serve_job_latency_ns_bucket{le=\"+Inf\"} "),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE qirkit_vm_compile histogram"), std::string::npos);
  EXPECT_NE(text.find("\nqirkit_execute_count "), std::string::npos);
}

TEST_F(ServeTest, TenantLabelCardinalityIsBoundedByEviction) {
  Client client(socketPath_);
  // One more tenant than the cardinality bound: at least one label must
  // have been evicted, however many labels earlier tests contributed.
  for (int i = 0; i <= 32; ++i) {
    ASSERT_TRUE(json::parse(client.call(submitLine(
                                "evict-tenant-" + std::to_string(i), 5, 1)))
                    .find("ok")
                    ->boolean)
        << i;
  }
  const json::Value v = json::parse(
      client.call(R"({"type":"metrics","format":"prometheus"})"));
  const std::string& text = v.find("body")->string;
  EXPECT_GE(expositionScalar(text, "qirkit_serve_tenant_completed_evicted"),
            1U);
  // The live label set stays within the bound.
  EXPECT_LE(countOccurrences(text, "qirkit_serve_tenant_completed{"), 32U);
}

TEST_F(ServeTest, LegacyFusionAndDispatchFieldsAreIgnored) {
  // A frame that still carries the retired fields runs like one without.
  Client client(socketPath_);
  const std::string current = submitLine("alice", 40, 9);
  const std::string legacy = current.substr(0, current.size() - 1) +
                             R"(,"fusion":false,"dispatch":"switch"})";
  const json::Value a = json::parse(client.call(current));
  const json::Value b = json::parse(client.call(legacy));
  ASSERT_TRUE(a.find("ok")->boolean && b.find("ok")->boolean);
  const json::Value* expected = a.find("histogram");
  const json::Value* got = b.find("histogram");
  ASSERT_EQ(expected->object.size(), got->object.size());
  for (const auto& [bits, count] : expected->object) {
    ASSERT_NE(got->find(bits), nullptr) << bits;
    EXPECT_EQ(got->find(bits)->number, count.number) << bits;
  }
}

/// A histogram member rendered as "bits=count;" pairs, for comparisons.
std::string histogramOf(const json::Value& response) {
  std::string out;
  for (const auto& [bits, count] : response.find("histogram")->object) {
    out += bits + "=" +
           std::to_string(static_cast<std::uint64_t>(count.number)) + ";";
  }
  return out;
}

TEST_F(ServeTest, HashCollidingTextsNeverShareAProgram) {
  // Both texts hash to c81323aaee974fec under FNV-1a; B flips the qubit.
  const std::string a =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\n"
      "measure q[0] -> c[0];\n// p26Wv60iu1E\n";
  const std::string b =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\n"
      "x q[0];\nmeasure q[0] -> c[0];\n// U7wF7e4RvMI\n";
  Client client(socketPath_);
  SubmitRequest req;
  req.tenant = "alice";
  req.program = a;
  req.seed = 4;
  const json::Value first = json::parse(client.call(submitRequestJson(req)));
  ASSERT_TRUE(first.find("ok")->boolean);
  req.tenant = "mallory";
  req.program = b;
  const json::Value second = json::parse(client.call(submitRequestJson(req)));
  ASSERT_TRUE(second.find("ok")->boolean);
  EXPECT_EQ(first.find("program_id")->string, "c81323aaee974fec");
  EXPECT_EQ(second.find("program_id")->string, "c81323aaee974fec");

  // Mallory's answer is B's, exactly as a batch over B computes it.
  ir::Context ctx;
  vm::ShotOptions opts;
  opts.shots = req.shots;
  opts.seed = 4;
  const vm::ShotBatchResult expected = vm::runShots(
      *qasm::loadProgram(ctx, b, {}, qir::Addressing::Static), opts);
  std::string bits;
  for (const auto& [outcome, count] : expected.histogram) {
    bits += outcome + "=" + std::to_string(count) + ";";
  }
  EXPECT_EQ(histogramOf(second), bits);
  EXPECT_EQ(second.find("gates_per_shot")->asU64("gates_per_shot"),
            expected.lastShotStats.gatesApplied);

  // With both resident, the id alone cannot pick one.
  SubmitRequest byRef;
  byRef.tenant = "mallory";
  byRef.programRef = "c81323aaee974fec";
  const json::Value error = json::parse(client.call(submitRequestJson(byRef)));
  ASSERT_FALSE(error.find("ok")->boolean);
  EXPECT_EQ(error.find("error")->find("code")->string, "usage");
  EXPECT_NE(error.find("error")->find("message")->string.find("ambiguous"),
            std::string::npos);
}

TEST_F(ServeTest, ResubmissionNeitherCompilesNorAnalyses) {
  Client client(socketPath_);
  const json::Value first = json::parse(client.call(submitLine("alice", 30, 5)));
  ASSERT_TRUE(first.find("ok")->boolean);
  EXPECT_EQ(first.find("cache")->find("misses")->asU64("misses"), 1U);

  SubmitRequest byRef;
  byRef.tenant = "bob";
  byRef.programRef = first.find("program_id")->string;
  byRef.shots = 30;
  byRef.seed = 5;
  for (const std::string& line :
       {submitRequestJson(byRef), submitLine("bob", 30, 5)}) {
    const json::Value v = json::parse(client.call(line));
    ASSERT_TRUE(v.find("ok")->boolean) << line;
    EXPECT_EQ(histogramOf(v), histogramOf(first));
    EXPECT_EQ(v.find("cache")->find("hits")->asU64("hits"), 1U);
    const json::Value* metrics = v.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->find("analyze.count"), nullptr) << line;
    EXPECT_EQ(metrics->find("vm.compile.count"), nullptr) << line;
    for (const json::Value& stage : v.find("stages")->array) {
      EXPECT_NE(stage.find("stage")->string, "analyze");
      if (stage.find("stage")->string == "compile") {
        EXPECT_EQ(stage.find("note")->string, "hit");
      }
    }
  }
}

TEST_F(ServeTest, ProgramCapacityOneEvictsTheOlderProgram) {
  restart([](ServerOptions& options) { options.programCapacity = 1; });
  Client client(socketPath_);
  const json::Value bell = json::parse(client.call(submitLine("alice", 10, 1)));
  ASSERT_TRUE(bell.find("ok")->boolean);
  SubmitRequest ghz;
  ghz.tenant = "alice";
  ghz.program =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n"
      "h q[0];\ncx q[0], q[1];\ncx q[1], q[2];\nmeasure q -> c;\n";
  ghz.shots = 10;
  ASSERT_TRUE(json::parse(client.call(submitRequestJson(ghz))).find("ok")->boolean);

  SubmitRequest byRef;
  byRef.tenant = "alice";
  byRef.programRef = bell.find("program_id")->string;
  const json::Value error = json::parse(client.call(submitRequestJson(byRef)));
  ASSERT_FALSE(error.find("ok")->boolean);
  EXPECT_EQ(error.find("error")->find("code")->string, "usage");
  const json::Value metrics = json::parse(client.call(R"({"type":"metrics"})"));
  EXPECT_EQ(metrics.find("cache")->find("size")->asU64("size"), 1U);
  EXPECT_EQ(metrics.find("cache")->find("capacity")->asU64("capacity"), 1U);
  EXPECT_EQ(metrics.find("cache")->find("evictions")->asU64("evictions"), 1U);
}

/// The program store loads through the classical pipeline, whose unroll
/// budget leaves a 65 536-iteration loop a loop: the daemon answers it
/// (from the VM, as written) instead of stalling on an 800 000-instruction
/// unroll.
TEST_F(ServeTest, AnswersALoopPastTheUnrollBudget) {
  std::string program = "OPENQASM 3;\nqubit[8] q;\nbit[8] c;\nfor int i in [0:65535] {\n";
  for (unsigned k = 0; k < 8; ++k) {
    program += "  rz(0.001) q[" + std::to_string(k) + "];\n";
  }
  program += "}\nfor int i in [0:7] {\n  c[i] = measure q[i];\n}\n";
  Client client(socketPath_);
  SubmitRequest req;
  req.tenant = "alice";
  req.program = program;
  req.shots = 2;
  req.seed = 3;
  const json::Value response = json::parse(client.call(submitRequestJson(req)));
  ASSERT_TRUE(response.find("ok")->boolean);
  EXPECT_EQ(histogramOf(response), "00000000=2;");
  EXPECT_EQ(response.find("gates_per_shot")->asU64("gates_per_shot"), 8U * 65536U);
}

/// A self-recursive function: the inliner never inlines it, so the store
/// loads it at once, and the daemon answers with the call-stack trap of
/// the program as written.
TEST_F(ServeTest, AnswersARecursiveProgram) {
  Client client(socketPath_);
  SubmitRequest req;
  req.tenant = "alice";
  req.program = R"(
declare void @__quantum__qis__h__body(ptr)
define void @f() {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @f()
  ret void
}
define void @main() #0 {
entry:
  call void @f()
  ret void
}
attributes #0 = { "entry_point" }
)";
  req.shots = 2;
  req.seed = 3;
  const json::Value error = json::parse(client.call(submitRequestJson(req)));
  EXPECT_FALSE(error.find("ok")->boolean);
  EXPECT_EQ(error.find("error")->find("code")->string, "resource-limit");

  const json::Value good = json::parse(client.call(submitLine("alice", 10, 1)));
  EXPECT_TRUE(good.find("ok")->boolean);
}

/// A module the verifier rejects (a block without a terminator) skips the
/// pipeline and runs as written: the VM refuses it, the interpreter traps
/// at the end of the block, and the daemon answers with that trap.
TEST_F(ServeTest, AnswersAModuleTheVerifierRejects) {
  Client client(socketPath_);
  SubmitRequest req;
  req.tenant = "alice";
  req.program = R"(
declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
}
attributes #0 = { "entry_point" }
)";
  req.shots = 2;
  req.seed = 3;
  const json::Value error = json::parse(client.call(submitRequestJson(req)));
  EXPECT_FALSE(error.find("ok")->boolean);
  EXPECT_EQ(error.find("error")->find("code")->string, "trap");

  const json::Value good = json::parse(client.call(submitLine("alice", 10, 1)));
  EXPECT_TRUE(good.find("ok")->boolean);
}

TEST_F(ServeTest, RejectsADeclarationThatDisagreesWithItsQirSignature) {
  // h declared and called without its qubit: every engine would read an
  // argument past the call's end. The loader answers error[verify], and
  // the daemon keeps answering.
  Client client(socketPath_);
  SubmitRequest req;
  req.tenant = "alice";
  req.program = R"(
declare void @__quantum__qis__h__body()
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body()
  ret void
}
attributes #0 = { "entry_point" }
)";
  req.shots = 2;
  const json::Value error = json::parse(client.call(submitRequestJson(req)));
  EXPECT_FALSE(error.find("ok")->boolean);
  EXPECT_EQ(error.find("error")->find("code")->string, "verify");
  EXPECT_NE(error.find("error")->find("message")->string.find("__quantum__qis__h__body"),
            std::string::npos);

  const json::Value pong = json::parse(client.call(R"({"type":"ping"})"));
  EXPECT_TRUE(pong.find("ok")->boolean);
}

TEST_F(ServeTest, BrokenProgramsReturnClassifiedErrors) {
  Client client(socketPath_);
  SubmitRequest req;
  req.tenant = "alice";
  req.program = "this is not a program";
  const json::Value error = json::parse(client.call(submitRequestJson(req)));
  EXPECT_FALSE(error.find("ok")->boolean);
  EXPECT_EQ(error.find("error")->find("code")->string, "parse");

  // The daemon survives a parse failure and still executes real work.
  const json::Value good = json::parse(client.call(submitLine("alice", 10, 1)));
  EXPECT_TRUE(good.find("ok")->boolean);
}

TEST_F(ServeTest, EntryPointWithParametersIsAClassifiedErrorOnBothEngines) {
  // The interpreter used to read the missing argument out of an empty
  // span, and the fault took the daemon down for every tenant.
  Client client(socketPath_);
  SubmitRequest req;
  req.tenant = "alice";
  req.program = R"(
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main(i64 %n) #0 {
entry:
  %c = icmp eq i64 %n, 0
  br i1 %c, label %measure, label %flip
flip:
  call void @__quantum__qis__x__body(ptr null)
  br label %measure
measure:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}
attributes #0 = { "entry_point" "required_num_qubits"="1" "required_num_results"="1" }
)";
  req.shots = 4;
  req.seed = 1;
  std::string messages[2];
  for (const vm::Engine engine : {vm::Engine::Interp, vm::Engine::Vm}) {
    req.engine = engine;
    const json::Value error = json::parse(client.call(submitRequestJson(req)));
    EXPECT_FALSE(error.find("ok")->boolean) << vm::engineName(engine);
    EXPECT_EQ(error.find("error")->find("code")->string, "semantic")
        << vm::engineName(engine);
    messages[engine == vm::Engine::Vm ? 1 : 0] =
        error.find("error")->find("message")->string;
  }
  EXPECT_EQ(messages[0], messages[1]);
  // One error for the batch, found before any shot ran: the message is the
  // engines' own, with no "shot N failed:" wrapper.
  EXPECT_EQ(messages[0],
            "@main takes 1 parameter(s) but was called with 0 argument(s) "
            "(QIR entry points take none)");

  // The daemon keeps serving.
  const json::Value good = json::parse(client.call(submitLine("alice", 10, 1)));
  EXPECT_TRUE(good.find("ok")->boolean);
}

} // namespace
} // namespace qirkit::service
