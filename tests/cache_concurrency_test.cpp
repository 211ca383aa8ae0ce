/// Multi-threaded hammer tests for the program store's contracts: N
/// concurrent requests for one key cost exactly one load (the rest join
/// the in-flight future or hit the resident entry), LRU eviction stays
/// consistent under contention while handed-out programs remain valid, a
/// failed load propagates its exception to every joiner without leaving an
/// entry behind, and a program that fails to compile stays resident with
/// its failure. These tests are part of the ASan/UBSan CI matrix — they
/// exist to fail loudly under the sanitizers if the locking discipline
/// regresses.
#include "ir/context.hpp"
#include "ir/module.hpp"
#include "ir/parser.hpp"
#include "support/error.hpp"
#include "support/telemetry/telemetry.hpp"
#include "vm/cache.hpp"
#include "vm/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace qirkit {
namespace {

/// A family of distinct-by-content classical modules: the returned
/// constant makes each program its own cache key.
std::string programText(unsigned variant) {
  return "define i64 @main() {\n"
         "entry:\n"
         "  %a = add i64 " +
         std::to_string(variant) +
         ", 1\n"
         "  %b = mul i64 %a, 3\n"
         "  ret i64 %b\n"
         "}\n";
}

/// This module parses and verifies but cannot be lowered to bytecode
/// (the compiler rejects allocas past 4 GiB), so its store entry keeps a
/// compile failure. No run reaches the alloca, so the interpreter a
/// degraded batch falls back to never allocates it.
constexpr const char* kUncompilableText =
    "define i64 @main() {\n"
    "entry:\n"
    "  br i1 false, label %big, label %done\n"
    "big:\n"
    "  %p = alloca [1000000000 x i64]\n"
    "  br label %done\n"
    "done:\n"
    "  ret i64 0\n"
    "}\n";

/// Spawn \p threads workers, release them simultaneously, join them all.
void runConcurrently(unsigned threads, const std::function<void()>& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      body();
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) {
    worker.join();
  }
}

/// A parseModule loader that counts its calls.
vm::CompileCache::Loader countingLoader(std::atomic<unsigned>& calls) {
  return [&calls](ir::Context& context, std::string_view text) {
    calls.fetch_add(1);
    return ir::parseModule(context, text);
  };
}

TEST(CacheConcurrencyTest, SingleKeyCompilesExactlyOnce) {
  constexpr unsigned kThreads = 16;
  std::atomic<unsigned> loads{0};
  vm::CompileCache store(countingLoader(loads));
  const std::string text = programText(0);
  std::mutex resultsMutex;
  std::vector<std::shared_ptr<const vm::Program>> results;
  runConcurrently(kThreads, [&] {
    auto program = store.getOrLoad(text).program;
    const std::lock_guard lock(resultsMutex);
    results.push_back(std::move(program));
  });

  // One miss does the work; every other request either joined the
  // in-flight load (coalesced) or arrived after insertion (hit).
  EXPECT_EQ(loads.load(), 1U);
  const vm::CompileCache::Stats stats = store.stats();
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1U);
  ASSERT_EQ(results.size(), kThreads);
  for (const auto& program : results) {
    EXPECT_EQ(program, results.front()) << "joiners must share one program";
  }
  EXPECT_EQ(results.front()->source, text);
  EXPECT_NE(results.front()->bytecode, nullptr);
  EXPECT_EQ(store.size(), 1U);
}

TEST(CacheConcurrencyTest, DistinctKeysNeverCoalesceIntoEachOther) {
  constexpr unsigned kPrograms = 8;
  constexpr unsigned kThreadsPerProgram = 4;
  ir::Context ctx;
  std::vector<std::unique_ptr<ir::Module>> modules;
  for (unsigned p = 0; p < kPrograms; ++p) {
    modules.push_back(ir::parseModule(ctx, programText(p)));
  }

  vm::CompileCache cache;
  std::atomic<unsigned> next{0};
  runConcurrently(kPrograms * kThreadsPerProgram, [&] {
    const unsigned slot = next.fetch_add(1) % kPrograms;
    ASSERT_NE(cache.getOrCompile(*modules[slot]), nullptr);
  });

  const vm::CompileCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, kPrograms);
  EXPECT_EQ(stats.hits + stats.coalesced,
            kPrograms * (kThreadsPerProgram - 1U));
  EXPECT_EQ(cache.size(), kPrograms);
}

TEST(CacheConcurrencyTest, EvictionUnderContentionKeepsHandedOutModules) {
  constexpr unsigned kPrograms = 12;
  constexpr unsigned kThreads = 8;
  constexpr unsigned kIterations = 200;
  constexpr std::size_t kCapacity = 4;
  std::vector<std::string> texts;
  for (unsigned p = 0; p < kPrograms; ++p) {
    texts.push_back(programText(100 + p));
  }

  vm::CompileCache store({}, kCapacity);
  std::atomic<unsigned> ticket{0};
  runConcurrently(kThreads, [&] {
    // Deterministic per-thread stride so every thread cycles through all
    // programs from a different phase, maximizing eviction churn.
    const unsigned phase = ticket.fetch_add(1);
    std::vector<std::shared_ptr<const vm::Program>> held;
    for (unsigned i = 0; i < kIterations; ++i) {
      const unsigned slot = (phase * 5 + i * 7) % kPrograms;
      auto program = store.getOrLoad(texts[slot]).program;
      ASSERT_NE(program, nullptr);
      // Evicted-but-held programs must stay readable: dereference their
      // module and bytecode.
      held.push_back(std::move(program));
      ASSERT_NE(held.back()->module->getFunction("main"), nullptr);
      ASSERT_FALSE(held.back()->bytecode->functions.empty());
      if (held.size() > 8) {
        held.erase(held.begin());
      }
    }
  });

  const vm::CompileCache::Stats stats = store.stats();
  EXPECT_LE(store.size(), kCapacity);
  EXPECT_GE(stats.misses, kPrograms); // every program missed at least once
  EXPECT_GT(stats.evictions, 0U);
  EXPECT_EQ(stats.hits + stats.coalesced + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIterations);
}

TEST(CacheConcurrencyTest, FailedLoadThrowsEverywhereAndLeavesNoEntry) {
  constexpr unsigned kThreads = 8;
  std::atomic<unsigned> loads{0};
  vm::CompileCache store(countingLoader(loads));
  std::atomic<unsigned> threw{0};
  runConcurrently(kThreads, [&] {
    try {
      (void)store.getOrLoad("this is not a program");
    } catch (const qirkit::Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Parse);
      threw.fetch_add(1);
    }
  });

  // Owner and every joiner observe the failure...
  EXPECT_EQ(threw.load(), kThreads);
  // ...and nothing stays resident: the next request loads again instead
  // of replaying a stored exception forever.
  EXPECT_EQ(store.size(), 0U);
  const unsigned loadsBefore = loads.load();
  EXPECT_THROW((void)store.getOrLoad("this is not a program"), qirkit::Error);
  EXPECT_EQ(loads.load(), loadsBefore + 1);
}

TEST(CacheConcurrencyTest, UncompilableProgramStaysResidentWithItsFailure) {
  telemetry::setEnabled(true);
  telemetry::resetAll();
  vm::CompileCache store;
  const auto first = store.getOrLoad(kUncompilableText);
  const auto second = store.getOrLoad(kUncompilableText);
  EXPECT_STREQ(second.outcome, "hit");
  ASSERT_EQ(first.program, second.program);
  EXPECT_EQ(first.program->bytecode, nullptr);
  EXPECT_TRUE(first.program->compileError);

  // Both batches degrade to the interpreter with the compile failure as
  // the reason, and neither compiles again.
  vm::ShotOptions options;
  options.shots = 2;
  for (const auto& lookup : {first, second}) {
    const vm::ShotBatchResult batch = vm::runShots(*lookup.program, options);
    EXPECT_EQ(batch.completedShots, options.shots);
    EXPECT_TRUE(batch.degradedToInterp);
    EXPECT_EQ(batch.engineUsed, vm::Engine::Interp);
    EXPECT_EQ(batch.degradeReason.rfind("bytecode compilation failed (compile-fail): ", 0),
              0U)
        << batch.degradeReason;
  }
  const telemetry::LatencyHistogram* compiles =
      telemetry::findHistogram("vm.compile");
  ASSERT_NE(compiles, nullptr);
  EXPECT_EQ(compiles->count(), 1U);
  telemetry::resetAll();
  telemetry::setEnabled(false);

  // Without the fallback the stored failure is rethrown.
  options.interpFallback = false;
  try {
    (void)vm::runShots(*first.program, options);
    FAIL() << "expected the compile failure";
  } catch (const qirkit::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::CompileFail);
  }
}

TEST(CacheConcurrencyTest, ConcurrentBatchesShareOneStoreProgram) {
  // The service-shaped usage: many batches look one text up in one store
  // and run it on one shared pool. The text loads and compiles once.
  constexpr unsigned kBatches = 6;
  const std::string text = programText(7);

  vm::CompileCache store;
  ThreadPool pool(4);
  runConcurrently(kBatches, [&] {
    vm::ShotOptions options;
    options.shots = 20;
    options.seed = 11;
    options.pool = &pool;
    const vm::ShotBatchResult result =
        vm::runShots(*store.getOrLoad(text).program, options);
    EXPECT_EQ(result.completedShots, 20U);
  });

  const vm::CompileCache::Stats stats = store.stats();
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.hits + stats.coalesced, kBatches - 1U);
}

} // namespace
} // namespace qirkit
