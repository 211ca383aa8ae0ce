/// \file cache.hpp
/// The program store: a bounded, content-addressed cache of programs that
/// are loaded, compiled and analysed once, then run by any number of
/// batches. The serve daemon keeps one, shared by every tenant; `qirkit
/// run` keeps none (runShots on a bare module compiles it).
///
/// Key: the FNV-1a hash of the source text (the serve protocol's
/// program_id) together with the CompileOptions. Every text lookup
/// compares the stored source, so two texts that share a hash never alias;
/// a lookup by id refuses to choose between them.
///
/// Concurrency: lookups and insertions are mutex-guarded; loading runs
/// outside the lock with *single-flight* deduplication — the first thread
/// to miss on a key registers an in-flight load, and every concurrent
/// requester of the same key blocks on its future instead of loading the
/// program again (Stats::coalesced counts the joiners).
///
/// Failures: a source that fails to load propagates its exception to every
/// joiner and leaves no entry, so the next lookup loads it again. A program
/// that loads but fails to compile stays resident with its failure, and
/// runShots degrades it to the interpreter (or rethrows) on every batch.
///
/// Once `capacity()` entries are resident, inserting a program evicts the
/// least-recently-used entry (handed-out shared_ptrs stay valid). Hits,
/// misses, coalesced joins and evictions are reported in Stats and through
/// the telemetry counters vm.cache.{hits,misses,coalesced,evictions}.
#pragma once

#include "ir/context.hpp"
#include "ir/module.hpp"
#include "vm/bytecode.hpp"
#include "vm/compiler.hpp"
#include "vm/shot_analysis.hpp"

#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace qirkit::vm {

/// One resident program, immutable once handed out: batches on any thread
/// read its module, bytecode and analysis concurrently.
struct Program {
  std::string id;     ///< 16 hex digits: FNV-1a of source
  std::string source; ///< the text it was loaded from
  std::unique_ptr<ir::Context> context;
  std::unique_ptr<ir::Module> module;
  /// Null when compilation failed; compileError then holds the failure.
  std::shared_ptr<const BytecodeModule> bytecode;
  std::exception_ptr compileError;
  ShotAnalysis analysis;
};

class CompileCache {
public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Requests that joined another thread's in-flight load of the same
    /// key instead of loading (single-flight deduplication).
    std::uint64_t coalesced = 0;
  };

  /// Turns source text into a module owned by the given context; throws a
  /// classified error when the text does not load.
  using Loader =
      std::function<std::unique_ptr<ir::Module>(ir::Context&, std::string_view)>;

  /// A lookup's program and how it was served: "hit", "coalesced" or
  /// "miss" (this call loaded it).
  struct Lookup {
    std::shared_ptr<const Program> program;
    const char* outcome = "hit";
  };

  /// Default resident-entry bound (serve's --program-capacity).
  static constexpr std::size_t kDefaultCapacity = 64;

  /// A store that loads QIR text with ir::parseModule unless given another
  /// \p loader.
  explicit CompileCache(Loader loader = {},
                        std::size_t capacity = kDefaultCapacity);

  /// Look \p source up by content; load, compile and analyse it on a miss.
  /// \p options defaults to the code shape runShots executes.
  [[nodiscard]] Lookup
  getOrLoad(std::string_view source, const CompileOptions& options = {});

  /// The resident program whose id is \p id, or nullptr. Throws
  /// Error(Usage) when several resident texts share the id.
  [[nodiscard]] std::shared_ptr<const Program>
  find(std::string_view id, const CompileOptions& options = {});

  /// The entry point for a caller that holds a bare module: looks up the
  /// module's printed text like any other source and returns its bytecode,
  /// rethrowing the program's compile failure.
  std::shared_ptr<const BytecodeModule>
  getOrCompile(const ir::Module& module, const CompileOptions& options = {});

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;

  /// The process-wide instance (ir::parseModule loader).
  static CompileCache& global();

private:
  struct Entry {
    std::shared_ptr<const Program> program;
    CompileOptions options;
    std::uint64_t lastUse = 0; // tick of the most recent hit/insert
  };

  /// One load in progress: joiners block on the future while the owner
  /// loads outside the lock. \p source views the owner's argument, which
  /// outlives the registration.
  struct InFlight {
    std::string_view source;
    CompileOptions options;
    std::shared_future<std::shared_ptr<const Program>> future;
  };

  void endFlightLocked(std::uint64_t hash, std::string_view source,
                       const CompileOptions& options);
  void evictLRULocked();
  [[nodiscard]] std::size_t sizeLocked() const;

  Loader loader_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> entries_;
  std::unordered_map<std::uint64_t, std::vector<InFlight>> inflight_;
  Stats stats_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
};

} // namespace qirkit::vm
