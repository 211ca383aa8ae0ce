#include "vm/cache.hpp"

#include "ir/printer.hpp"
#include "support/faultinject.hpp"
#include "support/telemetry/telemetry.hpp"
#include "vm/compiler.hpp"

#include <algorithm>

namespace qirkit::vm {

namespace {

telemetry::Counter g_cacheHits{"vm.cache.hits"};
telemetry::Counter g_cacheMisses{"vm.cache.misses"};
telemetry::Counter g_cacheEvictions{"vm.cache.evictions"};
telemetry::Counter g_cacheCoalesced{"vm.cache.coalesced"};

std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

} // namespace

std::shared_ptr<const BytecodeModule>
CompileCache::getOrCompile(const ir::Module& module, const CompileOptions& options) {
  fault::probe(fault::Site::CompileCache);
  std::string text = ir::printModule(module);
  if (!options.fuseGates) {
    // Fold the option into the content key so fused and unfused compiles
    // of the same program never alias.
    text += "\n; compile-option: fusion=off";
  }
  // Same for the dispatch mode and the superinstruction peephole: both
  // change the module (recorded mode, code shape), so compiles for
  // different loops never share an entry.
  if (options.dispatch != defaultDispatchMode()) {
    text += std::string("\n; compile-option: dispatch=") +
            dispatchModeName(options.dispatch);
  }
  if (options.superinstructions) {
    text += "\n; compile-option: superinstr=on";
  }
  const std::uint64_t hash = fnv1a(text);

  std::promise<std::shared_ptr<const BytecodeModule>> promise;
  CompiledFuture joined;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(hash);
    if (it != entries_.end()) {
      for (Entry& entry : it->second) {
        if (entry.text == text) {
          ++stats_.hits;
          g_cacheHits.add();
          entry.lastUse = ++tick_;
          return entry.compiled;
        }
      }
    }
    // Single-flight: join a compile already in progress for this key
    // rather than duplicating it.
    const auto inflightIt = inflight_.find(hash);
    if (inflightIt != inflight_.end()) {
      for (const InFlight& flight : inflightIt->second) {
        if (flight.text == text) {
          ++stats_.coalesced;
          g_cacheCoalesced.add();
          joined = flight.future;
          break;
        }
      }
    }
    if (!joined.valid()) {
      inflight_[hash].push_back(InFlight{text, promise.get_future().share()});
    }
  }
  if (joined.valid()) {
    // Blocks until the owning thread finishes; rethrows its compile error,
    // mirroring what compiling ourselves would have raised.
    return joined.get();
  }

  // Compile outside the lock — compilation is pure and may be slow; the
  // in-flight registration above keeps it from ever running twice.
  std::shared_ptr<const BytecodeModule> compiled;
  try {
    compiled = compileModule(module, options);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      auto& flights = inflight_[hash];
      std::erase_if(flights, [&](const InFlight& f) { return f.text == text; });
      if (flights.empty()) {
        inflight_.erase(hash);
      }
    }
    // Wake the joiners with the same failure; nothing is cached, so the
    // next request retries the compile.
    promise.set_exception(std::current_exception());
    throw;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& flights = inflight_[hash];
    std::erase_if(flights, [&](const InFlight& f) { return f.text == text; });
    if (flights.empty()) {
      inflight_.erase(hash);
    }
    ++stats_.misses;
    g_cacheMisses.add();
    while (sizeLocked() >= capacity_) {
      evictLRULocked();
    }
    entries_[hash].push_back(Entry{text, compiled, ++tick_});
  }
  promise.set_value(compiled);
  return compiled;
}

void CompileCache::evictLRULocked() {
  auto victimMap = entries_.end();
  std::size_t victimIndex = 0;
  std::uint64_t oldest = ~std::uint64_t{0};
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (it->second[i].lastUse < oldest) {
        oldest = it->second[i].lastUse;
        victimMap = it;
        victimIndex = i;
      }
    }
  }
  if (victimMap == entries_.end()) {
    return;
  }
  victimMap->second.erase(victimMap->second.begin() +
                          static_cast<std::ptrdiff_t>(victimIndex));
  if (victimMap->second.empty()) {
    entries_.erase(victimMap);
  }
  ++stats_.evictions;
  g_cacheEvictions.add();
}

CompileCache::Stats CompileCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t CompileCache::sizeLocked() const {
  std::size_t n = 0;
  for (const auto& [hash, chain] : entries_) {
    n += chain.size();
  }
  return n;
}

std::size_t CompileCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sizeLocked();
}

std::size_t CompileCache::capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void CompileCache::setCapacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (sizeLocked() > capacity_) {
    evictLRULocked();
  }
}

void CompileCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_ = {};
  tick_ = 0;
}

CompileCache& CompileCache::global() {
  static CompileCache instance;
  return instance;
}

} // namespace qirkit::vm
