#include "vm/cache.hpp"

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/string_utils.hpp"
#include "support/telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdio>

namespace qirkit::vm {

namespace {

telemetry::Counter g_cacheHits{"vm.cache.hits"};
telemetry::Counter g_cacheMisses{"vm.cache.misses"};
telemetry::Counter g_cacheEvictions{"vm.cache.evictions"};
telemetry::Counter g_cacheCoalesced{"vm.cache.coalesced"};

} // namespace

CompileCache::CompileCache(Loader loader, std::size_t capacity)
    : loader_(std::move(loader)), capacity_(std::max<std::size_t>(capacity, 1)) {
  if (!loader_) {
    loader_ = [](ir::Context& context, std::string_view text) {
      return ir::parseModule(context, text);
    };
  }
}

CompileCache::Lookup CompileCache::getOrLoad(std::string_view source,
                                             const CompileOptions& options) {
  fault::probe(fault::Site::CompileCache);
  const std::uint64_t hash = fnv1a(source);

  std::promise<std::shared_ptr<const Program>> promise;
  std::shared_future<std::shared_ptr<const Program>> joined;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(hash);
    if (it != entries_.end()) {
      for (Entry& entry : it->second) {
        if (entry.options == options && entry.program->source == source) {
          ++stats_.hits;
          g_cacheHits.add();
          entry.lastUse = ++tick_;
          return {entry.program, "hit"};
        }
      }
    }
    // Single-flight: join a load already in progress for this key rather
    // than duplicating it.
    const auto flights = inflight_.find(hash);
    if (flights != inflight_.end()) {
      for (const InFlight& flight : flights->second) {
        if (flight.options == options && flight.source == source) {
          ++stats_.coalesced;
          g_cacheCoalesced.add();
          joined = flight.future;
          break;
        }
      }
    }
    if (!joined.valid()) {
      inflight_[hash].push_back(
          InFlight{source, options, promise.get_future().share()});
    }
  }
  if (joined.valid()) {
    // Blocks until the owning thread finishes; rethrows its load error,
    // mirroring what loading ourselves would have raised.
    return {joined.get(), "coalesced"};
  }

  // Load, compile and analyse outside the lock — this may be slow; the
  // in-flight registration above keeps it from ever running twice.
  auto program = std::make_shared<Program>();
  try {
    char id[17];
    std::snprintf(id, sizeof(id), "%016llx",
                  static_cast<unsigned long long>(hash));
    program->id = id;
    program->source = source;
    program->context = std::make_unique<ir::Context>();
    program->module = loader_(*program->context, program->source);
    try {
      program->bytecode = compileModule(*program->module, options);
    } catch (...) {
      program->compileError = std::current_exception();
    }
    program->analysis = analyzeShotProfile(*program->module);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      endFlightLocked(hash, source, options);
    }
    // Wake the joiners with the same failure; nothing is stored, so the
    // next request loads again.
    promise.set_exception(std::current_exception());
    throw;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    endFlightLocked(hash, source, options);
    ++stats_.misses;
    g_cacheMisses.add();
    while (sizeLocked() >= capacity_) {
      evictLRULocked();
    }
    entries_[hash].push_back(Entry{program, options, ++tick_});
  }
  promise.set_value(program);
  return {program, "miss"};
}

std::shared_ptr<const Program> CompileCache::find(std::string_view id,
                                                  const CompileOptions& options) {
  fault::probe(fault::Site::CompileCache);
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry* found = nullptr;
  for (auto& [hash, chain] : entries_) {
    for (Entry& entry : chain) {
      if (entry.options != options || entry.program->id != id) {
        continue;
      }
      if (found != nullptr) {
        throw qirkit::Error(ErrorCode::Usage,
                            "program_ref '" + std::string(id) +
                                "' is ambiguous: several resident programs "
                                "share it; resubmit the program text");
      }
      found = &entry;
    }
  }
  if (found == nullptr) {
    return nullptr;
  }
  ++stats_.hits;
  g_cacheHits.add();
  found->lastUse = ++tick_;
  return found->program;
}

std::shared_ptr<const BytecodeModule>
CompileCache::getOrCompile(const ir::Module& module, const CompileOptions& options) {
  const std::shared_ptr<const Program> program =
      getOrLoad(ir::printModule(module), options).program;
  if (program->compileError) {
    std::rethrow_exception(program->compileError);
  }
  return program->bytecode;
}

void CompileCache::endFlightLocked(std::uint64_t hash, std::string_view source,
                                   const CompileOptions& options) {
  auto& flights = inflight_[hash];
  std::erase_if(flights, [&](const InFlight& f) {
    return f.options == options && f.source == source;
  });
  if (flights.empty()) {
    inflight_.erase(hash);
  }
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

CompileCache& CompileCache::global() {
  static CompileCache instance;
  return instance;
}

} // namespace qirkit::vm
