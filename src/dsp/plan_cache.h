// Process-wide cache of immutable, precomputed DSP tables ("plans"): FFT
// plans keyed by size, the moving-DFT phasor tables keyed by window and bin
// range.
//
// Two levels: a thread-local pointer map so steady-state lookups touch no
// shared state at all, over a shared_mutex-guarded global map. Plans are
// never evicted, so the cached pointers stay valid for the process lifetime.
// One template per (Plan, Key) keeps the locking-sensitive code in exactly
// one place.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace aqua::dsp {

/// The plan built as `Plan(key)` on first sight of `key` (under the write
/// lock), then served from the cache. Plan construction may throw; the
/// cache is then unchanged, so the next lookup throws again.
template <typename Plan, typename Key, typename Hash = std::hash<Key>>
// lint: hot-alloc-ok(two-level plan cache: allocates only on first sight of a key, then serves lock-free thread-local hits)
const Plan& cached_plan_of(const Key& key) {
  thread_local std::unordered_map<Key, const Plan*, Hash> local;
  if (const auto it = local.find(key); it != local.end()) return *it->second;

  static std::shared_mutex mu;
  static std::unordered_map<Key, std::unique_ptr<Plan>, Hash>* global =
      // lint: alloc-ok(intentionally leaked process-lifetime cache; sidesteps static-destruction order races with worker threads)
      new std::unordered_map<Key, std::unique_ptr<Plan>, Hash>();
  {
    std::shared_lock<std::shared_mutex> read(mu);
    if (const auto it = global->find(key); it != global->end()) {
      local.emplace(key, it->second.get());
      return *it->second;
    }
  }
  std::unique_lock<std::shared_mutex> write(mu);
  auto it = global->find(key);
  if (it == global->end()) {
    // Construct before inserting: if the plan constructor throws, the map
    // must stay unchanged so the next lookup throws again instead of
    // finding a null entry.
    // lint: alloc-ok(plan built once per key under the write lock)
    auto plan = std::make_unique<Plan>(key);
    it = global->emplace(key, std::move(plan)).first;
  }
  local.emplace(key, it->second.get());
  return *it->second;
}

}  // namespace aqua::dsp
