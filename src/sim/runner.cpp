#include "sim/runner.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "channel/shard_pool.h"
#include "obs/trace.h"

namespace aqua::sim {

SweepRunner::SweepRunner(const RunnerOptions& options) {
  threads_ = options.threads > 0
                 ? options.threads
                 : static_cast<int>(std::thread::hardware_concurrency());
  if (threads_ < 1) threads_ = 1;
  chunk_packets_ = std::max(1, options.chunk_packets);
  capture_ = options.capture;
}

void SweepRunner::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::mt19937_64&, dsp::Workspace&)>&
        fn,
    std::uint64_t seed_base) const {
  const auto item_seed = [seed_base](std::size_t i) {
    // splitmix64-style stir keeps neighbouring item streams uncorrelated.
    std::uint64_t z = seed_base + 0x9e3779b97f4a7c15ULL *
                                      (static_cast<std::uint64_t>(i) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };

  channel::ShardPool pool(static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads_), n)));
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  pool.run([&](int w) {
    std::mt19937_64 rng;  // this worker's stream, re-seeded per item
    dsp::Workspace& ws = pool.workspace(w);
    // Stop claiming new items once any item has thrown; the remaining
    // results would be discarded with the pool's rethrow anyway.
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      rng.seed(item_seed(i));
      try {
        fn(i, rng, ws);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  });
}

std::vector<ScenarioResult> SweepRunner::run(const std::vector<Scenario>& grid,
                                             int packets,
                                             std::uint64_t seed_base,
                                             std::size_t payload_bits) const {
  struct Chunk {
    std::size_t scenario;
    int begin;
    int end;
  };
  std::vector<Chunk> chunks;
  for (std::size_t s = 0; s < grid.size(); ++s) {
    for (int b = 0; b < packets; b += chunk_packets_) {
      chunks.push_back({s, b, std::min(packets, b + chunk_packets_)});
    }
  }

  // One slot per chunk; workers never share a slot.
  std::vector<BatchStats> partial(chunks.size());
  std::vector<core::SessionConfig> configs;
  configs.reserve(grid.size());
  for (const Scenario& s : grid) configs.push_back(session_config(s));

  parallel_for(
      chunks.size(),
      [&](std::size_t i, std::mt19937_64&, dsp::Workspace& ws) {
        const Chunk& c = chunks[i];
        const std::uint64_t chunk_seed = seed_base + c.scenario * 7919;
        // A requested capture matches exactly one chunk; the sink lives
        // entirely on this worker for that one item.
        const bool capturing = capture_ && capture_->scenario == c.scenario &&
                               capture_->packet >= c.begin &&
                               capture_->packet < c.end;
        if (!capturing) {
          partial[i] = run_packet_range(configs[c.scenario], c.begin, c.end,
                                        chunk_seed, payload_bits, ws);
          return;
        }
        obs::TraceCapture capture;
        capture.meta("scenario", scenario_label(grid[c.scenario]));
        capture.meta("seed_base", std::to_string(chunk_seed));
        capture.meta("packet", std::to_string(capture_->packet));
        capture.meta("payload_bits", std::to_string(payload_bits));
        PacketHooks hooks;
        hooks.sink = &capture;
        hooks.sink_packet = capture_->packet;
        partial[i] = run_packet_range(configs[c.scenario], c.begin, c.end,
                                      chunk_seed, payload_bits, ws, hooks);
        capture.save(capture_->path);
      },
      seed_base);

  std::vector<ScenarioResult> results(grid.size());
  for (std::size_t s = 0; s < grid.size(); ++s) results[s].scenario = grid[s];
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    results[chunks[i].scenario].stats.merge(partial[i]);
  }
  return results;
}

}  // namespace aqua::sim
