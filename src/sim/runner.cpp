#include "sim/runner.h"

#include <algorithm>
#include <atomic>
#include <optional>
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

std::vector<BatchStats> SweepRunner::run_points(
    const std::vector<SweepPoint>& points, int packets,
    std::size_t payload_bits) const {
  struct Chunk {
    std::size_t point;
    int begin;
    int end;
  };
  std::vector<Chunk> chunks;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (int b = 0; b < packets; b += chunk_packets_) {
      chunks.push_back({p, b, std::min(packets, b + chunk_packets_)});
    }
  }

  // One slot per chunk; workers never share a slot.
  std::vector<BatchStats> partial(chunks.size());
  parallel_for(
      chunks.size(),
      [&](std::size_t i, std::mt19937_64&, dsp::Workspace& ws) {
        const Chunk& c = chunks[i];
        const SweepPoint& point = points[c.point];
        // A requested capture matches exactly one chunk; the sink lives
        // entirely on this worker for that one item.
        std::optional<obs::TraceCapture> capture;
        PacketHooks hooks;
        if (capture_ && capture_->scenario == c.point &&
            capture_->packet >= c.begin && capture_->packet < c.end) {
          capture.emplace();
          capture->meta("scenario", point.label);
          capture->meta("seed_base", std::to_string(point.seed));
          capture->meta("packet", std::to_string(capture_->packet));
          capture->meta("payload_bits", std::to_string(payload_bits));
          hooks.sink = &*capture;
          hooks.sink_packet = capture_->packet;
        }
        partial[i] = run_packet_range(point.config, c.begin, c.end, point.seed,
                                      payload_bits, ws, hooks);
        if (capture) capture->save(capture_->path);
      });

  std::vector<BatchStats> results(points.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    results[chunks[i].point].merge(partial[i]);
  }
  return results;
}

std::vector<ScenarioResult> SweepRunner::run(const std::vector<Scenario>& grid,
                                             int packets,
                                             std::uint64_t seed_base,
                                             std::size_t payload_bits) const {
  std::vector<SweepPoint> points;
  points.reserve(grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    points.push_back({scenario_label(grid[k]), session_config(grid[k]),
                      seed_base + k * 7919});
  }
  std::vector<BatchStats> stats = run_points(points, packets, payload_bits);
  std::vector<ScenarioResult> results(grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    results[k] = {grid[k], std::move(stats[k])};
  }
  return results;
}

}  // namespace aqua::sim
