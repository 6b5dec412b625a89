// Thread-pooled scenario-sweep engine.
//
// SweepRunner fans work items out across a channel::ShardPool sized for
// each call. The contract that keeps results bit-identical for any thread
// count:
//
//   * every work item is self-seeding — its randomness derives from the
//     item index (via the per-worker RNG stream handed to the callback,
//     re-seeded deterministically per item), never from which worker runs
//     it or in what order;
//   * items write only to their own pre-allocated result slot;
//   * aggregation walks the slots in item order after the pool drains.
//
// run_points() applies this to a list of sweep points: each point's packet
// batch is cut into fixed-size chunks, the chunks execute anywhere in the
// pool, and the partial BatchStats merge back in chunk order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "dsp/workspace.h"
#include "sim/sweep.h"

namespace aqua::sim {

/// Capture one packet of one sweep point into a .aqt trace (obs/).
/// A packet lives in exactly one work-item chunk, so the capture sink is
/// created and used entirely inside that chunk's worker callback — no
/// cross-thread sharing, and enabling a capture never perturbs the sweep's
/// deterministic statistics.
struct SweepCapture {
  std::string path;          ///< output .aqt file
  std::size_t scenario = 0;  ///< index into the run's point list
  int packet = 0;            ///< packet index within the point's batch
};

/// Worker-pool configuration.
struct RunnerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int threads = 0;
  /// Packets per work item when chunking a point's batch.
  int chunk_packets = 4;
  /// Optional single-packet trace capture during a run.
  std::optional<SweepCapture> capture = std::nullopt;
};

/// One packet batch of a sweep: packets [0, n) of `config`, seeded from
/// `seed` (run_packet_range's seed_base). `label` names the point in tables
/// and in a capture's metadata.
struct SweepPoint {
  std::string label;
  core::SessionConfig config;
  std::uint64_t seed = 0;
};

/// Aggregate result for one Scenario of run().
struct ScenarioResult {
  Scenario scenario;
  BatchStats stats;
};

class SweepRunner {
 public:
  explicit SweepRunner(const RunnerOptions& options = {});

  /// Resolved worker count (>= 1).
  int threads() const { return threads_; }

  /// Deterministic parallel for: invokes fn(i, rng, ws) exactly once for
  /// every i in [0, n), distributed over a pool of min(threads(), n)
  /// workers that claim items one at a time. `rng` is the calling
  /// worker's RNG stream, re-seeded from (seed_base, i) before the call so
  /// output depends only on the item index. `ws` is the calling worker's
  /// private scratch arena — its buffers persist across that worker's
  /// items (capacity reuse) but every item fully overwrites what it reads,
  /// so results stay independent of the item-to-worker assignment. fn must
  /// only touch state owned by item i. Once an item throws, workers stop
  /// claiming items, and the exception is rethrown here after every
  /// worker has stopped.
  void parallel_for(
      std::size_t n,
      const std::function<void(std::size_t, std::mt19937_64&,
                               dsp::Workspace&)>& fn,
      std::uint64_t seed_base = 0) const;

  /// Runs `packets` packets of every point, chunked across the pool.
  /// Result k is run_packet_range(points[k].config, 0, packets,
  /// points[k].seed, payload_bits) bit for bit, for any thread count and
  /// chunk size.
  std::vector<BatchStats> run_points(const std::vector<SweepPoint>& points,
                                     int packets,
                                     std::size_t payload_bits = 16) const;

  /// run_points() over `grid`: scenario k runs session_config(grid[k])
  /// seeded from seed_base + k * 7919, labelled scenario_label(grid[k]).
  std::vector<ScenarioResult> run(const std::vector<Scenario>& grid,
                                  int packets, std::uint64_t seed_base,
                                  std::size_t payload_bits = 16) const;

 private:
  int threads_ = 1;
  int chunk_packets_ = 4;
  std::optional<SweepCapture> capture_;
};

}  // namespace aqua::sim
