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
// run() applies this to a ScenarioGrid: each scenario's packet batch is cut
// into fixed-size chunks, the chunks execute anywhere in the pool, and the
// partial BatchStats merge back in chunk order.
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

/// Capture one packet of one run() grid point into a .aqt trace (obs/).
/// A packet lives in exactly one work-item chunk, so the capture sink is
/// created and used entirely inside that chunk's worker callback — no
/// cross-thread sharing, and enabling a capture never perturbs the sweep's
/// deterministic statistics.
struct SweepCapture {
  std::string path;          ///< output .aqt file
  std::size_t scenario = 0;  ///< index into the expanded grid
  int packet = 0;            ///< packet index within the scenario batch
};

/// Worker-pool configuration.
struct RunnerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int threads = 0;
  /// Packets per work item when chunking a scenario batch.
  int chunk_packets = 4;
  /// Optional single-packet trace capture during run().
  std::optional<SweepCapture> capture = std::nullopt;
};

/// Aggregate result for one grid point.
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

  /// Runs `packets` packets for every scenario in `grid`, chunked across
  /// the pool. Scenario k uses seed_base + k * 7919 for its packet batch.
  /// Aggregate stats are bit-identical for any thread count.
  std::vector<ScenarioResult> run(const std::vector<Scenario>& grid,
                                  int packets, std::uint64_t seed_base,
                                  std::size_t payload_bits = 16) const;

 private:
  int threads_ = 1;
  int chunk_packets_ = 4;
  std::optional<SweepCapture> capture_;
};

}  // namespace aqua::sim
