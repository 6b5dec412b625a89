// Scenario-sweep engine: scenario configs and labels, deterministic chunked
// batch execution, thread-count invariance of the sweep, and the contract
// of the worker pool it runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "channel/shard_pool.h"
#include "dsp/fft_filter.h"
#include "dsp/fir.h"
#include "sim/runner.h"
#include "sim/sweep.h"

namespace aqua::sim {
namespace {

bool stats_equal(const BatchStats& a, const BatchStats& b) {
  return a.sent == b.sent && a.preamble_detected == b.preamble_detected &&
         a.feedback_ok == b.feedback_ok && a.delivered == b.delivered &&
         a.feedback_exact == b.feedback_exact && a.bitrates == b.bitrates &&
         a.coded_errors == b.coded_errors && a.coded_bits == b.coded_bits &&
         a.samples == b.samples;
}

TEST(Scenario, SessionConfigAppliesAxes) {
  Scenario s;
  s.site = channel::Site::kLake;
  s.range_m = 17.0;
  s.snr_offset_db = 6.0;
  s.motion = channel::MotionKind::kSlow;
  s.fixed_band = phy::BandSelection{0, 9, false};
  const core::SessionConfig cfg = session_config(s);
  EXPECT_EQ(cfg.forward.site.site, channel::Site::kLake);
  EXPECT_DOUBLE_EQ(cfg.forward.range_m, 17.0);
  EXPECT_EQ(cfg.forward.motion, channel::MotionKind::kSlow);
  ASSERT_TRUE(cfg.fixed_band.has_value());
  EXPECT_EQ(cfg.fixed_band->end_bin, 9u);
  // +6 dB SNR == site noise lowered by 6 dB.
  const double reference = channel::site_preset(channel::Site::kLake).noise.level_db;
  EXPECT_DOUBLE_EQ(cfg.forward.site.noise.level_db, reference - 6.0);
}

TEST(Scenario, LabelNamesEveryNonDefaultAxis) {
  Scenario s;
  s.site = channel::Site::kLake;
  s.range_m = 20.0;
  s.snr_offset_db = -6.0;
  s.motion = channel::MotionKind::kFast;
  s.scheme = "fixed 0.5 kHz";
  const std::string label = scenario_label(s);
  EXPECT_NE(label.find("20m"), std::string::npos);
  EXPECT_NE(label.find("snr-6dB"), std::string::npos);
  EXPECT_NE(label.find("fast"), std::string::npos);
  EXPECT_NE(label.find("fixed 0.5 kHz"), std::string::npos);
}

TEST(RunPacketRange, ChunksMergeToTheFullBatch) {
  dsp::Workspace ws;
  core::SessionConfig cfg;
  cfg.forward.site = channel::site_preset(channel::Site::kBridge);
  cfg.forward.range_m = 5.0;
  const std::uint64_t seed = 424242;

  const BatchStats whole = run_packet_range(cfg, 0, 4, seed, 16, ws);
  BatchStats merged = run_packet_range(cfg, 0, 1, seed, 16, ws);
  merged.merge(run_packet_range(cfg, 1, 3, seed, 16, ws));
  merged.merge(run_packet_range(cfg, 3, 4, seed, 16, ws));

  EXPECT_EQ(whole.sent, 4);
  EXPECT_TRUE(stats_equal(whole, merged));
}

TEST(SweepRunner, ParallelForVisitsEveryItemOnce) {
  const SweepRunner runner(RunnerOptions{.threads = 4});
  constexpr std::size_t kItems = 203;
  std::vector<std::atomic<int>> visits(kItems);
  runner.parallel_for(kItems, [&](std::size_t i, std::mt19937_64&,
                                   dsp::Workspace&) {
    visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(SweepRunner, ItemRngDependsOnIndexNotWorker) {
  std::vector<std::uint64_t> serial(16), pooled(16);
  SweepRunner one(RunnerOptions{.threads = 1});
  one.parallel_for(16, [&](std::size_t i, std::mt19937_64& rng,
                           dsp::Workspace&) {
    serial[i] = rng();
  }, /*seed_base=*/7);
  SweepRunner eight(RunnerOptions{.threads = 8});
  eight.parallel_for(16, [&](std::size_t i, std::mt19937_64& rng,
                             dsp::Workspace&) {
    pooled[i] = rng();
  }, /*seed_base=*/7);
  EXPECT_EQ(serial, pooled);
  // Distinct items get distinct streams.
  EXPECT_NE(serial[0], serial[1]);
}

TEST(SweepRunner, PerWorkerWorkspacesAreThreadCountInvariant) {
  // Each item runs real DSP through the worker's private arena; since every
  // lease is fully overwritten, the output must be bit-identical no matter
  // which worker (and therefore which recycled buffers) served the item.
  const auto run_with = [](int threads) {
    std::vector<double> peaks(24, 0.0);
    SweepRunner runner(RunnerOptions{.threads = threads});
    runner.parallel_for(
        peaks.size(),
        [&](std::size_t i, std::mt19937_64& rng, dsp::Workspace& ws) {
          std::normal_distribution<double> g(0.0, 1.0);
          std::vector<double> x(3000 + 17 * i);
          for (auto& v : x) v = g(rng);
          const dsp::FftFilter filt(
              dsp::design_bandpass(1000.0, 4000.0, 48000.0, 129));
          const std::vector<double> y = filt.filter_same(x, ws);
          peaks[i] = *std::max_element(y.begin(), y.end());
        },
        /*seed_base=*/77);
    return peaks;
  };
  const std::vector<double> serial = run_with(1);
  const std::vector<double> pooled = run_with(8);
  EXPECT_EQ(serial, pooled);  // bit-identical, not just approximately equal
}

TEST(SweepRunner, PropagatesTheFirstWorkerException) {
  const SweepRunner runner(RunnerOptions{.threads = 4});
  EXPECT_THROW(
      runner.parallel_for(32, [](std::size_t i, std::mt19937_64&,
                                 dsp::Workspace&) {
        if (i == 13) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ShardPool, RethrowsOnlyAfterEveryWorkerReturnedThenRunsAgain) {
  channel::ShardPool pool(4);
  ASSERT_EQ(pool.workers(), 4);
  std::vector<std::atomic<int>> finished(4);
  std::atomic<bool> thrown{false};
  EXPECT_THROW(pool.run([&](int w) {
                 if (w == 2) {
                   thrown.store(true);
                   throw std::runtime_error("worker 2");
                 }
                 if (w == 0) {
                   // The caller returns right after the throw; workers 1
                   // and 3 outlast it, so an early rethrow would see them
                   // unfinished.
                   while (!thrown.load()) std::this_thread::yield();
                 } else {
                   std::this_thread::sleep_for(std::chrono::milliseconds(100));
                 }
                 finished[static_cast<std::size_t>(w)].store(1);
               }),
               std::runtime_error);
  for (const int w : {0, 1, 3}) {
    EXPECT_EQ(finished[static_cast<std::size_t>(w)].load(), 1) << "worker " << w;
  }

  // The failed epoch leaves the pool usable: the next run visits every
  // worker index exactly once.
  std::vector<std::atomic<int>> visits(4);
  pool.run([&](int w) { visits[static_cast<std::size_t>(w)].fetch_add(1); });
  for (std::size_t w = 0; w < visits.size(); ++w) {
    EXPECT_EQ(visits[w].load(), 1) << "worker " << w;
  }
}

TEST(ShardPool, SingleWorkerRunsOnTheCallingThread) {
  EXPECT_EQ(channel::ShardPool(0).workers(), 1);
  channel::ShardPool pool(1);
  int calls = 0;
  std::thread::id ran_on;
  pool.run([&](int w) {
    EXPECT_EQ(w, 0);
    ran_on = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(SweepRunner, AggregateStatsAreThreadCountInvariant) {
  std::vector<Scenario> scenarios(2);
  scenarios[1].site = channel::Site::kLake;
  constexpr int kPackets = 3;
  constexpr std::uint64_t kSeed = 9000;

  const auto results_with = [&](int threads) {
    RunnerOptions opts;
    opts.threads = threads;
    opts.chunk_packets = 1;
    return SweepRunner(opts).run(scenarios, kPackets, kSeed);
  };
  const std::vector<ScenarioResult> serial = results_with(1);
  const std::vector<ScenarioResult> pooled = results_with(8);

  ASSERT_EQ(serial.size(), scenarios.size());
  ASSERT_EQ(pooled.size(), scenarios.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].stats.sent, kPackets);
    EXPECT_TRUE(stats_equal(serial[i].stats, pooled[i].stats))
        << "scenario " << scenario_label(serial[i].scenario);
  }
  // The bridge link at 5 m is the paper's easiest setting; the sweep should
  // actually deliver packets there, not just agree on zeros.
  EXPECT_GT(serial[0].stats.delivered, 0);
}

TEST(SweepRunner, RunPointsIsOneSerialBatchPerPoint) {
  // Point k's stats are one serial run_packet_range over [0, packets) of
  // its config and seed, whatever the chunking; run() is run_points() over
  // the scenarios' configs, seeded seed_base + k * 7919.
  std::vector<Scenario> scenarios(2);
  scenarios[1].site = channel::Site::kLake;
  scenarios[1].fixed_band = phy::BandSelection{0, 29, false};
  scenarios[1].scheme = "fixed";
  constexpr int kPackets = 3;
  constexpr std::uint64_t kSeed = 777;
  std::vector<SweepPoint> points;
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    points.push_back({scenario_label(scenarios[k]),
                      session_config(scenarios[k]), kSeed + k * 7919});
  }
  const SweepRunner runner(RunnerOptions{.threads = 2, .chunk_packets = 2});
  const std::vector<BatchStats> pooled = runner.run_points(points, kPackets);
  const std::vector<ScenarioResult> adapted =
      runner.run(scenarios, kPackets, kSeed);
  ASSERT_EQ(pooled.size(), points.size());
  ASSERT_EQ(adapted.size(), points.size());
  dsp::Workspace ws;
  for (std::size_t k = 0; k < points.size(); ++k) {
    const BatchStats serial = run_packet_range(points[k].config, 0, kPackets,
                                               points[k].seed, 16, ws);
    EXPECT_EQ(pooled[k].sent, kPackets);
    EXPECT_TRUE(stats_equal(pooled[k], serial)) << points[k].label;
    EXPECT_TRUE(stats_equal(adapted[k].stats, serial)) << points[k].label;
    EXPECT_EQ(adapted[k].scenario.scheme, scenarios[k].scheme);
  }
}

}  // namespace
}  // namespace aqua::sim
