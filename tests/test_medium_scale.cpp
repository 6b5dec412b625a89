// Property suite for the sharded AcousticMedium (randomized seeded
// topologies):
//  - the mixed microphone streams are bit-identical for 1/2/8 workers,
//  - audibility culling changes no decoded event at small N (the cull
//    bound is conservative: everything it removes was below the floor),
//  - mixing is invariant to endpoint attach order and connect order
//    (canonical per-mic accumulation keyed on stable ids),
//  - per-mic noise seeds are a pure function of the node id, never of the
//    attach sequence or the deployment size (regression for the old
//    attach-order-derived seeding).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <random>
#include <vector>

#include "channel/audibility.h"
#include "channel/channel.h"
#include "channel/environment.h"
#include "channel/medium.h"
#include "mac/netsim.h"

namespace aqua {
namespace {

constexpr double kFs = 48000.0;
constexpr std::size_t kBlock = 480;

// Runs one seeded line topology (irregular spacing, every ordered pair
// connected) for `blocks` blocks and returns each endpoint's microphone
// stream keyed by STABLE id. `order` is the attach/connect order — the
// returned streams must not depend on it.
std::vector<std::vector<double>> run_topology(int workers, int n,
                                              std::uint64_t seed, bool cull,
                                              const std::vector<int>& order,
                                              std::size_t blocks) {
  const channel::SitePreset site = channel::site_preset(channel::Site::kBridge);
  channel::MediumConfig mc;
  mc.workers = workers;
  mc.cull_enabled = cull;
  channel::AcousticMedium medium(kFs, mc);

  // Positions are a pure function of (seed, stable id).
  std::mt19937_64 topo_rng(seed);
  std::uniform_real_distribution<double> gap(3.0, 9.0);
  std::vector<double> x(static_cast<std::size_t>(n));
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = acc;
    acc += gap(topo_rng);
  }

  std::vector<int> idx_of(static_cast<std::size_t>(n), -1);
  for (const int id : order) {
    idx_of[static_cast<std::size_t>(id)] = medium.add_endpoint(
        site.noise, channel::mic_noise_seed(seed, id), /*stable_id=*/id);
  }
  for (const int a : order) {
    for (const int b : order) {
      if (a == b) continue;
      channel::LinkConfig lc;
      lc.site = site;
      lc.range_m = std::max(
          0.5, std::abs(x[static_cast<std::size_t>(a)] -
                        x[static_cast<std::size_t>(b)]));
      lc.sample_rate_hz = kFs;
      lc.seed = seed * 131 + static_cast<std::uint64_t>(a) *
                                 static_cast<std::uint64_t>(n) +
                static_cast<std::uint64_t>(b);
      medium.connect(idx_of[static_cast<std::size_t>(a)],
                     idx_of[static_cast<std::size_t>(b)], lc);
    }
  }

  // Speaker waveforms are a pure function of (seed, stable id) too.
  std::vector<std::mt19937_64> tx_rng;
  for (int i = 0; i < n; ++i) {
    tx_rng.emplace_back(seed ^ (0x51ED2700ULL + static_cast<std::uint64_t>(i)));
  }
  std::uniform_real_distribution<double> amp(-0.5, 0.5);

  std::vector<std::vector<double>> tx(static_cast<std::size_t>(n),
                                      std::vector<double>(kBlock));
  std::vector<std::span<const double>> tx_spans;
  for (const auto& t : tx) tx_spans.emplace_back(t);
  std::vector<std::vector<double>> rx;
  std::vector<std::vector<double>> out(static_cast<std::size_t>(n));
  dsp::Workspace ws;

  for (std::size_t b = 0; b < blocks; ++b) {
    for (int id = 0; id < n; ++id) {
      auto& block = tx[static_cast<std::size_t>(idx_of[static_cast<std::size_t>(id)])];
      for (auto& v : block) v = amp(tx_rng[static_cast<std::size_t>(id)]);
    }
    medium.step(tx_spans, rx, ws);
    for (int id = 0; id < n; ++id) {
      const auto& mic = rx[static_cast<std::size_t>(idx_of[static_cast<std::size_t>(id)])];
      auto& o = out[static_cast<std::size_t>(id)];
      o.insert(o.end(), mic.begin(), mic.end());
    }
  }
  return out;
}

std::vector<int> identity_order(int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  return order;
}

TEST(MediumScale, MixBitIdenticalAcrossWorkerCounts) {
  for (const std::uint64_t seed : {5ULL, 77ULL}) {
    const int n = 5;
    const auto order = identity_order(n);
    const auto w1 = run_topology(1, n, seed, /*cull=*/false, order, 25);
    const auto w2 = run_topology(2, n, seed, /*cull=*/false, order, 25);
    const auto w8 = run_topology(8, n, seed, /*cull=*/false, order, 25);
    EXPECT_EQ(w1, w2) << "seed " << seed;
    EXPECT_EQ(w1, w8) << "seed " << seed;
  }
}

TEST(MediumScale, MixBitIdenticalAcrossWorkerCountsWithCulling) {
  const int n = 4;
  const auto order = identity_order(n);
  const auto w1 = run_topology(1, n, 9, /*cull=*/true, order, 25);
  const auto w8 = run_topology(8, n, 9, /*cull=*/true, order, 25);
  EXPECT_EQ(w1, w8);
}

TEST(MediumScale, MixInvariantToAttachOrder) {
  const int n = 5;
  const std::uint64_t seed = 23;
  const auto forward = run_topology(2, n, seed, /*cull=*/false,
                                    identity_order(n), 20);
  const auto reversed = run_topology(2, n, seed, /*cull=*/false,
                                     {4, 3, 2, 1, 0}, 20);
  const auto shuffled = run_topology(2, n, seed, /*cull=*/false,
                                     {2, 0, 4, 1, 3}, 20);
  EXPECT_EQ(forward, reversed);
  EXPECT_EQ(forward, shuffled);
}

TEST(MediumScale, MicNoiseSeedIsPureFunctionOfNodeId) {
  // The seed depends on (base seed, node id) only: no collisions across a
  // deployment, stable across calls.
  EXPECT_EQ(channel::mic_noise_seed(7, 3), channel::mic_noise_seed(7, 3));
  EXPECT_NE(channel::mic_noise_seed(7, 0), channel::mic_noise_seed(7, 1));
  EXPECT_NE(channel::mic_noise_seed(7, 0), channel::mic_noise_seed(8, 0));

  // A node hears the same ocean in a 3-node deployment attached in order
  // and in a 5-node deployment attached backwards: the ambient process is
  // keyed on the stable id, never on the attach sequence or the network
  // size (the old seeding derived from attach order).
  const channel::SitePreset site = channel::site_preset(channel::Site::kBridge);
  const std::uint64_t base = 42;
  const auto ambient = [&](int n, const std::vector<int>& order) {
    channel::AcousticMedium medium(kFs);
    std::vector<int> idx_of(static_cast<std::size_t>(n), -1);
    for (const int id : order) {
      idx_of[static_cast<std::size_t>(id)] = medium.add_endpoint(
          site.noise, channel::mic_noise_seed(base, id), id);
    }
    std::vector<std::vector<double>> tx(static_cast<std::size_t>(n),
                                        std::vector<double>(kBlock, 0.0));
    std::vector<std::span<const double>> tx_spans;
    for (const auto& t : tx) tx_spans.emplace_back(t);
    std::vector<std::vector<double>> rx;
    dsp::Workspace ws;
    std::vector<std::vector<double>> out(static_cast<std::size_t>(n));
    for (int b = 0; b < 10; ++b) {
      medium.step(tx_spans, rx, ws);
      for (int id = 0; id < n; ++id) {
        const auto& mic = rx[static_cast<std::size_t>(idx_of[static_cast<std::size_t>(id)])];
        auto& o = out[static_cast<std::size_t>(id)];
        o.insert(o.end(), mic.begin(), mic.end());
      }
    }
    return out;
  };
  const auto small = ambient(3, {0, 1, 2});
  const auto large = ambient(5, {4, 3, 2, 1, 0});
  for (int id = 0; id < 3; ++id) {
    EXPECT_EQ(small[static_cast<std::size_t>(id)],
              large[static_cast<std::size_t>(id)])
        << "node " << id;
  }
}

// Event equality up to floating-point detector metrics: culling removes
// sub-floor contributions, so waveforms differ in the low bits but every
// protocol decision must land on the same sample.
void expect_same_events(
    const std::vector<std::vector<core::ModemEvent>>& a,
    const std::vector<std::vector<core::ModemEvent>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) {
    ASSERT_EQ(a[n].size(), b[n].size()) << "node " << n;
    for (std::size_t e = 0; e < a[n].size(); ++e) {
      const core::ModemEvent& x = a[n][e];
      const core::ModemEvent& y = b[n][e];
      EXPECT_EQ(x.type, y.type) << "node " << n << " event " << e;
      EXPECT_EQ(x.stream_pos, y.stream_pos) << "node " << n << " event " << e;
      EXPECT_EQ(x.payload_bits, y.payload_bits)
          << "node " << n << " event " << e;
      EXPECT_EQ(x.band.begin_bin, y.band.begin_bin);
      EXPECT_EQ(x.band.end_bin, y.band.end_bin);
      EXPECT_EQ(x.ack_received, y.ack_received);
    }
  }
}

TEST(MediumScale, CullingPreservesDecodedEventsAtSmallN) {
  // Two anchorage groups 8 km apart: in-group pairs carry the traffic,
  // cross-group pairs sit beyond the at-the-floor audibility horizon
  // (~7 km on the bridge site). Culling must retire the latter without
  // perturbing a single decoded event.
  mac::ModemNetworkConfig cfg;
  cfg.nodes = 12;
  cfg.site = channel::Site::kBridge;
  cfg.placement = mac::Placement::kHarbor;
  cfg.spacing_m = 5.0;
  cfg.seed = 17;
  // At-the-floor culling (skip pairs whose conservative bound is already
  // below the ambient floor). The margin choice is validated by exactly
  // this equivalence check, not by the default correlation-gain margin.
  cfg.cull_params.margin_db = 0.0;

  std::vector<std::uint8_t> payload(16);
  std::mt19937_64 rng(6);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng() & 1);

  std::vector<std::vector<core::ModemEvent>> unculled, culled;
  std::size_t connected = 0, audible = 0;
  {
    mac::ModemNetwork net(cfg);
    net.send(0, payload, 1);
    unculled = net.run(3.5);
  }
  {
    mac::ModemNetworkConfig on = cfg;
    on.cull = true;
    mac::ModemNetwork net(on);
    net.send(0, payload, 1);
    culled = net.run(3.5);
    connected = net.medium().connected_paths();
    audible = net.medium().audible_paths();
  }

  // The scenario must actually exercise the cull (cross-cluster pairs
  // retired) and the protocol (payload decoded) for the equivalence to
  // mean anything.
  EXPECT_LT(audible, connected);
  EXPECT_GT(audible, 0u);
  bool decoded = false;
  for (const core::ModemEvent& e : culled[1]) {
    if (e.type == core::ModemEvent::Type::kPacketDecoded) {
      decoded = true;
      EXPECT_EQ(e.payload_bits, payload);
    }
  }
  EXPECT_TRUE(decoded);
  expect_same_events(unculled, culled);
}

TEST(MediumScale, CullMetricsCountSkippedWork) {
  mac::ModemNetworkConfig cfg;
  cfg.nodes = 12;
  cfg.site = channel::Site::kBridge;
  cfg.placement = mac::Placement::kHarbor;
  cfg.spacing_m = 5.0;
  cfg.seed = 3;
  cfg.cull = true;
  cfg.cull_params.margin_db = 0.0;
  mac::ModemNetwork net(cfg);
  net.run(0.2);
  const obs::Registry m = net.medium().metrics();
  EXPECT_GT(m.counter("medium.cull_evals"), 0u);
  EXPECT_GT(m.counter("medium.culled_convolutions"), 0u);
  // Nobody transmits, so every audible path stays dormant: no stream is
  // opened and no block rendered.
  EXPECT_EQ(m.counter("medium.rendered_blocks"), 0u);
  EXPECT_GT(m.counter("medium.dormant_blocks"), 0u);
}

// One run of the dormancy scenario below: every block's mixed microphone
// samples and the medium's merged metrics.
struct DormancyRun {
  std::vector<std::vector<double>> mics;
  obs::Registry metrics;
  std::size_t audible = 0;
};

DormancyRun run_dormancy(int workers,
                         const std::vector<channel::LinkConfig>& links,
                         const std::vector<std::pair<int, int>>& pairs,
                         const std::vector<std::vector<double>>& speaker) {
  const channel::SitePreset site = channel::site_preset(channel::Site::kBridge);
  channel::MediumConfig mc;
  mc.workers = workers;
  mc.cull_enabled = true;
  mc.cull.margin_db = 0.0;
  channel::AcousticMedium medium(kFs, mc);
  const int n = static_cast<int>(speaker.size());
  for (int i = 0; i < n; ++i) {
    medium.add_endpoint(site.noise, channel::mic_noise_seed(5, i));
  }
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    medium.connect(pairs[k].first, pairs[k].second, links[k]);
  }
  DormancyRun run;
  run.mics.resize(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> rx;
  dsp::Workspace ws;
  for (std::size_t b = 0; b * kBlock < speaker[0].size(); ++b) {
    std::vector<std::span<const double>> tx;
    for (const auto& x : speaker) {
      tx.emplace_back(x.data() + b * kBlock, kBlock);
    }
    medium.step(tx, rx, ws);
    for (int i = 0; i < n; ++i) {
      auto& mic = run.mics[static_cast<std::size_t>(i)];
      mic.insert(mic.end(), rx[static_cast<std::size_t>(i)].begin(),
                 rx[static_cast<std::size_t>(i)].end());
    }
  }
  run.metrics = medium.metrics();
  run.audible = medium.audible_paths();
  return run;
}

TEST(MediumScale, DormantPathsFollowTheirSpeakersSchedule) {
  // Three endpoints a few metres apart on still water (no surface
  // roughness, so each path renders through one fixed response and its
  // drain bound is known before it renders). Endpoint 0 sends two bursts,
  // endpoint 1 one short one, endpoint 2 stays silent. A path must open
  // on its speaker's first non-zero block and close on the first block
  // that starts drain_samples() past the speaker's last non-zero sample.
  channel::SitePreset still = channel::site_preset(channel::Site::kBridge);
  still.surface_roughness = 0.0;
  std::vector<std::pair<int, int>> pairs;
  std::vector<channel::LinkConfig> links;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      channel::LinkConfig lc;
      lc.site = still;
      lc.sample_rate_hz = kFs;
      lc.range_m = 2.0 + a + b;
      lc.seed = static_cast<std::uint64_t>(10 + a * 3 + b);
      pairs.emplace_back(a, b);
      links.push_back(lc);
    }
  }
  const std::size_t blocks = 320;
  std::vector<std::vector<double>> speaker(3,
                                           std::vector<double>(blocks * kBlock));
  std::mt19937_64 rng(8);
  std::normal_distribution<double> g(0.0, 0.3);
  const auto burst = [&](int ep, std::size_t from, std::size_t len) {
    for (std::size_t i = from; i < from + len; ++i) {
      speaker[static_cast<std::size_t>(ep)][i] = g(rng);
    }
  };
  burst(0, 2 * kBlock, 1340);     // blocks 2-4, ends mid-block
  burst(0, 150 * kBlock + 37, 500);
  burst(1, 10 * kBlock + 200, 100);

  // Hand count: replay the open/close rule per path. A fixed-response
  // drain is ~1 s (~98 blocks), so endpoint 0's paths close between its
  // bursts and every path has closed again by the end.
  std::uint64_t rendered = 0;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    channel::LinkConfig quiet = links[k];
    quiet.noise_enabled = false;
    const channel::UnderwaterChannel ch(quiet);
    const std::size_t drain = ch.stream().drain_samples();
    const auto& x = speaker[static_cast<std::size_t>(pairs[k].first)];
    bool live = false;
    std::size_t last = 0;
    int opens = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      bool loud = false;
      for (std::size_t i = b * kBlock; i < (b + 1) * kBlock; ++i) {
        if (x[i] != 0.0) {
          loud = true;
          last = i;
        }
      }
      if (loud && !live) {
        live = true;
        ++opens;
      } else if (!loud && live && b * kBlock >= last + drain) {
        live = false;
      }
      if (live) ++rendered;
    }
    EXPECT_FALSE(live);
    EXPECT_EQ(opens, 2 - pairs[k].first) << pairs[k].first << "->"
                                         << pairs[k].second;
  }

  const DormancyRun w1 = run_dormancy(1, links, pairs, speaker);
  const DormancyRun w2 = run_dormancy(2, links, pairs, speaker);
  EXPECT_EQ(w1.audible, pairs.size());
  EXPECT_EQ(w1.metrics.counter("medium.rendered_blocks"), rendered);
  EXPECT_EQ(w1.metrics.counter("medium.dormant_blocks"),
            pairs.size() * blocks - rendered);
  EXPECT_EQ(w2.metrics.counter("medium.rendered_blocks"), rendered);
  EXPECT_EQ(w2.metrics.counter("medium.dormant_blocks"),
            pairs.size() * blocks - rendered);
  for (std::size_t m = 0; m < w1.mics.size(); ++m) {
    ASSERT_EQ(w1.mics[m].size(), w2.mics[m].size());
    EXPECT_EQ(std::memcmp(w1.mics[m].data(), w2.mics[m].data(),
                          w1.mics[m].size() * sizeof(double)),
              0)
        << "mic " << m;
  }
}

TEST(MediumScale, ReopenedPathContinuesItsRoughness) {
  // One culled path on a still link under Bridge's rough surface: its
  // path delays never change, only the surface bounce's amplitude, drawn
  // per block. The speaker sends the same burst twice, far enough apart
  // for the path to close in between. The second opening must continue
  // the roughness sequence, not restart it, so the two bursts arrive
  // through different surfaces.
  const channel::SitePreset site = channel::site_preset(channel::Site::kBridge);
  ASSERT_GT(site.surface_roughness, 0.0);
  channel::MediumConfig mc;
  mc.workers = 1;
  mc.cull_enabled = true;
  mc.cull.margin_db = 0.0;
  channel::AcousticMedium medium(kFs, mc);
  medium.add_endpoint(std::nullopt, channel::mic_noise_seed(3, 0));
  medium.add_endpoint(std::nullopt, channel::mic_noise_seed(3, 1));
  channel::LinkConfig lc;
  lc.site = site;
  lc.sample_rate_hz = kFs;
  lc.range_m = 4.0;
  lc.seed = 21;
  medium.connect(0, 1, lc);

  const std::size_t lead = 5;   // blocks before the first burst
  const std::size_t gap = 100;  // blocks between burst onsets (~1 s)
  std::vector<double> x((lead + 2 * gap) * kBlock, 0.0);
  std::mt19937_64 rng(4);
  std::normal_distribution<double> g(0.0, 0.3);
  std::vector<double> burst(1000);
  for (double& v : burst) v = g(rng);
  std::copy(burst.begin(), burst.end(), x.begin() + lead * kBlock);
  std::copy(burst.begin(), burst.end(), x.begin() + (lead + gap) * kBlock);

  const std::vector<double> silent(kBlock, 0.0);
  std::vector<double> mic;
  std::vector<std::vector<double>> rx;
  dsp::Workspace ws;
  for (std::size_t b = 0; b * kBlock < x.size(); ++b) {
    const std::vector<std::span<const double>> tx = {
        std::span<const double>(x.data() + b * kBlock, kBlock),
        std::span<const double>(silent)};
    medium.step(tx, rx, ws);
    mic.insert(mic.end(), rx[1].begin(), rx[1].end());
  }
  // Dormant before the first burst and again between the bursts.
  const obs::Registry m = medium.metrics();
  EXPECT_GT(m.counter("medium.dormant_blocks"), lead + 10);

  const std::size_t len = gap * kBlock;
  const std::span<const double> first(mic.data() + lead * kBlock, len);
  const std::span<const double> second(mic.data() + (lead + gap) * kBlock, len);
  double peak = 0.0;
  double diff = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    peak = std::max(peak, std::abs(first[i]));
    diff = std::max(diff, std::abs(first[i] - second[i]));
  }
  ASSERT_GT(peak, 0.0);
  EXPECT_GT(diff, 1e-5 * peak) << "the reopened path replayed its draws";
}

TEST(MediumScale, PathsWithOneDeviceConfigShareOneFilter) {
  // Four endpoints, every ordered pair connected with the default devices:
  // twelve paths, one speaker response and one microphone response. The
  // culled medium builds its live streams across two workers, which then
  // read the shared filters concurrently.
  const channel::SitePreset site = channel::site_preset(channel::Site::kBridge);
  channel::MediumConfig mc;
  mc.workers = 2;
  mc.cull_enabled = true;
  channel::AcousticMedium medium(kFs, mc);
  const int n = 4;
  for (int i = 0; i < n; ++i) {
    medium.add_endpoint(site.noise, channel::mic_noise_seed(9, i));
  }
  channel::LinkConfig lc;
  lc.site = site;
  lc.sample_rate_hz = kFs;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      lc.range_m = 2.0 + a + b;
      lc.seed = static_cast<std::uint64_t>(a * n + b);
      medium.connect(a, b, lc);
    }
  }
  EXPECT_EQ(medium.device_filters(), 2u);
  std::vector<std::vector<double>> tx(n, std::vector<double>(kBlock, 0.1));
  std::vector<std::span<const double>> spans(tx.begin(), tx.end());
  std::vector<std::vector<double>> rx;
  dsp::Workspace ws;
  for (int k = 0; k < 3; ++k) medium.step(spans, rx, ws);
  EXPECT_GT(medium.audible_paths(), 0u);
  EXPECT_EQ(medium.device_filters(), 2u);

  // Each distinct response gets its own filter: another unit of the same
  // model, a rotated speaker, a bare (uncased) microphone, and an in-air
  // link whose transducers lose their immersion notches.
  channel::LinkConfig other_unit = lc;
  other_unit.tx_device = channel::DeviceProfile(channel::DeviceModel::kGalaxyS9, 7);
  medium.connect(0, 1, other_unit);
  EXPECT_EQ(medium.device_filters(), 3u);
  channel::LinkConfig rotated = lc;
  rotated.tx_azimuth_deg = 90.0;
  medium.connect(0, 1, rotated);
  EXPECT_EQ(medium.device_filters(), 4u);
  channel::LinkConfig bare = lc;
  bare.rx_device = channel::DeviceProfile(channel::DeviceModel::kGalaxyS9, 2,
                                          channel::CaseType::kNone);
  medium.connect(0, 1, bare);
  EXPECT_EQ(medium.device_filters(), 5u);
  channel::LinkConfig air = lc;
  air.in_air = true;
  medium.connect(0, 1, air);
  EXPECT_EQ(medium.device_filters(), 7u);
  // Repeating any of them designs nothing new.
  medium.connect(1, 0, rotated);
  medium.connect(2, 3, air);
  EXPECT_EQ(medium.device_filters(), 7u);
  medium.step(spans, rx, ws);
}

}  // namespace
}  // namespace aqua
