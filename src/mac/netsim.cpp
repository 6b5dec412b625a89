#include "mac/netsim.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "channel/audibility.h"

namespace aqua::mac {

std::vector<std::pair<double, double>> place_nodes(Placement placement, int n,
                                                   double spacing_m,
                                                   std::uint64_t seed) {
  std::vector<std::pair<double, double>> pos;
  pos.reserve(static_cast<std::size_t>(std::max(n, 0)));
  switch (placement) {
    case Placement::kLine:
      for (int i = 0; i < n; ++i) {
        pos.emplace_back(spacing_m * static_cast<double>(i), 0.0);
      }
      break;
    case Placement::kGrid: {
      const int side = std::max(
          1, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))));
      for (int i = 0; i < n; ++i) {
        pos.emplace_back(spacing_m * static_cast<double>(i % side),
                         spacing_m * static_cast<double>(i / side));
      }
      break;
    }
    case Placement::kHarbor: {
      // Anchorage groups of ~10 hulls across the harbor approaches:
      // berths a few meters apart inside a group (modem range), groups on
      // a kilometers-pitch grid. At 1-4 kHz only spreading and (weak)
      // Thorp absorption attenuate, so the at-the-floor audibility
      // horizon sits near 7 km — the group pitch (1600x spacing) puts
      // every cross-group pair beyond it, which is what lets culling
      // price a dense deployment at O(group size x N). Jitter within a
      // group (±1.5x spacing) keeps every in-group pair audible.
      std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
      std::uniform_real_distribution<double> jitter(-1.5 * spacing_m,
                                                    1.5 * spacing_m);
      constexpr int kClusterSize = 10;
      const int clusters = (n + kClusterSize - 1) / kClusterSize;
      const int side = std::max(
          1, static_cast<int>(
                 std::ceil(std::sqrt(static_cast<double>(clusters)))));
      const double pitch = 1600.0 * spacing_m;
      for (int i = 0; i < n; ++i) {
        const int c = i / kClusterSize;
        pos.emplace_back(pitch * static_cast<double>(c % side) + jitter(rng),
                         pitch * static_cast<double>(c / side) + jitter(rng));
      }
      break;
    }
  }
  return pos;
}

namespace {

// Node states for the transmit state machine.
enum class State { kIdleGap, kWantToSend, kBackoff, kTransmitting };

struct Node {
  State state = State::kIdleGap;
  double timer_s = 0.0;          ///< time left in the current state
  double backoff_left_s = 0.0;   ///< remaining backoff
  int packets_sent = 0;
  double next_cs_s = 0.0;        ///< next carrier-sense measurement time
  bool heard_busy = false;       ///< busy seen since the last decision
};

}  // namespace

MacSimResult run_mac_simulation(const MacSimConfig& config) {
  std::mt19937_64 rng(config.seed);
  std::uniform_real_distribution<double> gap(config.min_gap_s, config.max_gap_s);
  std::uniform_int_distribution<int> backoff(1, config.max_backoff_packets);

  const int n = config.num_transmitters;
  std::vector<Node> nodes(static_cast<std::size_t>(n));
  // Distances between transmitters govern when they hear each other. The
  // line placement keeps the paper's exact transect (5-10 m from the
  // receiver); grid/harbor reuse the shared placement function.
  std::vector<std::pair<double, double>> pos;
  if (config.placement == Placement::kLine) {
    for (int i = 0; i < n; ++i) {
      pos.emplace_back(
          config.range_m * static_cast<double>(i + 1) / static_cast<double>(n),
          0.0);
    }
  } else {
    pos = place_nodes(config.placement, n, config.range_m, config.seed);
  }

  // Active transmissions: (node, start, end).
  struct Tx { int node; double start, end; };
  std::vector<Tx> active;
  MacSimResult result;

  // The paper staggers initial transmissions by "a random backoff period of
  // multiple seconds".
  for (auto& node : nodes) node.timer_s = gap(rng);

  const double dt = 0.005;  // 5 ms step << cs interval and packet duration
  double t = 0.0;
  auto channel_busy_at = [&](int listener, double now) {
    for (const Tx& tx : active) {
      if (tx.node == listener) continue;
      const auto& a = pos[static_cast<std::size_t>(tx.node)];
      const auto& b = pos[static_cast<std::size_t>(listener)];
      const double dist = std::hypot(a.first - b.first, a.second - b.second);
      const double delay = dist / config.sound_speed_mps;
      if (now >= tx.start + delay && now <= tx.end + delay) return true;
    }
    return false;
  };

  int remaining = n * config.packets_per_transmitter;
  while (remaining > 0 && t < 3600.0) {
    // Retire finished transmissions (keep them around a little longer so
    // propagation-delayed listeners still hear the tail).
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](const Tx& tx) {
                                  return t > tx.end + 0.1;
                                }),
                 active.end());

    for (int i = 0; i < n; ++i) {
      Node& node = nodes[static_cast<std::size_t>(i)];
      if (node.packets_sent >= config.packets_per_transmitter) continue;

      // Periodic carrier-sense measurement.
      bool busy_now = false;
      if (t >= node.next_cs_s) {
        busy_now = channel_busy_at(i, t);
        node.next_cs_s = t + config.cs_interval_s;
        if (busy_now) node.heard_busy = true;
      }

      switch (node.state) {
        case State::kIdleGap:
          node.timer_s -= dt;
          if (node.timer_s <= 0.0) node.state = State::kWantToSend;
          break;
        case State::kWantToSend: {
          if (!config.carrier_sense) {
            active.push_back({i, t, t + config.packet_duration_s});
            result.packets.push_back({i, t, false});
            node.packets_sent++;
            remaining--;
            node.state = State::kTransmitting;
            node.timer_s = config.packet_duration_s;
            break;
          }
          // Wait for the next fresh measurement before deciding.
          if (t < node.next_cs_s - config.cs_interval_s * 0.5) break;
          if (node.heard_busy || channel_busy_at(i, t)) {
            node.state = State::kBackoff;
            node.backoff_left_s =
                static_cast<double>(backoff(rng)) * config.packet_duration_s;
            node.heard_busy = false;
          } else {
            active.push_back({i, t, t + config.packet_duration_s});
            result.packets.push_back({i, t, false});
            node.packets_sent++;
            remaining--;
            node.state = State::kTransmitting;
            node.timer_s = config.packet_duration_s;
          }
          break;
        }
        case State::kBackoff:
          node.backoff_left_s -= dt;
          if (node.heard_busy) {
            // Paper: hearing the channel busy during backoff extends the
            // backoff by one packet duration.
            node.backoff_left_s += config.packet_duration_s;
            node.heard_busy = false;
          }
          if (node.backoff_left_s <= 0.0) {
            node.state = State::kWantToSend;
          }
          break;
        case State::kTransmitting:
          node.timer_s -= dt;
          if (node.timer_s <= 0.0) {
            node.state = State::kIdleGap;
            node.timer_s = gap(rng);
            node.heard_busy = false;
          }
          break;
      }
    }
    t += dt;
  }
  result.duration_s = t;

  // Collision scoring exactly like the paper: packets transmitted within
  // one packet duration of each other are collisions.
  const double window = config.packet_duration_s;
  for (std::size_t a = 0; a < result.packets.size(); ++a) {
    for (std::size_t b = a + 1; b < result.packets.size(); ++b) {
      if (result.packets[b].tx_time_s - result.packets[a].tx_time_s > window) {
        break;  // packets are in time order
      }
      if (result.packets[a].node != result.packets[b].node) {
        result.packets[a].collided = true;
        result.packets[b].collided = true;
      }
    }
  }
  result.total_packets = static_cast<int>(result.packets.size());
  result.per_node_fraction.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<int> node_total(static_cast<std::size_t>(n), 0);
  std::vector<int> node_coll(static_cast<std::size_t>(n), 0);
  for (const PacketRecord& p : result.packets) {
    node_total[static_cast<std::size_t>(p.node)]++;
    if (p.collided) {
      result.collided_packets++;
      node_coll[static_cast<std::size_t>(p.node)]++;
    }
  }
  for (int i = 0; i < n; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    result.per_node_fraction[si] =
        node_total[si] > 0 ? static_cast<double>(node_coll[si]) /
                                 static_cast<double>(node_total[si])
                           : 0.0;
  }
  result.collision_fraction =
      result.total_packets > 0
          ? static_cast<double>(result.collided_packets) /
                static_cast<double>(result.total_packets)
          : 0.0;
  return result;
}

ModemNetwork::ModemNetwork(const ModemNetworkConfig& config)
    : config_(config) {
  const channel::SitePreset site = channel::site_preset(config.site);
  const double fs = 48000.0;
  channel::MediumConfig mc;
  mc.workers = config.medium_workers;
  mc.cull_enabled = config.cull;
  mc.cull = config.cull_params;
  medium_ = std::make_unique<channel::AcousticMedium>(fs, mc);

  const int n = config.nodes;
  positions_ = place_nodes(config.placement, n, config.spacing_m, config.seed);
  node_active_.assign(static_cast<std::size_t>(n), true);

  for (int i = 0; i < n; ++i) {
    const std::optional<channel::NoiseParams> noise =
        config.noise_enabled ? std::optional<channel::NoiseParams>(site.noise)
                             : std::nullopt;
    // Seed and mix position are pure functions of the node id, so a
    // topology rebuilt with any attach order hears the same ocean.
    medium_->add_endpoint(noise, channel::mic_noise_seed(config.seed, i),
                          /*stable_id=*/i);
  }

  // A link prototype at unit range carries everything but geometry; the
  // auto connect radius derives from its conservative audibility bound.
  const auto make_link = [&](double range, std::uint64_t seed) {
    channel::LinkConfig lc;
    lc.site = site;
    lc.range_m = range;
    lc.tx_depth_m = config.depth_m;
    lc.rx_depth_m = config.depth_m;
    lc.sample_rate_hz = fs;
    lc.seed = seed;
    return lc;
  };
  double radius = config.connect_radius_m;
  if (radius == 0.0) {
    const channel::LinkConfig proto = make_link(1.0, config.seed);
    const auto l1 = [](const std::vector<double>& fir) {
      double s = 0.0;
      for (const double v : fir) s += std::abs(v);
      return s;
    };
    const double device_l1 =
        l1(channel::link_device_fir(proto, /*speaker=*/true)) *
        l1(channel::link_device_fir(proto, /*speaker=*/false));
    const double floor =
        config.noise_enabled ? channel::noise_floor_rms(site.noise) : 0.0;
    // 10 minutes of current drift as mobility slack: the runtime culler
    // re-evaluates as nodes move, but a pair that never connects can never
    // wake up, so the static cut has to cover the whole run.
    radius = channel::audible_range_m(proto, device_l1, floor,
                                      config.cull_params,
                                      /*excursion_allowance_m=*/
                                      site.drift_mps * 600.0);
  } else if (radius < 0.0) {
    radius = 1e9;
  }
  connect_radius_m_ = radius;

  // Directed link per ordered pair within the connect radius. Link seeds
  // are pure functions of (deployment seed, node ids): attach order and
  // the presence of far-away pairs cannot reshuffle anyone's channel.
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      const auto& pa = positions_[static_cast<std::size_t>(a)];
      const auto& pb = positions_[static_cast<std::size_t>(b)];
      const double dist =
          std::hypot(pa.first - pb.first, pa.second - pb.second);
      if (dist > radius) continue;
      medium_->connect(
          a, b,
          make_link(std::max(dist, 0.1),
                    config.seed * 131 +
                        static_cast<std::uint64_t>(a) *
                            static_cast<std::uint64_t>(n) +
                        static_cast<std::uint64_t>(b)));
    }
  }

  // Each modem leases scratch from its shard's arena; shard i%W runs all
  // of node i's DSP, so arenas are never shared across threads.
  const int workers = medium_->workers();
  for (int i = 0; i < n; ++i) {
    core::ModemConfig modem_cfg = config.modem;
    modem_cfg.my_id = node_id(i);
    modems_.push_back(std::make_unique<core::Modem>(
        modem_cfg, medium_->pool().workspace(i % workers)));
  }
}

void ModemNetwork::set_node_active(int i, bool active) {
  node_active_[static_cast<std::size_t>(i)] = active;
  medium_->set_endpoint_active(i, active);
}

void ModemNetwork::send(int from, std::span<const std::uint8_t> info_bits,
                        int to) {
  node(from).send(info_bits, node_id(to));
}

std::vector<std::vector<core::ModemEvent>> ModemNetwork::run(double seconds) {
  const std::size_t block = 480;
  const std::uint64_t blocks = static_cast<std::uint64_t>(
      seconds * medium_->sample_rate_hz() / static_cast<double>(block));
  const std::size_t n = modems_.size();
  channel::ShardPool& pool = medium_->pool();
  const std::size_t workers = static_cast<std::size_t>(pool.workers());

  std::vector<std::vector<core::ModemEvent>> events(n);
  std::vector<std::vector<double>> tx(n, std::vector<double>(block));
  std::vector<std::span<const double>> tx_spans;
  tx_spans.reserve(n);
  for (const std::vector<double>& t : tx) tx_spans.emplace_back(t);
  std::vector<std::vector<double>> rx;

  // Node i's modem DSP always runs on shard i % workers with that shard's
  // arena; an inactive node transmits silence and its modem state freezes.
  const auto pull_node = [&](std::size_t i) {
    if (node_active_[i]) {
      modems_[i]->pull_tx(std::span<double>(tx[i]));
    } else {
      std::fill(tx[i].begin(), tx[i].end(), 0.0);
    }
  };
  const auto push_node = [&](std::size_t i) {
    if (!node_active_[i]) return;
    std::vector<core::ModemEvent> ev = modems_[i]->push(rx[i]);
    for (core::ModemEvent& e : ev) events[i].push_back(std::move(e));
  };

  for (std::uint64_t b = 0; b < blocks; ++b) {
    pool.run([&](int w) {
      for (std::size_t i = static_cast<std::size_t>(w); i < n; i += workers) {
        pull_node(i);
      }
    });
    medium_->step(tx_spans, rx, pool.workspace(0));
    pool.run([&](int w) {
      for (std::size_t i = static_cast<std::size_t>(w); i < n; i += workers) {
        push_node(i);
      }
    });
  }
  return events;
}

}  // namespace aqua::mac
