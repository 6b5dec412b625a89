// `network` workload: 9 mac::ModemNetwork modems on a 3x3 kGrid share one
// medium with 2 workers. An open-loop schedule sends messages between
// neighbouring node pairs at a fixed offered rate (0.8 messages/s), in 5 s
// cycles where two exchanges overlap twice; the seed picks the grid symmetry
// each cycle uses, the payloads and each message's arrival time. Every node scans every sample
// and overhears preambles addressed to others. Latency counts from each
// message's scheduled send position.
//
// Ground truth: a kPacketDecoded at the addressee whose bits equal an
// outstanding message to it delivers that message; any other decode is a
// false decode. A sender's i-th terminal transmit event belongs to its i-th
// message (the transmit queue is FIFO).
//
// Output checks: the untraced run's event sequences must equal a W=1 run's
// over a prefix, and the traced re-clock (ModemNetwork::medium()/node(i)/
// medium().pool(), same block size and order) must reproduce every event.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "channel/medium.h"
#include "core/modem.h"
#include "layers.h"
#include "mac/netsim.h"
#include "trace.h"

namespace perfbench {

namespace core = aqua::core;
namespace mac = aqua::mac;

namespace {

using Events = std::vector<std::vector<core::ModemEvent>>;

constexpr int kNodes = 9;
constexpr double kSpacingM = 10.0;
constexpr double kCycleS = 5.0;        // schedule cycle (4 messages)
constexpr double kDrainS = 4.0;        // quiet tail so exchanges finish
// Simulated seconds per wall second at W=2 on the reference 4-core x86_64 box.
constexpr double kNominalRtf = 1.7;
constexpr std::uint64_t kCheckPrefixBlocks = 150;
constexpr std::size_t kPayloadBits = 16;

struct Message {
  std::uint64_t arrival = 0;  ///< scheduled send position (medium samples)
  std::uint64_t block = 0;    ///< block at whose start the modem gets it
  int from = 0;
  int to = 0;
  std::vector<std::uint8_t> bits;
};

mac::ModemNetworkConfig network_config(std::uint64_t seed, int workers) {
  mac::ModemNetworkConfig cfg;
  cfg.nodes = kNodes;
  cfg.placement = mac::Placement::kGrid;
  cfg.spacing_m = kSpacingM;
  cfg.seed = seed;
  cfg.medium_workers = workers;
  cfg.modem.payload_bits = kPayloadBits;
  return cfg;
}

// One cycle of the open-loop schedule on the 3x3 grid, in canonical (x, y)
// coordinates: two spatially separated exchanges that overlap, then two
// neighbouring ones that overlap (the collision case).
struct CycleMessage {
  double t_s;
  int fx, fy, tx, ty;
};
constexpr CycleMessage kCycle[] = {
    {0.0, 0, 0, 1, 0}, {0.7, 2, 2, 1, 2}, {2.6, 0, 1, 1, 1}, {3.1, 2, 1, 2, 0}};

// The eight symmetries of the square grid applied to (x, y) in [0, 2]^2.
int grid_node(int sym, int x, int y) {
  for (int i = 0; i < (sym & 3); ++i) {  // rotate by 90 degrees
    const int nx = 2 - y;
    y = x;
    x = nx;
  }
  if (sym & 4) x = 2 - x;  // mirror
  return y * 3 + x;
}

// Cycle k maps the canonical cycle through symmetry order[k % 8], so every
// seed offers the same geometry mix at the same rate. The seed picks the
// order, the payloads and each message's arrival within its 10 ms block
// (the application's message reaches the modem between audio callbacks).
std::vector<Message> schedule(std::uint64_t seed, int cycles) {
  std::mt19937_64 rng(mix_seed(seed ^ 0x6e6574776f726bULL));
  std::vector<int> order{0, 1, 2, 3, 4, 5, 6, 7};
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<Message> out;
  for (int k = 0; k < cycles; ++k) {
    const int sym = order[static_cast<std::size_t>(k % 8)];
    for (const CycleMessage& c : kCycle) {
      Message m;
      const auto slot = static_cast<std::uint64_t>((k * kCycleS + c.t_s) * kFs /
                                                   static_cast<double>(kBlock));
      m.arrival = slot * kBlock + rng() % kBlock;
      m.block = slot + 1;  // handed to the modem at the next block boundary
      m.from = grid_node(sym, c.fx, c.fy);
      m.to = grid_node(sym, c.tx, c.ty);
      // Payloads are unique per addressee, so a decode names its message.
      bool unique = false;
      while (!unique) {
        m.bits.assign(kPayloadBits, 0);
        for (auto& b : m.bits) b = static_cast<std::uint8_t>(rng() & 1);
        unique = true;
        for (const Message& o : out) {
          if (o.to == m.to && o.bits == m.bits) unique = false;
        }
      }
      out.push_back(std::move(m));
    }
  }
  return out;
}

bool same_event(const core::ModemEvent& a, const core::ModemEvent& b) {
  const auto bits = [](double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; };
  return a.type == b.type && a.stream_pos == b.stream_pos &&
         bits(a.preamble_metric, b.preamble_metric) &&
         bits(a.training_metric, b.training_metric) &&
         a.band.begin_bin == b.band.begin_bin && a.band.end_bin == b.band.end_bin &&
         a.payload_bits == b.payload_bits && a.ack_received == b.ack_received;
}

// Events of `a` equal the first counts[i] events of `b` per node.
bool same_prefix(const Events& a, const Events& b, const std::vector<std::size_t>& counts) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != counts[i] || b[i].size() < counts[i]) return false;
    for (std::size_t k = 0; k < counts[i]; ++k) {
      if (!same_event(a[i][k], b[i][k])) return false;
    }
  }
  return true;
}

struct Outcomes {
  ProtocolCounts counts;
  std::vector<double> latency_s;
};

Outcomes score(const std::vector<Message>& msgs, const Events& ev) {
  using Type = core::ModemEvent::Type;
  Outcomes o;
  ProtocolCounts& p = o.counts;
  p.sent = msgs.size();
  std::vector<bool> delivered(msgs.size(), false);
  for (int node = 0; node < kNodes; ++node) {
    for (const core::ModemEvent& e : ev[static_cast<std::size_t>(node)]) {
      if (e.type == Type::kPreambleDetected) p.overheard++;
      if (e.type == Type::kAddressedToUs) p.detected_addressed++;
      if (e.type == Type::kTxFailed) p.tx_failed++;
      if (e.type != Type::kPacketDecoded) continue;
      p.decoded++;
      bool matched = false;
      for (std::size_t m = 0; m < msgs.size() && !matched; ++m) {
        const std::uint64_t sent_pos = msgs[m].arrival;
        if (msgs[m].to == node && !delivered[m] && msgs[m].bits == e.payload_bits &&
            sent_pos <= e.stream_pos) {
          delivered[m] = true;
          matched = true;
          o.latency_s.push_back(static_cast<double>(e.stream_pos - sent_pos) / kFs);
        }
      }
      if (!matched) p.decoded_wrong++;
    }
  }
  // Detections at the addressee are not overheard ones.
  p.overheard -= std::min(p.overheard, p.detected_addressed);
  // Sender belief: the i-th terminal transmit event of a node answers its
  // i-th message.
  std::vector<std::vector<bool>> acked(kNodes);
  for (int node = 0; node < kNodes; ++node) {
    for (const core::ModemEvent& e : ev[static_cast<std::size_t>(node)]) {
      if (e.type == Type::kTxComplete) acked[static_cast<std::size_t>(node)].push_back(e.ack_received);
      if (e.type == Type::kTxFailed) acked[static_cast<std::size_t>(node)].push_back(false);
    }
  }
  std::vector<std::size_t> next(kNodes, 0);
  for (std::size_t m = 0; m < msgs.size(); ++m) {
    const auto from = static_cast<std::size_t>(msgs[m].from);
    const std::size_t k = next[from]++;
    const bool belief = k < acked[from].size() && acked[from][k];
    if (delivered[m]) p.delivered++;
    if (belief == delivered[m]) p.ack_truthful++;
  }
  return o;
}

// Drives a network through the schedule with ModemNetwork::run between
// sends. `on_run(blocks, seconds)` sees every run() call.
template <typename OnRun>
Events drive(mac::ModemNetwork& net, const std::vector<Message>& msgs,
             std::uint64_t total_blocks, std::uint64_t snapshot_block,
             std::vector<std::size_t>* snapshot, OnRun on_run) {
  Events events(kNodes);
  std::uint64_t cur = 0;
  std::size_t idx = 0;
  while (cur < total_blocks) {
    while (idx < msgs.size() && msgs[idx].block == cur) {
      net.send(msgs[idx].from, msgs[idx].bits, msgs[idx].to);
      ++idx;
    }
    std::uint64_t next = idx < msgs.size() ? msgs[idx].block : total_blocks;
    if (cur < snapshot_block && next > snapshot_block) next = snapshot_block;
    const Clock::time_point t0 = Clock::now();
    Events ev = net.run((static_cast<double>(next - cur) + 0.5) *
                        static_cast<double>(kBlock) / kFs);
    on_run(next - cur, seconds_between(t0, Clock::now()));
    for (int i = 0; i < kNodes; ++i) {
      for (auto& e : ev[static_cast<std::size_t>(i)]) {
        events[static_cast<std::size_t>(i)].push_back(std::move(e));
      }
    }
    cur = next;
    if (snapshot && cur == snapshot_block) {
      snapshot->clear();
      for (const auto& e : events) snapshot->push_back(e.size());
    }
  }
  return events;
}

}  // namespace

Result run_network(const Options& opt, Clock::time_point main_start) {
  Result r;
  // Warm-up: one exchange on a two-node network fills the FFT plan caches
  // of the scan, tone and decode paths.
  {
    mac::ModemNetworkConfig warm_cfg = network_config(~opt.seed, 1);
    warm_cfg.nodes = 2;
    mac::ModemNetwork warm(warm_cfg);
    const std::vector<std::uint8_t> bits(kPayloadBits, 1);
    warm.send(0, bits, 1);
    warm.run(2.5);
  }
  // Whole passes over the eight grid symmetries, so every seed offers the
  // same geometry mix.
  const int cycles =
      8 * std::max(1, static_cast<int>(std::lround(opt.seconds * kNominalRtf / kCycleS / 8.0)));
  const double sim_s = cycles * kCycleS + kDrainS;
  const auto total_blocks = static_cast<std::uint64_t>(sim_s * kFs / kBlock);
  const std::vector<Message> msgs = schedule(opt.seed, cycles);
  mac::ModemNetwork net(network_config(opt.seed, 2));
  announce_setup_done(main_start);
  if (opt.setup_only) return r;
  std::printf("network: %d modems (kGrid, %.0f m), %d medium workers, %zu messages "
              "in %d cycles of %.0f s + %.0f s drain\n",
              kNodes, kSpacingM, net.medium().workers(), msgs.size(), cycles, kCycleS,
              kDrainS);

  // rtf windows: consecutive run() calls grouped to >= 1 s simulated.
  std::vector<double> rtf;
  double win_blocks = 0.0, win_wall = 0.0, total_wall = 0.0, prefix_wall = 0.0;
  std::uint64_t blocks_done = 0;
  std::vector<std::size_t> prefix_counts;
  const Events events = drive(net, msgs, total_blocks, kCheckPrefixBlocks, &prefix_counts,
                              [&](std::uint64_t blocks, double wall) {
                                win_blocks += static_cast<double>(blocks);
                                win_wall += wall;
                                total_wall += wall;
                                blocks_done += blocks;
                                if (blocks_done <= kCheckPrefixBlocks) prefix_wall += wall;
                                if (win_blocks >= 100.0) {
                                  rtf.push_back(win_blocks * kBlock / kFs / win_wall);
                                  win_blocks = win_wall = 0.0;
                                }
                              });
  std::printf("rtf per window:");
  for (const double v : rtf) std::printf(" %.3f", v);
  std::printf("\n");
  const Outcomes out = score(msgs, events);
  const ProtocolCounts& p = out.counts;

  r.attempted = p.sent;
  r.e2e("rtf", median(rtf), "x");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  r.e2e("delivery_ratio", ratio(static_cast<double>(p.delivered), static_cast<double>(p.sent)),
        "ratio");
  r.e2e("latency_p50_s", percentile(out.latency_s, 50.0), "s");
  r.e2e("latency_p90_s", percentile(out.latency_s, 90.0), "s");
  std::printf("ops %llu ops_failed %llu (messages sent / not delivered with the sent bits)\n",
              static_cast<unsigned long long>(p.sent),
              static_cast<unsigned long long>(p.sent - p.delivered));
  print_ratio("delivery_ratio", p.delivered, p.sent);
  std::printf("latency p50/p90 over %zu delivered messages\n", out.latency_s.size());
  r.check(p.delivered > 0, "network delivered no message");

  // Output check: W=1 over the prefix must emit the same events.
  double w1_prefix_wall = 0.0;
  {
    mac::ModemNetwork ref(network_config(opt.seed, 1));
    const Events ev = drive(ref, msgs, kCheckPrefixBlocks, kCheckPrefixBlocks, nullptr,
                            [&](std::uint64_t, double wall) { w1_prefix_wall += wall; });
    if (!same_prefix(ev, events, prefix_counts)) {
      r.failed++;
      r.check(false, "network events differ between W=1 and W=2");
    }
  }
  if (!opt.trace) return r;

  // Traced run: re-clock the same network from its public objects.
  const int workers = net.medium().workers();
  Tracer tr(workers);
  CoreLayer core;
  ChannelLayer chan;
  std::vector<obs::Registry> stages(static_cast<std::size_t>(workers));
  Events traced(kNodes);
  {
    const SpanRef build = tr.begin("mac.network_build", 0);
    mac::ModemNetwork tnet(network_config(opt.seed, 2));
    tr.end(build);
    for (int i = 0; i < kNodes; ++i) tnet.node(i).set_metrics(&stages[static_cast<std::size_t>(i % workers)]);
    channel::AcousticMedium& medium = tnet.medium();
    channel::ShardPool& pool = medium.pool();
    std::vector<std::vector<double>> tx(kNodes, std::vector<double>(kBlock));
    std::vector<std::span<const double>> tx_spans(tx.begin(), tx.end());
    std::vector<std::vector<double>> rx;
    std::size_t idx = 0;
    Tracer::Scope run(tr, "sim.run", 0);
    for (std::uint64_t b = 0; b < total_blocks; ++b) {
      const auto id = static_cast<std::uint32_t>(b);
      while (idx < msgs.size() && msgs[idx].block == b) {
        tnet.send(msgs[idx].from, msgs[idx].bits, msgs[idx].to);
        ++idx;
      }
      {
        Tracer::Scope ps(tr, "pool.pull", id);
        const SpanRef parent = ps.ref();
        pool.run([&](int w) {
          for (int i = w; i < kNodes; i += workers) {
            const SpanRef s = tr.begin("core.pull", id, w, parent);
            tnet.node(i).pull_tx(std::span<double>(tx[static_cast<std::size_t>(i)]));
            tr.end(s);
          }
        });
      }
      {
        Tracer::Scope s(tr, "channel.step", id);
        medium.step(tx_spans, rx, pool.workspace(0));
      }
      Tracer::Scope ps(tr, "pool.push", id);
      const SpanRef parent = ps.ref();
      pool.run([&](int w) {
        for (int i = w; i < kNodes; i += workers) {
          const SpanRef s = tr.begin("core.push", id, w, parent);
          std::vector<core::ModemEvent> ev = tnet.node(i).push(rx[static_cast<std::size_t>(i)]);
          for (auto& e : ev) traced[static_cast<std::size_t>(i)].push_back(std::move(e));
          tr.end(s);
        }
      });
    }
    const obs::Registry m = medium.metrics();
    chan.rendered_blocks = m.counter("medium.rendered_blocks");
    chan.culled_convolutions = m.counter("medium.culled_convolutions");
    chan.audible_pairs = medium.audible_paths();
  }
  std::vector<std::size_t> all_counts;
  for (const auto& e : events) all_counts.push_back(e.size());
  if (!same_prefix(traced, events, all_counts)) {
    r.failed++;
    r.check(false, "traced re-clock events differ from ModemNetwork::run");
  }

  // Modem construction, timed on its own with the network's configs; the
  // rest of the network build is the medium's.
  {
    Tracer::Scope s(tr, "core.modem_build", 0);
    const mac::ModemNetworkConfig cfg = network_config(opt.seed, 2);
    for (int i = 0; i < kNodes; ++i) {
      core::ModemConfig mc = cfg.modem;
      mc.my_id = static_cast<std::uint8_t>(cfg.id_base + i);
      const core::Modem m(mc);
    }
  }
  core.modem_build_ms = tr.total_ms("core.modem_build");
  chan.build_ms = std::max(0.0, tr.total_ms("mac.network_build") - core.modem_build_ms);
  std::printf("channel.build_ms = mac.network_build %.3f ms - core.modem_build %.3f ms\n",
              tr.total_ms("mac.network_build"), core.modem_build_ms);
  chan.step_us = tr.durations_us("channel.step");
  chan.mic_blocks = total_blocks * kNodes;
  chan.pool_efficiency = ratio(w1_prefix_wall, 2.0 * prefix_wall);
  core.push_us = tr.durations_us("core.push");
  core.pull_ms = tr.total_ms("core.pull");
  core.audio_s = static_cast<double>(total_blocks * kBlock * kNodes) / kFs;
  for (const obs::Registry& s : stages) core.stages.merge(s);

  const auto pos = mac::place_nodes(mac::Placement::kGrid, kNodes, kSpacingM, opt.seed);
  const channel::SitePreset site = channel::site_preset(channel::Site::kBridge);
  std::vector<MicSpec> mics;
  std::vector<channel::LinkConfig> paths;
  for (int a = 0; a < kNodes; ++a) {
    mics.push_back({site.noise, channel::mic_noise_seed(opt.seed, a)});
    const int b = (a + 1) % kNodes;
    const auto& pa = pos[static_cast<std::size_t>(a)];
    const auto& pb = pos[static_cast<std::size_t>(b)];
    channel::LinkConfig lc;  // as ModemNetwork connects a -> b
    lc.site = site;
    lc.range_m = std::max(std::hypot(pa.first - pb.first, pa.second - pb.second), 0.1);
    lc.sample_rate_hz = kFs;
    lc.seed = opt.seed * 131 + static_cast<std::uint64_t>(a) * kNodes +
              static_cast<std::uint64_t>(b);
    paths.push_back(lc);
  }
  chan.component = component_pass(mics, paths);

  add_channel_layers(r, chan);
  add_core_layers(r, core, p);
  add_sim_layers(r, tr, total_wall * 1e3, total_wall,
                 opt.out_dir + "/network-" + std::to_string(opt.seed) + ".spans.csv");
  return r;
}

}  // namespace perfbench
