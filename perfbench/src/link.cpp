// `link` workload: two-endpoint packet exchanges through sim::SweepRunner::run
// on one thread, closed loop (each packet starts when the previous one has
// ended). A fixed scenario mix spans the figure grids; every round runs one
// packet per cell with round-derived seeds.
//
// Untraced: rounds through SweepRunner::run (the timed path); the first
// round is re-run packet by packet through core::LinkSession::send_packet and
// must agree bit for bit. Traced: every round is re-clocked from the same
// public objects LinkSession::send_packet drives (AcousticMedium +
// add_duplex_link + two Modems, 480-sample blocks, same seeds) with a span
// around each layer call, and must reproduce SweepRunner's delivered counts,
// latency histogram and tx_failed exactly.
#include <cstring>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "channel/medium.h"
#include "core/link_session.h"
#include "core/modem.h"
#include "layers.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "trace.h"

namespace perfbench {

namespace core = aqua::core;
namespace phy = aqua::phy;
namespace sim = aqua::sim;

namespace {

using channel::MotionKind;
using channel::Site;

std::vector<sim::Scenario> link_mix() {
  const std::optional<phy::BandSelection> kAdaptive;
  const std::optional<phy::BandSelection> kFull = phy::BandSelection{0, 59, false};
  const std::optional<phy::BandSelection> kHalf = phy::BandSelection{0, 29, false};
  const std::optional<phy::BandSelection> kNarrow = phy::BandSelection{0, 9, false};
  const auto name = [](const std::optional<phy::BandSelection>& b) {
    if (!b) return std::string("adaptive");
    return "fixed " + std::to_string(b->width()) + " bins";
  };
  std::vector<sim::Scenario> cells;
  const auto add = [&](Site site, double range, double snr, MotionKind motion,
                       const std::optional<phy::BandSelection>& band) {
    sim::Scenario s;
    s.site = site;
    s.range_m = range;
    s.snr_offset_db = snr;
    s.motion = motion;
    s.fixed_band = band;
    s.scheme = name(band);
    cells.push_back(s);
  };
  // Fig. 9: three sites at 5 m, adaptive and the three fixed bands.
  for (Site site : {Site::kBridge, Site::kPark, Site::kLake}) {
    for (const auto& band : {kAdaptive, kFull, kHalf, kNarrow}) {
      add(site, 5.0, 0.0, MotionKind::kStatic, band);
    }
  }
  // Fig. 8 / Fig. 12: range sweeps to 30 m.
  for (double range : {10.0, 20.0, 30.0}) {
    add(Site::kLake, range, 0.0, MotionKind::kStatic, kAdaptive);
    add(Site::kLake, range, 0.0, MotionKind::kStatic, kFull);
  }
  add(Site::kBridge, 20.0, 0.0, MotionKind::kStatic, kFull);
  add(Site::kBridge, 30.0, 0.0, MotionKind::kStatic, kAdaptive);
  // Fig. 13: SNR offsets; Fig. 14: mobility.
  for (double snr : {-6.0, 6.0}) {
    add(Site::kLake, 5.0, snr, MotionKind::kStatic, kAdaptive);
  }
  for (MotionKind motion : {MotionKind::kSlow, MotionKind::kFast}) {
    add(Site::kLake, 5.0, 0.0, motion, kAdaptive);
  }
  // The remaining sites.
  for (Site site : {Site::kBeach, Site::kMuseum, Site::kBay}) {
    for (double range : {5.0, 20.0}) {
      add(site, range, 0.0, MotionKind::kStatic, kAdaptive);
    }
  }
  return cells;
}

// Same derivations as sim::run_packet_range / SweepRunner::run.
std::uint64_t round_seed(std::uint64_t seed, int round) {
  return mix_seed(seed * 1000003ULL + static_cast<std::uint64_t>(round));
}
std::uint64_t chunk_seed(std::uint64_t seed_base, std::size_t cell) {
  return seed_base + cell * 7919;
}
std::vector<std::uint8_t> payload(std::uint64_t chunk, int packet, std::size_t n) {
  std::mt19937_64 rng(chunk * 77 + 5 +
                      static_cast<std::uint64_t>(packet) * 0x9e3779b97f4a7c15ULL);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

constexpr std::size_t kPayloadBits = 16;
// Rounds per run: one round (one packet per cell) takes about this long on
// the reference 4-core x86_64 box, so a run measures about --seconds there.
constexpr double kNominalRoundS = 3.3;

struct Outcome {
  bool delivered = false;
  double latency_s = 0.0;
  bool latency_valid = false;
  std::uint64_t tx_failures = 0;
};

// The outcome of a one-packet SweepRunner cell.
Outcome outcome_of(const sim::BatchStats& s) {
  Outcome o;
  o.delivered = s.sent == 1 && s.delivered == 1;
  if (const obs::Histogram* h = s.qoe.histogram("latency_s"); h && h->count() == 1) {
    o.latency_valid = true;
    o.latency_s = h->samples()[0];
  }
  o.tx_failures = s.qoe.counter("tx_failed");
  return o;
}

// Bit-for-bit agreement of a SweepRunner cell with a per-packet outcome.
bool matches(const sim::BatchStats& s, const Outcome& o) {
  const Outcome a = outcome_of(s);
  return s.sent == 1 && a.delivered == o.delivered && a.latency_valid == o.latency_valid &&
         std::memcmp(&a.latency_s, &o.latency_s, sizeof a.latency_s) == 0 &&
         a.tx_failures == o.tx_failures;
}

// One packet re-clocked from the objects LinkSession::send_packet drives.
struct TracedLink {
  Tracer& tr;
  dsp::Workspace& ws;
  CoreLayer& core;
  ChannelLayer& chan;
  ProtocolCounts& proto;

  Outcome packet(const sim::Scenario& cell, std::uint64_t chunk, std::uint32_t id) {
    core::SessionConfig cfg = sim::session_config(cell);
    cfg.forward.seed = chunk;  // packet 0 of the chunk
    Tracer::Scope pkt(tr, "sim.packet", id);
    {
      // The untraced path constructs a session per packet; so does this one.
      Tracer::Scope s(tr, "core.session_build", id);
      const core::LinkSession session(cfg, ws);
    }
    const SpanRef build = tr.begin("channel.build", id);
    channel::AcousticMedium medium(cfg.forward.sample_rate_hz, cfg.medium);
    channel::add_duplex_link(medium, cfg.forward);
    tr.end(build);

    core::ModemConfig mc;
    mc.params = cfg.params;
    mc.send_ack = cfg.send_ack;
    mc.fixed_band = cfg.fixed_band;
    mc.decode = cfg.decode;
    core::ModemConfig alice_cfg = mc;
    alice_cfg.my_id = cfg.alice_id;
    core::ModemConfig bob_cfg = mc;
    bob_cfg.my_id = cfg.bob_id;
    const SpanRef mb = tr.begin("core.modem_build", id);
    core::Modem alice(alice_cfg, ws);
    core::Modem bob(bob_cfg, ws);
    tr.end(mb);
    alice.set_metrics(&core.stages);
    bob.set_metrics(&core.stages);

    const std::vector<std::uint8_t> bits = payload(chunk, 0, kPayloadBits);
    alice.set_payload_bits(bits.size());
    bob.set_payload_bits(bits.size());
    const std::uint64_t send_clock = medium.clock();
    alice.send(bits, cfg.bob_id);

    const std::uint64_t cap =
        medium.clock() + static_cast<std::uint64_t>(10.0 * cfg.forward.sample_rate_hz);
    std::vector<double> tx_a(kBlock), tx_b(kBlock);
    const std::vector<std::span<const double>> tx{tx_a, tx_b};
    std::vector<std::vector<double>> rx;
    Outcome o;
    bool alice_done = false;
    bool ack = false;
    bool detected = false;
    std::vector<std::uint8_t> decoded;
    bool data_found = false;
    const auto timed_pull = [&](core::Modem& m, std::vector<double>& buf) {
      const SpanRef s = tr.begin("core.pull", id);
      m.pull_tx(std::span<double>(buf));
      tr.end(s);
    };
    const auto timed_push = [&](core::Modem& m, const std::vector<double>& mic) {
      const SpanRef s = tr.begin("core.push", id);
      std::vector<core::ModemEvent> ev = m.push(mic);
      tr.end(s);
      return ev;
    };
    while (medium.clock() < cap) {
      timed_pull(alice, tx_a);
      timed_pull(bob, tx_b);
      {
        Tracer::Scope s(tr, "channel.step", id);
        medium.step(tx, rx, ws);
      }
      chan.mic_blocks += 2;
      for (const core::ModemEvent& e : timed_push(alice, rx[0])) {
        if (e.type == core::ModemEvent::Type::kTxComplete) {
          ack = e.ack_received;
          alice_done = true;
        } else if (e.type == core::ModemEvent::Type::kTxFailed) {
          o.tx_failures++;
          alice_done = true;
        }
      }
      for (core::ModemEvent& e : timed_push(bob, rx[1])) {
        if (e.type == core::ModemEvent::Type::kPreambleDetected) {
          detected = true;
        } else if (e.type == core::ModemEvent::Type::kPacketDecoded) {
          data_found = true;
          o.latency_valid = true;
          o.latency_s = static_cast<double>(e.stream_pos - send_clock) /
                        cfg.forward.sample_rate_hz;
          decoded = std::move(e.payload_bits);
        }
      }
      if (alice_done && bob.rx_state() == core::Modem::RxState::kSearching) break;
    }
    core.audio_s += 2.0 * static_cast<double>(medium.clock()) / kFs;

    o.delivered = data_found && decoded.size() == bits.size();
    for (std::size_t i = 0; o.delivered && i < bits.size(); ++i) {
      if ((decoded[i] & 1) != (bits[i] & 1)) o.delivered = false;
    }
    const obs::Registry m = medium.metrics();
    chan.rendered_blocks += m.counter("medium.rendered_blocks");
    chan.culled_convolutions += m.counter("medium.culled_convolutions");
    chan.audible_pairs = std::max<std::uint64_t>(chan.audible_pairs, medium.audible_paths());

    proto.sent++;
    proto.delivered += o.delivered ? 1 : 0;
    proto.decoded += data_found ? 1 : 0;
    proto.decoded_wrong += (data_found && !o.delivered) ? 1 : 0;
    proto.tx_failed += o.tx_failures;
    proto.ack_truthful += (ack == o.delivered) ? 1 : 0;
    proto.detected_addressed += detected ? 1 : 0;
    return o;
  }
};

}  // namespace

Result run_link(const Options& opt, Clock::time_point main_start) {
  Result r;
  const std::vector<sim::Scenario> cells = link_mix();
  sim::RunnerOptions ro;
  ro.threads = 1;
  ro.chunk_packets = 1;
  const sim::SweepRunner runner(ro);

  // Warm-up: one packet of every band scheme fills the process-wide FFT
  // plan caches before anything is timed.
  {
    std::vector<sim::Scenario> warm(cells.begin(), cells.begin() + 4);
    runner.run(warm, 1, mix_seed(~opt.seed), kPayloadBits);
  }
  announce_setup_done(main_start);
  if (opt.setup_only) return r;

  const int rounds = std::max(2, static_cast<int>(std::lround(opt.seconds / kNominalRoundS)));
  std::printf("link: %zu cells x %d rounds, 1 sweep thread, closed loop\n",
              cells.size(), rounds);

  std::vector<std::vector<sim::ScenarioResult>> results;
  std::vector<double> wall, rtf;
  sim::BatchStats all;
  for (int k = 0; k < rounds; ++k) {
    const Clock::time_point t0 = Clock::now();
    results.push_back(runner.run(cells, 1, round_seed(opt.seed, k), kPayloadBits));
    wall.push_back(seconds_between(t0, Clock::now()));
    std::uint64_t samples = 0;
    for (const sim::ScenarioResult& s : results.back()) {
      samples += s.stats.samples;
      all.merge(s.stats);
    }
    // Both endpoints' mic samples are counted; the medium clock is half.
    rtf.push_back(static_cast<double>(samples) / 2.0 / kFs / wall.back());
  }
  const double untraced_wall = std::accumulate(wall.begin(), wall.end(), 0.0);
  std::printf("rtf per round:");
  for (const double v : rtf) std::printf(" %.3f", v);
  std::printf("\n");

  r.attempted = static_cast<std::uint64_t>(all.sent);
  const std::uint64_t ops_failed = static_cast<std::uint64_t>(all.sent - all.delivered);
  const obs::Histogram* lat = all.qoe.histogram("latency_s");
  r.e2e("rtf", median(rtf), "x");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  r.e2e("delivery_ratio", all.delivery_ratio(), "ratio");
  r.e2e("latency_p50_s", lat ? lat->percentile(50.0) : 0.0, "s");
  r.e2e("latency_p90_s", lat ? lat->percentile(90.0) : 0.0, "s");
  std::printf("ops %d ops_failed %llu (packets sent / not delivered with the sent bits)\n",
              all.sent, static_cast<unsigned long long>(ops_failed));
  print_ratio("delivery_ratio", static_cast<std::uint64_t>(all.delivered),
              static_cast<std::uint64_t>(all.sent));
  std::printf("latency p50/p90 over %zu delivered packets; tx_failed %llu\n",
              lat ? lat->count() : 0,
              static_cast<unsigned long long>(all.qoe.counter("tx_failed")));
  r.check(lat && lat->count() >= 1, "link delivered no packet");

  if (!opt.trace) {
    // Output check: round 0 packet by packet through LinkSession.
    dsp::Workspace ws;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      core::SessionConfig cfg = sim::session_config(cells[c]);
      const std::uint64_t chunk = chunk_seed(round_seed(opt.seed, 0), c);
      cfg.forward.seed = chunk;
      core::LinkSession session(cfg, ws);
      const core::PacketTrace t = session.send_packet(payload(chunk, 0, kPayloadBits));
      Outcome o;
      o.delivered = t.packet_ok;
      o.latency_valid = t.latency_valid;
      o.latency_s = static_cast<double>(t.latency_samples) / cfg.forward.sample_rate_hz;
      o.tx_failures = t.tx_failures;
      if (!matches(results[0][c].stats, o)) {
        r.failed++;
        r.check(false, "LinkSession disagrees with SweepRunner on " +
                           sim::scenario_label(cells[c]));
      }
    }
    return r;
  }

  // Traced run: re-clock every round and compare with SweepRunner.
  Tracer tr;
  dsp::Workspace ws;
  CoreLayer core;
  ChannelLayer chan;
  ProtocolCounts proto;
  TracedLink traced{tr, ws, core, chan, proto};
  std::uint32_t id = 0;
  for (int k = 0; k < rounds; ++k) {
    Tracer::Scope run(tr, "sim.run", static_cast<std::uint32_t>(k));
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Outcome o = traced.packet(cells[c], chunk_seed(round_seed(opt.seed, k), c), id++);
      if (!matches(results[static_cast<std::size_t>(k)][c].stats, o)) {
        r.failed++;
        r.check(false, "traced re-clock disagrees with SweepRunner on round " +
                           std::to_string(k) + " " + sim::scenario_label(cells[c]));
      }
    }
  }
  chan.step_us = tr.durations_us("channel.step");
  chan.build_ms = tr.total_ms("channel.build");
  core.push_us = tr.durations_us("core.push");
  core.pull_ms = tr.total_ms("core.pull");
  core.modem_build_ms = tr.total_ms("core.modem_build");
  std::printf("core.session_build_ms %.3f over %llu sessions\n",
              tr.total_ms("core.session_build"),
              static_cast<unsigned long long>(proto.sent));

  // Sweep-pool efficiency: round 0 again on two sweep threads (its stats
  // must not change with the thread count).
  {
    sim::RunnerOptions ro2 = ro;
    ro2.threads = 2;
    const sim::SweepRunner runner2(ro2);
    const Clock::time_point t0 = Clock::now();
    const std::vector<sim::ScenarioResult> two =
        runner2.run(cells, 1, round_seed(opt.seed, 0), kPayloadBits);
    const double wall2 = seconds_between(t0, Clock::now());
    chan.pool_efficiency = ratio(wall[0], 2.0 * wall2);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      r.check(matches(results[0][c].stats, outcome_of(two[c].stats)),
              "SweepRunner result changed with 2 threads");
    }
  }

  std::vector<MicSpec> mics;
  std::vector<channel::LinkConfig> paths;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    core::SessionConfig cfg = sim::session_config(cells[c]);
    cfg.forward.seed = chunk_seed(round_seed(opt.seed, 0), c);
    mics.push_back({cfg.forward.site.noise, channel::mic_noise_seed(cfg.forward.seed)});
    paths.push_back(cfg.forward);
  }
  chan.component = component_pass(mics, paths);

  add_channel_layers(r, chan);
  add_core_layers(r, core, proto);
  add_sim_layers(r, tr, untraced_wall * 1e3, untraced_wall,
                 opt.out_dir + "/link-" + std::to_string(opt.seed) + ".spans.csv");
  return r;
}

}  // namespace perfbench
