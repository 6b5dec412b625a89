// `harbor` workload: a medium-only dense deployment. 120 Placement::kHarbor
// nodes share one channel::AcousticMedium with 2 workers and at-the-floor
// audibility culling (margin_db = 0); group heads send staggered 1-4 kHz
// chirp bursts, as in bench_harbor. No modem runs.
//
// A burst counts as delivered at an in-group receiver when the receiver's mix
// correlates with the burst (normalized peak >= 0.2) within 0.2 s of the
// send; its latency is the lag of that peak on the medium clock (propagation
// plus the path's processing latency). Output check: the per-block mix checksum must be bit-identical at
// W=1 and W=2 (a prefix in the untraced run, every block in the traced run).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "channel/audibility.h"
#include "channel/medium.h"
#include "core/modem.h"
#include "dsp/chirp.h"
#include "dsp/correlate.h"
#include "layers.h"
#include "mac/netsim.h"
#include "trace.h"

namespace perfbench {

namespace core = aqua::core;
namespace mac = aqua::mac;

namespace {

constexpr int kNodes = 120;
constexpr int kGroup = 10;  // place_nodes' anchorage group size
constexpr double kSpacingM = 5.0;
constexpr std::size_t kPeriod = 14400;  // 0.3 s burst cycle
constexpr std::size_t kWindow = 9600;   // 0.2 s of lags searched per burst
// Medium blocks per wall second at W=2 on the reference 4-core x86_64 box.
constexpr double kNominalBlocksPerS = 8.0;
constexpr int kCheckPrefixBlocks = 4;

struct Pair {
  int from;
  int to;
  channel::LinkConfig cfg;
};

// Everything about the deployment that derives from the seed.
struct Deployment {
  channel::SitePreset site = channel::site_preset(channel::Site::kBridge);
  channel::MediumConfig mc;
  std::uint64_t seed = 0;
  std::vector<Pair> pairs;
  std::vector<std::size_t> phase;  // per group, samples
  std::vector<double> burst;

  explicit Deployment(std::uint64_t s) : seed(s) {
    mc.workers = 2;
    mc.cull_enabled = true;
    mc.cull.margin_db = 0.0;
    const auto pos = mac::place_nodes(mac::Placement::kHarbor, kNodes, kSpacingM, seed);
    const auto make_link = [&](double range, std::uint64_t link_seed) {
      channel::LinkConfig lc;
      lc.site = site;
      lc.range_m = range;
      lc.sample_rate_hz = kFs;
      lc.seed = link_seed;
      return lc;
    };
    const auto l1 = [](const std::vector<double>& fir) {
      double sum = 0.0;
      for (const double v : fir) sum += std::abs(v);
      return sum;
    };
    const channel::LinkConfig proto = make_link(1.0, seed);
    const double device_l1 = l1(channel::link_device_fir(proto, true)) *
                             l1(channel::link_device_fir(proto, false));
    // 1.5x past the audibility bound, as bench_harbor connects: the slack
    // band is connected but inaudible, so the culler decides.
    const double radius =
        1.5 * channel::audible_range_m(proto, device_l1,
                                       channel::noise_floor_rms(site.noise), mc.cull, 0.0);
    for (int a = 0; a < kNodes; ++a) {
      for (int b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        const auto& pa = pos[static_cast<std::size_t>(a)];
        const auto& pb = pos[static_cast<std::size_t>(b)];
        const double dist = std::hypot(pa.first - pb.first, pa.second - pb.second);
        if (dist > radius) continue;
        pairs.push_back({a, b,
                         make_link(std::max(dist, 0.1),
                                   seed * 131 + static_cast<std::uint64_t>(a) * kNodes +
                                       static_cast<std::uint64_t>(b))});
      }
    }
    std::mt19937_64 rng(mix_seed(seed));
    for (int g = 0; g < kNodes / kGroup; ++g) phase.push_back((rng() % 6) * 2400);
    burst = dsp::lfm_chirp(1000.0, 4000.0, 0.1, kFs);
    for (double& v : burst) v *= 0.5;
  }

  // Medium construction, endpoints and paths.
  void build(channel::AcousticMedium& m) const {
    for (int i = 0; i < kNodes; ++i) {
      m.add_endpoint(site.noise, channel::mic_noise_seed(seed, i), /*stable_id=*/i);
    }
    for (const Pair& p : pairs) m.connect(p.from, p.to, p.cfg);
  }

  // Group heads' speaker blocks for medium block `b`.
  void fill_tx(std::uint64_t b, std::vector<std::vector<double>>& tx) const {
    for (int i = 0; i < kNodes; i += kGroup) {
      const std::size_t off = phase[static_cast<std::size_t>(i / kGroup)];
      std::vector<double>& block = tx[static_cast<std::size_t>(i)];
      for (std::size_t k = 0; k < kBlock; ++k) {
        const std::size_t t = (b * kBlock + k + off) % kPeriod;
        block[k] = t < burst.size() ? burst[t] : 0.0;
      }
    }
  }
};

// Clocks a medium block by block; records per-block checksums and every
// receiver's |mic| (float) for the burst analysis.
struct Streamer {
  const Deployment& d;
  channel::AcousticMedium medium;
  std::vector<std::vector<double>> tx;
  std::vector<std::span<const double>> tx_spans;
  std::vector<std::vector<double>> rx;
  dsp::Workspace ws;

  Streamer(const Deployment& dep, int workers)
      : d(dep), medium(kFs, [&] {
          channel::MediumConfig mc = dep.mc;
          mc.workers = workers;
          return mc;
        }()),
        tx(kNodes, std::vector<double>(kBlock, 0.0)) {
    for (const auto& t : tx) tx_spans.emplace_back(t);
  }

  void step(std::uint64_t b) {
    d.fill_tx(b, tx);
    medium.step(tx_spans, rx, ws);
  }

  double checksum() const {
    double sum = 0.0;
    for (const auto& mic : rx) {
      for (const double v : mic) sum += std::abs(v);
    }
    return sum;
  }
};

struct BurstStats {
  std::uint64_t heard = 0;
  std::uint64_t sent = 0;  // burst x in-group receiver
  std::vector<double> latency_s;
  double min_peak = 1.0;   // weakest normalized correlation peak
};

BurstStats analyze_bursts(const Deployment& d, const std::vector<std::vector<float>>& mic) {
  BurstStats s;
  const dsp::BasicCrossCorrelator<float> corr(
      std::vector<float>(d.burst.begin(), d.burst.end()));
  dsp::Workspace ws;
  std::vector<float> out(kWindow + 1);
  const std::size_t samples = mic.empty() ? 0 : mic[1].size();
  for (int head = 0; head < kNodes; head += kGroup) {
    const std::size_t off = d.phase[static_cast<std::size_t>(head / kGroup)];
    // Burst starts: (start + off) % period == 0.
    for (std::size_t start = (kPeriod - off) % kPeriod;
         start + kWindow + d.burst.size() <= samples; start += kPeriod) {
      for (int r = head + 1; r < std::min(head + kGroup, kNodes); ++r) {
        const std::span<const float> x(mic[static_cast<std::size_t>(r)].data() + start,
                                       kWindow + d.burst.size());
        corr.normalized_into(x, out, ws);
        const auto peak = std::max_element(out.begin(), out.end());
        s.sent++;
        s.min_peak = std::min(s.min_peak, static_cast<double>(*peak));
        if (*peak < 0.2f) continue;
        s.heard++;
        s.latency_s.push_back(static_cast<double>(peak - out.begin()) / kFs);
      }
    }
  }
  return s;
}

}  // namespace

Result run_harbor(const Options& opt, Clock::time_point main_start) {
  Result r;
  // Warm-up: a two-node medium streamed for a few blocks fills the FFT plan
  // caches the render and noise paths use.
  {
    channel::MediumConfig mc;
    mc.workers = 2;
    channel::AcousticMedium warm(kFs, mc);
    const channel::SitePreset site = channel::site_preset(channel::Site::kBridge);
    channel::LinkConfig lc;
    lc.site = site;
    lc.seed = ~opt.seed;
    warm.add_endpoint(site.noise, 1);
    warm.add_endpoint(site.noise, 2);
    warm.connect(0, 1, lc);
    warm.connect(1, 0, lc);
    std::vector<double> a(kBlock, 0.1), b(kBlock, 0.0);
    const std::vector<std::span<const double>> tx{a, b};
    std::vector<std::vector<double>> rx;
    dsp::Workspace ws;
    for (int i = 0; i < 3; ++i) warm.step(tx, rx, ws);
  }
  const Deployment d(opt.seed);
  // At least 60 blocks: every group then sends a burst whose listen window
  // fits in the run.
  const int blocks =
      std::max(60, static_cast<int>(std::lround(opt.seconds * kNominalBlocksPerS)));
  std::vector<double> checksums;
  std::vector<std::vector<float>> mic(kNodes);  // every mix, as float
  std::vector<double> step_s;
  double run_s = 0.0;   // step time of the timed blocks
  double loop_s = 0.0;  // the timed loop, bookkeeping included
  obs::Registry metrics;
  std::size_t audible = 0;
  {
    Streamer s(d, 2);
    d.build(s.medium);
    s.step(0);  // the first step builds every audible path's stream
    checksums.push_back(s.checksum());
    announce_setup_done(main_start);
    if (opt.setup_only) return r;
    std::printf("harbor: %d nodes, %zu directed pairs, %d workers, %d blocks\n",
                kNodes, s.medium.connected_paths(), s.medium.workers(), blocks);
    for (auto& m : mic) m.reserve(static_cast<std::size_t>(blocks) * kBlock);
    const auto record = [&] {
      for (std::size_t i = 0; i < static_cast<std::size_t>(kNodes); ++i) {
        mic[i].insert(mic[i].end(), s.rx[i].begin(), s.rx[i].end());
      }
    };
    record();
    const Clock::time_point loop0 = Clock::now();
    for (int b = 1; b < blocks; ++b) {
      const Clock::time_point t0 = Clock::now();
      s.step(static_cast<std::uint64_t>(b));
      step_s.push_back(seconds_between(t0, Clock::now()));
      checksums.push_back(s.checksum());
      record();
    }
    loop_s = seconds_between(loop0, Clock::now());
    run_s = std::accumulate(step_s.begin(), step_s.end(), 0.0);
    metrics = s.medium.metrics();
    audible = s.medium.audible_paths();
  }
  // rtf: median over windows of 10 blocks.
  std::vector<double> rtf;
  for (std::size_t w = 0; w + 10 <= step_s.size(); w += 10) {
    const double wall = std::accumulate(step_s.begin() + static_cast<long>(w),
                                        step_s.begin() + static_cast<long>(w + 10), 0.0);
    rtf.push_back(10.0 * static_cast<double>(kBlock) / kFs / wall);
  }
  const BurstStats bursts = analyze_bursts(d, mic);
  mic.clear();
  mic.shrink_to_fit();

  r.attempted = static_cast<std::uint64_t>(blocks);
  r.e2e("rtf", median(rtf), "x");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  r.e2e("delivery_ratio", ratio(static_cast<double>(bursts.heard),
                                static_cast<double>(bursts.sent)), "ratio");
  r.e2e("latency_p50_s", percentile(bursts.latency_s, 50.0), "s");
  r.e2e("latency_p90_s", percentile(bursts.latency_s, 90.0), "s");
  print_ratio("delivery_ratio (bursts heard at in-group receivers)", bursts.heard,
              bursts.sent);
  std::printf("latency p50/p90 over %zu heard bursts; weakest correlation peak %.3f\n",
              bursts.latency_s.size(), bursts.min_peak);
  r.check(bursts.sent > 0 && bursts.heard > 0, "harbor heard no burst");
  for (const double c : checksums) r.check(std::isfinite(c) && c > 0.0, "harbor mix checksum");

  // Output check: W=1 must mix bit-identically (prefix here, all blocks
  // traced). `ops_failed` counts blocks whose checksum disagreed.
  const int check_blocks = opt.trace ? blocks : kCheckPrefixBlocks;
  std::vector<double> w1_step_s;
  {
    Streamer s(d, 1);
    d.build(s.medium);
    for (int b = 0; b < check_blocks; ++b) {
      const Clock::time_point t0 = Clock::now();
      s.step(static_cast<std::uint64_t>(b));
      if (b > 0) w1_step_s.push_back(seconds_between(t0, Clock::now()));
      const double c = s.checksum();
      if (std::memcmp(&c, &checksums[static_cast<std::size_t>(b)], sizeof c) != 0) {
        r.failed++;
      }
    }
  }
  std::printf("ops %d ops_failed %llu (medium blocks / blocks whose mix differs "
              "between W=1 and W=2 over %d checked)\n",
              blocks, static_cast<unsigned long long>(r.failed), check_blocks);
  r.check(r.failed == 0, "harbor mix differs between W=1 and W=2");
  if (!opt.trace) return r;

  // Traced run: the same deployment at W=2 with spans around each call.
  Tracer tr;
  ChannelLayer chan;
  CoreLayer core;
  ProtocolCounts proto;
  std::vector<std::vector<double>> listener_mic;
  {
    // Medium construction plus the first step, which builds every audible
    // path's stream.
    const SpanRef build = tr.begin("channel.build", 0);
    Streamer s(d, 2);
    d.build(s.medium);
    s.step(0);
    tr.end(build);
    listener_mic.push_back(s.rx[1]);
    Tracer::Scope run(tr, "sim.run", 0);
    for (int b = 1; b < blocks; ++b) {
      const auto id = static_cast<std::uint32_t>(b);
      {
        Tracer::Scope st(tr, "channel.step", id);
        s.step(static_cast<std::uint64_t>(b));
      }
      Tracer::Scope mix(tr, "bench.checksum", id);
      const double c = s.checksum();
      if (std::memcmp(&c, &checksums[static_cast<std::size_t>(b)], sizeof c) != 0) {
        r.failed++;
        r.check(false, "traced harbor block " + std::to_string(b) + " differs");
      }
      listener_mic.push_back(s.rx[1]);
    }
    const obs::Registry m = s.medium.metrics();
    chan.rendered_blocks = m.counter("medium.rendered_blocks");
    chan.culled_convolutions = m.counter("medium.culled_convolutions");
    chan.audible_pairs = s.medium.audible_paths();
    chan.mic_blocks = static_cast<std::uint64_t>(blocks) * kNodes;
    r.check(chan.rendered_blocks == metrics.counter("medium.rendered_blocks") &&
                chan.audible_pairs == audible,
            "traced harbor medium counters differ from the untraced run");
  }
  chan.build_ms = tr.total_ms("channel.build");
  chan.step_us = tr.durations_us("channel.step");
  const double w1 = std::accumulate(w1_step_s.begin(), w1_step_s.end(), 0.0);
  chan.pool_efficiency = ratio(w1, 2.0 * run_s);

  // A modem listening at node 1 (a group member): what receiving this
  // harbor's traffic costs one endpoint. No preamble is ever sent here.
  {
    Tracer::Scope run(tr, "core.listener", 0);
    core::ModemConfig mc;
    const SpanRef mb = tr.begin("core.modem_build", 0);
    core::Modem listener(mc);
    tr.end(mb);
    listener.set_metrics(&core.stages);
    std::vector<double> speaker(kBlock);
    for (std::size_t b = 0; b < listener_mic.size(); ++b) {
      const auto id = static_cast<std::uint32_t>(b);
      {
        Tracer::Scope pull(tr, "core.pull", id);
        listener.pull_tx(std::span<double>(speaker));
      }
      std::vector<core::ModemEvent> ev;
      {
        Tracer::Scope push(tr, "core.push", id);
        ev = listener.push(listener_mic[b]);
      }
      for (const core::ModemEvent& e : ev) {
        if (e.type == core::ModemEvent::Type::kPreambleDetected) proto.overheard++;
        if (e.type == core::ModemEvent::Type::kPacketDecoded) {
          proto.decoded++;
          proto.decoded_wrong++;  // nothing was sent, so any decode is wrong
        }
      }
    }
    core.audio_s = static_cast<double>(listener_mic.size() * kBlock) / kFs;
  }
  core.modem_build_ms = tr.total_ms("core.modem_build");
  core.push_us = tr.durations_us("core.push");
  core.pull_ms = tr.total_ms("core.pull");

  std::vector<MicSpec> mics;
  for (int i = 0; i < kNodes; i += 25) {
    mics.push_back({d.site.noise, channel::mic_noise_seed(d.seed, i)});
  }
  std::vector<channel::LinkConfig> paths;
  for (const Pair& p : d.pairs) {
    if (p.from / kGroup == p.to / kGroup) paths.push_back(p.cfg);
  }
  chan.component = component_pass(mics, paths);

  add_channel_layers(r, chan);
  add_core_layers(r, core, proto);
  add_sim_layers(r, tr, loop_s * 1e3, loop_s,
                 opt.out_dir + "/harbor-" + std::to_string(opt.seed) + ".spans.csv");
  return r;
}

}  // namespace perfbench
