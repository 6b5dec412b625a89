#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "dsp/chirp.h"
#include "dsp/workspace.h"

namespace perfbench {

namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// Up to `limit` indices spread evenly over [0, n).
std::vector<std::size_t> spread(std::size_t n, std::size_t limit) {
  std::vector<std::size_t> out;
  const std::size_t k = std::min(n, limit);
  for (std::size_t i = 0; i < k; ++i) out.push_back(i * n / k);
  return out;
}

}  // namespace

void print_ratio(const char* name, std::uint64_t num, std::uint64_t den) {
  std::printf("%s %.6f (%llu/%llu)\n", name,
              ratio(static_cast<double>(num), static_cast<double>(den)),
              static_cast<unsigned long long>(num),
              static_cast<unsigned long long>(den));
}

ComponentCost component_pass(const std::vector<MicSpec>& mics,
                             const std::vector<channel::LinkConfig>& paths) {
  constexpr int kBlocks = 40;
  constexpr std::size_t kLimit = 8;
  ComponentCost c;
  double sink = 0.0;  // keeps the generated samples observable

  std::vector<double> us;
  for (const std::size_t i : spread(mics.size(), kLimit)) {
    channel::NoiseGenerator gen(mics[i].noise, kFs, mics[i].seed);
    sink += gen.generate(kBlock)[0];  // first block outside the timing
    for (int b = 0; b < kBlocks; ++b) {
      const Clock::time_point t0 = Clock::now();
      const std::vector<double> block = gen.generate(kBlock);
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      sink += block[0];
    }
  }
  c.noise_us_per_block = sum(us) / static_cast<double>(std::max<std::size_t>(us.size(), 1));

  std::vector<double> tx = dsp::lfm_chirp(1000.0, 4000.0, 0.01, kFs);
  tx.resize(kBlock, 0.0);
  dsp::Workspace ws;
  std::vector<double> out;
  us.clear();
  for (const std::size_t i : spread(paths.size(), kLimit)) {
    const channel::UnderwaterChannel ch(paths[i]);
    channel::UnderwaterChannel::Stream stream = ch.stream();
    stream.push(tx, out, ws);
    for (int b = 0; b < kBlocks; ++b) {
      out.clear();
      const Clock::time_point t0 = Clock::now();
      stream.push(tx, out, ws);
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      sink += out[0];
    }
  }
  c.render_us_per_block = sum(us) / static_cast<double>(std::max<std::size_t>(us.size(), 1));
  if (!std::isfinite(sink)) std::printf("component pass: non-finite samples\n");
  return c;
}

void add_channel_layers(Result& r, const ChannelLayer& c) {
  const double step_ms = sum(c.step_us) / 1e3;
  r.layer("channel.build_ms", c.build_ms, "ms");
  r.layer("channel.step_ms", step_ms, "ms");
  r.layer("channel.step_us_p50", percentile(c.step_us, 50.0), "us");
  r.layer("channel.step_us_p99", percentile(c.step_us, 99.0), "us");
  r.layer("channel.noise_us_per_block", c.component.noise_us_per_block, "us");
  r.layer("channel.render_us_per_block", c.component.render_us_per_block, "us");
  r.layer("channel.rendered_blocks", static_cast<double>(c.rendered_blocks), "count");
  r.layer("channel.culled_convolutions", static_cast<double>(c.culled_convolutions),
          "count");
  r.layer("channel.audible_pairs", static_cast<double>(c.audible_pairs), "count");
  const std::uint64_t convolutions = c.rendered_blocks + c.culled_convolutions;
  r.layer("channel.cull_ratio",
          ratio(static_cast<double>(c.culled_convolutions),
                static_cast<double>(convolutions)),
          "ratio");
  r.layer("channel.pool_efficiency", c.pool_efficiency, "ratio");

  // Split of step time estimated from the component pass.
  const double noise_ms =
      c.component.noise_us_per_block * static_cast<double>(c.mic_blocks) / 1e3;
  const double render_ms = c.component.render_us_per_block *
                           static_cast<double>(c.rendered_blocks) / 1e3;
  std::printf("channel.step split: %.1f ms over %zu steps ~ noise %.1f%% "
              "(%.1f us x %llu mic blocks) + render %.1f%% (%.1f us x %llu "
              "path blocks) + mix/pool/cull %.1f%%\n",
              step_ms, c.step_us.size(), 100.0 * ratio(noise_ms, step_ms),
              c.component.noise_us_per_block,
              static_cast<unsigned long long>(c.mic_blocks),
              100.0 * ratio(render_ms, step_ms),
              c.component.render_us_per_block,
              static_cast<unsigned long long>(c.rendered_blocks),
              100.0 * ratio(step_ms - noise_ms - render_ms, step_ms));
  print_ratio("channel.cull_ratio", c.culled_convolutions, convolutions);
}

void add_core_layers(Result& r, const CoreLayer& c, const ProtocolCounts& p) {
  const double push_ms = sum(c.push_us) / 1e3;
  const double busy_s = (push_ms + c.pull_ms) / 1e3;
  r.layer("core.modem_build_ms", c.modem_build_ms, "ms");
  r.layer("core.push_ms", push_ms, "ms");
  r.layer("core.push_us_p50", percentile(c.push_us, 50.0), "us");
  r.layer("core.push_us_p99", percentile(c.push_us, 99.0), "us");
  r.layer("core.pull_ms", c.pull_ms, "ms");
  r.layer("core.modem_rtf", ratio(c.audio_s, busy_s), "x");
  r.layer("phy.scan_ms", static_cast<double>(c.stages.counter("dsp.scan.ns")) / 1e6,
          "ms");
  r.layer("phy.scan.calls", static_cast<double>(c.stages.counter("dsp.scan.calls")),
          "count");
  r.layer("core.decoded", static_cast<double>(p.decoded), "count");
  r.layer("core.decoded_wrong", static_cast<double>(p.decoded_wrong), "count");
  r.layer("core.tx_failed", static_cast<double>(p.tx_failed), "count");
  r.layer("core.false_decode_ratio",
          ratio(static_cast<double>(p.decoded_wrong), static_cast<double>(p.sent)),
          "ratio");
  r.layer("core.ack_truth_ratio",
          ratio(static_cast<double>(p.ack_truthful), static_cast<double>(p.sent)),
          "ratio");
  r.layer("phy.detect_ratio",
          ratio(static_cast<double>(p.detected_addressed),
                static_cast<double>(p.sent)),
          "ratio");
  r.layer("mac.overheard_preambles", static_cast<double>(p.overheard), "count");

  std::printf("core: %zu pushes, push %.1f ms, pull %.1f ms, %.2f audio s\n",
              c.push_us.size(), push_ms, c.pull_ms, c.audio_s);
  // The receive stages past the scan run only after a detection; they are
  // reported here (and in the span file) rather than as per-layer metrics,
  // because a workload without detections has nothing to time.
  for (const char* stage : {"tone", "feedback", "chanest", "data_decode"}) {
    const std::string key = std::string("dsp.") + stage;
    std::printf("phy.%s_ms %.3f (calls %llu)\n", stage,
                static_cast<double>(c.stages.counter(key + ".ns")) / 1e6,
                static_cast<unsigned long long>(c.stages.counter(key + ".calls")));
  }
  print_ratio("core.false_decode_ratio", p.decoded_wrong, p.sent);
  print_ratio("core.ack_truth_ratio", p.ack_truthful, p.sent);
  print_ratio("phy.detect_ratio", p.detected_addressed, p.sent);
}

void add_sim_layers(Result& r, const Tracer& t, double run_ms,
                    double untraced_wall_s, const std::string& path) {
  const double traced_wall_s = t.total_ms("sim.run") / 1e3;
  const double coverage = t.coverage();
  r.layer("sim.run_ms", run_ms, "ms");
  r.layer("sim.coverage", coverage, "ratio");
  r.layer("trace.overhead", ratio(traced_wall_s, untraced_wall_s), "ratio");

  const auto stats = t.stats();
  std::vector<std::pair<std::string, Tracer::Stat>> rows(stats.begin(), stats.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::printf("spans: %zu over %.3f s of root spans; sim.run traced %.3f s, "
              "untraced %.3f s\n",
              t.size(), t.root_wall_s(), traced_wall_s, untraced_wall_s);
  std::printf("  %-24s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, st] : rows) {
    std::printf("  %-24s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(st.count), st.total_ms, st.self_ms);
  }
  std::printf("sim.coverage %.4f of traced wall in leaf spans\n", coverage);
  if (coverage < 0.9) {
    // The uncovered time is the self time of spans that have children.
    for (const auto& [name, st] : rows) {
      if (st.leaf || st.self_ms <= 0.0) continue;
      std::printf("  uncovered gap: %s self %.3f ms (%.1f%% of traced wall)\n",
                  name.c_str(), st.self_ms,
                  100.0 * st.self_ms / 1e3 / std::max(t.root_wall_s(), 1e-9));
    }
  }
  if (t.write(path)) {
    std::printf("spans written to %s\n", path.c_str());
  } else {
    std::printf("warning: could not write spans to %s\n", path.c_str());
  }
}

}  // namespace perfbench
