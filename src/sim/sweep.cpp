#include "sim/sweep.h"

#include <algorithm>
#include <cstdio>
#include <random>

namespace aqua::sim {

void BatchStats::merge(const BatchStats& other) {
  sent += other.sent;
  preamble_detected += other.preamble_detected;
  feedback_ok += other.feedback_ok;
  delivered += other.delivered;
  feedback_exact += other.feedback_exact;
  bitrates.insert(bitrates.end(), other.bitrates.begin(), other.bitrates.end());
  coded_errors += other.coded_errors;
  coded_bits += other.coded_bits;
  samples += other.samples;
  qoe.merge(other.qoe);
  pipeline.merge(other.pipeline);
}

double BatchStats::median_bitrate() const {
  if (bitrates.empty()) return 0.0;
  std::vector<double> v = bitrates;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string motion_name(channel::MotionKind kind) {
  switch (kind) {
    case channel::MotionKind::kStatic: return "static";
    case channel::MotionKind::kSlow: return "slow";
    case channel::MotionKind::kFast: return "fast";
  }
  return "unknown";
}

std::string scenario_label(const Scenario& s) {
  char buf[64];
  std::string label = channel::site_name(s.site);
  std::snprintf(buf, sizeof buf, " %.0fm", s.range_m);
  label += buf;
  if (s.snr_offset_db != 0.0) {
    std::snprintf(buf, sizeof buf, " snr%+.0fdB", s.snr_offset_db);
    label += buf;
  }
  if (s.motion != channel::MotionKind::kStatic) {
    // Plain appends: GCC 12's -Wrestrict misfires on operator+ temporaries
    // (PR105329), and the warning state is locked in with -Werror.
    label += ' ';
    label += motion_name(s.motion);
  }
  if (s.scheme != "adaptive") {
    label += " [";
    label += s.scheme;
    label += ']';
  }
  return label;
}

core::SessionConfig session_config(const Scenario& s) {
  core::SessionConfig cfg;
  cfg.forward.site = channel::site_preset(s.site);
  // Raising the SNR by X dB == lowering the ambient-noise level by X dB.
  cfg.forward.site.noise.level_db -= s.snr_offset_db;
  cfg.forward.range_m = s.range_m;
  cfg.forward.motion = s.motion;
  cfg.fixed_band = s.fixed_band;
  return cfg;
}

BatchStats run_packet_range(const core::SessionConfig& base, int begin,
                            int end, std::uint64_t seed_base,
                            std::size_t payload_bits, dsp::Workspace& ws,
                            const PacketHooks& hooks) {
  BatchStats stats;
  for (int i = begin; i < end; ++i) {
    core::SessionConfig cfg = base;
    cfg.forward.seed = seed_base + static_cast<std::uint64_t>(i) * 131;
    core::LinkSession session(cfg, ws);
    if (hooks.sink && i == hooks.sink_packet) {
      session.set_trace_sink(hooks.sink);
    }
    session.set_metrics(&stats.pipeline);
    // Payload derived from the packet index alone (splitmix-style stir) so
    // chunk boundaries cannot change what packet i carries.
    std::mt19937_64 rng(seed_base * 77 + 5 +
                        static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
    std::vector<std::uint8_t> bits(payload_bits);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
    const core::PacketTrace t = session.send_packet(bits);
    stats.sent++;
    if (t.preamble_detected) stats.preamble_detected++;
    if (t.feedback_decoded) stats.feedback_ok++;
    if (t.feedback_exact) stats.feedback_exact++;
    if (t.packet_ok) stats.delivered++;
    if (t.selected_bitrate_bps > 0.0) {
      stats.bitrates.push_back(t.selected_bitrate_bps);
    }
    stats.coded_errors += t.coded_bit_errors;
    stats.coded_bits += t.coded_bits;
    stats.samples += t.samples_processed;
    if (t.latency_valid) {
      stats.qoe.record("latency_s",
                       static_cast<double>(t.latency_samples) /
                           base.forward.sample_rate_hz);
    }
    if (t.tx_failures > 0) stats.qoe.add("tx_failed", t.tx_failures);
  }
  return stats;
}

}  // namespace aqua::sim
