// Packet-batch execution and statistics for the figure-reproduction
// sweeps.
//
// A sweep point is one session configuration run for a batch of packets
// (runner.h). run_packet_range executes any slice of a batch, factored so
// that any chunking of the batch merges to bit-identical aggregate
// statistics. Scenario names a point on the site / range / SNR offset /
// mobility / band-scheme axes that most of the paper's evaluations walk;
// session_config() turns it into the configuration a point runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "channel/environment.h"
#include "channel/mobility.h"
#include "core/link_session.h"
#include "dsp/workspace.h"
#include "obs/registry.h"
#include "phy/bandselect.h"

namespace aqua::sim {

/// Aggregate statistics over a batch of protocol packets. Merging partial
/// batches in packet order reproduces the single-batch result exactly.
struct BatchStats {
  int sent = 0;
  int preamble_detected = 0;
  int feedback_ok = 0;
  int delivered = 0;           ///< packet_ok
  int feedback_exact = 0;
  std::vector<double> bitrates;  ///< selected (info) bitrate per packet
  std::size_t coded_errors = 0;
  std::size_t coded_bits = 0;
  /// Receiver-side samples pushed through the DSP chain (throughput
  /// accounting for the perf baseline).
  std::uint64_t samples = 0;
  /// Session QoE: histogram "latency_s" (absolute-timeline message latency
  /// of every delivered packet, seconds) and counter "tx_failed"
  /// (transmit-machine failures = retransmission pressure). Same merge
  /// discipline as the scalar fields, so percentiles are bit-identical for
  /// any thread count.
  obs::Registry qoe;
  /// Per-stage DSP pipeline timing: counters "<stage>.ns" / "<stage>.calls"
  /// from the endpoints' obs::StageTimers. Wall-clock, so values vary run
  /// to run — report it in perf JSON or on stderr only, never in the
  /// deterministic stdout tables. (Counter merges are sums, so aggregation
  /// is still thread-count independent in structure.)
  obs::Registry pipeline;

  /// Accumulates `other` after this one (order matters for `bitrates` and
  /// the `qoe` histograms).
  void merge(const BatchStats& other);

  double per() const {
    return sent > 0 ? 1.0 - static_cast<double>(delivered) / sent : 1.0;
  }
  double coded_ber() const {
    return coded_bits > 0
               ? static_cast<double>(coded_errors) / static_cast<double>(coded_bits)
               : 0.0;
  }
  double median_bitrate() const;
  double detection_rate() const {
    return sent > 0 ? static_cast<double>(preamble_detected) / sent : 0.0;
  }
  double delivery_ratio() const {
    return sent > 0 ? static_cast<double>(delivered) / sent : 0.0;
  }
  /// Message-latency percentile in seconds over delivered packets (0.0
  /// when nothing was delivered).
  double latency_percentile_s(double p) const {
    const obs::Histogram* h = qoe.histogram("latency_s");
    return h ? h->percentile(p) : 0.0;
  }
};

/// One point of the evaluation grid.
struct Scenario {
  channel::Site site = channel::Site::kBridge;
  double range_m = 5.0;
  /// Added to the link SNR by lowering the site's ambient-noise level by
  /// the same amount (0 = the site as measured).
  double snr_offset_db = 0.0;
  channel::MotionKind motion = channel::MotionKind::kStatic;
  /// nullopt = adaptive band selection (the paper's system); otherwise one
  /// of the fixed-bandwidth baselines.
  std::optional<phy::BandSelection> fixed_band;
  /// Display name for the band scheme ("adaptive" when fixed_band unset).
  std::string scheme = "adaptive";
};

/// Human-readable mobility-regime name.
std::string motion_name(channel::MotionKind kind);

/// "site range_m=... [snr+X dB] [motion] [scheme]" label for tables.
std::string scenario_label(const Scenario& s);

/// Builds the session configuration for a grid point: site preset with the
/// SNR offset folded into the ambient-noise level, range, and motion on the
/// forward link, plus the fixed band override when the scheme is not
/// adaptive.
core::SessionConfig session_config(const Scenario& s);

/// Optional per-packet instrumentation for run_packet_range. The sink
/// attaches to exactly one packet's session (a fresh session per packet
/// means one trace per packet), so a capture never spans chunk boundaries.
struct PacketHooks {
  obs::TraceSink* sink = nullptr;  ///< capture sink, or nullptr
  int sink_packet = -1;            ///< packet index the sink attaches to
};

/// Runs packets [begin, end) of an n-packet batch over fresh sessions (new
/// channel realization per packet). Packet i is fully determined by
/// (seed_base, i) — its channel seed and payload bits are derived from the
/// packet index, never from previously run packets — so splitting [0, n)
/// into chunks and merging the partial stats in index order is
/// bit-identical to one serial pass. Every session in the range leases its
/// DSP scratch from `ws` (the sweep workers pass their per-thread arenas);
/// scratch reuse never changes results.
BatchStats run_packet_range(const core::SessionConfig& base, int begin,
                            int end, std::uint64_t seed_base,
                            std::size_t payload_bits, dsp::Workspace& ws,
                            const PacketHooks& hooks = {});

}  // namespace aqua::sim
