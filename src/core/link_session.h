// End-to-end execution of the post-preamble feedback protocol over a
// simulated acoustic link (section 2.2, Fig. 5).
//
// One send_packet() call plays out the full sequence:
//   Alice: preamble + receiver-ID symbol        (forward direction)
//   Bob:   detect, check ID, estimate per-bin SNR, run Algorithm 1
//   Bob:   two-tone feedback symbol             (backward direction)
//   Alice: sliding-FFT feedback decode, encode data in the band
//   Alice: training symbol + data symbols       (forward direction)
//   Bob:   locate training, equalize, decode, ACK on success
// and returns a full trace (band, bitrate, errors) that the benches
// aggregate into the paper's figures.
//
// The exchange runs the way the app runs it: two duplex core::Modem
// endpoints clocked block by block through a full-duplex
// channel::AcousticMedium, every sample flowing through the streaming
// receive front end. The committed .aqt corpus (tests/traces) pins that
// path bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "channel/channel.h"
#include "channel/medium.h"
#include "core/modem.h"
#include "dsp/workspace.h"
#include "phy/bandselect.h"
#include "phy/datamodem.h"

namespace aqua::core {

/// Configuration of a protocol session between two devices.
struct SessionConfig {
  phy::OfdmParams params;
  channel::LinkConfig forward;      ///< Alice -> Bob link
  /// Node IDs are active-bin indices (section 2.3: 60 subcarriers => up to
  /// 60 users). Defaults sit mid-band where every device's response is
  /// strong; low bins (near 1 kHz) are the noisiest corner of the band.
  std::uint8_t alice_id = 28;
  std::uint8_t bob_id = 32;
  /// Overrides adaptation with a fixed band (the paper's fixed-bandwidth
  /// baselines: 1-4 kHz, 1-2.5 kHz, 1-1.5 kHz).
  std::optional<phy::BandSelection> fixed_band;
  phy::DecodeOptions decode;
  bool send_ack = true;
  /// Block size (samples) at which the duplex endpoints are clocked
  /// through the shared medium. Results are bit-identical for any value:
  /// every decision in the pipeline lives on the absolute sample grid.
  std::size_t medium_block_samples = 480;
  /// Shared-medium scaling knobs (worker pool, audibility culling). The
  /// defaults are one worker and no culling; results are bit-identical
  /// for any worker count either way.
  channel::MediumConfig medium;
};

/// Everything observable about one packet exchange.
struct PacketTrace {
  bool preamble_detected = false;
  bool id_matched = false;
  bool feedback_decoded = false;
  bool data_found = false;
  bool packet_ok = false;           ///< every info bit correct
  bool ack_received = false;
  phy::BandSelection band_selected; ///< Bob's Algorithm-1 output
  phy::BandSelection band_used;     ///< what Alice decoded from feedback
  bool feedback_exact = false;      ///< band_used == band_selected
  double selected_bitrate_bps = 0.0;
  std::vector<double> snr_db;       ///< Bob's per-bin SNR estimate
  std::size_t info_bits = 0;
  std::size_t info_bit_errors = 0;
  std::size_t coded_bits = 0;
  std::size_t coded_bit_errors = 0; ///< pre-Viterbi (uncoded) errors
  double preamble_metric = 0.0;
  std::vector<std::uint8_t> decoded_bits;  ///< Bob's decoded payload
  /// Session-QoE message latency on the shared sample timeline: Bob's
  /// decode position minus the medium clock at the send() call. Sample
  /// counts, so deterministic; divide by the sample rate for seconds.
  /// Valid only when `latency_valid` (the packet decoded).
  std::uint64_t latency_samples = 0;
  bool latency_valid = false;
  /// Transmit-machine kTxFailed events during the exchange (feedback never
  /// arrived) — the sweep's retransmission-pressure counter.
  std::size_t tx_failures = 0;
  /// Microphone samples pushed through both endpoints' receive DSP chains
  /// for this packet — the benches' samples/s metric.
  std::size_t samples_processed = 0;
};

/// Drives the streaming duplex exchange: one AcousticMedium carrying the
/// forward/backward link pair, and a Modem at each end.
class LinkSession {
 public:
  /// All endpoint DSP scratch (detection, decode, medium rendering) leases
  /// from `ws`, which must outlive the session. A sweep worker passes its
  /// own arena so back-to-back sessions reuse the same buffers.
  LinkSession(const SessionConfig& config, dsp::Workspace& ws);

  /// Executes one full packet exchange carrying `info_bits` (0/1 values)
  /// over the streaming duplex pipeline: two Modems on one AcousticMedium,
  /// a continuous shared sample clock, every mic sample through the
  /// overlap-save front end exactly once. The medium and both endpoints
  /// are built on the first call and persist, so back-to-back packets ride
  /// one evolving timeline (mobility keeps drifting, scanners keep their
  /// state).
  PacketTrace send_packet(std::span<const std::uint8_t> info_bits);

  const SessionConfig& config() const { return config_; }

  /// Attaches a capture sink to the streaming pipeline: Alice records as
  /// endpoint 0, Bob as endpoint 1, and the medium reports both mixed mic
  /// streams. Attach before the first send_packet() for a replayable
  /// trace; nullptr detaches. The sink must outlive the session.
  void set_trace_sink(obs::TraceSink* sink);
  /// Attaches a metrics registry for the endpoints' DSP stage timers.
  void set_metrics(obs::Registry* metrics);

 private:
  void ensure_duplex();

  SessionConfig config_;
  dsp::Workspace& ws_;  ///< borrowed
  obs::TraceSink* sink_ = nullptr;    ///< borrowed; forwarded on build
  obs::Registry* metrics_ = nullptr;  ///< borrowed; forwarded on build
  std::unique_ptr<channel::AcousticMedium> medium_;
  std::unique_ptr<Modem> alice_;
  std::unique_ptr<Modem> bob_;
};

/// The per-bin SNR a receiver estimates from a lone preamble sent over
/// `ch` right now; empty when the preamble is missed. Advances the
/// channel's clock, so a second probe sees the link a preamble later.
/// Used by the Fig. 9/13/16 benches.
std::vector<double> probe_snr(channel::UnderwaterChannel& ch,
                              const phy::OfdmParams& params);

}  // namespace aqua::core
