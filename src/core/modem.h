// Duplex streaming modem endpoint — the one protocol object both sides of
// a link instantiate, mirroring how the phone app runs: a microphone
// stream goes in through push(), a speaker stream comes out through
// pull_tx(), and everything the protocol decides surfaces as events.
//
//   mic  ──► push() ──► [bandpass ─ correlate ─ confirm]  PreambleScanner
//                        │ detections            ┌──────────────────────┐
//                        ▼                       │  receive machine     │
//                   raw sample ring ───────────► │  ID / SNR / band     │
//                        │                       │  data decode / ACK   │
//                        │                       └──────────┬───────────┘
//                        ▼                                  │ waveforms
//                   ┌──────────────────────┐                ▼
//                   │  transmit machine    │ ──────►  speaker queue
//                   │  preamble+ID ─ wait  │                │
//                   │  feedback ─ data ─   │                ▼
//                   │  wait ACK            │           pull_tx() ──► out
//                   └──────────────────────┘
//
// Each input sample passes the receive front end (bandpass + preamble
// correlation) exactly once, through stateful overlap-save streams, so the
// per-push cost is O(chunk · log B) — independent of how much audio the
// endpoint retains. Every protocol decision (ID windows, feedback/ACK
// listen windows, the data deadline) is anchored to absolute positions on
// the sample timeline, never to push boundaries: feeding the same stream
// in different chunk sizes produces byte-identical event sequences.
//
// The receive front end (mic bandpass, preamble scanning, ID/feedback/ACK
// tone scans) runs in fp32: microphone samples are narrowed to float
// exactly once at the push() boundary. The estimation machinery (channel
// estimate, data decode) always reads the raw double ring, so payload BER
// does not depend on the front-end precision.
//
// The receive and transmit machines are symmetric in the SRMCA sense: the
// same endpoint both originates packets (send()) and answers others'
// (feedback / ACK waveforms are queued onto its own speaker), so N modems
// on one channel::AcousticMedium form a network with no per-direction
// special cases.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "dsp/workspace.h"
#include "phy/bandselect.h"
#include "phy/datamodem.h"
#include "phy/feedback.h"
#include "phy/preamble.h"

namespace aqua::obs {
class Registry;
class TraceSink;
}  // namespace aqua::obs

namespace aqua::core {

/// What the modem tells the application.
struct ModemEvent {
  enum class Type {
    // Receive side.
    kPreambleDetected,    ///< preamble confirmed (any destination)
    kAddressedToUs,       ///< ID matched; feedback queued on the speaker
    kPacketDecoded,       ///< `payload_bits` holds the decoded packet
    kPacketFailed,        ///< data window elapsed without a decodable packet
    // Transmit side.
    kTxFeedbackReceived,  ///< band feedback decoded; data queued
    kTxDataSent,          ///< data waveform handed to the speaker queue
    kTxComplete,          ///< exchange finished (`ack_received` says how)
    kTxFailed,            ///< no feedback inside the listen window
  };
  Type type;
  /// Absolute microphone-sample position of the decision that produced the
  /// event (detection start, or the decode-window end).
  std::uint64_t stream_pos = 0;
  double preamble_metric = 0.0;
  /// Normalized training-symbol correlation of the data decode
  /// (kPacketDecoded / kPacketFailed). Weak values (< ~0.5) mean the
  /// decoder locked onto noise — e.g. the transmitter never sent the data
  /// because the feedback was lost — so treat the payload as suspect.
  double training_metric = 0.0;
  phy::BandSelection band;                 ///< selected / decoded band
  std::vector<double> snr_db;              ///< per-bin SNR (kAddressedToUs)
  std::vector<std::uint8_t> payload_bits;  ///< kPacketDecoded only
  std::vector<std::uint8_t> coded_hard;    ///< pre-Viterbi hard decisions
  bool ack_received = false;               ///< kTxComplete only
};

/// Duplex endpoint configuration. Protocol timing is not configured: it
/// follows from `params` (protocol_timing()).
struct ModemConfig {
  phy::OfdmParams params;
  std::uint8_t my_id = 32;           ///< active-bin index we answer to
  std::size_t payload_bits = 16;     ///< fixed app packet size (two signals)
  bool send_ack = true;  ///< rx: ACK decoded packets; tx: wait for the ACK
  /// Fixed-bandwidth baseline: both endpoints skip the feedback exchange
  /// and use this band (the paper's 1-4 / 1-2.5 / 1-1.5 kHz baselines).
  std::optional<phy::BandSelection> fixed_band;
  phy::DecodeOptions decode;
};

/// The protocol's windows and latencies in samples, derived from the
/// numerology by protocol_timing(): symbol-counted terms (preamble, ID
/// wait, tone airtime, the scanner's decision lag) scale with the symbol;
/// the speaker latency, the maximum-range round trip and each window's
/// guard are fixed times.
struct ProtocolTiming {
  /// A response waveform starts exactly this long after its decision's
  /// absolute gate (the queue is zero-padded up to it), so exchanges are
  /// invariant to any clocking block <= speaker_latency.
  std::size_t speaker_latency = 0;
  /// rx: the ID decision gate past the preamble end (the ID symbol plus
  /// the tone decoder's trailing noise windows).
  std::size_t id_wait = 0;
  /// rx: the feedback's anchor past the ID gate, beyond the scanner's
  /// worst decision point so the feedback start never quantizes to the
  /// caller's block.
  std::size_t feedback_anchor = 0;
  /// tx: band-feedback listen window after the preamble+ID plays out.
  std::size_t feedback_window = 0;
  /// rx: data deadline slack past the sender's feedback window.
  std::size_t data_slack = 0;
  /// tx: ACK listen window after the data plays out.
  std::size_t ack_window = 0;
  std::size_t header = 0;  ///< preamble+ID airtime
  std::size_t symbol = 0;  ///< samples per symbol including the CP

  /// Bound on send() (idle endpoint, mic and speaker clocks in lockstep)
  /// to kTxComplete or kTxFailed for a `payload_bits` packet sent at one
  /// bin per symbol, the narrowest band.
  std::size_t exchange_bound(std::size_t payload_bits) const;
};

/// Derives every protocol window from the numerology.
ProtocolTiming protocol_timing(const phy::OfdmParams& params);

/// Duplex streaming protocol endpoint (either side of Fig. 5).
class Modem {
 public:
  /// All DSP scratch leases from an arena the modem owns.
  explicit Modem(const ModemConfig& config);
  /// All DSP scratch — detection, tone/band decodes, the data decode —
  /// leases from `ws`, which must outlive the modem. Sweep workers pass
  /// their per-thread arenas; back-to-back packets reuse the same buffers.
  Modem(const ModemConfig& config, dsp::Workspace& ws);

  /// Feeds a block of microphone samples (any size, zero included) and
  /// returns the events it triggered. NaN/Inf samples are replaced by 0.
  std::vector<ModemEvent> push(std::span<const double> mic);

  /// Fills `speaker` with the next transmit samples (silence when the
  /// queue is empty).
  void pull_tx(std::span<double> speaker);
  std::vector<double> pull_tx(std::size_t n);

  /// Queues `info_bits` (0/1 values) for transmission to `dest_id`. The
  /// exchange starts immediately when the transmit machine is idle, else
  /// after the in-flight message completes.
  void send(std::span<const std::uint8_t> info_bits, std::uint8_t dest_id);

  enum class RxState { kSearching, kAwaitingData };
  enum class TxState { kIdle, kWaitFeedback, kWaitAck };
  RxState rx_state() const { return rx_state_; }
  TxState tx_state() const { return tx_state_; }
  /// True when nothing is being transmitted and no message is queued.
  bool tx_idle() const;

  /// Samples currently waiting in the speaker queue.
  std::size_t tx_pending() const { return tx_queue_.size() - tx_head_; }
  /// Total samples pushed / pulled (the endpoint's two clocks).
  std::uint64_t rx_position() const { return rx_pos_; }
  std::uint64_t tx_position() const { return tx_pos_; }
  /// Raw samples currently buffered (while searching, bounded by the
  /// scanner's decision lag plus the lazy compaction slack).
  std::size_t buffered() const { return buffer_.size(); }

  const ModemConfig& config() const { return config_; }
  const ProtocolTiming& timing() const { return timing_; }

  /// Adjusts the fixed app packet size (drives the receive-side data
  /// deadline). Takes effect for packets whose preamble has not been
  /// processed yet.
  void set_payload_bits(std::size_t bits);

  /// Attaches a capture sink (obs/sink.h); nullptr detaches. `endpoint_id`
  /// tags this modem's records in the shared trace. Attach before the first
  /// push/pull or the capture will not replay from the stream origin; the
  /// sink must outlive the modem (or be detached first). Costs one branch
  /// per push/pull/send when detached.
  void set_trace_sink(obs::TraceSink* sink, int endpoint_id = 0);
  /// Attaches a per-worker metrics registry for DSP stage timers
  /// ("dsp.<stage>.ns" / ".calls"); nullptr (the default) disables timing.
  void set_metrics(obs::Registry* metrics) { metrics_ = metrics; }
  obs::Registry* metrics() const { return metrics_; }

 private:
  struct Outgoing {
    std::vector<std::uint8_t> bits;
    std::uint8_t dest_id = 0;
  };

  /// The buffered mic samples [from, from + len), or nullopt when any of
  /// them lies outside the ring (already trimmed, or not yet pushed): the
  /// stage that asked fails instead of reading past the ring.
  std::optional<std::span<const double>> raw(std::uint64_t from,
                                             std::size_t len) const;
  /// Same window as raw(), narrowed to float for the receive front end
  /// (the sanctioned mic-boundary conversion).
  /// The returned span aliases a member scratch vector — consume it before
  /// the next raw_rx() call.
  std::optional<std::span<const float>> raw_rx(std::uint64_t from,
                                                std::size_t len) const;
  void enqueue_tx(std::span<const double> wave);
  /// Queues `wave` to start exactly speaker_latency after `decision_pos`
  /// on the shared clock (zero-padding the queue up to it); returns the
  /// absolute position where the waveform ends.
  std::uint64_t enqueue_tx_at(std::uint64_t decision_pos,
                              std::span<const double> wave);
  void start_next_message();
  bool rx_step(std::vector<ModemEvent>& events);
  bool tx_step(std::vector<ModemEvent>& events);
  void trim_buffer();

  ModemConfig config_;
  ProtocolTiming timing_;
  /// The arena when the owner injects none. Workspace is not movable, so
  /// neither is Modem, and ws_ never points into a moved-from modem.
  dsp::Workspace own_ws_;
  dsp::Workspace& ws_;  ///< own_ws_, or the borrowed arena
  obs::TraceSink* sink_ = nullptr;   ///< borrowed capture hook; may be null
  int sink_endpoint_ = 0;            ///< this modem's id within the trace
  obs::Registry* metrics_ = nullptr; ///< borrowed stage-timer registry
  phy::Preamble preamble_;
  phy::PreambleScanner scanner_;
  phy::FeedbackCodec feedback_;
  phy::DataModem modem_;
  phy::Ofdm ofdm_;

  // Raw microphone ring: buffer_[0] is absolute sample buffer_base_.
  std::vector<double> buffer_;
  std::uint64_t buffer_base_ = 0;
  std::uint64_t rx_pos_ = 0;
  std::vector<float> rx_chunk_;  ///< mic chunk narrowed for the scanner
  mutable std::vector<float> rx_window_;  ///< raw_rx() narrowing scratch
  std::vector<phy::PreambleDetection> det_tmp_;
  std::deque<phy::PreambleDetection> detections_;

  // Receive machine.
  RxState rx_state_ = RxState::kSearching;
  phy::BandSelection band_;
  std::uint64_t data_origin_ = 0;    ///< abs position where data may start
  std::uint64_t data_deadline_ = 0;  ///< decode once rx_pos_ reaches this
  std::uint64_t ignore_before_ = 0;  ///< drop detections below this position

  // Transmit machine.
  TxState tx_state_ = TxState::kIdle;
  std::deque<Outgoing> tx_messages_;
  std::vector<std::uint8_t> tx_bits_;      ///< bits of the in-flight message
  std::vector<double> tx_queue_;
  std::size_t tx_head_ = 0;
  std::uint64_t tx_pos_ = 0;
  std::uint64_t phase1_end_ = 0;   ///< tx position where preamble+ID ends
  std::uint64_t fb_deadline_ = 0;  ///< decode feedback at this rx position
  std::uint64_t data_end_ = 0;     ///< tx position where the data ends
  std::uint64_t ack_deadline_ = 0; ///< decode the ACK at this rx position
};

}  // namespace aqua::core
