#include "core/link_session.h"

#include <algorithm>

#include "phy/chanest.h"

namespace aqua::core {

std::vector<double> probe_snr(channel::UnderwaterChannel& ch,
                              const phy::OfdmParams& params) {
  dsp::Workspace ws;
  const phy::Preamble preamble(params);
  const std::vector<double> rx = ch.transmit(preamble.waveform());
  const auto det = preamble.detect(rx, ws);
  if (!det) return {};
  const phy::Ofdm ofdm(params);
  return phy::estimate_channel(
             ofdm, std::span<const double>(rx).subspan(det->start_index),
             preamble.cazac_bins(), ws)
      .snr_db;
}

LinkSession::LinkSession(const SessionConfig& config, dsp::Workspace& ws)
    : config_(config), ws_(ws) {}

void LinkSession::set_trace_sink(obs::TraceSink* sink) {
  sink_ = sink;
  if (medium_) {
    medium_->set_trace_sink(sink_);
    alice_->set_trace_sink(sink_, 0);
    bob_->set_trace_sink(sink_, 1);
  }
}

void LinkSession::set_metrics(obs::Registry* metrics) {
  metrics_ = metrics;
  if (medium_) {
    alice_->set_metrics(metrics_);
    bob_->set_metrics(metrics_);
  }
}

void LinkSession::ensure_duplex() {
  if (medium_) return;
  // lint: alloc-ok(session construction, before any streaming)
  medium_ = std::make_unique<channel::AcousticMedium>(
      config_.forward.sample_rate_hz, config_.medium);
  channel::add_duplex_link(*medium_, config_.forward);

  ModemConfig mc;
  mc.params = config_.params;
  mc.send_ack = config_.send_ack;
  mc.fixed_band = config_.fixed_band;
  mc.decode = config_.decode;

  ModemConfig alice_cfg = mc;
  alice_cfg.my_id = config_.alice_id;
  ModemConfig bob_cfg = mc;
  bob_cfg.my_id = config_.bob_id;
  alice_ = std::make_unique<Modem>(alice_cfg, ws_);  // lint: alloc-ok(session construction, before any streaming)
  bob_ = std::make_unique<Modem>(bob_cfg, ws_);  // lint: alloc-ok(session construction, before any streaming)
  if (sink_) {
    medium_->set_trace_sink(sink_);
    alice_->set_trace_sink(sink_, 0);
    bob_->set_trace_sink(sink_, 1);
  }
  if (metrics_) {
    alice_->set_metrics(metrics_);
    bob_->set_metrics(metrics_);
  }
}

PacketTrace LinkSession::send_packet(std::span<const std::uint8_t> info_bits) {
  ensure_duplex();
  PacketTrace trace;
  trace.info_bits = info_bits.size();

  // The payload size feeds Bob's data-deadline arithmetic.
  alice_->set_payload_bits(info_bits.size());
  bob_->set_payload_bits(info_bits.size());

  // QoE latency anchor: both endpoints and the medium share one sample
  // timeline, so (Bob's decode position - the clock at send) is an exact,
  // deterministic message latency.
  const std::uint64_t send_clock = medium_->clock();
  alice_->send(info_bits, config_.bob_id);

  const std::size_t block = std::max<std::size_t>(config_.medium_block_samples, 1);
  const std::uint64_t cap =
      medium_->clock() + alice_->timing().exchange_bound(info_bits.size());

  // lint: alloc-ok(per-exchange block buffers: one setup per packet, amortized over ~2 s of simulated audio)
  std::vector<double> tx_a(block), tx_b(block);
  // lint: alloc-ok(per-exchange block buffers)
  std::vector<std::span<const double>> tx_spans{std::span<const double>(tx_a),
                                                std::span<const double>(tx_b)};
  // lint: alloc-ok(per-exchange block buffers)
  std::vector<std::vector<double>> rx;
  // lint: alloc-ok(default-constructed; holds the exchange's rare protocol events)
  std::vector<ModemEvent> ev;
  bool alice_done = false;
  while (medium_->clock() < cap) {
    alice_->pull_tx(std::span<double>(tx_a));
    bob_->pull_tx(std::span<double>(tx_b));
    medium_->step(tx_spans, rx, ws_);
    trace.samples_processed += 2 * block;

    ev = alice_->push(rx[0]);
    for (const ModemEvent& e : ev) {
      switch (e.type) {
        case ModemEvent::Type::kTxFeedbackReceived:
          trace.feedback_decoded = true;
          trace.band_used = e.band;
          break;
        case ModemEvent::Type::kTxComplete:
          trace.ack_received = e.ack_received;
          alice_done = true;
          break;
        case ModemEvent::Type::kTxFailed:
          trace.tx_failures++;
          alice_done = true;
          break;
        default:
          break;
      }
    }
    ev = bob_->push(rx[1]);
    for (ModemEvent& e : ev) {
      switch (e.type) {
        case ModemEvent::Type::kPreambleDetected:
          trace.preamble_detected = true;
          trace.preamble_metric = e.preamble_metric;
          break;
        case ModemEvent::Type::kAddressedToUs:
          trace.id_matched = true;
          trace.band_selected = e.band;
          trace.snr_db = std::move(e.snr_db);
          break;
        case ModemEvent::Type::kPacketDecoded:
        case ModemEvent::Type::kPacketFailed:
          if (e.type == ModemEvent::Type::kPacketDecoded) {
            trace.data_found = true;
            // lint: pos-sub-ok(decode events trail the send clock on the shared medium timeline)
            trace.latency_samples = e.stream_pos - send_clock;
            trace.latency_valid = true;
            trace.decoded_bits = std::move(e.payload_bits);
            trace.coded_bits = e.coded_hard.size();
            coding::ConvolutionalCodec codec(coding::CodeRate::kRate2_3);
            // lint: alloc-ok(per-packet BER bookkeeping on the decode event)
            const std::vector<std::uint8_t> coded_tx = codec.encode(info_bits);
            for (std::size_t i = 0;
                 i < e.coded_hard.size() && i < coded_tx.size(); ++i) {
              if (e.coded_hard[i] != coded_tx[i]) trace.coded_bit_errors++;
            }
          }
          break;
        default:
          break;
      }
    }
    // The exchange is over once Alice's machine has concluded and Bob is
    // back to searching (his terminal decode fires at an absolute deadline
    // Alice's ACK listen window always outlasts).
    if (alice_done && bob_->rx_state() == Modem::RxState::kSearching) break;
  }

  if (config_.fixed_band) {
    // Baselines have no feedback exchange to fail.
    trace.band_used = *config_.fixed_band;
    trace.band_selected = *config_.fixed_band;
    trace.feedback_decoded = true;
    trace.feedback_exact = true;
  } else {
    trace.feedback_exact =
        trace.feedback_decoded && trace.id_matched &&
        trace.band_used.begin_bin == trace.band_selected.begin_bin &&
        trace.band_used.end_bin == trace.band_selected.end_bin;
  }
  if (trace.feedback_decoded) {
    trace.selected_bitrate_bps =
        config_.params.reported_bitrate_bps(trace.band_used.width());
  }
  for (std::size_t i = 0;
       i < trace.decoded_bits.size() && i < info_bits.size(); ++i) {
    if ((trace.decoded_bits[i] & 1) != (info_bits[i] & 1)) {
      trace.info_bit_errors++;
    }
  }
  trace.packet_ok = trace.data_found &&
                    trace.decoded_bits.size() == info_bits.size() &&
                    trace.info_bit_errors == 0;
  return trace;
}

}  // namespace aqua::core
