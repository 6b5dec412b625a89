#include "core/modem.h"

#include <algorithm>
#include <cmath>

#include "coding/convolutional.h"
#include "dsp/types.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "phy/chanest.h"

namespace aqua::core {

namespace {

// Tone decoders want the symbol plus trailing audio for their
// noise-estimation windows; deciding earlier mis-rejects weak IDs.
constexpr std::size_t kIdWaitSymbols = 5;

// protocol_timing()'s terms counted in seconds. Speaker scheduling
// latency of a response waveform:
constexpr double kSpeakerLatencyS = 0.1;
// Round trip at the longest figure range (30 m): one way is ~0.18 s there
// (~0.16 s of device audio path, 20 ms of propagation), rounded up.
constexpr double kMaxRoundTripS = 0.4;
// Each window's guard: what it held beyond its named terms when the
// protocol was tuned at 50 Hz (samples at 48 kHz). The anchor's is margin
// over a worst-case bound; the listen windows' also cover multipath
// spread, the decoders' edge-noise windows and drift under motion.
constexpr double kAnchorGuardS = 3142.0 / 48000.0;
constexpr double kFeedbackGuardS = 6865.0 / 48000.0;
constexpr double kDataGuardS = 5146.0 / 48000.0;
constexpr double kAckGuardS = 10800.0 / 48000.0;

std::size_t compact_threshold() { return std::size_t{1} << 15; }

}  // namespace

ProtocolTiming protocol_timing(const phy::OfdmParams& params) {
  const auto samples = [&](double seconds) {
    return static_cast<std::size_t>(
        std::llround(seconds * params.sample_rate_hz));
  };
  ProtocolTiming t;
  t.symbol = params.symbol_total_samples();
  const std::size_t core =
      phy::OfdmParams::kPreambleSymbols * params.symbol_samples();
  const std::size_t tone = phy::FeedbackCodec::kRepeats * t.symbol;
  const std::size_t round_trip = samples(kMaxRoundTripS);
  t.header = params.cp_samples() + core + tone;
  t.id_wait = kIdWaitSymbols * t.symbol;
  t.speaker_latency = samples(kSpeakerLatencyS);
  // The ID gate lies core + id_wait past the detection start, which the
  // scanner may decide up to its lag past.
  const std::size_t lag = phy::PreambleScanner::max_decision_lag(params);
  const std::size_t gate = core + t.id_wait;
  t.feedback_anchor = (lag > gate ? lag - gate : 0) + samples(kAnchorGuardS);
  // The receiver's preamble ends one ID airtime before the sender's header
  // does (plus the one-way delay); its feedback starts id_wait + anchor +
  // speaker latency later and plays for one tone airtime, the ID's length.
  t.feedback_window = t.id_wait + t.feedback_anchor + t.speaker_latency +
                      round_trip + samples(kFeedbackGuardS);
  // From the preamble end, the data arrives one ID airtime plus the
  // sender's speaker latency past the feedback window; delay cancels.
  t.data_slack = tone + t.speaker_latency + samples(kDataGuardS);
  // The receiver decodes data_slack past the data's end and its ACK (one
  // tone airtime, again the ID's length) crosses back.
  t.ack_window = t.data_slack + round_trip + samples(kAckGuardS);
  return t;
}

std::size_t ProtocolTiming::exchange_bound(std::size_t payload_bits) const {
  // DataModem's rate-2/3 code, one bin per symbol at worst, plus training.
  const std::size_t data_symbols =
      coding::coded_length(payload_bits, coding::CodeRate::kRate2_3) + 1;
  return header + feedback_window + speaker_latency + data_symbols * symbol +
         ack_window;
}

Modem::Modem(const ModemConfig& config) : Modem(config, own_ws_) {}

Modem::Modem(const ModemConfig& config, dsp::Workspace& ws)
    : config_(config),
      timing_(protocol_timing(config.params)),
      ws_(ws),
      preamble_(config.params),
      scanner_(preamble_),
      feedback_(config.params),
      modem_(config.params),
      ofdm_(config.params) {}

bool Modem::tx_idle() const {
  return tx_state_ == TxState::kIdle && tx_messages_.empty() &&
         tx_pending() == 0;
}

void Modem::set_payload_bits(std::size_t bits) {
  if (bits == config_.payload_bits) return;
  config_.payload_bits = bits;
  if (sink_) sink_->on_payload_bits(sink_endpoint_, bits);
}

void Modem::set_trace_sink(obs::TraceSink* sink, int endpoint_id) {
  sink_ = sink;
  sink_endpoint_ = endpoint_id;
  if (sink_) sink_->on_endpoint(sink_endpoint_, config_);
}

std::optional<std::span<const double>> Modem::raw(std::uint64_t from,
                                                  std::size_t len) const {
  if (from < buffer_base_ || from - buffer_base_ > buffer_.size() ||
      len > buffer_.size() - (from - buffer_base_)) {
    return std::nullopt;
  }
  return std::span<const double>(buffer_).subspan(
      static_cast<std::size_t>(from - buffer_base_), len);
}

std::optional<std::span<const float>> Modem::raw_rx(std::uint64_t from,
                                                    std::size_t len) const {
  const std::optional<std::span<const double>> window = raw(from, len);
  if (!window) return std::nullopt;
  // lint: alloc-ok(member scratch: capacity persists across calls, so steady state reuses the buffer)
  rx_window_.resize(len);
  dsp::narrow_samples(*window, rx_window_);
  return std::span<const float>(rx_window_);
}

void Modem::enqueue_tx(std::span<const double> wave) {
  // lint: alloc-ok(tx ring append; the pull side erases from the front and the deque recycles its blocks)
  tx_queue_.insert(tx_queue_.end(), wave.begin(), wave.end());
}

std::uint64_t Modem::enqueue_tx_at(std::uint64_t decision_pos,
                                   std::span<const double> wave) {
  const std::uint64_t target = decision_pos + timing_.speaker_latency;
  const std::uint64_t queue_end = tx_pos_ + tx_pending();
  if (target > queue_end) {
    // lint: alloc-ok(tx ring silence padding; same recycled deque blocks as enqueue_tx)
    tx_queue_.insert(tx_queue_.end(),
                     static_cast<std::size_t>(target - queue_end), 0.0);
  }
  const std::uint64_t start = std::max(target, queue_end);
  enqueue_tx(wave);
  return start + wave.size();
}

void Modem::pull_tx(std::span<double> speaker) {
  const std::size_t have = tx_pending();
  const std::size_t take = std::min(have, speaker.size());
  std::copy_n(tx_queue_.begin() + static_cast<std::ptrdiff_t>(tx_head_), take,
              speaker.begin());
  std::fill(speaker.begin() + static_cast<std::ptrdiff_t>(take), speaker.end(),
            0.0);
  tx_head_ += take;
  tx_pos_ += speaker.size();
  // Pulls are part of the replay op log even when the queue is silent: the
  // tx clock advance above shifts every later enqueue_tx_at anchor.
  if (sink_) sink_->on_pull(sink_endpoint_, speaker);
  if (tx_head_ > compact_threshold()) {
    tx_queue_.erase(tx_queue_.begin(),
                    tx_queue_.begin() + static_cast<std::ptrdiff_t>(tx_head_));
    tx_head_ = 0;
  }
}

std::vector<double> Modem::pull_tx(std::size_t n) {
  // lint: alloc-ok(allocating convenience overload for tests; the sim loop uses the span overload)
  std::vector<double> out(n);
  pull_tx(std::span<double>(out));
  return out;
}

void Modem::send(std::span<const std::uint8_t> info_bits,
                 std::uint8_t dest_id) {
  if (sink_) sink_->on_send(sink_endpoint_, rx_pos_, info_bits, dest_id);
  Outgoing msg;
  // lint: alloc-ok(per-message copy of the app payload at the API boundary)
  msg.bits.assign(info_bits.begin(), info_bits.end());
  msg.dest_id = dest_id;
  // lint: alloc-ok(per-message queue append; messages arrive at seconds scale)
  tx_messages_.push_back(std::move(msg));
  if (tx_state_ == TxState::kIdle) start_next_message();
}

void Modem::start_next_message() {
  if (tx_messages_.empty()) return;
  Outgoing msg = std::move(tx_messages_.front());
  tx_messages_.pop_front();
  tx_bits_ = std::move(msg.bits);

  // Phase 1: preamble + receiver-ID symbol. The listen windows that follow
  // are anchored to the absolute position where this waveform finishes
  // playing out — a pure function of the sample timeline, so behavior is
  // identical however the caller chunks push()/pull_tx().
  // lint: alloc-ok(per-message header build: one preamble+ID waveform per outgoing message)
  std::vector<double> phase1 = preamble_.waveform();
  {
    // lint: alloc-ok(per-message header build: one receiver-ID symbol per outgoing message)
    const std::vector<double> id = feedback_.encode_tone(msg.dest_id);
    // lint: alloc-ok(per-message header build)
    phase1.insert(phase1.end(), id.begin(), id.end());
  }
  phase1_end_ = tx_pos_ + tx_pending() + phase1.size();
  enqueue_tx(phase1);

  if (config_.fixed_band) {
    // Fixed-bandwidth baselines skip the feedback exchange: data follows
    // the header immediately. Without an expected ACK the exchange still
    // completes through kWaitAck with a zero listen window, i.e. as soon
    // as the data has played out.
    // lint: alloc-ok(per-message data encode on the fixed-band fallback path)
    const std::vector<double> data = modem_.encode(
        tx_bits_, *config_.fixed_band, config_.decode.use_differential);
    data_end_ = tx_pos_ + tx_pending() + data.size();
    enqueue_tx(data);
    ack_deadline_ = data_end_ + (config_.send_ack ? timing_.ack_window : 0);
    tx_state_ = TxState::kWaitAck;
    return;
  }
  fb_deadline_ = phase1_end_ + timing_.feedback_window;
  tx_state_ = TxState::kWaitFeedback;
}

bool Modem::rx_step(std::vector<ModemEvent>& events) {
  const std::size_t sym_total = config_.params.symbol_total_samples();

  if (rx_state_ == RxState::kSearching) {
    while (!detections_.empty() &&
           detections_.front().start_index < ignore_before_) {
      detections_.pop_front();
    }
    if (detections_.empty()) return false;
    const phy::PreambleDetection det = detections_.front();
    const std::uint64_t pre_end = det.start_index + preamble_.core_samples();
    // Decide only once the ID symbol plus the tone decoder's trailing
    // noise windows are buffered — an absolute-position gate.
    if (rx_pos_ < pre_end + timing_.id_wait) return false;
    detections_.pop_front();

    ModemEvent detected;
    detected.type = ModemEvent::Type::kPreambleDetected;
    detected.stream_pos = det.start_index;
    detected.preamble_metric = det.sliding_metric;
    // lint: alloc-ok(protocol events fire per packet, not per sample)
    events.push_back(std::move(detected));

    std::optional<phy::ToneDecode> id;
    {
      obs::StageTimer t(metrics_, "dsp.tone");
      if (const auto window = raw_rx(pre_end, timing_.id_wait)) {
        id = feedback_.decode_tone(*window, ws_);
      }
    }
    if (!id || id->bin != config_.my_id) return true;
    const auto preamble = raw(det.start_index, preamble_.core_samples());
    if (!preamble) return true;

    obs::StageTimer chanest_timer(metrics_, "dsp.chanest");
    const phy::ChannelEstimate est = phy::estimate_channel(
        ofdm_, *preamble, preamble_.cazac_bins(), ws_);
    chanest_timer.stop();
    band_ = config_.fixed_band
                ? *config_.fixed_band
                : phy::select_band(est.snr_db, config_.params.snr_threshold_db,
                                   config_.params.lambda);

    ModemEvent addressed;
    addressed.type = ModemEvent::Type::kAddressedToUs;
    addressed.stream_pos = det.start_index;
    addressed.preamble_metric = det.sliding_metric;
    addressed.band = band_;
    addressed.snr_db = est.snr_db;
    // lint: alloc-ok(protocol events fire per packet, not per sample)
    events.push_back(std::move(addressed));

    if (!config_.fixed_band) {
      // The duplex endpoint owns its speaker: the feedback symbol goes
      // onto the transmit queue, anchored past the scanner's bounded
      // decision lag so its position on the shared timeline does not
      // depend on block boundaries.
      enqueue_tx_at(
          pre_end + timing_.id_wait + timing_.feedback_anchor,
          feedback_.encode_band(band_));
    }
    rx_state_ = RxState::kAwaitingData;
    data_origin_ = pre_end;
    const std::size_t rows =
        modem_.data_symbol_count(config_.payload_bits, band_.width());
    const std::size_t wait_fb =
        config_.fixed_band ? 0 : timing_.feedback_window;
    data_deadline_ = pre_end + wait_fb + timing_.data_slack +
                     (rows + 1) * sym_total;
    return true;
  }

  // kAwaitingData: decode the fixed window [origin, deadline) exactly when
  // the deadline position arrives.
  if (rx_pos_ < data_deadline_) return false;
  const std::size_t rows =
      modem_.data_symbol_count(config_.payload_bits, band_.width());
  const std::size_t region = (rows + 1) * sym_total;
  const std::size_t window =
      static_cast<std::size_t>(data_deadline_ - data_origin_);
  phy::DecodeOptions opts = config_.decode;
  opts.search_window = window > region ? window - region : 0;
  phy::DataDecodeResult res;
  {
    obs::StageTimer t(metrics_, "dsp.data_decode");
    if (const auto samples = raw(data_origin_, window)) {
      res = modem_.decode(*samples, band_, config_.payload_bits, opts, ws_);
    }
  }

  ModemEvent ev;
  ev.stream_pos = data_deadline_;
  ev.training_metric = res.training_metric;
  ev.band = band_;
  if (res.found) {
    ev.type = ModemEvent::Type::kPacketDecoded;
    ev.payload_bits = res.info_bits;
    ev.coded_hard = res.coded_hard;
    if (config_.send_ack) {
      enqueue_tx_at(data_deadline_,
                    feedback_.encode_tone(phy::FeedbackCodec::kAckBin));
    }
  } else {
    ev.type = ModemEvent::Type::kPacketFailed;
  }
  // lint: alloc-ok(protocol events fire per packet, not per sample)
  events.push_back(std::move(ev));

  rx_state_ = RxState::kSearching;
  // Everything up to one symbol before the deadline has been consumed by
  // this packet; a back-to-back successor's preamble survives past it.
  ignore_before_ = data_deadline_ - sym_total;
  return true;
}

bool Modem::tx_step(std::vector<ModemEvent>& events) {
  if (tx_state_ == TxState::kWaitFeedback) {
    if (rx_pos_ < fb_deadline_) return false;
    const std::size_t window = timing_.feedback_window;
    std::optional<phy::FeedbackDecode> dec;
    {
      obs::StageTimer t(metrics_, "dsp.feedback");
      if (const auto samples = raw_rx(fb_deadline_ - window, window)) {
        dec = feedback_.decode_band(*samples, ws_);
      }
    }
    if (!dec) {
      ModemEvent ev;
      ev.type = ModemEvent::Type::kTxFailed;
      ev.stream_pos = fb_deadline_;
      // lint: alloc-ok(protocol events fire per packet, not per sample)
      events.push_back(std::move(ev));
      tx_state_ = TxState::kIdle;
      start_next_message();
      return true;
    }
    ModemEvent fb;
    fb.type = ModemEvent::Type::kTxFeedbackReceived;
    fb.stream_pos = fb_deadline_;
    fb.band = dec->band;
    // lint: alloc-ok(protocol events fire per packet, not per sample)
    events.push_back(std::move(fb));

    // lint: alloc-ok(per-message data encode once the feedback band arrives)
    const std::vector<double> data =
        modem_.encode(tx_bits_, dec->band, config_.decode.use_differential);
    data_end_ = enqueue_tx_at(fb_deadline_, data);
    ModemEvent sent;
    sent.type = ModemEvent::Type::kTxDataSent;
    sent.stream_pos = fb_deadline_;
    sent.band = dec->band;
    // lint: alloc-ok(protocol events fire per packet, not per sample)
    events.push_back(std::move(sent));

    ack_deadline_ = data_end_ + (config_.send_ack ? timing_.ack_window : 0);
    tx_state_ = TxState::kWaitAck;
    return true;
  }

  if (tx_state_ == TxState::kWaitAck) {
    if (rx_pos_ < ack_deadline_) return false;
    const std::size_t window =
        static_cast<std::size_t>(ack_deadline_ - data_end_);
    std::optional<phy::ToneDecode> got;
    if (window > 0) {
      obs::StageTimer t(metrics_, "dsp.tone");
      if (const auto samples = raw_rx(data_end_, window)) {
        got = feedback_.decode_tone(*samples, ws_);
      }
    }
    ModemEvent done;
    done.type = ModemEvent::Type::kTxComplete;
    done.stream_pos = ack_deadline_;
    done.ack_received = got && got->bin == phy::FeedbackCodec::kAckBin;
    // lint: alloc-ok(protocol events fire per packet, not per sample)
    events.push_back(std::move(done));
    tx_state_ = TxState::kIdle;
    start_next_message();
    return true;
  }
  return false;
}

void Modem::trim_buffer() {
  // Keep everything any pending decision may still read — all bounds are
  // absolute stream positions, so trimming can never change what a decode
  // window contains.
  // A detection the scanner has yet to emit starts at or after
  // decided_through(); its preamble and ID samples must still be here when
  // it does, however far the scanner's decision lag (which grows with the
  // symbol length) reaches.
  std::uint64_t keep_from = std::min(rx_pos_, scanner_.decided_through());
  if (!detections_.empty()) {
    keep_from = std::min(keep_from, detections_.front().start_index);
  }
  if (rx_state_ == RxState::kAwaitingData) {
    keep_from = std::min(keep_from, data_origin_);
  }
  if (tx_state_ == TxState::kWaitFeedback) {
    const std::uint64_t start = fb_deadline_ - timing_.feedback_window;
    keep_from = std::min(keep_from, start);
  }
  if (tx_state_ == TxState::kWaitAck) {
    keep_from = std::min(keep_from, data_end_);
  }
  if (keep_from > buffer_base_ + compact_threshold()) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(
                                       keep_from - buffer_base_));
    buffer_base_ = keep_from;
  }
}

std::vector<ModemEvent> Modem::push(std::span<const double> mic) {
  if (sink_) sink_->on_push(sink_endpoint_, rx_pos_, mic);
  // lint: alloc-ok(rx ring append; trim_buffer() erases consumed audio and the deque recycles its blocks)
  buffer_.insert(buffer_.end(), mic.begin(), mic.end());
  rx_pos_ += mic.size();
  // A non-finite sample (a glitching ADC, a corrupt capture) would poison
  // every correlation, energy sum and decode window it enters: it becomes
  // silence before any stage reads it. The sink recorded the raw samples,
  // so replay re-applies exactly this fix.
  const std::span<double> fresh(buffer_.data() + (buffer_.size() - mic.size()),
                                mic.size());
  for (double& v : fresh) {
    if (!std::isfinite(v)) v = 0.0;
  }

  det_tmp_.clear();
  {
    obs::StageTimer t(metrics_, "dsp.scan");
    // The ONE narrowing of the mic stream: every front-end stage downstream
    // of here (bandpass, correlation, confirmation) runs in fp32.
    // lint: alloc-ok(member scratch: capacity persists across calls, so steady state reuses the buffer)
    rx_chunk_.resize(mic.size());
    dsp::narrow_samples(fresh, rx_chunk_);
    scanner_.scan(rx_chunk_, det_tmp_, ws_);
  }
  // lint: alloc-ok(detections are rare events — at most one per received packet)
  for (const phy::PreambleDetection& d : det_tmp_) detections_.push_back(d);

  // lint: alloc-ok(default-constructed; allocates only when a rare protocol event lands)
  std::vector<ModemEvent> events;
  // Run both machines to quiescence; each step performs at most one
  // transition, and all gates are absolute sample positions.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    if (rx_step(events)) progressed = true;
    if (tx_step(events)) progressed = true;
  }
  trim_buffer();
  if (sink_) {
    for (const ModemEvent& e : events) sink_->on_event(sink_endpoint_, e);
  }
  return events;
}

}  // namespace aqua::core
