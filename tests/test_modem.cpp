// Streaming front end and duplex pipeline invariants:
//   * Preamble::detect (a PreambleScanner pass) lands on the answer the
//     retired batch detector gave, and the scanner is chunk-invariant;
//   * Modem::push emits byte-identical event sequences for any chunking
//     of the same microphone timeline (1 / 160 / 4800 samples);
//   * non-finite mic samples never surface as a metric or a wrong payload;
//   * the Modem-backed LinkSession is bit-identical for any medium block
//     size;
//   * protocol timing follows the numerology: a full exchange completes,
//     and every send() ends, within the derived bound at 50, 25 and 10 Hz;
//   * N modems attached to one AcousticMedium run the protocol as a
//     network (mac::ModemNetwork).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <sstream>

#include "channel/channel.h"
#include "channel/medium.h"
#include "core/link_session.h"
#include "core/modem.h"
#include "mac/netsim.h"
#include "phy/datamodem.h"
#include "phy/feedback.h"
#include "phy/preamble.h"
#include "sim/sweep.h"

namespace aqua {
namespace {

// Bit-exact fingerprint of an event sequence: every field, doubles as raw
// bit patterns. Two sequences compare equal only if byte-identical.
std::string fingerprint(const std::vector<core::ModemEvent>& events) {
  std::ostringstream os;
  const auto raw = [&](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    os << std::hex << u << ',';
  };
  for (const core::ModemEvent& e : events) {
    os << static_cast<int>(e.type) << '@' << e.stream_pos << ':';
    raw(e.preamble_metric);
    raw(e.training_metric);
    os << '[' << e.band.begin_bin << ',' << e.band.end_bin << ']';
    for (double v : e.snr_db) raw(v);
    for (std::uint8_t b : e.payload_bits) os << static_cast<int>(b);
    for (std::uint8_t b : e.coded_hard) os << static_cast<int>(b);
    os << (e.ack_received ? 'A' : 'a') << ';';
  }
  return os.str();
}

// One phase-1 capture (preamble + Bob's ID) with generous trailing noise.
std::vector<double> phase1_capture(channel::UnderwaterChannel& ch,
                                   const phy::OfdmParams& params,
                                   std::uint8_t dest_id, double tail_s) {
  phy::Preamble preamble(params);
  phy::FeedbackCodec codec(params);
  std::vector<double> wave = preamble.waveform();
  const std::vector<double> id = codec.encode_tone(dest_id);
  wave.insert(wave.end(), id.begin(), id.end());
  return ch.transmit(wave, 0.05, tail_s);
}

// Relative tolerance between an fp32 front-end metric and the retired
// double front end's (as in test_precision).
constexpr double kMetricRelTol = 2e-3;

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

TEST(PreambleScanner, MatchesBatchDetectorOnOneCapture) {
  const phy::OfdmParams params;
  phy::Preamble preamble(params);
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kLake);
  lc.range_m = 10.0;
  lc.seed = 77;
  channel::UnderwaterChannel ch(lc);
  const std::vector<double> rx = phase1_capture(ch, params, 32, 0.6);

  // Golden answer of the retired batch detector (candidate pass over a
  // whole-capture normalized cross-correlation, then sliding confirmation)
  // on this capture. detect() now runs the fp32 scanner; it must land on
  // the same sample, with the metric pinned bit for bit and within fp32
  // tolerance of the retired double one (0x3fe8d1ce921770ea).
  dsp::Workspace ws;
  const auto det = preamble.detect(rx, ws);
  ASSERT_TRUE(det.has_value());
  EXPECT_EQ(det->start_index, 3370u);
  EXPECT_EQ(bits_of(det->sliding_metric), 0x3fe8d1cea2471a0fULL);
  EXPECT_NEAR(det->sliding_metric, 0x1.8d1ce921770eap-1, kMetricRelTol);

  // The streaming modem's chunked feed emits that same detection.
  const std::vector<float> rx_f = dsp::convert_samples<float>(rx);
  phy::PreambleScanner scanner(preamble);
  std::vector<phy::PreambleDetection> dets;
  for (std::size_t base = 0; base < rx_f.size(); base += 997) {
    const std::size_t len = std::min<std::size_t>(997, rx_f.size() - base);
    scanner.scan(std::span<const float>(rx_f).subspan(base, len), dets, ws);
  }
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].start_index, det->start_index);
  EXPECT_EQ(dets[0].sliding_metric, det->sliding_metric);
}

TEST(PreambleScanner, ChunkInvariantBitExact) {
  const phy::OfdmParams params;
  phy::Preamble preamble(params);
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 55;
  channel::UnderwaterChannel ch(lc);
  const std::vector<float> rx =
      dsp::convert_samples<float>(phase1_capture(ch, params, 32, 0.6));

  dsp::Workspace ws;
  const auto run = [&](std::size_t chunk) {
    phy::PreambleScanner scanner(preamble);
    std::vector<phy::PreambleDetection> dets;
    for (std::size_t base = 0; base < rx.size(); base += chunk) {
      const std::size_t len = std::min(chunk, rx.size() - base);
      scanner.scan(std::span<const float>(rx).subspan(base, len), dets, ws);
    }
    return dets;
  };
  const auto d1 = run(1);
  const auto d160 = run(160);
  const auto d4800 = run(4800);
  ASSERT_EQ(d1.size(), 1u);
  ASSERT_EQ(d160.size(), d1.size());
  ASSERT_EQ(d4800.size(), d1.size());
  EXPECT_EQ(d1[0].start_index, d160[0].start_index);
  EXPECT_EQ(d1[0].start_index, d4800[0].start_index);
  // Bit-exact, not just close: same absolute FFT blocks, same energy
  // recurrence, same confirmation arithmetic.
  EXPECT_EQ(d1[0].sliding_metric, d160[0].sliding_metric);
  EXPECT_EQ(d1[0].sliding_metric, d4800[0].sliding_metric);
}

TEST(PreambleScanner, DecisionLagBoundsEveryNumerology) {
  // max_decision_lag() is what protocol timing anchors the feedback past
  // and what bounds the searching ring. Check it against the running
  // scanner: every detection is emitted within it, decided_through()
  // never trails by more, and the bound is not loose by a symbol.
  for (const double spacing : {50.0, 25.0, 10.0}) {
    const phy::OfdmParams params = phy::OfdmParams::with_spacing(spacing);
    const phy::Preamble preamble(params);
    const std::size_t lag = phy::PreambleScanner::max_decision_lag(params);
    std::mt19937_64 rng(21);
    std::normal_distribution<double> noise(0.0, 0.01);
    std::vector<float> rx(preamble.waveform().size() + 2 * lag);
    const std::size_t offset = 12345;
    for (std::size_t i = 0; i < rx.size(); ++i) {
      double v = noise(rng);
      if (i >= offset && i - offset < preamble.waveform().size()) {
        v += preamble.waveform()[i - offset];
      }
      rx[i] = static_cast<float>(v);
    }
    dsp::Workspace ws;
    std::uint64_t worst_trail = 0;
    for (const std::size_t chunk : {480u, 4099u}) {
      phy::PreambleScanner scanner(preamble);
      std::vector<phy::PreambleDetection> dets;
      std::uint64_t trail = 0;
      std::uint64_t emitted_at = 0;
      for (std::size_t base = 0; base < rx.size(); base += chunk) {
        const std::size_t len = std::min(chunk, rx.size() - base);
        scanner.scan(std::span<const float>(rx).subspan(base, len), dets, ws);
        trail = std::max(trail, scanner.consumed() - scanner.decided_through());
        if (emitted_at == 0 && !dets.empty()) emitted_at = scanner.consumed();
      }
      ASSERT_EQ(dets.size(), 1u) << spacing << " Hz";
      EXPECT_LE(emitted_at - dets[0].start_index, lag + chunk) << spacing;
      EXPECT_LE(trail, lag) << spacing << " Hz, chunk " << chunk;
      worst_trail = std::max(worst_trail, trail);
    }
    EXPECT_GE(worst_trail + params.symbol_samples(), lag) << spacing << " Hz";
  }
}

// One continuous microphone timeline containing a full receive-side
// exchange for Bob (id 32): phase 1, a feedback-round-trip gap, then the
// data portion in the band he will have selected.
struct ReceiveExchange {
  std::vector<double> timeline;
  std::vector<std::uint8_t> payload;
  std::size_t data_begin = 0;  ///< where the data capture starts
};

ReceiveExchange receive_exchange(const core::ModemConfig& mc) {
  const phy::OfdmParams params;
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 55;
  channel::UnderwaterChannel fwd(lc);
  ReceiveExchange x;
  x.timeline = phase1_capture(fwd, params, 32, 0.45);

  core::Modem probe(mc);
  phy::BandSelection band;
  bool addressed = false;
  for (const core::ModemEvent& e : probe.push(x.timeline)) {
    if (e.type == core::ModemEvent::Type::kAddressedToUs) {
      band = e.band;
      addressed = true;
    }
  }
  EXPECT_TRUE(addressed);

  std::mt19937_64 rng(9);
  x.payload.resize(16);
  for (auto& b : x.payload) b = static_cast<std::uint8_t>(rng() & 1);
  const std::vector<double> gap = fwd.ambient(30000);
  x.timeline.insert(x.timeline.end(), gap.begin(), gap.end());
  x.data_begin = x.timeline.size();
  phy::DataModem modem(params);
  const std::vector<double> rx3 =
      fwd.transmit(modem.encode(x.payload, band), 0.05, 1.0);
  x.timeline.insert(x.timeline.end(), rx3.begin(), rx3.end());
  return x;
}

std::vector<core::ModemEvent> push_chunked(const core::ModemConfig& mc,
                                           std::span<const double> timeline,
                                           std::size_t chunk) {
  core::Modem m(mc);
  std::vector<core::ModemEvent> events;
  for (std::size_t base = 0; base < timeline.size(); base += chunk) {
    const std::size_t len = std::min(chunk, timeline.size() - base);
    for (auto& e : m.push(timeline.subspan(base, len))) {
      events.push_back(std::move(e));
    }
  }
  return events;
}

TEST(Modem, PushGranularityInvariance) {
  core::ModemConfig mc;
  mc.my_id = 32;
  const ReceiveExchange x = receive_exchange(mc);
  const std::vector<core::ModemEvent> e1 = push_chunked(mc, x.timeline, 1);
  const std::vector<core::ModemEvent> e160 = push_chunked(mc, x.timeline, 160);
  const std::vector<core::ModemEvent> e4800 =
      push_chunked(mc, x.timeline, 4800);

  // The exchange actually happened...
  bool decoded = false;
  for (const core::ModemEvent& e : e160) {
    if (e.type == core::ModemEvent::Type::kPacketDecoded) {
      decoded = true;
      EXPECT_EQ(e.payload_bits, x.payload);
    }
  }
  EXPECT_TRUE(decoded);
  // ...and every chunking tells the byte-identical story.
  const std::string f = fingerprint(e160);
  EXPECT_EQ(fingerprint(e1), f);
  EXPECT_EQ(fingerprint(e4800), f);
}

TEST(Modem, LongSymbolNumerologyKeepsUndecidedSamples) {
  // At 10 Hz spacing the scanner decides a preamble ~3.7 s after it
  // starts. The receiver must still hold that preamble and its ID symbol
  // when the detection arrives. The reference is one push of the whole
  // capture: trimming runs only after a push's decisions, so that modem
  // never trims a sample any decision reads.
  const phy::OfdmParams params = phy::OfdmParams::with_spacing(10.0);
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 55;
  channel::UnderwaterChannel fwd(lc);
  const std::vector<double> timeline = phase1_capture(fwd, params, 32, 1.0);

  core::ModemConfig mc;
  mc.params = params;
  mc.my_id = 32;
  const std::vector<core::ModemEvent> events = push_chunked(mc, timeline, 480);
  bool addressed = false;
  for (const core::ModemEvent& e : events) {
    if (e.type == core::ModemEvent::Type::kAddressedToUs) addressed = true;
  }
  EXPECT_TRUE(addressed);
  EXPECT_EQ(fingerprint(events),
            fingerprint(push_chunked(mc, timeline, timeline.size())));
}

TEST(Modem, NonFiniteMicSamplesNeverSurface) {
  // A NaN or Inf from the microphone must not reach a metric, and must
  // never turn into a "decoded" packet carrying the wrong bits.
  core::ModemConfig mc;
  mc.my_id = 32;
  const ReceiveExchange x = receive_exchange(mc);
  const std::size_t positions[] = {
      4000,                  // inside the preamble
      11600,                 // the receiver-ID symbol
      x.data_begin + 3500,   // training symbol
      x.data_begin + 4500,   // data symbols
  };
  const double values[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
  for (std::size_t pos : positions) {
    for (double v : values) {
      std::vector<double> hit = x.timeline;
      hit[pos] = v;
      bool decoded = false;
      for (const core::ModemEvent& e : push_chunked(mc, hit, 480)) {
        EXPECT_TRUE(std::isfinite(e.preamble_metric)) << pos << " " << v;
        EXPECT_TRUE(std::isfinite(e.training_metric)) << pos << " " << v;
        for (double snr : e.snr_db) EXPECT_TRUE(std::isfinite(snr));
        if (e.type == core::ModemEvent::Type::kPacketDecoded) {
          decoded = true;
          EXPECT_EQ(e.payload_bits, x.payload) << pos << " " << v;
        }
      }
      // One zeroed sample costs nothing at this SNR.
      EXPECT_TRUE(decoded) << pos << " " << v;
    }
  }
}

TEST(Modem, ListenWindowOutsideTheRingFailsWithoutReading) {
  // The sender's feedback and ACK windows start on its speaker clock. A
  // sender whose mic ran far ahead of its speaker (pushed, never pulled)
  // trimmed those positions from its ring before it sent, so each window
  // lies outside the ring when its deadline comes. The stage must fail
  // with no decoded event instead of reading past the ring (which the
  // sanitizer build would also catch).
  const std::vector<std::uint8_t> bits(16, 1);
  const std::vector<double> quiet(4800, 0.0);
  for (const bool fixed : {false, true}) {
    core::ModemConfig mc;
    if (fixed) mc.fixed_band = phy::BandSelection{10, 30, false};
    core::Modem m(mc);
    for (int i = 0; i < 50; ++i) EXPECT_TRUE(m.push(quiet).empty());
    m.send(bits, 32);
    std::vector<core::ModemEvent> events;
    for (int i = 0; i < 4 && events.empty(); ++i) events = m.push(quiet);
    ASSERT_EQ(events.size(), 1u) << "fixed band " << fixed;
    if (fixed) {
      EXPECT_EQ(events[0].type, core::ModemEvent::Type::kTxComplete);
      EXPECT_FALSE(events[0].ack_received);
    } else {
      EXPECT_EQ(events[0].type, core::ModemEvent::Type::kTxFailed);
    }
    EXPECT_EQ(m.tx_state(), core::Modem::TxState::kIdle);
  }
}

TEST(Modem, ResponderWaveformsAnchoredToTheTimeline) {
  // A responder's speaker output (here: Bob's feedback symbol) must start
  // at an absolute position on the shared clock, not wherever the
  // clocking block happened to land — this is what makes full exchanges
  // invariant to the block size endpoints are driven at.
  const phy::OfdmParams params;
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 55;
  channel::UnderwaterChannel fwd(lc);
  const std::vector<double> timeline = phase1_capture(fwd, params, 32, 0.9);

  core::ModemConfig mc;
  mc.my_id = 32;
  const auto run = [&](std::size_t block) {
    core::Modem bob(mc);
    std::vector<double> speaker;
    std::vector<double> chunk(block);
    for (std::size_t base = 0; base < timeline.size(); base += block) {
      const std::size_t len = std::min(block, timeline.size() - base);
      bob.push(std::span<const double>(timeline).subspan(base, len));
      chunk.resize(len);
      bob.pull_tx(std::span<double>(chunk));
      speaker.insert(speaker.end(), chunk.begin(), chunk.end());
    }
    return speaker;
  };
  const std::vector<double> s480 = run(480);
  const std::vector<double> s960 = run(960);
  const std::vector<double> s4800 = run(4800);
  // The feedback actually went out...
  double energy = 0.0;
  for (double v : s480) energy += v * v;
  ASSERT_GT(energy, 0.0);
  // ...and sits at the same absolute samples regardless of block size.
  EXPECT_EQ(s480, s960);
  EXPECT_EQ(s480, s4800);
}

core::PacketTrace run_session_packet(std::size_t medium_block) {
  dsp::Workspace ws;
  core::SessionConfig cfg;
  cfg.forward.site = channel::site_preset(channel::Site::kLake);
  cfg.forward.range_m = 5.0;
  cfg.forward.seed = 77;
  cfg.medium_block_samples = medium_block;
  core::LinkSession session(cfg, ws);
  std::mt19937_64 rng(5);
  std::vector<std::uint8_t> bits(16);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return session.send_packet(bits);
}

TEST(Modem, LinkSessionInvariantToMediumBlockSize) {
  const core::PacketTrace a = run_session_packet(160);
  const core::PacketTrace b = run_session_packet(480);
  const core::PacketTrace c = run_session_packet(960);
  for (const core::PacketTrace* t : {&b, &c}) {
    EXPECT_EQ(a.preamble_detected, t->preamble_detected);
    EXPECT_EQ(a.id_matched, t->id_matched);
    EXPECT_EQ(a.feedback_decoded, t->feedback_decoded);
    EXPECT_EQ(a.feedback_exact, t->feedback_exact);
    EXPECT_EQ(a.band_selected.begin_bin, t->band_selected.begin_bin);
    EXPECT_EQ(a.band_selected.end_bin, t->band_selected.end_bin);
    EXPECT_EQ(a.packet_ok, t->packet_ok);
    EXPECT_EQ(a.decoded_bits, t->decoded_bits);
    // Bit-exact DSP along the whole pipeline, not merely same decisions.
    EXPECT_EQ(a.preamble_metric, t->preamble_metric);
  }
  EXPECT_TRUE(a.preamble_detected);
  EXPECT_TRUE(a.packet_ok);
}

TEST(Modem, ProtocolTimingPinnedAtDefaultNumerology) {
  // The derivation reproduces the windows the protocol was tuned with at
  // 50 Hz, so every 50 Hz figure and the trace corpus stay bit-identical.
  const core::ProtocolTiming t = core::protocol_timing(phy::OfdmParams{});
  EXPECT_EQ(t.speaker_latency, 4800u);
  EXPECT_EQ(t.feedback_anchor, 16800u);
  EXPECT_EQ(t.feedback_window, 52800u);
  EXPECT_EQ(t.data_slack, 12000u);
  EXPECT_EQ(t.ack_window, 42000u);
}

TEST(Modem, FeedbackAnchorClearsTheScannerLagAtEverySpacing) {
  // The receiver's feedback anchor must lie past the latest point the
  // scanner can decide a detection, else the speaker padding never fires
  // and the feedback start quantizes to the clocking block. The lag grows
  // faster than the symbol (power-of-two correlation block), so scaling
  // the 50 Hz anchor by the symbol length falls short at 10 Hz.
  for (const double spacing : {50.0, 25.0, 10.0}) {
    const phy::OfdmParams params = phy::OfdmParams::with_spacing(spacing);
    const core::ProtocolTiming t = core::protocol_timing(params);
    const std::size_t id_gate =
        phy::OfdmParams::kPreambleSymbols * params.symbol_samples() +
        t.id_wait;
    EXPECT_GE(id_gate + t.feedback_anchor,
              phy::PreambleScanner::max_decision_lag(params))
        << spacing << " Hz";
  }
}

// Clocks two modems at `spacing` over a Lake 5 m duplex link in lockstep
// `block`-sample blocks until Alice's send() is `bound` samples old, plus
// one block. Returns each side's events, Bob's speaker stream and the
// medium clock at send().
struct SpacingExchange {
  std::vector<core::ModemEvent> alice, bob;
  std::vector<double> bob_speaker;
  std::uint64_t send_clock = 0;
  std::size_t bound = 0;
  core::Modem::RxState bob_state = core::Modem::RxState::kAwaitingData;
};

SpacingExchange exchange_at(double spacing, std::size_t block,
                            const std::vector<std::uint8_t>& payload) {
  channel::AcousticMedium medium(48000.0);
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kLake);
  lc.range_m = 5.0;
  lc.seed = 17;
  channel::add_duplex_link(medium, lc);
  core::ModemConfig mc;
  mc.params = phy::OfdmParams::with_spacing(spacing);
  mc.payload_bits = payload.size();
  core::ModemConfig alice_cfg = mc;
  alice_cfg.my_id = 28;
  core::ModemConfig bob_cfg = mc;
  bob_cfg.my_id = 32;
  dsp::Workspace ws;
  core::Modem alice(alice_cfg, ws);
  core::Modem bob(bob_cfg, ws);

  SpacingExchange x;
  x.send_clock = medium.clock();
  x.bound = alice.timing().exchange_bound(payload.size());
  alice.send(payload, 32);
  std::vector<double> ta(block), tb(block);
  const std::vector<std::span<const double>> tx{ta, tb};
  std::vector<std::vector<double>> rx;
  while (medium.clock() < x.send_clock + x.bound + block) {
    alice.pull_tx(std::span<double>(ta));
    bob.pull_tx(std::span<double>(tb));
    x.bob_speaker.insert(x.bob_speaker.end(), tb.begin(), tb.end());
    medium.step(tx, rx, ws);
    for (auto& e : alice.push(rx[0])) x.alice.push_back(std::move(e));
    for (auto& e : bob.push(rx[1])) x.bob.push_back(std::move(e));
  }
  x.bob_state = bob.rx_state();
  return x;
}

const core::ModemEvent* first_of(const std::vector<core::ModemEvent>& events,
                                 core::ModemEvent::Type type) {
  for (const core::ModemEvent& e : events) {
    if (e.type == type) return &e;
  }
  return nullptr;
}

TEST(Modem, ExchangeCompletesAtEverySubcarrierSpacing) {
  // Fig. 17's numerologies: the windows follow the symbol, so a clean
  // exchange completes at each spacing: the feedback decodes, the right
  // bits arrive, the ACK returns within the derived exchange bound and
  // the receiver is back to searching. The feedback anchor clears the
  // scanner's decision lag at each spacing, so clocking blocks up to the
  // speaker latency tell the byte-identical story, and Bob's responses
  // sit at the same absolute samples.
  std::mt19937_64 rng(4);
  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng() & 1);
  for (const double spacing : {50.0, 25.0, 10.0}) {
    const SpacingExchange x = exchange_at(spacing, 480, payload);
    const SpacingExchange y = exchange_at(spacing, 4800, payload);
    EXPECT_EQ(fingerprint(x.alice), fingerprint(y.alice)) << spacing << " Hz";
    EXPECT_EQ(fingerprint(x.bob), fingerprint(y.bob)) << spacing << " Hz";
    ASSERT_LE(x.bob_speaker.size(), y.bob_speaker.size());
    EXPECT_TRUE(std::equal(x.bob_speaker.begin(), x.bob_speaker.end(),
                           y.bob_speaker.begin()))
        << spacing << " Hz";
    EXPECT_NE(first_of(x.alice, core::ModemEvent::Type::kTxFeedbackReceived),
              nullptr)
        << spacing << " Hz";
    const core::ModemEvent* decoded =
        first_of(x.bob, core::ModemEvent::Type::kPacketDecoded);
    ASSERT_NE(decoded, nullptr) << spacing << " Hz";
    EXPECT_EQ(decoded->payload_bits, payload) << spacing << " Hz";
    const core::ModemEvent* done =
        first_of(x.alice, core::ModemEvent::Type::kTxComplete);
    ASSERT_NE(done, nullptr) << spacing << " Hz";
    EXPECT_TRUE(done->ack_received) << spacing << " Hz";
    EXPECT_LE(done->stream_pos - x.send_clock, x.bound) << spacing << " Hz";
    EXPECT_EQ(x.bob_state, core::Modem::RxState::kSearching)
        << spacing << " Hz";
  }
}

TEST(Modem, EverySendEndsWithinTheExchangeBound) {
  // Liveness at every numerology: a send() nobody answers ends in
  // kTxFailed, and a fixed-band send() (no feedback to wait for) ends in
  // kTxComplete, both within the derived bound.
  const std::vector<std::uint8_t> bits(16, 1);
  for (const double spacing : {50.0, 25.0, 10.0}) {
    for (const bool fixed : {false, true}) {
      core::ModemConfig mc;
      mc.params = phy::OfdmParams::with_spacing(spacing);
      if (fixed) mc.fixed_band = phy::BandSelection{0, 10, false};
      core::Modem m(mc);
      channel::LinkConfig lc;
      lc.site = channel::site_preset(channel::Site::kLake);
      lc.seed = 23;
      channel::UnderwaterChannel ch(lc);
      const std::size_t bound = m.timing().exchange_bound(bits.size());
      m.send(bits, 32);
      const std::size_t block = 2400;
      std::vector<double> speaker(block);
      std::vector<core::ModemEvent> events;
      while (events.empty() && m.rx_position() < bound + block) {
        m.pull_tx(std::span<double>(speaker));
        events = m.push(ch.ambient(block));
      }
      ASSERT_EQ(events.size(), 1u) << spacing << " Hz, fixed " << fixed;
      EXPECT_EQ(events[0].type, fixed ? core::ModemEvent::Type::kTxComplete
                                      : core::ModemEvent::Type::kTxFailed)
          << spacing << " Hz, fixed " << fixed;
      EXPECT_LE(events[0].stream_pos, bound) << spacing << " Hz";
      EXPECT_TRUE(m.tx_idle()) << spacing << " Hz, fixed " << fixed;
    }
  }
}

TEST(ModemNetwork, ThreeNodesOnOneMedium) {
  mac::ModemNetworkConfig cfg;
  cfg.nodes = 3;
  cfg.site = channel::Site::kBridge;
  cfg.spacing_m = 5.0;
  cfg.seed = 11;
  mac::ModemNetwork net(cfg);

  std::mt19937_64 rng(3);
  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng() & 1);
  net.send(0, payload, 1);
  const auto events = net.run(3.5);

  // Node 1 (the destination) decodes the payload.
  bool decoded = false;
  for (const core::ModemEvent& e : events[1]) {
    if (e.type == core::ModemEvent::Type::kPacketDecoded) {
      decoded = true;
      EXPECT_EQ(e.payload_bits, payload);
    }
  }
  EXPECT_TRUE(decoded);
  // Node 2 overhears the preamble as real audio but is never addressed.
  bool overheard = false;
  for (const core::ModemEvent& e : events[2]) {
    if (e.type == core::ModemEvent::Type::kPreambleDetected) overheard = true;
    EXPECT_NE(e.type, core::ModemEvent::Type::kAddressedToUs);
  }
  EXPECT_TRUE(overheard);
  // Node 0 completes its exchange with the ACK.
  bool complete = false;
  for (const core::ModemEvent& e : events[0]) {
    if (e.type == core::ModemEvent::Type::kTxComplete) {
      complete = true;
      EXPECT_TRUE(e.ack_received);
    }
  }
  EXPECT_TRUE(complete);
}

TEST(Modem, SweepAggregatesThreadCountInvariantOnStreamingPath) {
  // run_packet_range feeds the Modem-backed send_packet; one arena over
  // the whole range and one arena per chunk must merge to identical
  // aggregates.
  core::SessionConfig base;
  base.forward.site = channel::site_preset(channel::Site::kBridge);
  base.forward.range_m = 5.0;

  dsp::Workspace w0, w1, w2;
  const sim::BatchStats serial =
      sim::run_packet_range(base, 0, 4, 4242, 16, w0);
  sim::BatchStats split = sim::run_packet_range(base, 0, 2, 4242, 16, w1);
  split.merge(sim::run_packet_range(base, 2, 4, 4242, 16, w2));

  EXPECT_EQ(serial.sent, split.sent);
  EXPECT_EQ(serial.delivered, split.delivered);
  EXPECT_EQ(serial.feedback_exact, split.feedback_exact);
  EXPECT_EQ(serial.coded_errors, split.coded_errors);
  EXPECT_EQ(serial.samples, split.samples);
  ASSERT_EQ(serial.bitrates.size(), split.bitrates.size());
  for (std::size_t i = 0; i < serial.bitrates.size(); ++i) {
    EXPECT_EQ(serial.bitrates[i], split.bitrates[i]);
  }
}

}  // namespace
}  // namespace aqua
