// The duplex streaming Modem driven the way the Android app runs it: a
// continuous microphone stream in blocks, the full Fig. 5 exchange, the
// speaker owned by the endpoint itself.
#include <gtest/gtest.h>

#include <random>

#include "channel/channel.h"
#include "channel/medium.h"
#include "core/modem.h"
#include "phy/feedback.h"
#include "phy/preamble.h"

namespace aqua::core {
namespace {

std::vector<ModemEvent> push_in_blocks(Modem& rx,
                                       std::span<const double> samples,
                                       std::size_t block = 2048) {
  std::vector<ModemEvent> all;
  for (std::size_t base = 0; base < samples.size(); base += block) {
    const std::size_t len = std::min(block, samples.size() - base);
    std::vector<ModemEvent> events = rx.push(samples.subspan(base, len));
    all.insert(all.end(), events.begin(), events.end());
  }
  return all;
}

const ModemEvent* find(const std::vector<ModemEvent>& events,
                       ModemEvent::Type type) {
  for (const ModemEvent& e : events) {
    if (e.type == type) return &e;
  }
  return nullptr;
}

// Two duplex endpoints on one shared medium — the canonical wiring.
struct DuplexRig {
  channel::AcousticMedium medium{48000.0};
  std::unique_ptr<Modem> alice;
  std::unique_ptr<Modem> bob;

  explicit DuplexRig(std::uint64_t seed, ModemConfig alice_cfg = {},
                     ModemConfig bob_cfg = {}) {
    channel::LinkConfig fwd;
    fwd.site = channel::site_preset(channel::Site::kBridge);
    fwd.range_m = 5.0;
    fwd.seed = seed;
    channel::add_duplex_link(medium, fwd);
    alice_cfg.my_id = 28;
    bob_cfg.my_id = 32;
    alice = std::make_unique<Modem>(alice_cfg);
    bob = std::make_unique<Modem>(bob_cfg);
  }

  /// Clocks both endpoints for `seconds`, collecting each side's events.
  void run(double seconds, std::vector<ModemEvent>& alice_events,
           std::vector<ModemEvent>& bob_events) {
    const std::size_t block = 480;
    const auto blocks =
        static_cast<std::uint64_t>(seconds * 48000.0 / block);
    std::vector<double> ta(block), tb(block);
    std::vector<std::span<const double>> tx{std::span<const double>(ta),
                                            std::span<const double>(tb)};
    std::vector<std::vector<double>> rx;
    dsp::Workspace ws;
    for (std::uint64_t i = 0; i < blocks; ++i) {
      alice->pull_tx(std::span<double>(ta));
      bob->pull_tx(std::span<double>(tb));
      medium.step(tx, rx, ws);
      for (auto& e : alice->push(rx[0])) alice_events.push_back(std::move(e));
      for (auto& e : bob->push(rx[1])) bob_events.push_back(std::move(e));
    }
  }
};

TEST(Realtime, FullExchangeOverSharedMedium) {
  DuplexRig rig(55);
  std::mt19937_64 rng(9);
  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng() & 1);

  rig.alice->send(payload, 32);
  std::vector<ModemEvent> ea, eb;
  rig.run(3.5, ea, eb);

  ASSERT_NE(find(eb, ModemEvent::Type::kPreambleDetected), nullptr);
  const ModemEvent* addressed = find(eb, ModemEvent::Type::kAddressedToUs);
  ASSERT_NE(addressed, nullptr);
  EXPECT_EQ(addressed->snr_db.size(), 60u);

  const ModemEvent* decoded = find(eb, ModemEvent::Type::kPacketDecoded);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->payload_bits, payload);
  EXPECT_GT(decoded->training_metric, 0.55);

  ASSERT_NE(find(ea, ModemEvent::Type::kTxFeedbackReceived), nullptr);
  const ModemEvent* done = find(ea, ModemEvent::Type::kTxComplete);
  ASSERT_NE(done, nullptr);
  EXPECT_TRUE(done->ack_received);
  EXPECT_EQ(rig.bob->rx_state(), Modem::RxState::kSearching);
  EXPECT_TRUE(rig.alice->tx_idle());
}

TEST(Realtime, IgnoresPacketsForOtherReceivers) {
  DuplexRig rig(57);
  std::vector<std::uint8_t> payload(16, 1);

  // Addressed to node 40; Bob answers to 32 and must stay quiet, so Alice
  // never hears feedback and reports the transmit failure.
  rig.alice->send(payload, 40);
  std::vector<ModemEvent> ea, eb;
  rig.run(2.5, ea, eb);

  EXPECT_NE(find(eb, ModemEvent::Type::kPreambleDetected), nullptr);
  EXPECT_EQ(find(eb, ModemEvent::Type::kAddressedToUs), nullptr);
  EXPECT_EQ(rig.bob->rx_state(), Modem::RxState::kSearching);
  EXPECT_NE(find(ea, ModemEvent::Type::kTxFailed), nullptr);
}

TEST(Realtime, RetransmitsAfterDroppedFeedback) {
  // Receive-only drive: Bob alone against a spliced capture, so the test
  // controls exactly which phases reach him.
  const phy::OfdmParams params;
  phy::Preamble preamble(params);
  phy::FeedbackCodec codec(params);
  phy::DataModem modem(params);

  ModemConfig rc;
  rc.my_id = 32;
  Modem bob(rc);

  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 61;
  channel::UnderwaterChannel fwd(lc);

  std::vector<double> phase1 = preamble.waveform();
  {
    const std::vector<double> id = codec.encode_tone(32);
    phase1.insert(phase1.end(), id.begin(), id.end());
  }

  // Phase 1 lands; Bob answers (the feedback waits on his speaker queue)
  // and stays armed for the data.
  std::vector<ModemEvent> events =
      push_in_blocks(bob, fwd.transmit(phase1, 0.05, 0.45));
  ASSERT_NE(find(events, ModemEvent::Type::kAddressedToUs), nullptr);
  ASSERT_EQ(bob.rx_state(), Modem::RxState::kAwaitingData);
  EXPECT_GT(bob.tx_pending(), 0u);  // the queued feedback waveform
  bob.pull_tx(bob.tx_pending());    // played out; lost on the way back

  // Alice never sends the data. Bob hears only ambient noise until his
  // absolute deadline passes, emits a terminal event, and re-arms. If the
  // weak training gate locks onto noise the event may read as a "decode",
  // but its training metric must betray it as noise.
  events = push_in_blocks(bob, fwd.ambient(3 * 48000));
  int terminal = 0;
  for (const ModemEvent& e : events) {
    if (e.type == ModemEvent::Type::kPacketFailed) terminal++;
    if (e.type == ModemEvent::Type::kPacketDecoded) {
      terminal++;
      EXPECT_LT(e.training_metric, 0.55);
    }
  }
  EXPECT_EQ(terminal, 1);
  ASSERT_EQ(bob.rx_state(), Modem::RxState::kSearching);

  // The retransmission must complete end-to-end on the same receiver.
  events = push_in_blocks(bob, fwd.transmit(phase1, 0.05, 0.45));
  const ModemEvent* addressed = find(events, ModemEvent::Type::kAddressedToUs);
  ASSERT_NE(addressed, nullptr);
  bob.pull_tx(bob.tx_pending());

  std::mt19937_64 rng(21);
  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng() & 1);
  // The data arrives mid-window (as if Alice decoded the feedback), with
  // enough trailing audio to carry Bob past his decode deadline.
  events = push_in_blocks(
      bob, fwd.transmit(modem.encode(payload, addressed->band), 0.6, 1.0));
  const ModemEvent* decoded = find(events, ModemEvent::Type::kPacketDecoded);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->payload_bits, payload);
  EXPECT_GT(decoded->training_metric, 0.55);  // a real lock, not noise
  EXPECT_EQ(bob.rx_state(), Modem::RxState::kSearching);
}

TEST(Realtime, BackToBackSessionsReuseOneLink) {
  DuplexRig rig(55);
  std::mt19937_64 rng(33);
  // Three consecutive packets through the same endpoints and the same
  // evolving medium — no state leaks between exchanges.
  for (int session = 0; session < 3; ++session) {
    std::vector<std::uint8_t> payload(16);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng() & 1);
    rig.alice->send(payload, 32);
    std::vector<ModemEvent> ea, eb;
    rig.run(3.5, ea, eb);
    const ModemEvent* decoded = find(eb, ModemEvent::Type::kPacketDecoded);
    ASSERT_NE(decoded, nullptr) << "session " << session;
    EXPECT_EQ(decoded->payload_bits, payload) << "session " << session;
    const ModemEvent* done = find(ea, ModemEvent::Type::kTxComplete);
    ASSERT_NE(done, nullptr) << "session " << session;
    EXPECT_TRUE(done->ack_received) << "session " << session;
    EXPECT_EQ(rig.bob->rx_state(), Modem::RxState::kSearching);
  }
}

TEST(Realtime, StaysQuietOnAmbientNoise) {
  ModemConfig rc;
  Modem bob(rc);
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kLake);
  lc.range_m = 5.0;
  lc.seed = 58;
  channel::UnderwaterChannel ch(lc);
  const std::vector<double> noise = ch.ambient(3 * 48000);
  const std::vector<ModemEvent> events = push_in_blocks(bob, noise);
  EXPECT_TRUE(events.empty());
  // The raw ring stays bounded while searching: what the scanner has yet
  // to decide plus the lazy compaction slack.
  EXPECT_LE(bob.buffered(),
            phy::PreambleScanner::max_decision_lag(rc.params) + (1u << 15));
}

}  // namespace
}  // namespace aqua::core
