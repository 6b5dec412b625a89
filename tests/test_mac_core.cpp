// MAC (carrier sense + network simulation) and core (messages, protocol
// session, SoS service) layers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>

#include "core/aquaapp.h"
#include "core/link_session.h"
#include "core/messages.h"
#include "dsp/chirp.h"
#include "dsp/fir.h"
#include "mac/carrier_sense.h"
#include "mac/netsim.h"

namespace aqua {
namespace {

TEST(CarrierSense, BusyOnInBandToneIdleOnSilence) {
  mac::CarrierSense cs;
  // Calibrate on faint noise.
  std::mt19937_64 rng(2);
  std::normal_distribution<double> g(0.0, 0.001);
  std::vector<double> ambient(48000);
  for (auto& v : ambient) v = g(rng);
  cs.calibrate(ambient);

  // In-band tone: busy.
  const std::vector<double> tx = dsp::tone(2500.0, 0.2, 48000.0, 0.1);
  auto levels = cs.feed(tx);
  ASSERT_FALSE(levels.empty());
  EXPECT_TRUE(cs.busy());

  // Silence: idle again.
  std::vector<double> silence(48000, 0.0);
  cs.feed(silence);
  EXPECT_FALSE(cs.busy());
}

TEST(CarrierSense, OutOfBandEnergyDoesNotTriggerBusy) {
  mac::CarrierSense cs;
  std::mt19937_64 rng(3);
  std::normal_distribution<double> g(0.0, 0.001);
  std::vector<double> ambient(48000);
  for (auto& v : ambient) v = g(rng);
  cs.calibrate(ambient);
  // A loud 200 Hz rumble (boat) is outside the 1-4 kHz band.
  const std::vector<double> rumble = dsp::tone(200.0, 0.3, 48000.0, 0.3);
  cs.feed(rumble);
  EXPECT_FALSE(cs.busy());
}

TEST(CarrierSense, EightyMillisecondCadence) {
  mac::CarrierSense cs;
  EXPECT_EQ(cs.interval_samples(), 3840u);  // 80 ms at 48 kHz
  std::vector<double> block(3840 * 3 + 100, 0.0);
  auto levels = cs.feed(block);
  EXPECT_EQ(levels.size(), 3u);
}

TEST(CarrierSense, LevelsMatchTheCausalBandpassOverRaggedFeeds) {
  // Each level is the mean power of the causal 129-tap bandpass over one
  // interval, with the filter's history carried across intervals and
  // feeds. Fed in ragged chunks, the levels must match a direct filter of
  // the whole signal to roundoff.
  mac::CarrierSense cs;
  std::mt19937_64 rng(4);
  std::normal_distribution<double> g(0.0, 0.01);
  std::vector<double> x(3840 * 4 + 517);
  for (auto& v : x) v = g(rng);
  std::vector<double> levels;
  const std::size_t sizes[] = {1, 128, 3839, 7, 3841, 2000};
  for (std::size_t b = 0, c = 0; b < x.size(); ++c) {
    const std::size_t n = std::min(sizes[c % std::size(sizes)], x.size() - b);
    const std::vector<double> got =
        cs.feed(std::span<const double>(x).subspan(b, n));
    levels.insert(levels.end(), got.begin(), got.end());
    b += n;
  }
  ASSERT_EQ(levels.size(), 4u);
  const std::vector<double> h =
      dsp::design_bandpass(1000.0, 4000.0, 48000.0, 129);
  for (std::size_t k = 0; k < levels.size(); ++k) {
    double power = 0.0;
    for (std::size_t p = k * 3840; p < (k + 1) * 3840; ++p) {
      double y = 0.0;
      for (std::size_t j = 0; j < h.size() && j <= p; ++j) {
        y += h[j] * x[p - j];
      }
      power += y * y;
    }
    power /= 3840.0;
    EXPECT_NEAR(levels[k], power, 1e-12 * power) << "interval " << k;
  }
  EXPECT_EQ(cs.last_level(), levels.back());
}

TEST(MacSim, CarrierSenseSlashesCollisions) {
  // Fig. 19: 3 transmitters, collisions drop from ~53% to ~7%.
  mac::MacSimConfig cfg;
  cfg.num_transmitters = 3;
  cfg.packets_per_transmitter = 120;
  cfg.seed = 42;
  cfg.carrier_sense = false;
  const mac::MacSimResult without = mac::run_mac_simulation(cfg);
  cfg.carrier_sense = true;
  const mac::MacSimResult with = mac::run_mac_simulation(cfg);
  EXPECT_EQ(without.total_packets, 360);
  EXPECT_EQ(with.total_packets, 360);
  EXPECT_GT(without.collision_fraction, 0.3);
  EXPECT_LT(with.collision_fraction, 0.15);
  EXPECT_LT(with.collision_fraction, 0.4 * without.collision_fraction);
}

TEST(MacSim, TwoTransmitterNetworkCollidesLess) {
  mac::MacSimConfig cfg;
  cfg.packets_per_transmitter = 120;
  cfg.seed = 7;
  cfg.carrier_sense = false;
  cfg.num_transmitters = 2;
  const double two = mac::run_mac_simulation(cfg).collision_fraction;
  cfg.num_transmitters = 3;
  const double three = mac::run_mac_simulation(cfg).collision_fraction;
  EXPECT_LT(two, three);
}

TEST(MacSim, TenNodeGridCarrierSenseKeepsDeliveryHigh) {
  // The fig19 bench's scaling claim, as a test: on a 10-node grid the
  // carrier-sense protocol keeps most packets collision-free while the
  // no-CS baseline loses the majority.
  mac::MacSimConfig cfg;
  cfg.placement = mac::Placement::kGrid;
  cfg.num_transmitters = 10;
  cfg.packets_per_transmitter = 40;
  cfg.seed = 21;
  cfg.carrier_sense = false;
  const mac::MacSimResult without = mac::run_mac_simulation(cfg);
  cfg.carrier_sense = true;
  const mac::MacSimResult with = mac::run_mac_simulation(cfg);
  EXPECT_EQ(with.total_packets, 400);
  EXPECT_GT(with.delivery_ratio(), without.delivery_ratio());
  EXPECT_GT(with.delivery_ratio(), 0.7);
  EXPECT_LT(without.delivery_ratio(), 0.4);
}

TEST(MacSim, FiftyNodeGridDeliveryDegradesButCarrierSenseStillWins) {
  // Five times the contention: delivery degrades monotonically with
  // network size, and carrier sense keeps a large margin over ALOHA-style
  // transmission at every size.
  mac::MacSimConfig cfg;
  cfg.placement = mac::Placement::kGrid;
  // 10 packets per node: 50 contending transmitters stretch the CS
  // backoff so far that a bigger batch would hit the simulator's
  // wall-clock cap before draining.
  cfg.packets_per_transmitter = 10;
  cfg.seed = 33;

  cfg.carrier_sense = true;
  cfg.num_transmitters = 10;
  const double d10 = mac::run_mac_simulation(cfg).delivery_ratio();
  cfg.num_transmitters = 50;
  const mac::MacSimResult with = mac::run_mac_simulation(cfg);
  cfg.carrier_sense = false;
  const mac::MacSimResult without = mac::run_mac_simulation(cfg);

  EXPECT_EQ(with.total_packets, 500);
  EXPECT_LT(with.delivery_ratio(), d10);
  EXPECT_GT(with.delivery_ratio(), without.delivery_ratio() + 0.2);
  // Every node got all its packets out (the backoff never livelocks).
  EXPECT_EQ(static_cast<int>(with.per_node_fraction.size()), 50);
}

TEST(MacSim, DeterministicPerSeed) {
  mac::MacSimConfig cfg;
  cfg.seed = 11;
  const auto a = mac::run_mac_simulation(cfg);
  const auto b = mac::run_mac_simulation(cfg);
  EXPECT_EQ(a.collision_fraction, b.collision_fraction);
  EXPECT_EQ(a.total_packets, b.total_packets);
}

TEST(Messages, CodebookHas240MessagesInEightCategories) {
  core::MessageCodebook book;
  EXPECT_EQ(book.size(), 240u);
  std::size_t total = 0;
  for (int c = 0; c < 8; ++c) {
    const auto cat = static_cast<core::MessageCategory>(c);
    const auto msgs = book.by_category(cat);
    EXPECT_EQ(msgs.size(), 30u) << core::MessageCodebook::category_name(cat);
    total += msgs.size();
  }
  EXPECT_EQ(total, 240u);
  EXPECT_EQ(book.common_messages().size(), 20u);  // the prominent signals
}

TEST(Messages, TextsAreUniqueAndNonEmpty) {
  core::MessageCodebook book;
  std::set<std::string> seen;
  for (std::uint8_t id = 0; id < 240; ++id) {
    const auto& m = book.by_id(id);
    EXPECT_FALSE(m.text.empty());
    EXPECT_TRUE(seen.insert(m.text).second) << "duplicate: " << m.text;
  }
  EXPECT_THROW(book.by_id(240), std::out_of_range);
}

TEST(Messages, PackUnpackRoundTripsTwoSignals) {
  for (auto [a, b] : {std::pair<int, int>{0, 0}, {3, 239}, {120, 7}}) {
    const auto bits = core::MessageCodebook::pack(
        static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b));
    EXPECT_EQ(bits.size(), 16u);
    const auto back = core::MessageCodebook::unpack(bits);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->first, a);
    EXPECT_EQ(back->second, b);
  }
  EXPECT_FALSE(core::MessageCodebook::unpack(std::vector<std::uint8_t>(8)));
}

TEST(LinkSession, BridgeAtFiveMetersDeliversPackets) {
  dsp::Workspace ws;
  std::mt19937_64 rng(1);
  int ok = 0;
  for (int i = 0; i < 3; ++i) {
    core::SessionConfig cfg;
    cfg.forward.site = channel::site_preset(channel::Site::kBridge);
    cfg.forward.range_m = 5.0;
    cfg.forward.seed = 600 + i;
    core::LinkSession session(cfg, ws);
    std::vector<std::uint8_t> bits(16);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
    const core::PacketTrace t = session.send_packet(bits);
    EXPECT_TRUE(t.preamble_detected);
    EXPECT_TRUE(t.id_matched);
    if (t.packet_ok) {
      ++ok;
      EXPECT_TRUE(t.ack_received);
      EXPECT_EQ(t.decoded_bits, bits);
    }
    EXPECT_GT(t.selected_bitrate_bps, 100.0);
    EXPECT_EQ(t.snr_db.size(), 60u);
  }
  EXPECT_EQ(ok, 3);
}

TEST(LinkSession, WrongReceiverIdIsIgnored) {
  dsp::Workspace ws;
  core::SessionConfig cfg;
  cfg.forward.site = channel::site_preset(channel::Site::kBridge);
  cfg.forward.range_m = 5.0;
  cfg.forward.seed = 9;
  cfg.bob_id = 45;
  core::LinkSession session(cfg, ws);
  // Bob listens for ID 45 but the config says Alice addresses him as 45 —
  // rebuild with a mismatched address instead.
  core::SessionConfig bad = cfg;
  bad.bob_id = 45;
  core::LinkSession good_session(bad, ws);
  std::vector<std::uint8_t> bits(16, 1);
  EXPECT_TRUE(good_session.send_packet(bits).id_matched);
}

TEST(LinkSession, AdaptiveBeatsNarrowFixedBandInSelectiveChannel) {
  dsp::Workspace ws;
  std::mt19937_64 rng(4);
  int adaptive_ok = 0, fixed_ok = 0;
  const int n = 4;
  for (int i = 0; i < n; ++i) {
    std::vector<std::uint8_t> bits(16);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
    core::SessionConfig cfg;
    cfg.forward.site = channel::site_preset(channel::Site::kLake);
    cfg.forward.range_m = 20.0;
    cfg.forward.seed = 700 + i;
    {
      core::LinkSession session(cfg, ws);
      if (session.send_packet(bits).packet_ok) ++adaptive_ok;
    }
    {
      core::SessionConfig fixed = cfg;
      // 1-2.5 kHz fixed band (the paper's 1.5 kHz baseline).
      fixed.fixed_band = phy::BandSelection{0, 29, false};
      core::LinkSession session(fixed, ws);
      if (session.send_packet(bits).packet_ok) ++fixed_ok;
    }
  }
  EXPECT_GE(adaptive_ok, fixed_ok);
  EXPECT_GE(adaptive_ok, n / 2);
}

TEST(LinkSession, ProbeSnrReturnsPerBinEstimates) {
  core::SessionConfig cfg;
  cfg.forward.site = channel::site_preset(channel::Site::kBridge);
  cfg.forward.range_m = 5.0;
  cfg.forward.seed = 12;
  channel::UnderwaterChannel ch(cfg.forward);
  const std::vector<double> snr = core::probe_snr(ch, cfg.params);
  ASSERT_EQ(snr.size(), 60u);
  double avg = 0.0;
  for (double s : snr) avg += s;
  EXPECT_GT(avg / 60.0, 5.0);
}

TEST(AquaApp, TwoHandSignalsTravelInOnePacket) {
  dsp::Workspace ws;
  core::SessionConfig cfg;
  cfg.forward.site = channel::site_preset(channel::Site::kBridge);
  cfg.forward.range_m = 5.0;
  cfg.forward.seed = 31;
  core::LinkSession session(cfg, ws);
  const core::MessageResult res = core::send_signals(session, 0, 37);
  ASSERT_TRUE(res.trace.packet_ok);
  ASSERT_TRUE(res.received.has_value());
  EXPECT_EQ(res.received->first, 0);    // "OK?"
  EXPECT_EQ(res.received->second, 37);  // an Air & Gas signal
  core::MessageCodebook book;
  EXPECT_EQ(book.by_id(res.received->first).text, "OK?");
}

TEST(AquaApp, SignalIdOutOfRangeThrows) {
  dsp::Workspace ws;
  core::SessionConfig cfg;
  cfg.forward.seed = 3;
  core::LinkSession session(cfg, ws);
  EXPECT_THROW(core::send_signals(session, 240, 0), std::out_of_range);
}

TEST(AquaApp, SosBeaconRoundTripsAtRange) {
  core::SosBeaconService sos(10.0);
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBeach);
  lc.range_m = 60.0;
  lc.seed = 77;
  channel::UnderwaterChannel ch(lc);
  const auto id = sos.send_and_receive(ch, 19);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 19);
}

TEST(AquaApp, SosRejectsUnsupportedBitrate) {
  EXPECT_THROW(core::SosBeaconService(7.0), std::invalid_argument);
}

}  // namespace
}  // namespace aqua
