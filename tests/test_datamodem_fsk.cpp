// Data modem (encode/decode with coding, interleaving, differential BPSK,
// equalization) and the FSK beacon modem.
#include <gtest/gtest.h>

#include <random>

#include "channel/channel.h"
#include "phy/datamodem.h"
#include "phy/fsk.h"

namespace aqua::phy {
namespace {

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

class DataModemBandTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(DataModemBandTest, CleanRoundTripInAnyBand) {
  const auto [b, e] = GetParam();
  const OfdmParams p;
  DataModem dm(p);
  BandSelection band{b, e, false};
  const std::vector<std::uint8_t> info = random_bits(16, b * 7 + e);
  std::vector<double> wave = dm.encode(info, band);
  // Surround with silence; decoder trusts alignment at offset 3000.
  std::vector<double> signal(3000, 0.0);
  signal.insert(signal.end(), wave.begin(), wave.end());
  signal.resize(signal.size() + 3000, 0.0);
  dsp::Workspace ws;
  DecodeOptions opts;
  opts.search_window = 6000;
  DataDecodeResult res = dm.decode(signal, band, 16, opts, ws);
  ASSERT_TRUE(res.found);
  // Narrowband correlation mainlobes limit timing precision; the equalizer
  // absorbs the residual offset.
  EXPECT_NEAR(static_cast<double>(res.training_start), 3000.0, 40.0);
  EXPECT_EQ(res.info_bits, info);
  EXPECT_EQ(res.coded_llr.size(), 33u);  // 16+6 info at 2/3
}

INSTANTIATE_TEST_SUITE_P(Bands, DataModemBandTest,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{0, 59},
                                           std::pair<std::size_t, std::size_t>{10, 29},
                                           std::pair<std::size_t, std::size_t>{40, 50},
                                           std::pair<std::size_t, std::size_t>{5, 6},
                                           std::pair<std::size_t, std::size_t>{30, 30}));

TEST(DataModem, LongPayloadRoundTrips) {
  const OfdmParams p;
  DataModem dm(p);
  BandSelection band{8, 43, false};
  const std::vector<std::uint8_t> info = random_bits(256, 77);
  std::vector<double> wave = dm.encode(info, band);
  std::vector<double> signal(1000, 0.0);
  signal.insert(signal.end(), wave.begin(), wave.end());
  signal.resize(signal.size() + 1000, 0.0);
  dsp::Workspace ws;
  DecodeOptions opts;
  opts.search_window = 2000;
  DataDecodeResult res = dm.decode(signal, band, 256, opts, ws);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.info_bits, info);
}

TEST(DataModem, DecodesThroughARealChannel) {
  const OfdmParams p;
  DataModem dm(p);
  BandSelection band{15, 40, false};
  const std::vector<std::uint8_t> info = random_bits(16, 4);
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 21;
  channel::UnderwaterChannel ch(lc);
  const std::vector<double> rx = ch.transmit(dm.encode(info, band));
  dsp::Workspace ws;
  DecodeOptions opts;
  opts.search_window = rx.size() - 4 * p.symbol_total_samples();
  DataDecodeResult res = dm.decode(rx, band, 16, opts, ws);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.info_bits, info);
}

TEST(DataModem, DifferentialBeatsCoherentUnderMotion) {
  // Fig. 14c: without differential coding, mobility wrecks the uncoded BER.
  const OfdmParams p;
  DataModem dm(p);
  BandSelection band{15, 34, false};
  std::size_t diff_err = 0, coh_err = 0, total = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<std::uint8_t> coded = random_bits(200, 50 + trial);
    for (bool use_diff : {true, false}) {
      channel::LinkConfig lc;
      lc.site = channel::site_preset(channel::Site::kLake);
      lc.range_m = 5.0;
      lc.motion = channel::MotionKind::kFast;
      lc.seed = 900 + trial;  // same channel for both variants
      channel::UnderwaterChannel ch(lc);
      const std::vector<double> rx =
          ch.transmit(dm.encode_coded(coded, band, use_diff));
      dsp::Workspace ws;
      DecodeOptions opts;
      opts.use_differential = use_diff;
      opts.search_window = rx.size() - 12 * p.symbol_total_samples();
      DataDecodeResult res =
          dm.decode_coded(rx, band, coded.size(), opts, ws);
      ASSERT_TRUE(res.found);
      std::size_t err = 0;
      for (std::size_t i = 0; i < coded.size(); ++i) {
        if (res.coded_hard[i] != coded[i]) ++err;
      }
      if (use_diff) {
        diff_err += err;
      } else {
        coh_err += err;
      }
    }
    total += 200;
  }
  EXPECT_LT(static_cast<double>(diff_err) / static_cast<double>(total), 0.06);
  EXPECT_GT(coh_err, diff_err);
}

TEST(DataModem, NoiseOnlyInputYieldsGarbageNotCrash) {
  // Packet presence is the preamble detector's job; the training search
  // merely aligns. On pure noise the decoder must stay well-defined and
  // produce bits that fail the payload comparison at the protocol layer.
  const OfdmParams p;
  DataModem dm(p);
  BandSelection band{10, 29, false};
  std::mt19937_64 rng(3);
  std::normal_distribution<double> g(0.0, 0.05);
  std::vector<double> noise(20000);
  for (auto& v : noise) v = g(rng);
  dsp::Workspace ws;
  DecodeOptions opts;
  opts.search_window = 10000;
  DataDecodeResult res = dm.decode(noise, band, 16, opts, ws);
  if (res.found) {
    const std::vector<std::uint8_t> reference = random_bits(16, 999);
    EXPECT_NE(res.info_bits, reference);
  }
}

TEST(DataModem, SymbolCountScalesInverselyWithBand) {
  const OfdmParams p;
  DataModem dm(p);
  EXPECT_EQ(dm.data_symbol_count(16, 60), 1u);   // 33 coded bits, 60 bins
  EXPECT_EQ(dm.data_symbol_count(16, 20), 2u);
  EXPECT_EQ(dm.data_symbol_count(16, 4), 9u);
  EXPECT_EQ(dm.data_symbol_count(16, 1), 33u);
}

TEST(Fsk, BitratesMatchSymbolDurations) {
  for (auto [dur, rate] : {std::pair{0.05, 20.0}, {0.1, 10.0}, {0.2, 5.0}}) {
    FskParams p;
    p.symbol_duration_s = dur;
    EXPECT_NEAR(p.bitrate_bps(), rate, 1e-12);
  }
}

TEST(Fsk, CleanRoundTripAllRates) {
  for (double dur : {0.05, 0.1, 0.2}) {
    FskParams p;
    p.symbol_duration_s = dur;
    FskBeacon beacon(p);
    const std::vector<std::uint8_t> bits = random_bits(24, 17);
    const std::vector<double> tx = beacon.modulate(bits);
    EXPECT_EQ(beacon.demodulate(tx, 0, bits.size()), bits);
  }
}

TEST(Fsk, BeaconFramingDetectsAndChecksCrc) {
  FskParams p;
  p.symbol_duration_s = 0.05;
  FskBeacon beacon(p);
  const std::vector<std::uint8_t> payload = {1, 0, 1, 1, 0, 0};
  std::vector<double> signal(4000, 0.0);
  const std::vector<double> tx = beacon.encode_beacon(payload);
  signal.insert(signal.end(), tx.begin(), tx.end());
  signal.resize(signal.size() + 4000, 0.0);
  auto got = beacon.decode_beacon(signal, 6);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(Fsk, SosCarriesSixBitId) {
  FskParams p;
  p.symbol_duration_s = 0.05;
  FskBeacon beacon(p);
  for (std::uint8_t id : {0, 1, 37, 63}) {
    std::vector<double> signal(2000, 0.0);
    const std::vector<double> tx = beacon.encode_sos(id);
    signal.insert(signal.end(), tx.begin(), tx.end());
    signal.resize(signal.size() + 2000, 0.0);
    auto got = beacon.decode_sos(signal);
    ASSERT_TRUE(got.has_value()) << "id " << int(id);
    EXPECT_EQ(*got, id);
  }
}

TEST(Fsk, SosSurvivesLongRangeChannel) {
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBeach);
  lc.range_m = 100.0;
  lc.seed = 8;
  channel::UnderwaterChannel ch(lc);
  FskParams p;
  p.symbol_duration_s = 0.1;  // 10 bps, the paper's SoS rate
  FskBeacon beacon(p);
  const std::vector<double> rx = ch.transmit(beacon.encode_sos(42), 0.2, 0.2);
  auto got = beacon.decode_sos(rx);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42);
}

TEST(Fsk, NoBeaconInNoise) {
  FskParams p;
  p.symbol_duration_s = 0.05;
  FskBeacon beacon(p);
  std::mt19937_64 rng(5);
  std::normal_distribution<double> g(0.0, 0.1);
  std::vector<double> noise(60000);
  for (auto& v : noise) v = g(rng);
  EXPECT_FALSE(beacon.decode_beacon(noise, 6).has_value());
}

}  // namespace
}  // namespace aqua::phy
