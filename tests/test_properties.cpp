// Cross-module property tests and edge cases: invariants that must hold
// for every band width, code rate, site, and numerology.
#include <gtest/gtest.h>

#include <random>

#include "channel/absorption.h"
#include "channel/environment.h"
#include "coding/convolutional.h"
#include "coding/interleaver.h"
#include "core/messages.h"
#include "phy/bandselect.h"
#include "phy/datamodem.h"
#include "phy/ofdm.h"

namespace aqua {
namespace {

// --- Interleaver bijection for every possible band width. ---
class InterleaverWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InterleaverWidth, BijectionOverThreeSymbols) {
  const std::size_t width = GetParam();
  coding::SubcarrierInterleaver il(width);
  std::mt19937_64 rng(width);
  std::vector<std::uint8_t> bits(width * 3);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  EXPECT_EQ(il.deinterleave(il.interleave(bits)), bits);
  // The order is a permutation of [0, width).
  std::vector<bool> seen(width, false);
  for (std::size_t v : il.order()) {
    ASSERT_LT(v, width);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, InterleaverWidth,
                         ::testing::Range<std::size_t>(1, 61, 7));

// --- Band selection invariants over random SNR profiles. ---
class BandSelectProperty : public ::testing::TestWithParam<int> {};

TEST_P(BandSelectProperty, SelectionSatisfiesAlgorithmOneConstraint) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::normal_distribution<double> g(9.0, 7.0);
  std::vector<double> snr(60);
  for (auto& s : snr) s = g(rng);
  const phy::BandSelection band = phy::select_band(snr, 7.0, 0.8);
  ASSERT_LE(band.begin_bin, band.end_bin);
  ASSERT_LT(band.end_bin, snr.size());
  if (!band.fallback) {
    // Every bin in the selection clears the boosted threshold...
    const double bonus =
        0.8 * 10.0 * std::log10(60.0 / static_cast<double>(band.width()));
    for (std::size_t k = band.begin_bin; k <= band.end_bin; ++k) {
      EXPECT_GT(snr[k] + bonus, 7.0) << "bin " << k;
    }
    // ...and no wider window anywhere would (maximality over widths).
    const std::size_t wider = band.width() + 1;
    if (wider <= 60) {
      const double wbonus =
          0.8 * 10.0 * std::log10(60.0 / static_cast<double>(wider));
      for (std::size_t m = 0; m + wider <= 60; ++m) {
        double mn = 1e18;
        for (std::size_t k = m; k < m + wider; ++k) mn = std::min(mn, snr[k]);
        EXPECT_LE(mn + wbonus, 7.0) << "window at " << m;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandSelectProperty, ::testing::Range(0, 25));

// --- Codec: coded length bookkeeping consistent for all rates/lengths. ---
TEST(CodecProperty, EncodeLengthAlwaysMatchesCodedLength) {
  std::mt19937_64 rng(3);
  for (coding::CodeRate rate : {coding::CodeRate::kRate1_2,
                                coding::CodeRate::kRate2_3,
                                coding::CodeRate::kRate3_4}) {
    coding::ConvolutionalCodec codec(rate);
    for (std::size_t n : {1u, 2u, 15u, 16u, 17u, 100u}) {
      std::vector<std::uint8_t> info(n);
      for (auto& b : info) b = static_cast<std::uint8_t>(rng() & 1);
      EXPECT_EQ(codec.encode(info).size(), coding::coded_length(n, rate));
    }
  }
}

// --- OFDM: round trip across numerologies (Fig. 17 spacings). ---
class OfdmSpacing : public ::testing::TestWithParam<double> {};

TEST_P(OfdmSpacing, RoundTripAndCpScale) {
  const phy::OfdmParams p = phy::OfdmParams::with_spacing(GetParam());
  phy::Ofdm ofdm(p);
  std::mt19937_64 rng(11);
  std::vector<dsp::cplx> bins(p.num_bins());
  for (auto& b : bins) b = {(rng() & 1) ? 1.0 : -1.0, 0.0};
  const std::vector<double> sym = ofdm.modulate(bins);
  const std::vector<dsp::cplx> back = ofdm.demodulate(sym);
  const double scale = ofdm.power_norm(p.num_bins());
  for (std::size_t k = 0; k < bins.size(); ++k) {
    EXPECT_NEAR(back[k].real() / scale, bins[k].real(), 1e-9);
  }
  // CP stays ~7% of the symbol at every spacing.
  EXPECT_NEAR(static_cast<double>(p.cp_samples()) /
                  static_cast<double>(p.symbol_samples()),
              67.0 / 960.0, 0.001);
}

INSTANTIATE_TEST_SUITE_P(Spacings, OfdmSpacing,
                         ::testing::Values(50.0, 25.0, 10.0));

// --- Data modem round trip for every band width (clean channel). ---
class ModemWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModemWidth, SixteenBitPacketRoundTrips) {
  const std::size_t width = GetParam();
  const phy::OfdmParams p;
  phy::DataModem dm(p);
  const phy::BandSelection band{10, 10 + width - 1, false};
  std::mt19937_64 rng(width * 3 + 1);
  std::vector<std::uint8_t> info(16);
  for (auto& b : info) b = static_cast<std::uint8_t>(rng() & 1);
  std::vector<double> signal(1200, 0.0);
  const std::vector<double> wave = dm.encode(info, band);
  signal.insert(signal.end(), wave.begin(), wave.end());
  signal.resize(signal.size() + 1200, 0.0);
  dsp::Workspace ws;
  phy::DecodeOptions opts;
  opts.search_window = 2400;
  const phy::DataDecodeResult res = dm.decode(signal, band, 16, opts, ws);
  ASSERT_TRUE(res.found) << "width " << width;
  EXPECT_EQ(res.info_bits, info) << "width " << width;
}

INSTANTIATE_TEST_SUITE_P(Widths, ModemWidth,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 7, 13, 24,
                                                        37, 50));

// --- Physics sanity across all sites. ---
TEST(SiteProperty, TransmissionLossMonotonicInRange) {
  for (double f : {1000.0, 2500.0, 4000.0}) {
    double prev = -1.0;
    for (double r = 2.0; r <= 120.0; r *= 1.5) {
      const double tl = channel::transmission_loss_db(r, f);
      EXPECT_GT(tl, prev);
      prev = tl;
    }
  }
}

TEST(SiteProperty, EverySitePresetIsSelfConsistent) {
  for (channel::Site s : channel::all_sites()) {
    const channel::SitePreset p = channel::site_preset(s);
    EXPECT_GT(p.waveguide.surface_reflection, 0.0);
    EXPECT_LE(p.waveguide.surface_reflection, 1.0);
    EXPECT_GT(p.waveguide.bottom_reflection, 0.0);
    EXPECT_LT(p.waveguide.bottom_reflection, 1.0);
    EXPECT_GE(p.noise.level_db, 0.0);
    EXPECT_LE(p.noise.level_db, 12.0);
    EXPECT_GE(p.surface_roughness, 0.0);
  }
}

// --- Message codebook covers every 8-bit id the packet format can carry. ---
TEST(MessagesProperty, EveryIdRoundTripsThroughPacking) {
  for (int a = 0; a < 240; a += 13) {
    for (int b = 0; b < 240; b += 29) {
      const auto bits = core::MessageCodebook::pack(
          static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b));
      const auto back = core::MessageCodebook::unpack(bits);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(back->first, a);
      EXPECT_EQ(back->second, b);
    }
  }
}

// --- Reported-bitrate convention reproduces the paper's medians. ---
TEST(BitrateConvention, PaperMediansAreMultiplesOfThirtyThree) {
  const phy::OfdmParams p;
  EXPECT_NEAR(p.reported_bitrate_bps(19), 633.3, 0.05);   // lake 5 m median
  EXPECT_NEAR(p.reported_bitrate_bps(4), 133.3, 0.05);    // lake 30 m median
  EXPECT_NEAR(p.reported_bitrate_bps(32), 1066.7, 0.05);  // bridge 0 deg
  EXPECT_NEAR(p.reported_bitrate_bps(60), 2000.0, 0.05);  // full band ceiling
}

}  // namespace
}  // namespace aqua
