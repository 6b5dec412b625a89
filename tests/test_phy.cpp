// PHY layer: OFDM framing, preamble detection, channel/SNR estimation,
// Algorithm-1 band selection, feedback symbols, MMSE equalizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <utility>

#include "channel/channel.h"
#include "dsp/fir.h"
#include "phy/bandselect.h"
#include "phy/chanest.h"
#include "phy/datamodem.h"
#include "phy/equalizer.h"
#include "phy/feedback.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"

namespace aqua::phy {
namespace {

// The receive front end reads captures narrowed once to fp32 (the modem's
// mic-boundary conversion).
std::vector<float> narrowed(std::span<const double> x) {
  return dsp::convert_samples<float>(x);
}

// Relative tolerance between an fp32 front-end metric and the retired
// double front end's (as in test_precision).
constexpr double kMetricRelTol = 2e-3;

TEST(Params, PaperNumerology) {
  const OfdmParams p;
  EXPECT_EQ(p.symbol_samples(), 960u);   // 20 ms at 48 kHz
  EXPECT_EQ(p.cp_samples(), 67u);        // 6.9 % overhead
  EXPECT_EQ(p.first_bin(), 20u);         // 1 kHz
  EXPECT_EQ(p.num_bins(), 60u);          // 1-4 kHz
  EXPECT_EQ(p.equalizer_taps(), 480u);   // channel length L
  // 19 selected bins at 2/3 coding = the paper's 633.3 bps.
  EXPECT_NEAR(p.reported_bitrate_bps(19), 633.33, 0.01);
  EXPECT_NEAR(p.reported_bitrate_bps(4), 133.33, 0.01);
}

TEST(Params, SpacingVariantsScale) {
  const OfdmParams p25 = OfdmParams::with_spacing(25.0);
  EXPECT_EQ(p25.symbol_samples(), 1920u);  // 40 ms
  EXPECT_EQ(p25.num_bins(), 120u);
  const OfdmParams p10 = OfdmParams::with_spacing(10.0);
  EXPECT_EQ(p10.symbol_samples(), 4800u);  // 100 ms
  EXPECT_EQ(p10.num_bins(), 300u);
}

TEST(Ofdm, ModulateDemodulateRoundTrip) {
  const OfdmParams p;
  Ofdm ofdm(p);
  std::mt19937_64 rng(5);
  std::vector<dsp::cplx> bins(p.num_bins());
  for (auto& b : bins) b = {rng() & 1 ? 1.0 : -1.0, 0.0};
  const std::vector<double> sym = ofdm.modulate(bins);
  EXPECT_EQ(sym.size(), p.symbol_samples());
  const std::vector<dsp::cplx> back = ofdm.demodulate(sym);
  const double scale = ofdm.power_norm(p.num_bins());
  for (std::size_t k = 0; k < bins.size(); ++k) {
    EXPECT_NEAR(back[k].real() / scale, bins[k].real(), 1e-9);
    EXPECT_NEAR(back[k].imag() / scale, bins[k].imag(), 1e-9);
  }
}

TEST(Ofdm, TransmitPowerIsIndependentOfBandWidth) {
  // Power reallocation (section 2.2.2): narrower band, same total power.
  const OfdmParams p;
  Ofdm ofdm(p);
  for (std::size_t width : {2u, 10u, 30u, 60u}) {
    std::vector<dsp::cplx> bins(width, dsp::cplx{1.0, 0.0});
    const std::vector<double> sym = ofdm.modulate_at(bins, 0);
    EXPECT_NEAR(dsp::mean_power(std::span<const double>(sym)), 0.05,
                0.05 * 0.05)
        << "width " << width;
  }
}

TEST(Ofdm, CyclicPrefixCopiesTail) {
  const OfdmParams p;
  Ofdm ofdm(p);
  std::vector<dsp::cplx> bins(p.num_bins(), dsp::cplx{1.0, 0.0});
  const std::vector<double> sym = ofdm.modulate(bins);
  const std::vector<double> with_cp = ofdm.add_cp(sym);
  ASSERT_EQ(with_cp.size(), p.symbol_total_samples());
  for (std::size_t i = 0; i < p.cp_samples(); ++i) {
    EXPECT_EQ(with_cp[i], sym[sym.size() - p.cp_samples() + i]);
  }
}

TEST(Ofdm, RejectsOutOfBandPlacement) {
  const OfdmParams p;
  Ofdm ofdm(p);
  std::vector<dsp::cplx> bins(10, dsp::cplx{1.0, 0.0});
  EXPECT_THROW(ofdm.modulate_at(bins, 55), std::invalid_argument);
}

TEST(Preamble, DetectsItselfCleanly) {
  dsp::Workspace ws;
  const OfdmParams p;
  Preamble pre(p);
  // Preamble embedded in silence.
  std::vector<double> signal(5000, 0.0);
  const std::vector<double>& w = pre.waveform();
  signal.insert(signal.end(), w.begin(), w.end());
  signal.resize(signal.size() + 5000, 0.0);
  auto det = pre.detect(signal, ws);
  ASSERT_TRUE(det.has_value());
  // Start of first symbol = 5000 + CP.
  EXPECT_NEAR(static_cast<double>(det->start_index),
              5000.0 + static_cast<double>(p.cp_samples()), 24.0);
  EXPECT_GT(det->sliding_metric, 0.6);  // paper: clean preamble > 0.6
  // Golden answer of the retired batch detector on this signal: the same
  // sample, with the fp32 scanner's metric pinned bit for bit and within
  // fp32 tolerance of the retired double one (0x3febfa0a0834fb00).
  EXPECT_EQ(det->start_index, 5060u);
  std::uint64_t bits;
  std::memcpy(&bits, &det->sliding_metric, sizeof bits);
  EXPECT_EQ(bits, 0x3febfa097ed11cbaULL);
  EXPECT_NEAR(det->sliding_metric, 0x1.bfa0a0834fb00p-1, kMetricRelTol);
}

TEST(Preamble, NoFalseAlarmOnNoise) {
  dsp::Workspace ws;
  const OfdmParams p;
  Preamble pre(p);
  std::mt19937_64 rng(9);
  std::normal_distribution<double> g(0.0, 0.1);
  std::vector<double> noise(48000);
  for (auto& v : noise) v = g(rng);
  EXPECT_FALSE(pre.detect(noise, ws).has_value());
}

TEST(Preamble, NoFalseAlarmOnImpulsiveNoise) {
  dsp::Workspace ws;
  // Spiky bursts are what defeats plain cross-correlation (section 2.2.1);
  // the sliding metric must stay quiet.
  const OfdmParams p;
  Preamble pre(p);
  std::mt19937_64 rng(10);
  std::normal_distribution<double> g(0.0, 0.02);
  std::vector<double> noise(48000);
  for (auto& v : noise) v = g(rng);
  std::uniform_int_distribution<std::size_t> pos(0, noise.size() - 200);
  for (int burst = 0; burst < 20; ++burst) {
    const std::size_t at = pos(rng);
    for (std::size_t i = 0; i < 150; ++i) {
      noise[at + i] += 2.0 * g(rng) * std::exp(-static_cast<double>(i) / 30.0) * 50.0;
    }
  }
  EXPECT_FALSE(pre.detect(noise, ws).has_value());
}

TEST(Preamble, SurvivesMultipathAndNoise) {
  dsp::Workspace ws;
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kLake);
  lc.range_m = 10.0;
  lc.seed = 33;
  channel::UnderwaterChannel ch(lc);
  const OfdmParams p;
  Preamble pre(p);
  const std::vector<double> rx = ch.transmit(pre.waveform());
  auto det = pre.detect(rx, ws);
  ASSERT_TRUE(det.has_value());
  EXPECT_GT(det->sliding_metric, 0.3);
}

TEST(ChannelEstimate, RecoversSnrInAwgn) {
  dsp::Workspace ws;
  // Known AWGN per bin: the estimator should land within ~2 dB.
  const OfdmParams p;
  Ofdm ofdm(p);
  Preamble pre(p);
  std::mt19937_64 rng(3);
  const double snr_db = 15.0;
  // Build 8 preamble symbols + white noise whose per-bin SNR is snr_db.
  const std::vector<double>& w = pre.waveform();
  std::vector<double> rx(w.begin() + static_cast<std::ptrdiff_t>(p.cp_samples()),
                         w.end());
  // Frequency-domain per-bin signal power is scale^2 (unit-modulus CAZAC
  // times the modulator's power norm). White noise of variance s^2 has
  // per-bin DFT power N*s^2. Solve for s^2 at the target SNR.
  Ofdm ofdm_ref(p);
  const double scale = ofdm_ref.power_norm(p.num_bins());
  const double noise_power =
      scale * scale /
      (static_cast<double>(p.symbol_samples()) * dsp::db_to_power(snr_db));
  std::normal_distribution<double> g(0.0, std::sqrt(noise_power));
  for (auto& v : rx) v += g(rng);
  ChannelEstimate est = estimate_channel(ofdm, rx, pre.cazac_bins(), ws);
  ASSERT_EQ(est.snr_db.size(), 60u);
  double avg = 0.0;
  for (double s : est.snr_db) avg += s;
  avg /= 60.0;
  EXPECT_NEAR(avg, snr_db, 3.0);
}

TEST(ChannelEstimate, FlatChannelGivesFlatH) {
  dsp::Workspace ws;
  const OfdmParams p;
  Ofdm ofdm(p);
  Preamble pre(p);
  const std::vector<double>& w = pre.waveform();
  const std::vector<double> rx(
      w.begin() + static_cast<std::ptrdiff_t>(p.cp_samples()), w.end());
  ChannelEstimate est = estimate_channel(ofdm, rx, pre.cazac_bins(), ws);
  for (std::size_t k = 0; k < est.h.size(); ++k) {
    EXPECT_NEAR(std::abs(est.h[k]), 1.0, 1e-6) << "bin " << k;
    EXPECT_GT(est.snr_db[k], 60.0);
  }
}

TEST(BandSelect, AllGoodBinsSelectEverything) {
  std::vector<double> snr(60, 20.0);
  const BandSelection band = select_band(snr, 7.0, 0.8);
  EXPECT_EQ(band.begin_bin, 0u);
  EXPECT_EQ(band.end_bin, 59u);
  EXPECT_FALSE(band.fallback);
}

TEST(BandSelect, DeepNotchSplitsTheBand) {
  std::vector<double> snr(60, 12.0);
  for (std::size_t k = 25; k < 30; ++k) snr[k] = -5.0;
  const BandSelection band = select_band(snr, 7.0, 0.8);
  // Larger side: bins 30..59 (width 30).
  EXPECT_EQ(band.begin_bin, 30u);
  EXPECT_EQ(band.end_bin, 59u);
}

TEST(BandSelect, ReallocationBonusRescuesNarrowBand) {
  // All bins at 3 dB: full band fails (3 < 7), but a width-L window gains
  // lambda*10*log10(60/L). Width 5 -> bonus 8.6 dB -> 11.6 > 7.
  std::vector<double> snr(60, 3.0);
  const BandSelection band = select_band(snr, 7.0, 0.8);
  EXPECT_FALSE(band.fallback);
  const double bonus =
      0.8 * 10.0 * std::log10(60.0 / static_cast<double>(band.width()));
  EXPECT_GT(3.0 + bonus, 7.0);
  // Maximality: one more bin would break the constraint.
  const double bonus_plus = 0.8 * 10.0 *
      std::log10(60.0 / static_cast<double>(band.width() + 1));
  EXPECT_LE(3.0 + bonus_plus, 7.0);
}

TEST(BandSelect, HopelessChannelFallsBackToBestBin) {
  std::vector<double> snr(60, -30.0);
  snr[17] = -10.0;
  const BandSelection band = select_band(snr, 7.0, 0.8);
  EXPECT_TRUE(band.fallback);
  EXPECT_EQ(band.begin_bin, 17u);
  EXPECT_EQ(band.end_bin, 17u);
}

TEST(BandSelect, PrefersWidestWindow) {
  // Two candidate runs: width 20 strong, width 35 marginal-but-passing.
  std::vector<double> snr(60, -10.0);
  for (std::size_t k = 0; k < 20; ++k) snr[k] = 30.0;
  for (std::size_t k = 25; k < 60; ++k) snr[k] = 7.2;  // +bonus clears 7
  const BandSelection band = select_band(snr, 7.0, 0.8);
  EXPECT_EQ(band.width(), 35u);
  EXPECT_EQ(band.begin_bin, 25u);
}

class LambdaSweep : public ::testing::TestWithParam<double> {};

TEST_P(LambdaSweep, HigherLambdaNeverShrinksTheBand) {
  // lambda scales the reallocation bonus: larger lambda = more optimistic,
  // so the selected width must be monotonically nondecreasing in lambda.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam() * 1000.0) + 3);
  std::normal_distribution<double> g(8.0, 6.0);
  std::vector<double> snr(60);
  for (auto& s : snr) s = g(rng);
  const double lambda = GetParam();
  const BandSelection lo = select_band(snr, 7.0, lambda);
  const BandSelection hi = select_band(snr, 7.0, std::min(1.0, lambda + 0.2));
  EXPECT_GE(hi.width(), lo.width());
}

INSTANTIATE_TEST_SUITE_P(Lambdas, LambdaSweep,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8));

TEST(Feedback, RoundTripsCleanly) {
  dsp::Workspace ws;
  const OfdmParams p;
  FeedbackCodec fb(p);
  for (auto [b, e] : {std::pair<std::size_t, std::size_t>{0, 59},
                      {10, 30},
                      {40, 50},
                      {7, 7}}) {
    BandSelection band{b, e, false};
    std::vector<double> sym = fb.encode_band(band);
    // Surround with silence.
    std::vector<double> signal(3000, 0.0);
    signal.insert(signal.end(), sym.begin(), sym.end());
    signal.resize(signal.size() + 3000, 0.0);
    auto dec = fb.decode_band(narrowed(signal), ws);
    ASSERT_TRUE(dec.has_value()) << "band " << b << "-" << e;
    EXPECT_EQ(dec->band.begin_bin, b);
    EXPECT_EQ(dec->band.end_bin, e);
  }
}

TEST(Feedback, ToneRoundTripsForIdsAndAck) {
  dsp::Workspace ws;
  const OfdmParams p;
  FeedbackCodec fb(p);
  for (std::size_t bin : {FeedbackCodec::kAckBin, std::size_t{28},
                          std::size_t{59}}) {
    std::vector<double> sym = fb.encode_tone(bin);
    std::vector<double> signal(2500, 0.0);
    signal.insert(signal.end(), sym.begin(), sym.end());
    signal.resize(signal.size() + 2500, 0.0);
    auto dec = fb.decode_tone(narrowed(signal), ws);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->bin, bin);
  }
}

TEST(Feedback, SurvivesTheUnknownBackwardChannel) {
  dsp::Workspace ws;
  // The key property (section 2.2.3): all power in two bins decodes
  // without any channel knowledge, over a realistic reverse link.
  const OfdmParams p;
  FeedbackCodec fb(p);
  int exact = 0;
  const int trials = 10;
  for (int i = 0; i < trials; ++i) {
    channel::LinkConfig lc;
    lc.site = channel::site_preset(channel::Site::kLake);
    lc.range_m = 10.0;
    lc.seed = 500 + i;
    channel::UnderwaterChannel ch(channel::reverse_link(lc));
    BandSelection band{12, 34, false};
    const std::vector<double> rx = ch.transmit(fb.encode_band(band));
    auto dec = fb.decode_band(narrowed(rx), ws);
    if (dec && dec->band.begin_bin == 12 && dec->band.end_bin == 34) ++exact;
  }
  EXPECT_GE(exact, 8) << "feedback should decode almost always at 10 m";
}

TEST(Feedback, NothingDetectedInPureNoise) {
  dsp::Workspace ws;
  const OfdmParams p;
  FeedbackCodec fb(p);
  std::mt19937_64 rng(12);
  std::normal_distribution<double> g(0.0, 0.05);
  std::vector<double> noise(20000);
  for (auto& v : noise) v = g(rng);
  const std::vector<float> noise_f = narrowed(noise);
  EXPECT_FALSE(fb.decode_band(noise_f, ws).has_value());
  EXPECT_FALSE(fb.decode_tone(noise_f, ws).has_value());
}

// Decoder outputs on fixed-seed reverse-link captures, pinned bit for bit
// (peak fractions as hex floats): the values the dense per-sample
// moving-DFT pass produced, which the grid-only pass must keep. The Lake
// captures carry boat tones, so the peak fractions were re-recorded when
// the tones became anchored phasors (bins and symbol starts held).
// The captures are long enough to cross several moving-DFT re-seeds, and
// the 25 Hz and 10 Hz numerologies put the second repeat at hop 2054 and
// 5135 on the step-8 search grid.
struct DecoderPin {
  double spacing_hz;
  bool tone;                       ///< decode_tone on begin_bin, else band
  std::size_t begin_bin, end_bin;  ///< transmitted
  std::uint64_t seed;
  // Expected decode.
  std::size_t want_begin, want_end, want_start;
  double want_fraction;
};

TEST(Feedback, DecodersPinnedBitForBit) {
  const DecoderPin pins[] = {
      {50.0, false, 12, 34, 500, 12, 34, 15352, 0x1.e6966b2b5e45dp-1},
      {50.0, true, 17, 17, 31, 17, 17, 14216, 0x1.293ed217a735ap-1},
      {50.0, true, FeedbackCodec::kAckBin, FeedbackCodec::kAckBin, 32, 0, 0,
       15320, 0x1.c2d5fe258aa72p-2},
      {25.0, false, 20, 90, 77, 20, 90, 15392, 0x1.9c77fffc04038p-1},
      {10.0, true, 150, 150, 78, 150, 150, 15568, 0x1.b1dc9f7bd9d0dp-1},
  };
  dsp::Workspace ws;
  for (const DecoderPin& pin : pins) {
    const OfdmParams p = OfdmParams::with_spacing(pin.spacing_hz);
    const FeedbackCodec fb(p);
    channel::LinkConfig lc;
    lc.site = channel::site_preset(channel::Site::kLake);
    lc.range_m = 10.0;
    lc.seed = pin.seed;
    channel::UnderwaterChannel ch(channel::reverse_link(lc));
    const std::vector<double> rx = ch.transmit(
        pin.tone ? fb.encode_tone(pin.begin_bin)
                 : fb.encode_band({pin.begin_bin, pin.end_bin, false}),
        0.3, 0.5);
    const std::vector<float> rx_f = narrowed(rx);
    SCOPED_TRACE(testing::Message() << pin.spacing_hz << " Hz seed "
                                    << pin.seed);
    std::size_t begin = 0, end = 0, start = 0;
    double frac = 0.0;
    if (pin.tone) {
      const auto dec = fb.decode_tone(rx_f, ws);
      ASSERT_TRUE(dec.has_value());
      begin = end = dec->bin;
      start = dec->symbol_start;
      frac = dec->peak_fraction;
    } else {
      const auto dec = fb.decode_band(rx_f, ws);
      ASSERT_TRUE(dec.has_value());
      begin = dec->band.begin_bin;
      end = dec->band.end_bin;
      start = dec->symbol_start;
      frac = dec->peak_fraction;
    }
    EXPECT_EQ(begin, pin.want_begin);
    EXPECT_EQ(end, pin.want_end);
    EXPECT_EQ(start, pin.want_start);
    EXPECT_EQ(frac, pin.want_fraction);
  }
}

TEST(Equalizer, ShortensAnIsiChannel) {
  // Two-tap channel: 1 + 0.5 z^-150 (echo beyond the 67-sample CP). The
  // inverse series (-0.5)^k z^{-150k} fits inside 480 taps, so the
  // equalizer concentrates the effective response back near a delta.
  std::mt19937_64 rng(8);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> tx(2000);
  for (auto& v : tx) v = g(rng);
  std::vector<double> h(151, 0.0);
  h[0] = 1.0;
  h[150] = 0.5;
  std::vector<double> rx = dsp::convolve(tx, h);
  rx.resize(tx.size());
  MmseEqualizer eq = MmseEqualizer::train(rx, tx, 480, 0, 1e-4);
  const std::vector<double> restored = eq.apply(rx);
  // Residual error over the central region, compared to no equalization.
  double err = 0.0, sig = 0.0, raw_err = 0.0;
  for (std::size_t i = 500; i < 1500; ++i) {
    err += (restored[i] - tx[i]) * (restored[i] - tx[i]);
    raw_err += (rx[i] - tx[i]) * (rx[i] - tx[i]);
    sig += tx[i] * tx[i];
  }
  EXPECT_LT(err / sig, 0.05);
  EXPECT_LT(err, 0.25 * raw_err);
}

TEST(Equalizer, IdentityPassesThrough) {
  MmseEqualizer eq = MmseEqualizer::identity();
  std::vector<double> x = {1.0, 2.0, 3.0};
  EXPECT_EQ(eq.apply(x), x);
}

TEST(Equalizer, RejectsDegenerateTraining) {
  std::vector<double> silent(1000, 0.0);
  std::vector<double> tx(1000, 1.0);
  EXPECT_THROW(MmseEqualizer::train(silent, tx, 480, 240),
               std::invalid_argument);
  EXPECT_THROW(MmseEqualizer::train(tx, tx, 0, 0), std::invalid_argument);
  std::vector<double> tiny(10, 1.0);
  EXPECT_THROW(MmseEqualizer::train(tiny, tiny, 480, 240),
               std::invalid_argument);
}

// The Workspace contract: a primitive overwrites every scratch element it
// reads, so the arena a call leases from can never change its result.
// Fills `count` pooled buffers of `n` elements with `value` (held at once,
// so the pool really holds `count` distinct dirty buffers).
template <typename V>
void poison_pool(dsp::Workspace& ws, std::size_t n, int count, V value) {
  std::vector<std::vector<V>> held;
  for (int i = 0; i < count; ++i) {
    held.push_back(ws.acquire<V>(n));
    std::fill(held.back().begin(), held.back().end(), value);
  }
  for (std::vector<V>& buf : held) ws.release(std::move(buf));
}

template <typename V>
bool same_bits(const std::vector<V>& a, const std::vector<V>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(V)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Workspace, DirtyArenaChangesNothing) {
  // One packet as a receiver hears it: preamble, an ID tone, band
  // feedback and the data burst, through a 5 m lake channel.
  const OfdmParams p;
  const Preamble pre(p);
  const Ofdm ofdm(p);
  const FeedbackCodec fb(p);
  const DataModem dm(p);
  const BandSelection band{10, 40, false};
  std::mt19937_64 rng(21);
  std::vector<std::uint8_t> info(16);
  for (auto& b : info) b = static_cast<std::uint8_t>(rng() & 1);
  std::vector<double> tx = pre.waveform();
  for (const std::vector<double>& part :
       {fb.encode_tone(28), fb.encode_band(band), dm.encode(info, band)}) {
    tx.insert(tx.end(), part.begin(), part.end());
  }
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kLake);
  lc.range_m = 5.0;
  lc.seed = 2121;
  channel::UnderwaterChannel ch(lc);
  const std::vector<double> rx = ch.transmit(tx);
  const std::vector<float> rx_f = narrowed(rx);

  // NaN poisons arithmetic; a huge finite value also poisons comparisons
  // (a NaN never wins a peak search). The second round poisons the same
  // arena again, on top of the buffers the first round left in it.
  dsp::Workspace dirty;
  const std::size_t n = 2 * rx.size();
  for (const double junk : {std::numeric_limits<double>::quiet_NaN(), 1e30}) {
    SCOPED_TRACE(junk);
    const float junk_f = static_cast<float>(junk);
    poison_pool<double>(dirty, n, 12, junk);
    poison_pool<float>(dirty, n, 12, junk_f);
    poison_pool<dsp::cplx>(dirty, n, 12, {junk, junk});
    poison_pool<dsp::cplxf>(dirty, n, 12, {junk_f, junk_f});
    poison_pool<std::uint32_t>(dirty, n, 12, 0xFFFFFFFFu);
    dsp::Workspace fresh;

    const auto det = pre.detect(rx, dirty);
    const auto det_ref = pre.detect(rx, fresh);
    ASSERT_TRUE(det.has_value() && det_ref.has_value());
    // A capture that ends with the preamble core also runs detect()'s
    // flush, which feeds the scanner leased silence.
    const std::span<const double> cut = std::span<const double>(rx).first(
        det_ref->start_index + pre.core_samples());
    const auto cut_det = pre.detect(cut, dirty);
    const auto cut_ref = pre.detect(cut, fresh);
    ASSERT_TRUE(cut_det.has_value() && cut_ref.has_value());
    for (const auto& [got, want] :
         {std::pair{det, det_ref}, std::pair{cut_det, cut_ref}}) {
      EXPECT_EQ(got->start_index, want->start_index);
      EXPECT_TRUE(same_bits(got->sliding_metric, want->sliding_metric));
      EXPECT_TRUE(same_bits(got->coarse_peak, want->coarse_peak));
    }

    const std::span<const double> at =
        std::span<const double>(rx).subspan(det->start_index);
    const ChannelEstimate est =
        estimate_channel(ofdm, at, pre.cazac_bins(), dirty);
    const ChannelEstimate est_ref =
        estimate_channel(ofdm, at, pre.cazac_bins(), fresh);
    EXPECT_TRUE(same_bits(est.h, est_ref.h));
    EXPECT_TRUE(same_bits(est.snr_db, est_ref.snr_db));

    const auto tone = fb.decode_tone(rx_f, dirty);
    const auto tone_ref = fb.decode_tone(rx_f, fresh);
    ASSERT_TRUE(tone.has_value() && tone_ref.has_value());
    EXPECT_EQ(tone->bin, tone_ref->bin);
    EXPECT_EQ(tone->symbol_start, tone_ref->symbol_start);
    EXPECT_TRUE(same_bits(tone->peak_fraction, tone_ref->peak_fraction));

    const auto fbd = fb.decode_band(rx_f, dirty);
    const auto fbd_ref = fb.decode_band(rx_f, fresh);
    ASSERT_TRUE(fbd.has_value() && fbd_ref.has_value());
    EXPECT_EQ(fbd->band.begin_bin, fbd_ref->band.begin_bin);
    EXPECT_EQ(fbd->band.end_bin, fbd_ref->band.end_bin);
    EXPECT_EQ(fbd->symbol_start, fbd_ref->symbol_start);
    EXPECT_TRUE(same_bits(fbd->peak_fraction, fbd_ref->peak_fraction));

    DecodeOptions opts;
    opts.search_window = rx.size() - 4 * p.symbol_total_samples();
    const DataDecodeResult res = dm.decode(rx, band, 16, opts, dirty);
    const DataDecodeResult res_ref = dm.decode(rx, band, 16, opts, fresh);
    ASSERT_TRUE(res.found && res_ref.found);
    EXPECT_EQ(res.info_bits, info);
    EXPECT_EQ(res.training_start, res_ref.training_start);
    EXPECT_TRUE(same_bits(res.training_metric, res_ref.training_metric));
    EXPECT_EQ(res.info_bits, res_ref.info_bits);
    EXPECT_EQ(res.coded_hard, res_ref.coded_hard);
    EXPECT_TRUE(same_bits(res.coded_llr, res_ref.coded_llr));
  }
}

}  // namespace
}  // namespace aqua::phy
