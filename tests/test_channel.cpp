// Channel substrate: absorption, image-method multipath, device profiles,
// noise synthesis, mobility, and the composed link simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>

#include "channel/absorption.h"
#include "channel/channel.h"
#include "channel/device.h"
#include "channel/environment.h"
#include "channel/mobility.h"
#include "channel/multipath.h"
#include "channel/noise.h"
#include "dsp/chirp.h"
#include "dsp/fft.h"
#include "dsp/fir.h"
#include "dsp/spectrum.h"
#include "dsp/workspace.h"

namespace aqua::channel {
namespace {

TEST(Absorption, ThorpIsSmallInTheModemBand) {
  // At 1-4 kHz absorption is a fraction of a dB/km (why acoustic comms
  // works at all); it grows steeply with frequency.
  EXPECT_LT(thorp_absorption_db_per_km(1000.0), 0.1);
  EXPECT_LT(thorp_absorption_db_per_km(4000.0), 0.5);
  EXPECT_GT(thorp_absorption_db_per_km(50000.0), 10.0);
  EXPECT_GT(thorp_absorption_db_per_km(4000.0),
            thorp_absorption_db_per_km(1000.0));
}

TEST(Absorption, SpreadingDominatesShortRange) {
  // 5 m -> 10 m costs ~6 dB (spherical spreading).
  const double tl5 = transmission_loss_db(5.0, 2500.0);
  const double tl10 = transmission_loss_db(10.0, 2500.0);
  EXPECT_NEAR(tl10 - tl5, 6.02, 0.1);
}

TEST(Multipath, DirectPathComesFirstWithUnitBounces) {
  Geometry g{10.0, 1.0, 1.0, 5.0};
  WaveguideParams wp;
  const std::vector<Path> paths = compute_paths(g, wp);
  ASSERT_GE(paths.size(), 3u);
  EXPECT_EQ(paths[0].surface_bounces, 0);
  EXPECT_EQ(paths[0].bottom_bounces, 0);
  EXPECT_NEAR(paths[0].delay_s, 10.0 / kSoundSpeedWater, 1e-6);
  // Sorted by delay.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].delay_s, paths[i - 1].delay_s);
  }
}

TEST(Multipath, SurfaceBounceFlipsSign) {
  Geometry g{10.0, 1.0, 1.0, 50.0};  // deep water: few bottom bounces
  WaveguideParams wp;
  const std::vector<Path> paths = compute_paths(g, wp);
  // Find the single-surface-bounce path.
  bool found = false;
  for (const Path& p : paths) {
    if (p.surface_bounces == 1 && p.bottom_bounces == 0) {
      EXPECT_LT(p.amplitude, 0.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Multipath, ShallowWaterHasLongerDelaySpread) {
  WaveguideParams wp;
  Geometry shallow{20.0, 1.0, 1.0, 3.0};
  Geometry deep{20.0, 1.0, 1.0, 30.0};
  auto spread = [&](const Geometry& g) {
    const std::vector<Path> paths = compute_paths(g, wp);
    return paths.back().delay_s - paths.front().delay_s;
  };
  EXPECT_GT(spread(shallow), 0.0);
  // In very shallow water many bounces arrive with meaningful energy.
  const std::vector<Path> p_shallow = compute_paths(shallow, wp);
  const std::vector<Path> p_deep = compute_paths(deep, wp);
  EXPECT_GT(p_shallow.size(), p_deep.size());
}

TEST(Multipath, ImpulseResponseEnergyMatchesPathAmplitudes) {
  Geometry g{10.0, 1.0, 1.0, 5.0};
  WaveguideParams wp;
  const std::vector<Path> paths = compute_paths(g, wp);
  double bulk = 0.0;
  const std::vector<double> ir =
      paths_to_impulse_response(paths, 48000.0, &bulk);
  EXPECT_NEAR(bulk, paths.front().delay_s, 1e-9);
  double amp2 = 0.0;
  for (const Path& p : paths) amp2 += p.amplitude * p.amplitude;
  EXPECT_NEAR(dsp::energy(ir), amp2, 0.15 * amp2);
}

TEST(Multipath, FrequencyResponseShowsFading) {
  // Direct + inverted surface bounce produce >10 dB swings across 1-4 kHz
  // at this geometry (the paper's Fig. 3 observation).
  Geometry g{10.0, 1.0, 1.0, 5.0};
  WaveguideParams wp;
  const std::vector<Path> paths = compute_paths(g, wp);
  double lo = 1e9, hi = 0.0;
  for (double f = 1000.0; f <= 4000.0; f += 25.0) {
    const double mag = std::abs(paths_frequency_response(paths, f));
    lo = std::min(lo, mag);
    hi = std::max(hi, mag);
  }
  EXPECT_GT(20.0 * std::log10(hi / lo), 10.0);
}

TEST(Multipath, RejectsBadGeometry) {
  WaveguideParams wp;
  EXPECT_THROW(compute_paths(Geometry{0.0, 1.0, 1.0, 5.0}, wp),
               std::invalid_argument);
  EXPECT_THROW(compute_paths(Geometry{10.0, 1.0, 1.0, 0.0}, wp),
               std::invalid_argument);
}

TEST(Device, ResponsesRollOffAboveFourKilohertz) {
  // Fig. 3a: response diminishes above 4 kHz on every device. Compare
  // against the in-band peak (individual in-band frequencies can sit in a
  // notch).
  for (DeviceModel m : {DeviceModel::kGalaxyS9, DeviceModel::kPixel4,
                        DeviceModel::kOnePlus8Pro, DeviceModel::kGalaxyWatch4}) {
    DeviceProfile dev(m, 1, CaseType::kNone);
    double peak = 0.0;
    for (double f = 1000.0; f <= 4000.0; f += 50.0) {
      peak = std::max(peak, dev.speaker_gain(f));
    }
    EXPECT_LT(dev.speaker_gain(8000.0), 0.35 * peak) << dev.name();
    EXPECT_LT(dev.speaker_gain(12000.0), dev.speaker_gain(8000.0)) << dev.name();
  }
}

TEST(Device, DifferentUnitsHaveDifferentNotches) {
  DeviceProfile a(DeviceModel::kGalaxyS9, 1, CaseType::kNone);
  DeviceProfile b(DeviceModel::kGalaxyS9, 2, CaseType::kNone);
  double max_diff_db = 0.0;
  for (double f = 1000.0; f <= 4500.0; f += 50.0) {
    const double d = std::abs(20.0 * std::log10(a.speaker_gain(f) /
                                                b.speaker_gain(f)));
    max_diff_db = std::max(max_diff_db, d);
  }
  EXPECT_GT(max_diff_db, 3.0);
}

TEST(Device, HardCaseAttenuatesMoreThanPouch) {
  DeviceProfile pouch(DeviceModel::kGalaxyS9, 1, CaseType::kSoftPouch);
  DeviceProfile hard(DeviceModel::kGalaxyS9, 1, CaseType::kHardCase);
  EXPECT_LT(hard.speaker_gain(2500.0), pouch.speaker_gain(2500.0));
  const double ratio_db =
      20.0 * std::log10(pouch.speaker_gain(2500.0) / hard.speaker_gain(2500.0));
  EXPECT_NEAR(ratio_db, 7.25, 2.0);  // ~6 dB extra insertion loss + slope
}

TEST(Device, OrientationLossGrowsWithAngle) {
  DeviceProfile dev(DeviceModel::kGalaxyS9, 1);
  const double g0 = dev.orientation_gain(0.0, 2500.0);
  const double g90 = dev.orientation_gain(90.0, 2500.0);
  const double g180 = dev.orientation_gain(180.0, 2500.0);
  EXPECT_NEAR(g0, 1.0, 1e-12);
  EXPECT_GT(g90, g180);
  EXPECT_LT(20.0 * std::log10(g180), -5.0);  // several dB of shadowing
}

TEST(Device, WatchIsQuieterThanPhone) {
  DeviceProfile phone(DeviceModel::kGalaxyS9, 1);
  DeviceProfile watch(DeviceModel::kGalaxyWatch4, 1);
  EXPECT_LT(watch.tx_level(), phone.tx_level());
}

// FNV-1a over the bit patterns of `y`, with -0.0 folded into +0.0: a
// silent block the stream skips emits +0.0 where a transform may give -0.0.
std::uint64_t bits_hash(const std::vector<double>& y) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double v : y) {
    const double c = v == 0.0 ? 0.0 : v;
    std::uint64_t b = 0;
    std::memcpy(&b, &c, sizeof b);
    for (int k = 0; k < 8; ++k) {
      h ^= (b >> (8 * k)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(Noise, SpectrumIsStrongestBelowOneKilohertz) {
  // Fig. 4: noise amplitude high below 1 kHz, decaying tail to ~4.5 kHz.
  NoiseParams np;
  NoiseGenerator gen(np, 48000.0, 7);
  const std::vector<double> nz = gen.generate(96000);
  dsp::Psd psd = dsp::welch_psd(nz, 48000.0, 2048);
  auto band_mean = [&](double lo, double hi) {
    double acc = 0.0;
    std::size_t cnt = 0;
    for (std::size_t k = 0; k < psd.freq_hz.size(); ++k) {
      if (psd.freq_hz[k] < lo || psd.freq_hz[k] > hi) continue;
      acc += psd.power[k];
      ++cnt;
    }
    return acc / static_cast<double>(cnt);
  };
  const double low = band_mean(100.0, 900.0);
  const double mid = band_mean(1500.0, 3000.0);
  const double high = band_mean(8000.0, 12000.0);
  EXPECT_GT(low, 5.0 * mid);
  EXPECT_GT(mid, 5.0 * high);
}

TEST(Noise, LevelOffsetScalesRms) {
  NoiseParams a;
  NoiseParams b;
  b.level_db = 9.0;  // the paper's cross-site spread
  NoiseGenerator ga(a, 48000.0, 3);
  NoiseGenerator gb(b, 48000.0, 3);
  const double ra = dsp::rms(ga.generate(48000));
  const double rb = dsp::rms(gb.generate(48000));
  EXPECT_NEAR(20.0 * std::log10(rb / ra), 9.0, 1.5);
}

TEST(Noise, DeterministicPerSeed) {
  NoiseParams np;
  NoiseGenerator a(np, 48000.0, 11);
  NoiseGenerator b(np, 48000.0, 11);
  EXPECT_EQ(a.generate(1000), b.generate(1000));
}

TEST(Noise, BubbleBurstsAreImpulsive) {
  NoiseParams np;
  np.bubble_rate_hz = 10.0;
  np.bubble_gain = 12.0;
  NoiseGenerator gen(np, 48000.0, 5);
  const std::vector<double> nz = gen.generate(96000);
  double peak = 0.0;
  for (double v : nz) peak = std::max(peak, std::abs(v));
  const double r = dsp::rms(nz);
  EXPECT_GT(peak / r, 6.0);  // crest factor far above Gaussian (~4)
}

TEST(Noise, EveryPresetMatchesGoldenOverRaggedChunks) {
  // Each site's ambient process (floor, bubble bursts, boat tones) pushed
  // in ragged chunks must equal the same second generated in one call:
  // odd chunks leave a saved normal variate pending across calls, and the
  // 1024-sample tone anchors fall inside chunks, as do the 1537-sample
  // blocks of the shaping stream. The hashes were recorded from the
  // overlap-save shaping; Noise.OverlapSaveShapingMatchesDirectFir bounds
  // its floor against the direct FIR, Noise.RngMatchesLibstdcxxBitForBit
  // pins the draws and Noise.ToneTermTracksPerSampleSine the tones.
  const std::uint64_t golden[] = {
      0x630e11d939dabe03ULL, 0x27a2d9a64e714bc1ULL, 0xe44249229f7f25d4ULL,
      0x5114b44585ad7efaULL, 0x3cabb1dfc26c4107ULL, 0xd7458d85b19e9e93ULL};
  const std::size_t sizes[] = {1, 479, 480, 7, 4096, 333, 2, 960};
  const std::vector<Site> sites = all_sites();
  ASSERT_EQ(sites.size(), std::size(golden));
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const NoiseParams np = site_preset(sites[s]).noise;
    NoiseGenerator chunked(np, 48000.0, 21);
    std::vector<double> got;
    for (std::size_t b = 0, k = 0; b < 48000; ++k) {
      const std::size_t n = std::min(sizes[k % std::size(sizes)], 48000 - b);
      const std::vector<double> part = chunked.generate(n);
      got.insert(got.end(), part.begin(), part.end());
      b += n;
    }
    NoiseGenerator whole(np, 48000.0, 21);
    EXPECT_EQ(got, whole.generate(48000)) << site_name(sites[s]);
    EXPECT_EQ(bits_hash(got), golden[s]) << site_name(sites[s]);
  }
}

TEST(Noise, OverlapSaveShapingMatchesDirectFir) {
  // The floor is the site's shaping taps run over NoiseRng(seed)'s normals
  // from zero history, times one calibration gain. The overlap-save stream
  // only rounds differently from the direct dot product, so over ragged
  // chunks around the stream's 1537-sample block the generator must match
  // a direct FIR of the same draws, scaled by the least-squares gain, to
  // 1e-12 of the output RMS.
  const std::size_t sizes[] = {1, 479, 480, 1537, 1538, 5000};
  const std::size_t total = 30000;
  for (const Site site : all_sites()) {
    NoiseParams np = site_preset(site).noise;
    np.bubble_rate_hz = 0.0;
    np.boat_tones_hz.clear();
    NoiseGenerator gen(np, 48000.0, 17);
    dsp::Workspace ws;
    std::vector<double> got(total);
    for (std::size_t b = 0, c = 0; b < total; ++c) {
      const std::size_t n = std::min(sizes[c % std::size(sizes)], total - b);
      gen.generate(std::span<double>(got).subspan(b, n), ws);
      b += n;
    }
    const std::vector<double>& h = gen.shaping_taps();
    ASSERT_EQ(h.size(), 512u);
    NoiseRng rng(17);
    std::vector<double> white(total);
    for (double& v : white) v = rng.normal();
    std::vector<double> direct(total, 0.0);
    for (std::size_t p = 0; p < total; ++p) {
      double acc = 0.0;
      for (std::size_t j = 0; j < h.size() && j <= p; ++j) {
        acc += h[j] * white[p - j];
      }
      direct[p] = acc;
    }
    double gd = 0.0;
    double dd = 0.0;
    for (std::size_t p = 0; p < total; ++p) {
      gd += got[p] * direct[p];
      dd += direct[p] * direct[p];
    }
    const double gain = gd / dd;
    double worst = 0.0;
    for (std::size_t p = 0; p < total; ++p) {
      worst = std::max(worst, std::abs(got[p] - gain * direct[p]));
    }
    EXPECT_LE(worst, 1e-12 * dsp::rms(got)) << site_name(site);
  }
}

TEST(Noise, RngMatchesLibstdcxxBitForBit) {
  // NoiseRng is std::mt19937_64 seen through one normal_distribution and
  // uniform_real_distribution(0, 1). Interleave runs of both, of odd and
  // even lengths, so a saved normal variate is often pending while
  // uniforms are drawn, over well past one engine refill.
  for (const std::uint64_t seed : {0ULL, 0x5EEDULL, ~0ULL}) {
    NoiseRng fast(seed);
    std::mt19937_64 ref(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    const auto bits = [](double v) {
      std::uint64_t b = 0;
      std::memcpy(&b, &v, sizeof b);
      return b;
    };
    std::uint64_t draws = 0;
    std::uint64_t mismatches = 0;
    for (std::uint64_t run = 0; draws < 4'000'000; ++run) {
      const std::uint64_t len = 1 + (run * 7) % 13;
      for (std::uint64_t i = 0; i < len; ++i) {
        const bool same = run % 3 == 2 ? bits(fast.uniform()) == bits(uni(ref))
                                       : bits(fast.normal()) == bits(gauss(ref));
        mismatches += same ? 0 : 1;
      }
      draws += len;
    }
    for (int i = 0; i < 1000; ++i) mismatches += fast.next() == ref() ? 0 : 1;
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(Noise, ToneTermTracksPerSampleSine) {
  // The boat tones and their wander as the generator once rendered them, a
  // std::sin per tone per sample on a running time t += dt, against the
  // phasor tones re-anchored every kToneAnchorSamples. The generator's
  // tone term is its output minus a tone-free twin's (same seed, so the
  // same floor and bursts). Over 10 s pushed in ragged chunks, most of
  // which straddle an anchor, it must stay within 1e-6 of the tone
  // amplitude of that formula, whose running time drifts by ~1.2e-7 of
  // the amplitude by 10 s, and within 1e-10 of the same sines taken at the
  // exact time k / fs.
  constexpr std::size_t k = NoiseGenerator::kToneAnchorSamples;
  const std::size_t sizes[] = {1, k - 1, 2, 4 * k, 777, k + 1, 3, 2 * k, 480};
  const std::size_t total = 480000;
  for (const Site site : {Site::kPark, Site::kLake, Site::kMuseum}) {
    const NoiseParams np = site_preset(site).noise;
    ASSERT_FALSE(np.boat_tones_hz.empty());
    NoiseParams quiet = np;
    quiet.boat_tones_hz.clear();
    NoiseGenerator with(np, 48000.0, 9);
    NoiseGenerator without(quiet, 48000.0, 9);
    const double amp = np.boat_tone_gain * with.floor_rms();
    const auto tone_at = [&](double t) {
      double tone_sum = 0.0;
      for (std::size_t j = 0; j < np.boat_tones_hz.size(); ++j) {
        tone_sum += std::sin(dsp::kTwoPi * np.boat_tones_hz[j] * t +
                             0.7 * static_cast<double>(j));
      }
      const double wander = 0.75 + 0.25 * std::sin(dsp::kTwoPi * 0.13 * t);
      return amp * wander * tone_sum /
             static_cast<double>(np.boat_tones_hz.size());
    };
    const double dt = 1.0 / 48000.0;
    double t = 0.0;
    double off_running = 0.0;
    double off_exact = 0.0;
    for (std::size_t b = 0, c = 0; b < total; ++c) {
      const std::size_t n = std::min(sizes[c % std::size(sizes)], total - b);
      const std::vector<double> a = with.generate(n);
      const std::vector<double> z = without.generate(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double tone = a[i] - z[i];
        off_running = std::max(off_running, std::abs(tone - tone_at(t)));
        const double exact_t = static_cast<double>(b + i) / 48000.0;
        off_exact = std::max(off_exact, std::abs(tone - tone_at(exact_t)));
        t += dt;
      }
      b += n;
    }
    EXPECT_LE(off_running, 1e-6 * amp) << site_name(site);
    EXPECT_LE(off_exact, 1e-10 * amp) << site_name(site);
  }
}

// A generator that hands out one fixed word, to ask libstdc++'s
// uniform_real_distribution what it makes of that word.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word = 0;
  result_type operator()() const { return word; }
};

TEST(Noise, BurstThresholdDecidesAsUniformDraw) {
  // A bubble burst starts when a uniform draw falls below p; the generator
  // compares the drawn word against uniform_threshold(p) instead. Both must
  // decide alike on the words around the threshold and on random words, at
  // every site's burst probability and at the edges of (0, 1).
  std::vector<double> probs = {0.0, 1e-300, 1e-3, 0.3, 0.5, 0.999999,
                               std::nextafter(1.0, 0.0)};
  for (const Site site : all_sites()) {
    probs.push_back(site_preset(site).noise.bubble_rate_hz * (1.0 / 48000.0));
  }
  std::mt19937_64 rng(23);
  for (const double p : probs) {
    const std::uint64_t threshold = NoiseRng::uniform_threshold(p);
    const auto check = [&](std::uint64_t word) {
      FixedWord engine{word};
      std::uniform_real_distribution<double> uni(0.0, 1.0);
      const double u = uni(engine);
      EXPECT_EQ(NoiseRng::uniform_of(word), u) << word;
      EXPECT_EQ(word < threshold, u < p) << "p " << p << " word " << word;
    };
    for (std::uint64_t d = 0; d <= 4; ++d) check(threshold - 2 + d);
    for (int i = 0; i < 2000; ++i) check(rng());
  }
}

TEST(Mobility, RmsAccelerationMatchesPaperReadings) {
  // Numerically differentiate position twice and compare the RMS to the
  // accelerometer readings (2.5 / 5.1 m/s^2).
  for (auto [kind, expect] : {std::pair{MotionKind::kSlow, 2.5},
                              std::pair{MotionKind::kFast, 5.1}}) {
    MobilityModel m(kind, 77);
    const double dt = 0.001;
    double acc2 = 0.0;
    const int n = 20000;
    for (int i = 1; i + 1 < n; ++i) {
      const double t = static_cast<double>(i) * dt;
      const double a_h = (m.range_offset_m(t + dt) - 2.0 * m.range_offset_m(t) +
                          m.range_offset_m(t - dt)) / (dt * dt);
      const double a_v = (m.depth_offset_m(t + dt) - 2.0 * m.depth_offset_m(t) +
                          m.depth_offset_m(t - dt)) / (dt * dt);
      acc2 += a_h * a_h + a_v * a_v;
    }
    const double rms = std::sqrt(acc2 / static_cast<double>(n - 2));
    EXPECT_NEAR(rms, expect, 0.45 * expect) << "kind " << static_cast<int>(kind);
    EXPECT_NEAR(m.rms_acceleration(), expect, 1e-12);
  }
}

TEST(Mobility, StaticMeansNoSwing) {
  MobilityModel m(MotionKind::kStatic, 3);
  EXPECT_NEAR(m.range_offset_m(1.0), 0.0, 1e-9);
  EXPECT_NEAR(m.depth_offset_m(2.0), 0.0, 1e-9);
}

TEST(Environment, AllSixSitesExist) {
  EXPECT_EQ(all_sites().size(), 6u);
  for (Site s : all_sites()) {
    const SitePreset p = site_preset(s);
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.water_depth_m, 0.0);
    EXPECT_GT(p.max_range_m, 0.0);
  }
  EXPECT_EQ(site_preset(Site::kBay).water_depth_m, 15.0);   // deepest
  EXPECT_EQ(site_preset(Site::kMuseum).water_depth_m, 9.0);
  EXPECT_GE(site_preset(Site::kBeach).max_range_m, 100.0);  // longest
}

TEST(Environment, LakeIsNoisiestAndMostCluttered) {
  const SitePreset bridge = site_preset(Site::kBridge);
  const SitePreset lake = site_preset(Site::kLake);
  EXPECT_NEAR(lake.noise.level_db - bridge.noise.level_db, 9.0, 1e-9);
  EXPECT_GT(lake.waveguide.scatterer_count, bridge.waveguide.scatterer_count);
}

TEST(UnderwaterChannel, SignalArrivesAfterBulkDelay) {
  LinkConfig lc;
  lc.range_m = 15.0;
  lc.noise_enabled = false;
  UnderwaterChannel ch(lc);
  EXPECT_NEAR(ch.bulk_delay_s(), 15.0 / kSoundSpeedWater, 0.0025);
  std::vector<double> pulse(200, 0.0);
  pulse[0] = 1.0;
  const std::vector<double> rx = ch.transmit(pulse, 0.01, 0.01);
  // Nothing before lead-in + bulk delay (minus margin).
  const std::size_t first_possible =
      static_cast<std::size_t>((0.01 + ch.bulk_delay_s()) * 48000.0);
  for (std::size_t i = 0; i < first_possible; ++i) {
    EXPECT_NEAR(rx[i], 0.0, 1e-12);
  }
  EXPECT_GT(dsp::energy(rx), 0.0);
}

TEST(UnderwaterChannel, ReciprocityHoldsInAirButNotUnderwater) {
  // Fig. 3c,d: forward/backward responses match in air, diverge in water.
  auto response_diff_db = [](bool in_air) {
    LinkConfig fwd;
    fwd.range_m = 2.0;
    fwd.in_air = in_air;
    fwd.noise_enabled = false;
    // Same model, two physical units — the paper's Fig. 3c,d setup.
    fwd.tx_device = DeviceProfile(DeviceModel::kGalaxyS9, 1);
    fwd.rx_device = DeviceProfile(DeviceModel::kGalaxyS9, 2);
    UnderwaterChannel f(fwd);
    UnderwaterChannel b(reverse_link(fwd));
    double acc = 0.0;
    int cnt = 0;
    for (double freq = 1000.0; freq <= 3000.0; freq += 50.0) {
      const double df = 20.0 * std::log10(
          (f.frequency_response_mag(freq) + 1e-12) /
          (b.frequency_response_mag(freq) + 1e-12));
      acc += df * df;
      ++cnt;
    }
    return std::sqrt(acc / cnt);
  };
  const double air = response_diff_db(true);
  const double water = response_diff_db(false);
  EXPECT_LT(air, 1.0);        // near-identical in air
  EXPECT_GT(water, 3.0 * air);  // clearly different underwater
}

TEST(UnderwaterChannel, SnrFallsWithRange) {
  double prev = 1e9;
  for (double r : {5.0, 10.0, 20.0}) {
    LinkConfig lc;
    lc.range_m = r;
    lc.seed = 5;
    UnderwaterChannel ch(lc);
    const double snr = ch.analytic_snr_db(2500.0, 1000.0, 4000.0);
    EXPECT_LT(snr, prev) << "range " << r;
    prev = snr;
  }
}

TEST(UnderwaterChannel, MobilityMakesOutputTimeVarying) {
  LinkConfig lc;
  lc.range_m = 5.0;
  lc.noise_enabled = false;
  lc.motion = MotionKind::kFast;
  lc.site = site_preset(Site::kLake);
  UnderwaterChannel moving(lc);
  lc.motion = MotionKind::kStatic;
  LinkConfig static_cfg = lc;
  static_cfg.site.surface_roughness = 0.0;
  static_cfg.site.drift_mps = 0.0;
  UnderwaterChannel still(static_cfg);
  // A long tone through the moving channel shows amplitude modulation.
  const std::vector<double> x = dsp::tone(2000.0, 1.0, 48000.0, 0.3);
  auto envelope_var = [](const std::vector<double>& y) {
    // RMS per 10 ms block.
    std::vector<double> env;
    for (std::size_t i = 0; i + 480 <= y.size(); i += 480) {
      env.push_back(dsp::rms(std::span<const double>(y).subspan(i, 480)));
    }
    // Trim edges (lead-in/tail).
    double mean = 0.0, var = 0.0;
    const std::size_t lo = env.size() / 4, hi = 3 * env.size() / 4;
    for (std::size_t i = lo; i < hi; ++i) mean += env[i];
    mean /= static_cast<double>(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      var += (env[i] - mean) * (env[i] - mean);
    }
    return var / (mean * mean * static_cast<double>(hi - lo));
  };
  const double mv = envelope_var(moving.transmit(x));
  const double sv = envelope_var(still.transmit(x));
  EXPECT_GT(mv, 5.0 * sv);
}

TEST(UnderwaterChannel, ConsecutiveTransmitsDrawFreshRoughness) {
  // Waves decorrelate the surface bounce: the same waveform sent twice
  // over a rough-surface link must not render the same multipath. The
  // smooth-surface twin (fixed impulse response) renders it identically,
  // so the difference is the roughness, not the clock.
  LinkConfig lc;
  lc.site = site_preset(Site::kBay);
  lc.site.drift_mps = 0.0;
  lc.range_m = 10.0;
  lc.noise_enabled = false;
  LinkConfig smooth = lc;
  smooth.site.surface_roughness = 0.0;
  const std::vector<double> x = dsp::tone(2000.0, 1.0, 48000.0, 0.1);
  const auto max_diff = [](const std::vector<double>& a,
                           const std::vector<double>& b) {
    double d = 0.0;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      d = std::max(d, std::abs(a[i] - b[i]));
    }
    return d;
  };

  UnderwaterChannel rough(lc);
  ASSERT_GT(lc.site.surface_roughness, 0.0);
  const std::vector<double> r1 = rough.transmit(x);
  const std::vector<double> r2 = rough.transmit(x);
  double peak = 0.0;
  for (double v : r1) peak = std::max(peak, std::abs(v));
  EXPECT_GT(max_diff(r1, r2), 0.01 * peak);

  UnderwaterChannel still(smooth);
  const std::vector<double> s1 = still.transmit(x);
  const std::vector<double> s2 = still.transmit(x);
  EXPECT_EQ(s1, s2);
}

// Gaussian burst, `gap` zeros, a second burst, then `tail` zeros.
std::vector<double> burst_gap_burst(std::size_t burst, std::size_t gap,
                                    std::size_t tail, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 0.3);
  std::vector<double> x;
  for (std::size_t i = 0; i < burst; ++i) x.push_back(g(rng));
  x.insert(x.end(), gap, 0.0);
  for (std::size_t i = 0; i < burst; ++i) x.push_back(g(rng));
  x.insert(x.end(), tail, 0.0);
  return x;
}

TEST(UnderwaterChannel, SilentBlocksRenderTheSameStreamBitForBit) {
  // A rough, drifting, moving link: every 10 ms block solves its own
  // paths and draws its own surface roughness. Blocks of the silent gap
  // skip the path solve, the response and the convolution but must still
  // draw, or the second burst renders through the wrong surface. The
  // golden count and hash were recorded with the per-block real-FFT
  // convolution (whose roundoff reaches a few samples a direct sum leaves
  // exactly zero) and the recurrence-built tap table; skipping silent
  // blocks must not move them.
  LinkConfig lc;
  lc.site = site_preset(Site::kBay);
  lc.range_m = 8.0;
  lc.motion = MotionKind::kSlow;
  lc.noise_enabled = false;
  lc.seed = 7;
  UnderwaterChannel ch(lc);
  UnderwaterChannel::Stream s = ch.stream();
  const std::vector<double> x = burst_gap_burst(4800, 24000, 14400, 5);
  std::vector<double> out;
  dsp::Workspace ws;
  for (std::size_t b = 0; b < x.size(); b += 1000) {
    const std::size_t n = std::min<std::size_t>(1000, x.size() - b);
    s.push(std::span<const double>(x).subspan(b, n), out, ws);
  }
  ASSERT_EQ(out.size(), x.size());
  EXPECT_GT(s.silent_blocks(), 40u);  // the 0.5 s gap and the tail
  const auto nonzero = std::count_if(out.begin(), out.end(),
                                     [](double v) { return v != 0.0; });
  EXPECT_EQ(nonzero, 29235);
  EXPECT_EQ(bits_hash(out), 0xd328655a18da1759ULL);
}

TEST(UnderwaterChannel, PacedRenderingIsChunkingInvariant) {
  // The same link and burst-gap-burst input as above, pushed in ragged
  // chunks from one sample to several overlap-save blocks: how many
  // multipath blocks each push renders changes with the chunking, the
  // stream's output must not.
  LinkConfig lc;
  lc.site = site_preset(Site::kBay);
  lc.range_m = 8.0;
  lc.motion = MotionKind::kSlow;
  lc.noise_enabled = false;
  lc.seed = 7;
  UnderwaterChannel ch(lc);
  UnderwaterChannel::Stream s = ch.stream();
  const std::vector<double> x = burst_gap_burst(4800, 24000, 14400, 5);
  const std::size_t sizes[] = {1, 7, 480, 3600, 123, 10000, 479, 481};
  std::vector<double> out;
  dsp::Workspace ws;
  for (std::size_t b = 0, k = 0; b < x.size(); ++k) {
    const std::size_t n = std::min(sizes[k % std::size(sizes)], x.size() - b);
    const std::size_t before = out.size();
    s.push(std::span<const double>(x).subspan(b, n), out, ws);
    ASSERT_EQ(out.size() - before, n);
    b += n;
  }
  EXPECT_EQ(bits_hash(out), 0xd328655a18da1759ULL);
}

TEST(UnderwaterChannel, InternalSilenceKeepsTransmitLengthAndBits) {
  // transmit() sizes its output by the longest impulse response any block
  // solved. On this drifting link the longest falls inside the 1 s gap,
  // so a skipped block that forgot its response length would shorten the
  // output. The golden lengths predate the skip; the hashes were
  // recorded with the per-block real-FFT convolution and the
  // recurrence-built tap table.
  LinkConfig lc;
  lc.site = site_preset(Site::kLake);
  lc.range_m = 10.0;
  lc.motion = MotionKind::kFast;
  lc.noise_enabled = false;
  lc.seed = 3;
  UnderwaterChannel ch(lc);
  const std::vector<double> x = burst_gap_burst(2400, 48000, 0, 3);
  const std::vector<double> y1 = ch.transmit(x);
  const std::vector<double> y2 = ch.transmit(x);
  EXPECT_EQ(y1.size(), 61299u);
  EXPECT_EQ(y2.size(), 61302u);
  EXPECT_EQ(bits_hash(y1), 0x9e4474728e5193beULL);
  EXPECT_EQ(bits_hash(y2), 0xace60fdc910b8bb0ULL);
}

TEST(UnderwaterChannel, BlockConvolutionMatchesDirectSum) {
  // A 10 ms block against responses whose lengths select 1024-, 2048-,
  // 4096- and 8192-point transforms, with decaying random taps like a
  // multipath response.
  std::mt19937_64 rng(11);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> block(kMultipathBlockSamples);
  for (double& v : block) v = g(rng);
  dsp::Workspace ws;
  for (const std::size_t taps : {300u, 1200u, 3000u, 6000u}) {
    std::vector<double> ir(taps);
    for (std::size_t j = 0; j < taps; ++j) {
      ir[j] = g(rng) * std::exp(-3.0 * static_cast<double>(j) /
                                static_cast<double>(taps));
    }
    const std::size_t n = block.size() + taps - 1;
    std::vector<double> got(n);
    dsp::fft_convolve_into(block, ir, got, ws);
    double err = 0.0;
    double peak = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double ref = 0.0;
      for (std::size_t k = 0; k < block.size(); ++k) {
        if (i >= k && i - k < taps) ref += block[k] * ir[i - k];
      }
      err = std::max(err, std::abs(got[i] - ref));
      peak = std::max(peak, std::abs(ref));
    }
    EXPECT_LE(err, 1e-12 * peak) << taps << " taps, "
                                 << dsp::next_pow2(n) << "-point FFT";
  }
}

// Renders a sequence of path sets the way a Stream does (keeping the tap
// table while the delays hold) and checks every response bit for bit
// against paths_to_impulse_response_ref. Returns how many were rebuilt.
std::size_t check_tap_cache(const std::vector<std::vector<Path>>& sets,
                            double ref_delay_s) {
  TapTable table;
  std::size_t rebuilds = 0;
  for (const std::vector<Path>& paths : sets) {
    if (!tap_table_matches(table, paths)) {
      build_tap_table(paths, 48000.0, ref_delay_s, table);
      ++rebuilds;
    }
    std::vector<double> h(table.length);
    render_taps(paths, table, h);
    const std::vector<double> ref =
        paths_to_impulse_response_ref(paths, 48000.0, ref_delay_s);
    EXPECT_EQ(h.size(), ref.size());
    EXPECT_EQ(bits_hash(h), bits_hash(ref));
  }
  return rebuilds;
}

TEST(Multipath, TapCacheMatchesReferenceRenderer) {
  Geometry g;
  g.range_m = 12.0;
  g.source_depth_m = 1.2;
  g.receiver_depth_m = 2.1;
  g.water_depth_m = 4.0;
  WaveguideParams wp = site_preset(Site::kBay).waveguide;
  const double ref = compute_paths(g, wp).front().delay_s - 0.002;
  std::mt19937_64 rng(4);
  std::normal_distribution<double> rough(0.0, 0.01);

  // Static geometry under a rough surface: the delays hold, so one table
  // serves every block.
  std::vector<std::vector<Path>> sets;
  for (int b = 0; b < 20; ++b) {
    WaveguideParams w = wp;
    w.surface_reflection =
        std::clamp(wp.surface_reflection * (1.0 + rough(rng)), 0.3, 1.0);
    sets.push_back(compute_paths(g, w));
  }
  EXPECT_EQ(check_tap_cache(sets, ref), 1u);

  // Drifting range: every block moves the delays and rebuilds.
  sets.clear();
  for (int b = 0; b < 20; ++b) {
    Geometry d = g;
    d.range_m += 0.003 * b;
    sets.push_back(compute_paths(d, wp));
  }
  EXPECT_EQ(check_tap_cache(sets, ref), 20u);

  // Pruning boundary: the surface loss pushes the weakest images across
  // the amplitude floor, so the path count (not any delay) changes.
  sets.clear();
  std::vector<std::size_t> counts;
  for (int b = 0; b < 40; ++b) {
    WaveguideParams w = wp;
    w.surface_reflection = b % 2 == 0 ? 1.0 : 0.3;
    sets.push_back(compute_paths(g, w));
    counts.push_back(sets.back().size());
  }
  ASSERT_NE(counts[0], counts[1]);
  EXPECT_EQ(check_tap_cache(sets, ref), 40u);
}

TEST(Multipath, TapTableMatchesDirectWindowedSinc) {
  // build_tap_table takes each path's sinc numerator by sign alternation
  // and its Hann weight by rotation from one anchor. Every tap must stay
  // within 1e-12 of the direct per-tap formula, over random delays and
  // over delays on the sample grid (where the centre tap is the u = 0
  // special case).
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> extra(0.0, 0.02);
  const double fs = 48000.0;
  const double ref_delay = 0.01;
  const std::size_t half = 16;
  TapTable table;
  double worst = 0.0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Path> paths(1 + static_cast<std::size_t>(trial) % 12);
    for (Path& p : paths) {
      const double e = extra(rng);
      p.delay_s = ref_delay + (trial % 4 == 0 ? std::round(e * fs) / fs : e);
      p.amplitude = 1.0;
    }
    build_tap_table(paths, fs, ref_delay, table);
    ASSERT_EQ(table.first.size(), paths.size());
    for (std::size_t k = 0; k < paths.size(); ++k) {
      const double tap_center =
          (paths[k].delay_s - ref_delay) * fs + static_cast<double>(half);
      const auto center = static_cast<std::ptrdiff_t>(std::llround(tap_center));
      const std::ptrdiff_t lo =
          std::max<std::ptrdiff_t>(center - static_cast<std::ptrdiff_t>(half), 0);
      const std::ptrdiff_t hi =
          std::min(center + static_cast<std::ptrdiff_t>(half),
                   static_cast<std::ptrdiff_t>(table.length) - 1);
      ASSERT_EQ(table.first[k], static_cast<std::size_t>(lo));
      ASSERT_EQ(table.offset[k + 1] - table.offset[k],
                static_cast<std::size_t>(hi - lo + 1));
      for (std::ptrdiff_t i = lo; i <= hi; ++i) {
        const double u = static_cast<double>(i) - tap_center;
        const double sinc = std::abs(u) < 1e-12
                                ? 1.0
                                : std::sin(dsp::kPi * u) / (dsp::kPi * u);
        const double w = std::max(
            0.5 + 0.5 * std::cos(dsp::kPi * u /
                                 (static_cast<double>(half) + 1.0)),
            0.0);
        const std::size_t t =
            table.offset[k] + static_cast<std::size_t>(i - lo);
        worst = std::max({worst, std::abs(table.sinc[t] - sinc),
                          std::abs(table.window[t] - w)});
      }
    }
  }
  EXPECT_LE(worst, 1e-12);
}

TEST(UnderwaterChannel, StreamOutputIsExactZeroPastDrainBound) {
  // Random bursts and silences of random lengths, pushed a 10 ms block at
  // a time as the medium does: once the clock is drain_samples() past the
  // last non-zero input, every output sample must be exactly 0.0, on a
  // time-varying link (moving, rough), a static rough one and a fixed-
  // response one.
  struct Case {
    Site site;
    MotionKind motion;
    double range_m;
  };
  SitePreset still = site_preset(Site::kBridge);
  still.surface_roughness = 0.0;
  for (const Case c : {Case{Site::kBay, MotionKind::kSlow, 8.0},
                       Case{Site::kBridge, MotionKind::kStatic, 15.0},
                       Case{Site::kBridge, MotionKind::kStatic, 3.0}}) {
    LinkConfig lc;
    lc.site = c.range_m == 3.0 ? still : site_preset(c.site);
    lc.motion = c.motion;
    lc.range_m = c.range_m;
    lc.noise_enabled = false;
    lc.seed = 21;
    UnderwaterChannel ch(lc);
    UnderwaterChannel::Stream s = ch.stream();
    std::mt19937_64 rng(static_cast<std::uint64_t>(c.range_m * 10));
    std::normal_distribution<double> g(0.0, 0.3);
    // Gaps from one sample to well past the ~0.4 s drain bound.
    std::uniform_int_distribution<std::size_t> burst_len(1, 3000);
    std::uniform_int_distribution<std::size_t> gap_len(1, 60000);
    std::vector<double> x;
    while (x.size() < 480000) {
      const std::size_t burst = burst_len(rng);
      for (std::size_t i = 0; i < burst; ++i) x.push_back(g(rng));
      x.insert(x.end(), gap_len(rng), 0.0);
    }
    dsp::Workspace ws;
    std::vector<double> out;
    std::uint64_t last = 0;
    bool sounded = false;
    std::size_t checked = 0;
    for (std::size_t b = 0; b + kMultipathBlockSamples <= x.size();
         b += kMultipathBlockSamples) {
      const std::span<const double> blk(x.data() + b, kMultipathBlockSamples);
      const bool drained =
          sounded && b >= last + s.drain_samples() &&
          std::all_of(blk.begin(), blk.end(), [](double v) { return v == 0.0; });
      out.clear();
      s.push(blk, out, ws);
      if (drained) {
        ++checked;
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(out[i], 0.0) << "sample " << b + i << ", last input "
                                 << last << ", drain " << s.drain_samples();
        }
      }
      for (std::size_t i = 0; i < blk.size(); ++i) {
        if (blk[i] != 0.0) {
          last = b + i;
          sounded = true;
        }
      }
    }
    EXPECT_GT(checked, 20u);
  }
}

TEST(UnderwaterChannel, EmptyTransmitYieldsNoiseOnlyTimeline) {
  // An empty tx waveform must still produce the lead-in/tail ambient-noise
  // timeline (useful for probing the channel), not throw.
  LinkConfig lc;
  UnderwaterChannel ch(lc);
  const std::vector<double> rx = ch.transmit({}, 0.01, 0.01);
  EXPECT_GE(rx.size(), static_cast<std::size_t>(0.02 * 48000.0));
  EXPECT_GT(dsp::energy(rx), 0.0);  // ambient noise is on by default
}

TEST(UnderwaterChannel, RejectsNonPositiveRange) {
  LinkConfig lc;
  lc.range_m = 0.0;
  EXPECT_THROW(UnderwaterChannel{lc}, std::invalid_argument);
}

}  // namespace
}  // namespace aqua::channel
