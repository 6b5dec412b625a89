// FIR design/filtering, windows, CAZAC sequences, chirps, correlation,
// resampling, spectrum estimation and the linear-algebra kernels.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "dsp/cazac.h"
#include "dsp/chirp.h"
#include "dsp/correlate.h"
#include "dsp/fir.h"
#include "dsp/linalg.h"
#include "dsp/resample.h"
#include "dsp/spectrum.h"
#include "dsp/window.h"

namespace aqua::dsp {
namespace {

TEST(Window, HannEndsAtZeroAndPeaksAtOne) {
  const std::vector<double> w = make_window(WindowType::kHann, 101);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[50], 1.0, 1e-12);
}

TEST(Window, RectIsAllOnes) {
  for (double v : make_window(WindowType::kRect, 16)) EXPECT_EQ(v, 1.0);
}

TEST(Fir, LowpassPassesDcBlocksHigh) {
  const std::vector<double> h = design_lowpass(2000.0, 48000.0, 129);
  EXPECT_NEAR(std::abs(fir_response(h, 0.0, 48000.0)), 1.0, 1e-6);
  EXPECT_NEAR(std::abs(fir_response(h, 500.0, 48000.0)), 1.0, 0.02);
  EXPECT_LT(std::abs(fir_response(h, 8000.0, 48000.0)), 0.01);
}

TEST(Fir, BandpassShapeMatchesPaperReceiveFilter) {
  // The paper's 128-order 1-4 kHz receive bandpass.
  const std::vector<double> h = design_bandpass(1000.0, 4000.0, 48000.0, 129);
  EXPECT_NEAR(std::abs(fir_response(h, 2500.0, 48000.0)), 1.0, 0.03);
  EXPECT_GT(std::abs(fir_response(h, 1500.0, 48000.0)), 0.85);
  EXPECT_GT(std::abs(fir_response(h, 3500.0, 48000.0)), 0.85);
  EXPECT_LT(std::abs(fir_response(h, 300.0, 48000.0)), 0.02);
  EXPECT_LT(std::abs(fir_response(h, 8000.0, 48000.0)), 0.02);
}

TEST(Fir, BandpassRejectsBadBand) {
  EXPECT_THROW(design_bandpass(4000.0, 1000.0, 48000.0, 65),
               std::invalid_argument);
  EXPECT_THROW(design_bandpass(0.0, 1000.0, 48000.0, 65),
               std::invalid_argument);
}

TEST(Fir, FrequencySamplingHitsRequestedMagnitudes) {
  const std::size_t n = 256;
  std::vector<double> mag(n / 2 + 1, 0.0);
  for (std::size_t k = 20; k <= 40; ++k) mag[k] = 1.0;
  const std::vector<double> h = design_from_magnitude(mag, n);
  const double fs = 48000.0;
  const double in_band = std::abs(fir_response(h, 30.0 * fs / 256.0, fs));
  const double out_band = std::abs(fir_response(h, 60.0 * fs / 256.0, fs));
  EXPECT_GT(in_band, 0.8);
  EXPECT_LT(out_band, 0.1);
}

TEST(Fir, ConvolveMatchesManual) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> h = {1.0, -1.0};
  const std::vector<double> y = convolve(x, h);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_NEAR(y[0], 1.0, 1e-12);
  EXPECT_NEAR(y[1], 1.0, 1e-12);
  EXPECT_NEAR(y[2], 1.0, 1e-12);
  EXPECT_NEAR(y[3], -3.0, 1e-12);
}

TEST(Fir, FftConvolutionMatchesDirect) {
  std::mt19937_64 rng(3);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> x(3000), h(700);
  for (auto& v : x) v = g(rng);
  for (auto& v : h) v = g(rng);
  // Force both paths: small product uses direct, large uses FFT.
  const std::vector<double> y = convolve(x, h);  // 2.1M > 2^18 -> FFT
  // Direct check on a few random output samples.
  std::uniform_int_distribution<std::size_t> pick(0, y.size() - 1);
  for (int t = 0; t < 20; ++t) {
    const std::size_t i = pick(rng);
    double acc = 0.0;
    for (std::size_t j = 0; j < h.size(); ++j) {
      if (i >= j && i - j < x.size()) acc += x[i - j] * h[j];
    }
    EXPECT_NEAR(y[i], acc, 1e-6);
  }
}

TEST(Fir, FilterSameCompensatesGroupDelay) {
  // A tone filtered by a linear-phase bandpass should stay aligned.
  std::vector<double> x(2000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(kTwoPi * 2000.0 * static_cast<double>(i) / 48000.0);
  }
  const std::vector<double> h = design_bandpass(1000.0, 4000.0, 48000.0, 129);
  const std::vector<double> y = filter_same(x, h);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 300; i < 1700; ++i) {
    EXPECT_NEAR(y[i], x[i], 0.05);
  }
}

class ZadoffChuTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZadoffChuTest, UnitModulusAndCazacProperty) {
  const std::size_t n = GetParam();
  const std::vector<cplx> zc = zadoff_chu(n);
  for (const cplx& v : zc) EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
  // Zero autocorrelation at every nonzero lag.
  for (std::size_t lag = 1; lag < n; ++lag) {
    EXPECT_NEAR(std::abs(periodic_autocorrelation(zc, lag)), 0.0, 1e-9)
        << "lag " << lag;
  }
  EXPECT_NEAR(std::abs(periodic_autocorrelation(zc, 0)), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Lengths, ZadoffChuTest,
                         ::testing::Values<std::size_t>(7, 20, 59, 60, 61, 120));

TEST(ZadoffChu, RejectsNonCoprimeRoot) {
  EXPECT_THROW(zadoff_chu(60, 6), std::invalid_argument);
}

TEST(Chirp, SweepsTheRequestedBand) {
  const std::vector<double> x = lfm_chirp(1000.0, 5000.0, 0.5, 48000.0);
  EXPECT_EQ(x.size(), 24000u);
  // Energy concentrated in 1-5 kHz.
  const double in_band = band_power(x, 48000.0, 900.0, 5100.0);
  const double total = band_power(x, 48000.0, 0.0, 24000.0);
  EXPECT_GT(in_band / total, 0.95);
}

TEST(Chirp, ToneHasSingleSpectralLine) {
  const std::vector<double> x = tone(2000.0, 0.1, 48000.0);
  Psd psd = welch_psd(x, 48000.0, 1024);
  const std::size_t peak = argmax(psd.power);
  EXPECT_NEAR(psd.freq_hz[peak], 2000.0, 48000.0 / 1024.0 + 1.0);
}

TEST(Correlate, FindsTemplateLocation) {
  std::mt19937_64 rng(11);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> ref(200);
  for (auto& v : ref) v = g(rng);
  std::vector<double> x(2000, 0.0);
  for (std::size_t i = 0; i < ref.size(); ++i) x[700 + i] = ref[i];
  const std::vector<double> corr = normalized_cross_correlate(x, ref);
  EXPECT_EQ(argmax(corr), 700u);
  EXPECT_NEAR(corr[700], 1.0, 1e-9);
}

TEST(Correlate, NormalizedIsGainInvariant) {
  std::mt19937_64 rng(13);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> ref(100);
  for (auto& v : ref) v = g(rng);
  std::vector<double> x(1000, 0.0);
  for (std::size_t i = 0; i < ref.size(); ++i) x[300 + i] = 0.001 * ref[i];
  const std::vector<double> corr = normalized_cross_correlate(x, ref);
  EXPECT_NEAR(corr[300], 1.0, 1e-9);
}

TEST(Correlate, SlidingEnergyMatchesDirect) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> e = sliding_energy(x, 2);
  ASSERT_EQ(e.size(), 4u);
  EXPECT_NEAR(e[0], 5.0, 1e-12);
  EXPECT_NEAR(e[3], 41.0, 1e-12);
}

TEST(Resample, ShiftsToneFrequency) {
  // Doppler: a 2000 Hz tone compressed by 1% reads as 2020 Hz.
  const std::vector<double> x = tone(2000.0, 0.2, 48000.0);
  const std::vector<double> y = resample(x, 1.0 / 1.01);
  Psd psd = welch_psd(y, 48000.0, 4096);
  const std::size_t peak = argmax(psd.power);
  EXPECT_NEAR(psd.freq_hz[peak], 2020.0, 48000.0 / 4096.0 + 1.0);
}

TEST(Resample, PreservesLengthRatio) {
  std::vector<double> x(1000, 1.0);
  EXPECT_EQ(resample(x, 2.0).size(), 2000u);
  EXPECT_EQ(resample(x, 0.5).size(), 500u);
  EXPECT_THROW(resample(x, -1.0), std::invalid_argument);
}

TEST(Spectrum, BandPowerSplitsEnergy) {
  // Two equal tones: half the band power in each band.
  std::vector<double> x = tone(1500.0, 0.2, 48000.0);
  const std::vector<double> t2 = tone(3500.0, 0.2, 48000.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += t2[i];
  const double low = band_power(x, 48000.0, 1000.0, 2000.0);
  const double high = band_power(x, 48000.0, 3000.0, 4000.0);
  EXPECT_NEAR(low / high, 1.0, 0.05);
}

TEST(Linalg, CholeskySolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [2,5] -> x = [-0.5, 2].
  const std::vector<double> a = {4.0, 2.0, 2.0, 3.0};
  const std::vector<double> b = {2.0, 5.0};
  const std::vector<double> x = cholesky_solve(a, b, 2);
  EXPECT_NEAR(x[0], -0.5, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Linalg, CholeskyRejectsIndefinite) {
  const std::vector<double> a = {1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  const std::vector<double> b = {1.0, 1.0};
  EXPECT_THROW(cholesky_solve(a, b, 2), std::runtime_error);
}

TEST(Linalg, LevinsonMatchesCholeskyOnToeplitz) {
  std::mt19937_64 rng(21);
  std::normal_distribution<double> g(0.0, 1.0);
  const std::size_t n = 40;
  // SPD Toeplitz: decaying autocorrelation row.
  std::vector<double> r(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = std::exp(-0.3 * static_cast<double>(i));
  }
  std::vector<double> b(n);
  for (auto& v : b) v = g(rng);
  std::vector<double> dense(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      dense[i * n + j] = r[i > j ? i - j : j - i];
    }
  }
  const std::vector<double> x1 = levinson_solve(r, b);
  const std::vector<double> x2 = cholesky_solve(dense, b, n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-8);
}

TEST(Linalg, ComplexCholeskySolvesHermitianSystem) {
  // A = [[2, i],[-i, 2]] (Hermitian PD), b = [1, 1].
  const std::vector<cplx> a = {{2.0, 0.0}, {0.0, 1.0}, {0.0, -1.0}, {2.0, 0.0}};
  const std::vector<cplx> b = {{1.0, 0.0}, {1.0, 0.0}};
  const std::vector<cplx> x = cholesky_solve(a, b, 2);
  // Verify A x = b.
  const cplx r0 = a[0] * x[0] + a[1] * x[1];
  const cplx r1 = a[2] * x[0] + a[3] * x[1];
  EXPECT_NEAR(std::abs(r0 - b[0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(r1 - b[1]), 0.0, 1e-12);
}

}  // namespace
}  // namespace aqua::dsp
