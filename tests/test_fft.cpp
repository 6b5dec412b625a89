// FFT correctness: against a naive DFT, roundtrips, Parseval, and the
// Bluestein path used by the 960-point OFDM symbol.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "dsp/fft.h"

namespace aqua::dsp {

// White-box access to the private radix-2 kernel, so the plan-size guard
// (which no public path can violate) still gets a throw test.
struct FftPlanTestPeer {
  static void radix2(const FftPlan& plan, std::vector<cplx>& data) {
    const std::span<double> pairs(reinterpret_cast<double*>(data.data()),
                                  2 * data.size());
    plan.radix2(pairs, pairs, /*invert=*/false);
  }
};

namespace {

std::vector<cplx> naive_dft(std::span<const cplx> x) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const double a = -kTwoPi * static_cast<double>(k) *
                       static_cast<double>(t) / static_cast<double>(n);
      acc += x[t] * cplx{std::cos(a), std::sin(a)};
    }
    out[k] = acc;
  }
  return out;
}

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {g(rng), g(rng)};
  return x;
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const std::vector<cplx> x = random_signal(n, 17 + n);
  const std::vector<cplx> expect = naive_dft(x);
  const std::vector<cplx> got = fft(x);
  ASSERT_EQ(got.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(got[k].real(), expect[k].real(), 1e-8 * static_cast<double>(n))
        << "bin " << k;
    EXPECT_NEAR(got[k].imag(), expect[k].imag(), 1e-8 * static_cast<double>(n))
        << "bin " << k;
  }
}

TEST_P(FftSizeTest, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const std::vector<cplx> x = random_signal(n, 99 + n);
  const std::vector<cplx> back = ifft(fft(x));
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(back[k].real(), x[k].real(), 1e-9);
    EXPECT_NEAR(back[k].imag(), x[k].imag(), 1e-9);
  }
}

TEST_P(FftSizeTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  const std::vector<cplx> x = random_signal(n, 7 + n);
  const std::vector<cplx> spec = fft(x);
  double t_energy = 0.0, f_energy = 0.0;
  for (const cplx& v : x) t_energy += std::norm(v);
  for (const cplx& v : spec) f_energy += std::norm(v);
  EXPECT_NEAR(f_energy, t_energy * static_cast<double>(n),
              1e-6 * f_energy + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values<std::size_t>(1, 2, 3, 8, 15, 16, 60,
                                                        64, 100, 256, 480, 960,
                                                        1027, 1920, 4800));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cplx> x(960, cplx{0.0, 0.0});
  x[0] = {1.0, 0.0};
  const std::vector<cplx> spec = fft(x);
  for (const cplx& v : spec) {
    EXPECT_NEAR(v.real(), 1.0, 1e-9);
    EXPECT_NEAR(v.imag(), 0.0, 1e-9);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  // 50 Hz spacing at 48 kHz: bin 20 = 1 kHz.
  const std::size_t n = 960;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(kTwoPi * 1000.0 * static_cast<double>(i) / 48000.0);
  }
  const std::vector<cplx> spec = fft_real(x);
  EXPECT_NEAR(std::abs(spec[20]), static_cast<double>(n) / 2.0, 1e-6);
  EXPECT_NEAR(std::abs(spec[21]), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(spec[19]), 0.0, 1e-6);
}

TEST(Fft, LinearityHolds) {
  const std::vector<cplx> a = random_signal(100, 1);
  const std::vector<cplx> b = random_signal(100, 2);
  std::vector<cplx> sum(100);
  for (std::size_t i = 0; i < 100; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const std::vector<cplx> fa = fft(a);
  const std::vector<cplx> fb = fft(b);
  const std::vector<cplx> fsum = fft(sum);
  for (std::size_t k = 0; k < 100; ++k) {
    const cplx expect = 2.0 * fa[k] + 3.0 * fb[k];
    EXPECT_NEAR(std::abs(fsum[k] - expect), 0.0, 1e-8);
  }
}

TEST(Fft, RealInverseRecoversRealSignal) {
  std::mt19937_64 rng(4);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> x(960);
  for (auto& v : x) v = g(rng);
  const std::vector<double> back = ifft_real(fft_real(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

TEST(Fft, PlanRejectsZeroSize) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
}

TEST(Fft, PlanRejectsMismatchedBuffers) {
  dsp::Workspace ws;
  FftPlan plan(16);
  std::vector<cplx> in(8), out(16);
  EXPECT_THROW(plan.forward(in, out, ws), std::invalid_argument);
}

TEST(Fft, Radix2RejectsMismatchedWorkSize) {
  // The internal kernel must throw (not assert) so -DNDEBUG release builds
  // fail loudly instead of silently transforming with the wrong plan.
  FftPlan plan(16);
  std::vector<cplx> wrong(8);
  EXPECT_THROW(FftPlanTestPeer::radix2(plan, wrong), std::invalid_argument);
  std::vector<cplx> right(16, cplx{1.0, 0.0});
  EXPECT_NO_THROW(FftPlanTestPeer::radix2(plan, right));
}

TEST(Fft, BluesteinPlanRejectsMismatchedWorkSize) {
  // A 960-point plan's radix-2 work size is 2048, not 960.
  FftPlan plan(960);
  std::vector<cplx> n_sized(960);
  EXPECT_THROW(FftPlanTestPeer::radix2(plan, n_sized), std::invalid_argument);
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(960), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

// --- Golden output hashes. -----------------------------------------------
//
// Every transform path hashed over its raw output bytes: complex and real,
// forward and inverse, double and float, power-of-two and Bluestein sizes.
// Inputs come from the raw mt19937_64 stream (no distribution object, so
// they are the same on every standard library) and are salted with signed
// zeros. The expected values were recorded from the per-half-block
// butterfly implementation with std::complex untwiddles; any change to the
// transforms' floating-point trees shows up here as a different hash, on
// every dispatch target (run the suite under AQUA_SIMD=scalar and the
// widest target to cover both ends of the table).

const std::size_t kGoldenSizes[] = {1,   2,   3,    4,    5,    8,    12,
                                    15,  16,  17,   32,   64,   100,  128,
                                    256, 512, 960,  961,  1000, 1024, 2048,
                                    3000, 4096, 8192, 16384};

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// Uniform in [-1, 1) from the top 53 bits; every 5th value is -0.0 and
// every 7th +0.0, so sign-of-zero handling in the trees is pinned too.
template <typename T>
std::vector<T> golden_reals(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1p-53;
    x[i] = static_cast<T>(2.0 * u - 1.0);
    if (i % 5 == 3) x[i] = T(-0.0);
    if (i % 7 == 2) x[i] = T(0.0);
  }
  return x;
}

template <typename T>
std::vector<std::complex<T>> golden_cplx(std::size_t n, std::uint64_t seed) {
  const std::vector<T> r = golden_reals<T>(2 * n, seed);
  std::vector<std::complex<T>> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = {r[2 * i], r[2 * i + 1]};
  return x;
}

template <typename T>
std::uint64_t complex_hash() {
  std::uint64_t h = kFnvBasis;
  Workspace ws;
  for (const std::size_t n : kGoldenSizes) {
    const BasicFftPlan<T> plan(n);
    const std::vector<std::complex<T>> x = golden_cplx<T>(n, 900 + n);
    std::vector<std::complex<T>> y(n);
    plan.forward(x, y, ws);
    h = fnv1a(y.data(), n * sizeof(y[0]), h);
    plan.inverse(x, y, ws);
    h = fnv1a(y.data(), n * sizeof(y[0]), h);
  }
  return h;
}

template <typename T>
std::uint64_t real_hash() {
  std::uint64_t h = kFnvBasis;
  Workspace ws;
  for (const std::size_t n : kGoldenSizes) {
    const BasicRfftPlan<T> plan(n);
    const std::vector<T> x = golden_reals<T>(n, 700 + n);
    std::vector<std::complex<T>> spec(plan.spectrum_size());
    plan.forward(x, spec, ws);
    h = fnv1a(spec.data(), spec.size() * sizeof(spec[0]), h);
    // A packed half-spectrum with real DC/Nyquist bins, as the inverse
    // contract requires.
    std::vector<std::complex<T>> in = golden_cplx<T>(spec.size(), 800 + n);
    in[0] = {in[0].real(), T(0.0)};
    if (n % 2 == 0) in.back() = {in.back().real(), T(0.0)};
    std::vector<T> back(n);
    plan.inverse(in, back, ws);
    h = fnv1a(back.data(), n * sizeof(back[0]), h);
  }
  return h;
}

// The packed transform reads its real input (and the inverse writes its
// real output) as complex pairs in place, so a buffer starting one element
// off — an odd offset, as an overlap-save window sliding by an odd step
// has — must give the same bits as the same samples in a fresh buffer.
template <typename T>
void expect_offset_buffers_hash_equal() {
  Workspace ws;
  for (const std::size_t n : kGoldenSizes) {
    const BasicRfftPlan<T> plan(n);
    const std::vector<T> shifted = golden_reals<T>(n + 1, 600 + n);
    const std::span<const T> x = std::span<const T>(shifted).subspan(1);
    const std::vector<T> fresh(x.begin(), x.end());
    std::vector<std::complex<T>> from_offset(plan.spectrum_size());
    std::vector<std::complex<T>> from_fresh(plan.spectrum_size());
    plan.forward(x, from_offset, ws);
    plan.forward(fresh, from_fresh, ws);
    EXPECT_EQ(fnv1a(from_offset.data(), from_offset.size() * sizeof(T) * 2,
                    kFnvBasis),
              fnv1a(from_fresh.data(), from_fresh.size() * sizeof(T) * 2,
                    kFnvBasis))
        << "forward, n " << n;

    std::vector<T> back_shifted(n + 1);
    std::vector<T> back_fresh(n);
    plan.inverse(from_fresh, std::span<T>(back_shifted).subspan(1), ws);
    plan.inverse(from_fresh, back_fresh, ws);
    EXPECT_EQ(fnv1a(back_shifted.data() + 1, n * sizeof(T), kFnvBasis),
              fnv1a(back_fresh.data(), n * sizeof(T), kFnvBasis))
        << "inverse, n " << n;
  }
}

TEST(Rfft, OddOffsetBuffersHashEqualToFreshCopies) {
  expect_offset_buffers_hash_equal<double>();
  expect_offset_buffers_hash_equal<float>();
}

TEST(FftGolden, ComplexDoubleOutputsUnchanged) {
  EXPECT_EQ(complex_hash<double>(), 0xf32592bd871d4785ull);
}

TEST(FftGolden, ComplexFloatOutputsUnchanged) {
  EXPECT_EQ(complex_hash<float>(), 0x4a407af9d815e7f3ull);
}

TEST(FftGolden, RealDoubleOutputsUnchanged) {
  EXPECT_EQ(real_hash<double>(), 0x42a098fe8e1c6711ull);
}

TEST(FftGolden, RealFloatOutputsUnchanged) {
  EXPECT_EQ(real_hash<float>(), 0x4c76e9b4938c31aeull);
}

}  // namespace
}  // namespace aqua::dsp
