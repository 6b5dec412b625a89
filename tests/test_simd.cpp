// Packed real-FFT correctness and SIMD kernel equivalence.
//
// The rfft tests pin the packed transform (half-size complex FFT +
// untwiddle) against the full complex transform across odd/even/boundary
// sizes. The SIMD tests assert the contract simd.h documents: every kernel
// implementation buildable AND runnable on this host produces results
// BIT-IDENTICAL to the scalar reference — same fused multiply-adds, same
// lane structure, same reduction order — which is what lets the streaming
// chunking/thread-count invariants survive vectorization.
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/fft.h"
#include "dsp/simd.h"
#include "dsp/types.h"
#include "dsp/workspace.h"

namespace aqua::dsp {
namespace {

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> x(n);
  for (double& v : x) v = g(rng);
  return x;
}

std::vector<cplx> random_cplx(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<cplx> x(n);
  for (cplx& v : x) v = {g(rng), g(rng)};
  return x;
}

// Odd, even, power-of-two, Bluestein and boundary sizes.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 8, 15, 16, 17,
                              64, 129, 960, 961, 1024};

TEST(Rfft, RoundTripRecoversSignalAtEverySize) {
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = random_real(n, 100 + n);
    const std::vector<cplx> spec = rfft(x);
    ASSERT_EQ(spec.size(), n / 2 + 1) << "n " << n;
    const std::vector<double> back = irfft(spec, n);
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i], x[i], 1e-9) << "n " << n << " sample " << i;
    }
  }
}

TEST(Rfft, MatchesComplexTransformAtEverySize) {
  Workspace ws;
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = random_real(n, 200 + n);
    std::vector<cplx> cx(n);
    for (std::size_t i = 0; i < n; ++i) cx[i] = {x[i], 0.0};
    std::vector<cplx> full(n);
    plan_of(n).forward(cx, full, ws);

    const RfftPlan& plan = rplan_of(n);
    std::vector<cplx> packed(plan.spectrum_size());
    plan.forward(x, packed, ws);
    for (std::size_t k = 0; k < packed.size(); ++k) {
      EXPECT_NEAR(std::abs(packed[k] - full[k]), 0.0, 1e-9 * (1.0 + std::abs(full[k])))
          << "n " << n << " bin " << k;
    }
    // fft_real must agree on the mirrored upper half too.
    const std::vector<cplx> mirrored = fft_real(x);
    ASSERT_EQ(mirrored.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(mirrored[k] - full[k]), 0.0,
                  1e-9 * (1.0 + std::abs(full[k])))
          << "n " << n << " bin " << k;
    }
  }
}

TEST(Rfft, InverseMatchesComplexInverseOnHermitianSpectra) {
  Workspace ws;
  for (const std::size_t n : kSizes) {
    // Build a genuinely Hermitian spectrum from a random real signal.
    const std::vector<double> x = random_real(n, 300 + n);
    std::vector<cplx> spec = rfft(x);
    // Perturb it (still Hermitian: bins 0 and n/2 stay real).
    for (std::size_t k = 0; k < spec.size(); ++k) {
      spec[k] *= 1.0 + 0.25 * static_cast<double>(k % 3);
    }
    if (n % 2 == 0) spec[n / 2] = {spec[n / 2].real(), 0.0};
    spec[0] = {spec[0].real(), 0.0};

    std::vector<cplx> full(n);
    full[0] = spec[0];
    for (std::size_t k = 1; k <= n / 2; ++k) {
      full[k] = spec[k];
      full[n - k] = std::conj(spec[k]);
    }
    std::vector<cplx> time(n);
    plan_of(n).inverse(full, time, ws);

    const std::vector<double> packed = irfft(spec, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(packed[i], time[i].real(), 1e-9 * (1.0 + std::abs(time[i])))
          << "n " << n << " sample " << i;
    }
  }
}

TEST(Rfft, IfftRealDropsImaginaryEdgeResidue) {
  // design_from_magnitude's linear-phase construction leaves a purely
  // imaginary Nyquist bin; the legacy real(full-inverse) contract silently
  // dropped it (and any DC imaginary residue), and the packed reroute must
  // keep doing so — a leak shows up as a constant offset on every tap.
  Workspace ws;
  for (const std::size_t n : {std::size_t{8}, std::size_t{512}}) {
    std::mt19937_64 rng(1000 + n);
    std::normal_distribution<double> g(0.0, 1.0);
    std::vector<cplx> spec(n, cplx{0.0, 0.0});
    for (std::size_t k = 1; k < n / 2; ++k) {
      spec[k] = {g(rng), g(rng)};
      spec[n - k] = std::conj(spec[k]);
    }
    spec[0] = {1.25, 0.7};      // imaginary DC residue
    spec[n / 2] = {0.0, 3.0};   // purely imaginary Nyquist bin
    std::vector<cplx> time(n);
    plan_of(n).inverse(spec, time, ws);
    const std::vector<double> got = ifft_real(spec);
    ASSERT_EQ(got.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], time[i].real(), 1e-12) << "n " << n << " tap " << i;
    }
  }
}

TEST(Rfft, RejectsBadSizes) {
  EXPECT_THROW(RfftPlan(0), std::invalid_argument);
  Workspace ws;
  const RfftPlan& plan = rplan_of(16);
  std::vector<double> x(16), x_short(15);
  std::vector<cplx> spec(9), spec_short(8);
  EXPECT_THROW(plan.forward(x_short, spec, ws), std::invalid_argument);
  EXPECT_THROW(plan.forward(x, spec_short, ws), std::invalid_argument);
  EXPECT_THROW(plan.inverse(spec_short, x, ws), std::invalid_argument);
  EXPECT_THROW(plan.inverse(spec, x_short, ws), std::invalid_argument);
}

// --- SIMD kernel equivalence across every runnable dispatch target. ------

std::vector<const simd::Kernels*> runnable_targets() {
  std::vector<const simd::Kernels*> out;
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2,
                              simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (const simd::Kernels* k = simd::kernels_for(isa)) out.push_back(k);
  }
  return out;
}

std::vector<float> random_realf(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> g(0.0f, 1.0f);
  std::vector<float> x(n);
  for (float& v : x) v = g(rng);
  return x;
}

std::vector<cplxf> random_cplxf(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> g(0.0f, 1.0f);
  std::vector<cplxf> x(n);
  for (cplxf& v : x) v = {g(rng), g(rng)};
  return x;
}

// Sizes around the lane-structure boundaries (4 double / 8 float lanes).
const std::size_t kKernelSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                                    15, 16, 17, 61, 128, 1001};

// The sliding-DFT run contract over `width` sums and 1 or 7 samples of
// random phasor rows: the scalar table's sums must match a naive per-sample
// axpy within rounding of the fused updates, and every target must match
// the scalar table bit for bit.
void expect_sdft_update_contract(double tol, std::uint64_t seed) {
  const simd::Kernels* scalar = simd::kernels_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  const auto random_t = [](std::size_t n, std::uint64_t sd) {
    return convert_samples<float>(random_real(n, sd));
  };
  for (const std::size_t width : kKernelSizes) {
    for (const std::size_t samples : {std::size_t{1}, std::size_t{7}}) {
      SCOPED_TRACE(testing::Message() << "width " << width << " samples "
                                      << samples);
      const std::vector<float> acc0 = random_t(width, seed + width);
      const std::vector<float> rows = random_t(samples * width, seed + 100);
      const std::vector<float> x_old = random_t(samples, seed + 200);
      const std::vector<float> x_new = random_t(samples, seed + 300);

      std::vector<float> ref = acc0;
      scalar->sdft_update_f(ref.data(), rows.data(), x_old.data(),
                            x_new.data(), samples, width);
      // Naive cross-check of the recurrence semantics.
      std::vector<float> naive = acc0;
      for (std::size_t i = 0; i < samples; ++i) {
        const float d = x_new[i] - x_old[i];
        for (std::size_t j = 0; j < width; ++j) {
          naive[j] += d * rows[i * width + j];
        }
      }
      for (std::size_t j = 0; j < width; ++j) {
        EXPECT_NEAR(ref[j], naive[j], tol * (1.0 + std::abs(naive[j])))
            << "sum " << j;
      }
      for (const simd::Kernels* k : runnable_targets()) {
        std::vector<float> got = acc0;
        k->sdft_update_f(got.data(), rows.data(), x_old.data(),
                         x_new.data(), samples, width);
        for (std::size_t j = 0; j < width; ++j) {
          EXPECT_EQ(got[j], ref[j]) << k->name << " sum " << j;
        }
      }
    }
  }
}

TEST(Simd, ActiveTableIsRunnable) {
  const simd::Kernels& k = simd::active();
  EXPECT_NE(k.name, nullptr);
  EXPECT_NE(k.dot, nullptr);
  EXPECT_NE(k.cmul_inplace, nullptr);
  EXPECT_NE(k.fft_pass, nullptr);
  EXPECT_NE(k.dot_f, nullptr);
  EXPECT_NE(k.cmul_inplace_f, nullptr);
  EXPECT_NE(k.sdft_update_f, nullptr);
  EXPECT_NE(k.fft_pass_f, nullptr);
  EXPECT_NE(k.rfft_untwiddle, nullptr);
  EXPECT_NE(k.irfft_untwiddle, nullptr);
  EXPECT_NE(k.scale, nullptr);
  EXPECT_NE(k.rfft_untwiddle_f, nullptr);
  EXPECT_NE(k.irfft_untwiddle_f, nullptr);
  EXPECT_NE(k.scale_f, nullptr);
  // The scalar table must always be reachable.
  ASSERT_NE(simd::kernels_for(simd::Isa::kScalar), nullptr);
}

TEST(Simd, DotBitIdenticalAcrossTargetsAndCorrect) {
  const simd::Kernels* scalar = simd::kernels_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t n : kKernelSizes) {
    const std::vector<double> a = random_real(n, 400 + n);
    const std::vector<double> b = random_real(n, 500 + n);
    const double ref = scalar->dot(a.data(), b.data(), n);
    // Plain-loop cross-check (tolerance: different summation order).
    double naive = 0.0;
    for (std::size_t i = 0; i < n; ++i) naive += a[i] * b[i];
    EXPECT_NEAR(ref, naive, 1e-12 * (1.0 + std::abs(naive) +
                                     static_cast<double>(n)));
    for (const simd::Kernels* k : runnable_targets()) {
      const double got = k->dot(a.data(), b.data(), n);
      EXPECT_EQ(got, ref) << k->name << " n " << n;
    }
  }
}

TEST(Simd, CmulBitIdenticalAcrossTargetsAndCorrect) {
  const simd::Kernels* scalar = simd::kernels_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t n : kKernelSizes) {
    const std::vector<cplx> y0 = random_cplx(n, 600 + n);
    const std::vector<cplx> x = random_cplx(n, 700 + n);
    std::vector<cplx> ref = y0;
    scalar->cmul_inplace(ref.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // Same value as the std::complex product, up to fma rounding.
      const cplx expect = y0[i] * x[i];
      EXPECT_NEAR(std::abs(ref[i] - expect), 0.0,
                  1e-12 * (1.0 + std::abs(expect)))
          << "element " << i;
    }
    for (const simd::Kernels* k : runnable_targets()) {
      std::vector<cplx> got = y0;
      k->cmul_inplace(got.data(), x.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i].real(), ref[i].real()) << k->name << " element " << i;
        EXPECT_EQ(got[i].imag(), ref[i].imag()) << k->name << " element " << i;
      }
    }
  }
}

// --- Single-precision kernel twins: same contracts at 2x the lanes. ------

TEST(Simd, DotFloatBitIdenticalAcrossTargetsAndCorrect) {
  const simd::Kernels* scalar = simd::kernels_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t n : kKernelSizes) {
    const std::vector<float> a = random_realf(n, 1400 + n);
    const std::vector<float> b = random_realf(n, 1500 + n);
    const float ref = scalar->dot_f(a.data(), b.data(), n);
    // Double-accumulated cross-check (tolerance: fp32 summation error).
    double naive = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      naive += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    EXPECT_NEAR(static_cast<double>(ref), naive,
                1e-4 * (1.0 + std::abs(naive) + static_cast<double>(n)));
    for (const simd::Kernels* k : runnable_targets()) {
      const float got = k->dot_f(a.data(), b.data(), n);
      EXPECT_EQ(got, ref) << k->name << " n " << n;
    }
  }
}

TEST(Simd, CmulFloatBitIdenticalAcrossTargetsAndCorrect) {
  const simd::Kernels* scalar = simd::kernels_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t n : kKernelSizes) {
    const std::vector<cplxf> y0 = random_cplxf(n, 1600 + n);
    const std::vector<cplxf> x = random_cplxf(n, 1700 + n);
    std::vector<cplxf> ref = y0;
    scalar->cmul_inplace_f(ref.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const cplxf expect = y0[i] * x[i];
      EXPECT_NEAR(std::abs(ref[i] - expect), 0.0f,
                  1e-4f * (1.0f + std::abs(expect)))
          << "element " << i;
    }
    for (const simd::Kernels* k : runnable_targets()) {
      std::vector<cplxf> got = y0;
      k->cmul_inplace_f(got.data(), x.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i].real(), ref[i].real()) << k->name << " element " << i;
        EXPECT_EQ(got[i].imag(), ref[i].imag()) << k->name << " element " << i;
      }
    }
  }
}

TEST(Simd, SdftUpdateFloatBitIdenticalAcrossTargetsAndCorrect) {
  expect_sdft_update_contract(1e-4, 1800);
}

// --- The whole-transform FFT pass kernel. --------------------------------

// The contract, spelled per element: every stage, every block, every point
// through the historical std::complex product tree v = b * w (unfused),
// a' = a + v, b' = a - v. This TU is built with -ffp-contract=off so the
// reference itself is not fused on FMA-baseline targets.
template <typename T>
void fft_pass_reference(std::vector<std::complex<T>>& d,
                        const std::vector<std::complex<T>>& tw, bool conj_w) {
  const std::size_t m = d.size();
  for (std::size_t half = 1; half < m; half <<= 1) {
    for (std::size_t s = 0; s < m; s += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::complex<T> w =
            conj_w ? std::conj(tw[half - 1 + k]) : tw[half - 1 + k];
        const std::complex<T> a = d[s + k], b = d[s + half + k];
        const std::complex<T> v(b.real() * w.real() - b.imag() * w.imag(),
                                b.real() * w.imag() + b.imag() * w.real());
        d[s + k] = a + v;
        d[s + half + k] = a - v;
      }
    }
  }
}

// Random points and twiddles with signed zeros mixed in, so the narrow
// stages' register shuffles are checked down to the sign bit.
template <typename T>
std::vector<std::complex<T>> pass_input(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<T> g(T(0), T(1));
  std::vector<std::complex<T>> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = {i % 5 == 1 ? T(-0.0) : g(rng), i % 7 == 3 ? T(0.0) : g(rng)};
  }
  return x;
}

// Both complex values equal bit for bit, signs of zeros included.
template <typename T>
::testing::AssertionResult same_bits(std::complex<T> got,
                                     std::complex<T> want) {
  if (std::signbit(got.real()) == std::signbit(want.real()) &&
      got.real() == want.real() &&
      std::signbit(got.imag()) == std::signbit(want.imag()) &&
      got.imag() == want.imag()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << got << " != " << want;
}

// Interleaved (re, im) pairs of a complex vector, as the pass kernel reads
// and writes them.
template <typename T>
const T* pairs_of(const std::vector<std::complex<T>>& v) {
  return reinterpret_cast<const T*>(v.data());
}
template <typename T>
T* pairs_of(std::vector<std::complex<T>>& v) {
  return reinterpret_cast<T*>(v.data());
}

// The bit-reversal permutation of m points, spelled independently of the
// FFT plan's table.
std::vector<std::uint32_t> bit_reversal(std::size_t m) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < m) ++bits;
  std::vector<std::uint32_t> r(m);
  for (std::size_t i = 0; i < m; ++i) {
    std::uint32_t v = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if ((i >> b) & 1u) v |= std::uint32_t{1} << (bits - 1 - b);
    }
    r[i] = v;
  }
  return r;
}

// The stages against the reference: the points go in already
// bit-reversed, so the out-of-place permutation (an involution) hands
// every target's butterflies the reference's input order.
template <typename T, typename Pass>
void expect_fft_pass_matches_reference(Pass pass_of, std::uint64_t seed) {
  for (std::size_t m = 1; m <= (std::size_t{1} << 14); m <<= 1) {
    const std::vector<std::complex<T>> x0 = pass_input<T>(m, seed + m);
    // m - 1 stage twiddles (at least one so .data() is dereferenceable).
    const std::vector<std::complex<T>> tw =
        pass_input<T>(std::max<std::size_t>(m - 1, 1), seed + 7 * m);
    const std::vector<std::uint32_t> rev = bit_reversal(m);
    std::vector<std::complex<T>> reversed(m);
    for (std::size_t i = 0; i < m; ++i) reversed[i] = x0[rev[i]];
    for (const bool conj_w : {false, true}) {
      std::vector<std::complex<T>> ref = x0;
      fft_pass_reference(ref, tw, conj_w);
      for (const simd::Kernels* k : runnable_targets()) {
        std::vector<std::complex<T>> got(m);
        pass_of(*k)(pairs_of(reversed), pairs_of(got), m, rev.data(),
                    tw.data(), conj_w);
        for (std::size_t i = 0; i < m; ++i) {
          ASSERT_TRUE(same_bits(got[i], ref[i]))
              << k->name << " m " << m << " conj " << conj_w << " i " << i;
        }
      }
    }
  }
}

TEST(Simd, FftPassBitIdenticalToReferenceOnEveryTarget) {
  expect_fft_pass_matches_reference<double>(
      [](const simd::Kernels& k) { return k.fft_pass; }, 1100);
}

TEST(Simd, FftPassFloatBitIdenticalToReferenceOnEveryTarget) {
  expect_fft_pass_matches_reference<float>(
      [](const simd::Kernels& k) { return k.fft_pass_f; }, 2100);
}

// The permutation fused into the first stages: every target, out of place
// (reading the source at its bit-reversed positions, also from a source
// one element off its natural alignment) and in place, must equal an
// explicit bit-reversal followed by the per-element reference.
template <typename T, typename Pass>
void expect_fft_pass_gather_matches_reference(Pass pass_of,
                                              std::uint64_t seed) {
  for (std::size_t m = 1; m <= (std::size_t{1} << 15); m <<= 1) {
    const std::vector<std::complex<T>> x0 = pass_input<T>(m, seed + m);
    const std::vector<std::complex<T>> tw =
        pass_input<T>(std::max<std::size_t>(m - 1, 1), seed + 7 * m);
    const std::vector<std::uint32_t> rev = bit_reversal(m);
    // The same points as pairs starting one element into a buffer.
    std::vector<T> shifted(2 * m + 1);
    std::copy_n(pairs_of(x0), 2 * m, shifted.begin() + 1);
    for (const bool conj_w : {false, true}) {
      std::vector<std::complex<T>> ref(m);
      for (std::size_t i = 0; i < m; ++i) ref[i] = x0[rev[i]];
      fft_pass_reference(ref, tw, conj_w);
      for (const simd::Kernels* k : runnable_targets()) {
        std::vector<std::complex<T>> gathered(m);
        pass_of(*k)(pairs_of(x0), pairs_of(gathered), m, rev.data(),
                    tw.data(), conj_w);
        std::vector<std::complex<T>> offset(m);
        pass_of(*k)(shifted.data() + 1, pairs_of(offset), m, rev.data(),
                    tw.data(), conj_w);
        std::vector<std::complex<T>> in_place = x0;
        pass_of(*k)(pairs_of(in_place), pairs_of(in_place), m, rev.data(),
                    tw.data(), conj_w);
        for (std::size_t i = 0; i < m; ++i) {
          ASSERT_TRUE(same_bits(gathered[i], ref[i]))
              << k->name << " out of place, m " << m << " conj " << conj_w
              << " i " << i;
          ASSERT_TRUE(same_bits(offset[i], ref[i]))
              << k->name << " offset source, m " << m << " conj " << conj_w
              << " i " << i;
          ASSERT_TRUE(same_bits(in_place[i], ref[i]))
              << k->name << " in place, m " << m << " conj " << conj_w
              << " i " << i;
        }
      }
    }
  }
}

TEST(Simd, FftPassGatherBitIdenticalToBitReversalThenReference) {
  expect_fft_pass_gather_matches_reference<double>(
      [](const simd::Kernels& k) { return k.fft_pass; }, 3100);
}

TEST(Simd, FftPassFloatGatherBitIdenticalToBitReversalThenReference) {
  expect_fft_pass_gather_matches_reference<float>(
      [](const simd::Kernels& k) { return k.fft_pass_f; }, 4100);
}

// --- The packed real FFT's untwiddle and scale kernels. ------------------

// Half sizes: every h through 64 (all vector tails), the powers of two to
// 2^14 with their neighbours, and the OFDM symbol's 480.
std::vector<std::size_t> untwiddle_sizes() {
  std::vector<std::size_t> hs;
  for (std::size_t h = 1; h <= 64; ++h) hs.push_back(h);
  for (std::size_t p = 128; p <= (std::size_t{1} << 14); p <<= 1) {
    hs.insert(hs.end(), {p - 1, p, p + 1});
  }
  hs.push_back(480);
  return hs;
}

// The contracts of Kernels::rfft_untwiddle and irfft_untwiddle, spelled per
// element in the historical std::complex trees (this TU is built with
// -ffp-contract=off).
template <typename T>
std::vector<std::complex<T>> rfft_untwiddle_reference(
    const std::vector<std::complex<T>>& z,
    const std::vector<std::complex<T>>& tw, std::size_t h) {
  std::vector<std::complex<T>> out(h + 1);
  out[0] = {z[0].real() + z[0].imag(), T(0)};
  out[h] = {z[0].real() - z[0].imag(), T(0)};
  for (std::size_t k = 1; k < h; ++k) {
    const std::complex<T> c = std::conj(z[h - k]);
    const T er = T(0.5) * (z[k].real() + c.real());
    const T ei = T(0.5) * (z[k].imag() + c.imag());
    const T o_re = T(0.5) * (z[k].imag() - c.imag());
    const T o_im = T(-0.5) * (z[k].real() - c.real());
    out[k] = {er + (tw[k].real() * o_re - tw[k].imag() * o_im),
              ei + (tw[k].real() * o_im + tw[k].imag() * o_re)};
  }
  return out;
}

template <typename T>
std::vector<std::complex<T>> irfft_untwiddle_reference(
    const std::vector<std::complex<T>>& x,
    const std::vector<std::complex<T>>& tw, std::size_t h) {
  std::vector<std::complex<T>> z(h);
  for (std::size_t k = 0; k < h; ++k) {
    const std::complex<T> c = std::conj(x[h - k]);
    const std::complex<T> w = std::conj(tw[k]);
    const T er = T(0.5) * (x[k].real() + c.real());
    const T ei = T(0.5) * (x[k].imag() + c.imag());
    const T pr = T(0.5) * (x[k].real() - c.real());
    const T pi = T(0.5) * (x[k].imag() - c.imag());
    const T o_re = w.real() * pr - w.imag() * pi;
    const T o_im = w.real() * pi + w.imag() * pr;
    z[k] = {er - o_im, ei + o_re};
  }
  return z;
}

template <typename T, typename Forward, typename Inverse>
void expect_untwiddles_match_reference(Forward fwd_of, Inverse inv_of,
                                       std::uint64_t seed) {
  for (const std::size_t h : untwiddle_sizes()) {
    const std::vector<std::complex<T>> z = pass_input<T>(h + 1, seed + h);
    const std::vector<std::complex<T>> tw =
        pass_input<T>(h + 1, seed + 3 * h);
    const std::vector<std::complex<T>> fwd = rfft_untwiddle_reference(z, tw, h);
    const std::vector<std::complex<T>> inv =
        irfft_untwiddle_reference(z, tw, h);
    for (const simd::Kernels* k : runnable_targets()) {
      std::vector<std::complex<T>> got(h + 1);
      fwd_of(*k)(z.data(), got.data(), tw.data(), h);
      for (std::size_t i = 0; i <= h; ++i) {
        ASSERT_TRUE(same_bits(got[i], fwd[i]))
            << k->name << " forward, h " << h << " bin " << i;
      }
      std::vector<std::complex<T>> back(h);
      inv_of(*k)(z.data(), back.data(), tw.data(), h);
      for (std::size_t i = 0; i < h; ++i) {
        ASSERT_TRUE(same_bits(back[i], inv[i]))
            << k->name << " inverse, h " << h << " point " << i;
      }
    }
  }
}

TEST(Simd, RfftUntwiddlesBitIdenticalToReferenceOnEveryTarget) {
  expect_untwiddles_match_reference<double>(
      [](const simd::Kernels& k) { return k.rfft_untwiddle; },
      [](const simd::Kernels& k) { return k.irfft_untwiddle; }, 5100);
}

TEST(Simd, RfftUntwiddlesFloatBitIdenticalToReferenceOnEveryTarget) {
  expect_untwiddles_match_reference<float>(
      [](const simd::Kernels& k) { return k.rfft_untwiddle_f; },
      [](const simd::Kernels& k) { return k.irfft_untwiddle_f; }, 6100);
}

template <typename T, typename Scale>
void expect_scale_matches_reference(Scale scale_of, std::uint64_t seed) {
  const T s = T(1) / T(3);
  for (const std::size_t n : kKernelSizes) {
    const std::vector<std::complex<T>> x0 = pass_input<T>(n, seed + n);
    for (const simd::Kernels* k : runnable_targets()) {
      std::vector<std::complex<T>> got = x0;
      scale_of(*k)(pairs_of(got), 2 * n, s);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(got[i], {x0[i].real() * s, x0[i].imag() * s}))
            << k->name << " n " << n << " i " << i;
      }
    }
  }
}

TEST(Simd, ScaleBitIdenticalToReferenceOnEveryTarget) {
  expect_scale_matches_reference<double>(
      [](const simd::Kernels& k) { return k.scale; }, 7100);
  expect_scale_matches_reference<float>(
      [](const simd::Kernels& k) { return k.scale_f; }, 8100);
}

}  // namespace
}  // namespace aqua::dsp
