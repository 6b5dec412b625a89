// AVX2 + FMA kernel table. This translation unit is the only one compiled
// with -mavx2 -mfma (see CMakeLists.txt); it is entered only after
// cpu_supports(Isa::kAvx2) confirmed the instructions exist, so the rest
// of the library stays runnable on any x86-64.
//
// Every kernel reproduces the scalar reference expression tree exactly:
// the vector FMAs pair with std::fma in the scalar build, lane l
// accumulates elements i with i mod 4 == l, and reductions run in the
// fixed (l0 + l1) + (l2 + l3) order — so results are bit-identical to the
// scalar kernels, which tests/test_simd.cpp asserts.
#include "dsp/simd_internal.h"

#if defined(AQUA_SIMD_HAVE_AVX2)

#include <immintrin.h>

namespace aqua::dsp::simd {

namespace {

void avx2_cmul_inplace(cplx* y, const cplx* x, std::size_t n) {
  auto* yd = reinterpret_cast<double*>(y);
  const auto* xd = reinterpret_cast<const double*>(x);
  const std::size_t n2 = n & ~std::size_t{1};  // two complex per vector
  for (std::size_t i = 0; i < n2; i += 2) {
    const __m256d yv = _mm256_loadu_pd(yd + 2 * i);
    const __m256d xv = _mm256_loadu_pd(xd + 2 * i);
    const __m256d xr = _mm256_movedup_pd(xv);          // [xr0 xr0 xr1 xr1]
    const __m256d xi = _mm256_permute_pd(xv, 0b1111);  // [xi0 xi0 xi1 xi1]
    const __m256d ys = _mm256_permute_pd(yv, 0b0101);  // [yi0 yr0 yi1 yr1]
    const __m256d t = _mm256_mul_pd(ys, xi);           // [yi*xi yr*xi ...]
    // even lanes: fma(yr, xr, -(yi*xi)); odd lanes: fma(yi, xr, yr*xi).
    _mm256_storeu_pd(yd + 2 * i, _mm256_fmaddsub_pd(yv, xr, t));
  }
  if (n2 < n) {
    const double yr = y[n2].real(), yi = y[n2].imag();
    const double xr = x[n2].real(), xi = x[n2].imag();
    y[n2] = {__builtin_fma(yr, xr, -(yi * xi)), __builtin_fma(yi, xr, yr * xi)};
  }
}

double avx2_dot(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (std::size_t i = n4; i < n; ++i) {
    lane[i & 3] = __builtin_fma(a[i], b[i], lane[i & 3]);
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

// fir advances kFirRun outputs per pass over the taps. Each output owns one
// 4-lane accumulator that sees exactly dot's sequence of fused
// multiply-adds; the tap vector is loaded once per step for all of them,
// and their independent FMA chains overlap in the pipeline instead of
// waiting on each other's latency. Leftover outputs fall back to dot.
constexpr std::size_t kFirRun = 8;

void avx2_fir(const double* a, const double* x, double* out, std::size_t t,
             std::size_t n) {
  const std::size_t t4 = t & ~std::size_t{3};
  std::size_t o = 0;
  for (; o + kFirRun <= n; o += kFirRun) {
    __m256d acc[kFirRun];
    for (std::size_t r = 0; r < kFirRun; ++r) acc[r] = _mm256_setzero_pd();
    for (std::size_t i = 0; i < t4; i += 4) {
      const __m256d av = _mm256_loadu_pd(a + i);
      for (std::size_t r = 0; r < kFirRun; ++r) {
        acc[r] = _mm256_fmadd_pd(av, _mm256_loadu_pd(x + o + r + i), acc[r]);
      }
    }
    for (std::size_t r = 0; r < kFirRun; ++r) {
      const double* b = x + o + r;
      alignas(32) double lane[4];
      _mm256_store_pd(lane, acc[r]);
      for (std::size_t i = t4; i < t; ++i) {
        lane[i & 3] = __builtin_fma(a[i], b[i], lane[i & 3]);
      }
      out[o + r] = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    }
  }
  for (; o < n; ++o) out[o] = avx2_dot(a, x + o, t);
}

void avx2_sdft_update(double* acc_re, double* acc_im, std::uint32_t* phase,
                      const std::uint32_t* step, const double* tab_re,
                      const double* tab_im, double d, std::size_t bins,
                      std::uint32_t period) {
  const __m256d dv = _mm256_set1_pd(d);
  const __m128i per = _mm_set1_epi32(static_cast<int>(period));
  const std::size_t b4 = bins & ~std::size_t{3};
  for (std::size_t k = 0; k < b4; k += 4) {
    const __m128i ph =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(phase + k));
    const __m256d tre = _mm256_i32gather_pd(tab_re, ph, 8);
    const __m256d tim = _mm256_i32gather_pd(tab_im, ph, 8);
    _mm256_storeu_pd(acc_re + k,
                     _mm256_fmadd_pd(dv, tre, _mm256_loadu_pd(acc_re + k)));
    _mm256_storeu_pd(acc_im + k,
                     _mm256_fmadd_pd(dv, tim, _mm256_loadu_pd(acc_im + k)));
    // phase += step, wrapped once into [0, period) via an unsigned compare
    // (max_epu32(p, period) == p  <=>  p >= period).
    __m128i next = _mm_add_epi32(
        ph, _mm_loadu_si128(reinterpret_cast<const __m128i*>(step + k)));
    const __m128i ge =
        _mm_cmpeq_epi32(_mm_max_epu32(next, per), next);
    next = _mm_sub_epi32(next, _mm_and_si128(ge, per));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(phase + k), next);
  }
  for (std::size_t k = b4; k < bins; ++k) {
    const std::uint32_t p = phase[k];
    acc_re[k] = __builtin_fma(d, tab_re[p], acc_re[k]);
    acc_im[k] = __builtin_fma(d, tab_im[p], acc_im[k]);
    std::uint32_t next = p + step[k];
    if (next >= period) next -= period;
    phase[k] = next;
  }
}

void avx2_butterfly(cplx* a, cplx* b, const cplx* w, std::size_t n,
                    bool conj_w) {
  auto* ad = reinterpret_cast<double*>(a);
  auto* bd = reinterpret_cast<double*>(b);
  const auto* wd = reinterpret_cast<const double*>(w);
  // XOR-ing the imaginary lanes with -0.0 conjugates exactly (sign flip).
  const __m256d conj_mask = conj_w ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
                                   : _mm256_setzero_pd();
  const std::size_t n2 = n & ~std::size_t{1};  // two complex per vector
  for (std::size_t i = 0; i < n2; i += 2) {
    const __m256d wv = _mm256_xor_pd(_mm256_loadu_pd(wd + 2 * i), conj_mask);
    const __m256d bv = _mm256_loadu_pd(bd + 2 * i);
    const __m256d wr = _mm256_movedup_pd(wv);          // [wr0 wr0 wr1 wr1]
    const __m256d wi = _mm256_permute_pd(wv, 0b1111);  // [wi0 wi0 wi1 wi1]
    const __m256d bs = _mm256_permute_pd(bv, 0b0101);  // [bi0 br0 bi1 br1]
    const __m256d t = _mm256_mul_pd(bs, wi);           // [bi*wi br*wi ...]
    // v = b*w with the unfused legacy tree: even lanes br*wr - bi*wi,
    // odd lanes bi*wr + br*wi (separate mul then addsub — no contraction).
    const __m256d v = _mm256_addsub_pd(_mm256_mul_pd(bv, wr), t);
    const __m256d av = _mm256_loadu_pd(ad + 2 * i);
    _mm256_storeu_pd(ad + 2 * i, _mm256_add_pd(av, v));
    _mm256_storeu_pd(bd + 2 * i, _mm256_sub_pd(av, v));
  }
  if (n2 < n) {
    const double s = conj_w ? -1.0 : 1.0;
    const double wr = w[n2].real(), wi = s * w[n2].imag();
    const double br = b[n2].real(), bi = b[n2].imag();
    const double vr = br * wr - bi * wi;
    const double vi = br * wi + bi * wr;
    const double ur = a[n2].real(), ui = a[n2].imag();
    a[n2] = {ur + vr, ui + vi};
    b[n2] = {ur - vr, ui - vi};
  }
}

// ---------------------------------------------------------------------------
// Single-precision twins: same trees, eight fp32 lanes per vector.
// ---------------------------------------------------------------------------

void avx2_cmul_inplace_f(cplxf* y, const cplxf* x, std::size_t n) {
  auto* yf = reinterpret_cast<float*>(y);
  const auto* xf = reinterpret_cast<const float*>(x);
  const std::size_t n4 = n & ~std::size_t{3};  // four complex per vector
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256 yv = _mm256_loadu_ps(yf + 2 * i);
    const __m256 xv = _mm256_loadu_ps(xf + 2 * i);
    const __m256 xr = _mm256_moveldup_ps(xv);            // [xr0 xr0 ...]
    const __m256 xi = _mm256_movehdup_ps(xv);            // [xi0 xi0 ...]
    const __m256 ys = _mm256_permute_ps(yv, 0b10110001);  // [yi0 yr0 ...]
    const __m256 t = _mm256_mul_ps(ys, xi);               // [yi*xi yr*xi ...]
    _mm256_storeu_ps(yf + 2 * i, _mm256_fmaddsub_ps(yv, xr, t));
  }
  for (std::size_t i = n4; i < n; ++i) {
    const float yr = y[i].real(), yi = y[i].imag();
    const float xr = x[i].real(), xi = x[i].imag();
    y[i] = {__builtin_fmaf(yr, xr, -(yi * xi)),
            __builtin_fmaf(yi, xr, yr * xi)};
  }
}

float avx2_dot_f(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  alignas(32) float lane[8];
  _mm256_store_ps(lane, acc);
  for (std::size_t i = n8; i < n; ++i) {
    lane[i & 7] = __builtin_fmaf(a[i], b[i], lane[i & 7]);
  }
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

void avx2_fir_f(const float* a, const float* x, float* out, std::size_t t,
               std::size_t n) {
  const std::size_t t8 = t & ~std::size_t{7};
  std::size_t o = 0;
  for (; o + kFirRun <= n; o += kFirRun) {
    __m256 acc[kFirRun];
    for (std::size_t r = 0; r < kFirRun; ++r) acc[r] = _mm256_setzero_ps();
    for (std::size_t i = 0; i < t8; i += 8) {
      const __m256 av = _mm256_loadu_ps(a + i);
      for (std::size_t r = 0; r < kFirRun; ++r) {
        acc[r] = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + o + r + i), acc[r]);
      }
    }
    for (std::size_t r = 0; r < kFirRun; ++r) {
      const float* b = x + o + r;
      alignas(32) float lane[8];
      _mm256_store_ps(lane, acc[r]);
      for (std::size_t i = t8; i < t; ++i) {
        lane[i & 7] = __builtin_fmaf(a[i], b[i], lane[i & 7]);
      }
      out[o + r] = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                   ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    }
  }
  for (; o < n; ++o) out[o] = avx2_dot_f(a, x + o, t);
}

void avx2_sdft_update_f(float* acc_re, float* acc_im, std::uint32_t* phase,
                        const std::uint32_t* step, const float* tab_re,
                        const float* tab_im, float d, std::size_t bins,
                        std::uint32_t period) {
  const __m256 dv = _mm256_set1_ps(d);
  const __m256i per = _mm256_set1_epi32(static_cast<int>(period));
  const std::size_t b8 = bins & ~std::size_t{7};
  for (std::size_t k = 0; k < b8; k += 8) {
    const __m256i ph =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(phase + k));
    const __m256 tre = _mm256_i32gather_ps(tab_re, ph, 4);
    const __m256 tim = _mm256_i32gather_ps(tab_im, ph, 4);
    _mm256_storeu_ps(acc_re + k,
                     _mm256_fmadd_ps(dv, tre, _mm256_loadu_ps(acc_re + k)));
    _mm256_storeu_ps(acc_im + k,
                     _mm256_fmadd_ps(dv, tim, _mm256_loadu_ps(acc_im + k)));
    __m256i next = _mm256_add_epi32(
        ph, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(step + k)));
    const __m256i ge = _mm256_cmpeq_epi32(_mm256_max_epu32(next, per), next);
    next = _mm256_sub_epi32(next, _mm256_and_si256(ge, per));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(phase + k), next);
  }
  for (std::size_t k = b8; k < bins; ++k) {
    const std::uint32_t p = phase[k];
    acc_re[k] = __builtin_fmaf(d, tab_re[p], acc_re[k]);
    acc_im[k] = __builtin_fmaf(d, tab_im[p], acc_im[k]);
    std::uint32_t next = p + step[k];
    if (next >= period) next -= period;
    phase[k] = next;
  }
}

void avx2_butterfly_f(cplxf* a, cplxf* b, const cplxf* w, std::size_t n,
                      bool conj_w) {
  auto* af = reinterpret_cast<float*>(a);
  auto* bf = reinterpret_cast<float*>(b);
  const auto* wf = reinterpret_cast<const float*>(w);
  const __m256 conj_mask =
      conj_w ? _mm256_set_ps(-0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f,
                             0.0f)
             : _mm256_setzero_ps();
  const std::size_t n4 = n & ~std::size_t{3};  // four complex per vector
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256 wv = _mm256_xor_ps(_mm256_loadu_ps(wf + 2 * i), conj_mask);
    const __m256 bv = _mm256_loadu_ps(bf + 2 * i);
    const __m256 wr = _mm256_moveldup_ps(wv);
    const __m256 wi = _mm256_movehdup_ps(wv);
    const __m256 bs = _mm256_permute_ps(bv, 0b10110001);
    const __m256 t = _mm256_mul_ps(bs, wi);
    const __m256 v = _mm256_addsub_ps(_mm256_mul_ps(bv, wr), t);
    const __m256 av = _mm256_loadu_ps(af + 2 * i);
    _mm256_storeu_ps(af + 2 * i, _mm256_add_ps(av, v));
    _mm256_storeu_ps(bf + 2 * i, _mm256_sub_ps(av, v));
  }
  const float s = conj_w ? -1.0f : 1.0f;
  for (std::size_t i = n4; i < n; ++i) {
    const float wr = w[i].real(), wi = s * w[i].imag();
    const float br = b[i].real(), bi = b[i].imag();
    const float vr = br * wr - bi * wi;
    const float vi = br * wi + bi * wr;
    const float ur = a[i].real(), ui = a[i].imag();
    a[i] = {ur + vr, ui + vi};
    b[i] = {ur - vr, ui - vi};
  }
}

constexpr Kernels kAvx2Kernels{"avx2",
                               avx2_cmul_inplace,
                               avx2_dot,
                               avx2_fir,
                               avx2_sdft_update,
                               avx2_butterfly,
                               avx2_cmul_inplace_f,
                               avx2_dot_f,
                               avx2_fir_f,
                               avx2_sdft_update_f,
                               avx2_butterfly_f};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace aqua::dsp::simd

#endif  // AQUA_SIMD_HAVE_AVX2
