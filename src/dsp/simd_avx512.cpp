// AVX-512 kernel table. This translation unit is the only one compiled with
// -mavx512f -mavx512vl -mavx512dq (see CMakeLists.txt); it is entered only
// after cpu_supports(Isa::kAvx512) confirmed the instructions exist, so the
// rest of the library stays runnable on any x86-64.
//
// Bit-identity discipline: the dot kernels keep the FIXED lane-accumulator
// structure of the scalar reference (4 double / 8 float lanes), so they run
// at 256-bit width — widening the accumulator to 512 bits would change the
// reduction tree and the results. The element-independent kernels
// (cmul_inplace, sdft_update, butterfly) have no cross-element state, so
// they get the full 512-bit width; their per-element expression trees match
// the scalar reference exactly. AVX-512 has no addsub instruction, so the
// butterfly's alternating sub/add is spelled as an XOR sign flip of the
// even (real) lanes followed by a plain add — IEEE-exact, x + (-y) == x - y.
#include "dsp/simd_internal.h"

#if defined(AQUA_SIMD_HAVE_AVX512)

#include <immintrin.h>

namespace aqua::dsp::simd {

namespace {

void avx512_cmul_inplace(cplx* y, const cplx* x, std::size_t n) {
  auto* yd = reinterpret_cast<double*>(y);
  const auto* xd = reinterpret_cast<const double*>(x);
  const std::size_t n4 = n & ~std::size_t{3};  // four complex per vector
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m512d yv = _mm512_loadu_pd(yd + 2 * i);
    const __m512d xv = _mm512_loadu_pd(xd + 2 * i);
    const __m512d xr = _mm512_movedup_pd(xv);        // [xr0 xr0 xr1 xr1 ...]
    const __m512d xi = _mm512_permute_pd(xv, 0xFF);  // [xi0 xi0 xi1 xi1 ...]
    const __m512d ys = _mm512_permute_pd(yv, 0x55);  // [yi0 yr0 yi1 yr1 ...]
    const __m512d t = _mm512_mul_pd(ys, xi);         // [yi*xi yr*xi ...]
    // even lanes: fma(yr, xr, -(yi*xi)); odd lanes: fma(yi, xr, yr*xi).
    _mm512_storeu_pd(yd + 2 * i, _mm512_fmaddsub_pd(yv, xr, t));
  }
  for (std::size_t i = n4; i < n; ++i) {
    const double yr = y[i].real(), yi = y[i].imag();
    const double xr = x[i].real(), xi = x[i].imag();
    y[i] = {__builtin_fma(yr, xr, -(yi * xi)), __builtin_fma(yi, xr, yr * xi)};
  }
}

// dot keeps the scalar reference's 4-lane accumulator, so it is the AVX2
// loop verbatim: a 512-bit accumulator would be a different (8-lane) tree.
double avx512_dot(const double* a, const double* b, std::size_t n) {
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

// Like avx512_dot, fir keeps the 4-lane tree at AVX2 width: it is the AVX2
// loop verbatim (kFirRun outputs per pass, one dot-shaped accumulator
// each, leftover outputs through dot).
constexpr std::size_t kFirRun = 8;

void avx512_fir(const double* a, const double* x, double* out,
                std::size_t t, std::size_t n) {
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
  for (; o < n; ++o) out[o] = avx512_dot(a, x + o, t);
}

void avx512_sdft_update(double* acc_re, double* acc_im, std::uint32_t* phase,
                        const std::uint32_t* step, const double* tab_re,
                        const double* tab_im, double d, std::size_t bins,
                        std::uint32_t period) {
  const __m512d dv = _mm512_set1_pd(d);
  const __m256i per = _mm256_set1_epi32(static_cast<int>(period));
  const std::size_t b8 = bins & ~std::size_t{7};
  for (std::size_t k = 0; k < b8; k += 8) {
    const __m256i ph =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(phase + k));
    const __m512d tre = _mm512_i32gather_pd(ph, tab_re, 8);
    const __m512d tim = _mm512_i32gather_pd(ph, tab_im, 8);
    _mm512_storeu_pd(acc_re + k,
                     _mm512_fmadd_pd(dv, tre, _mm512_loadu_pd(acc_re + k)));
    _mm512_storeu_pd(acc_im + k,
                     _mm512_fmadd_pd(dv, tim, _mm512_loadu_pd(acc_im + k)));
    __m256i next = _mm256_add_epi32(
        ph, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(step + k)));
    const __m256i ge = _mm256_cmpeq_epi32(_mm256_max_epu32(next, per), next);
    next = _mm256_sub_epi32(next, _mm256_and_si256(ge, per));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(phase + k), next);
  }
  for (std::size_t k = b8; k < bins; ++k) {
    const std::uint32_t p = phase[k];
    acc_re[k] = __builtin_fma(d, tab_re[p], acc_re[k]);
    acc_im[k] = __builtin_fma(d, tab_im[p], acc_im[k]);
    std::uint32_t next = p + step[k];
    if (next >= period) next -= period;
    phase[k] = next;
  }
}

void avx512_butterfly(cplx* a, cplx* b, const cplx* w, std::size_t n,
                      bool conj_w) {
  auto* ad = reinterpret_cast<double*>(a);
  auto* bd = reinterpret_cast<double*>(b);
  const auto* wd = reinterpret_cast<const double*>(w);
  const __m512d conj_mask =
      conj_w ? _mm512_set_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0)
             : _mm512_setzero_pd();
  // Flips the even (real) lanes of the cross product so a plain add
  // reproduces addsub: [br*wr - bi*wi, bi*wr + br*wi].
  const __m512d neg_even =
      _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
  const std::size_t n4 = n & ~std::size_t{3};  // four complex per vector
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m512d wv =
        _mm512_xor_pd(_mm512_loadu_pd(wd + 2 * i), conj_mask);
    const __m512d bv = _mm512_loadu_pd(bd + 2 * i);
    const __m512d wr = _mm512_movedup_pd(wv);
    const __m512d wi = _mm512_permute_pd(wv, 0xFF);
    const __m512d bs = _mm512_permute_pd(bv, 0x55);  // [bi br ...]
    const __m512d t = _mm512_xor_pd(_mm512_mul_pd(bs, wi), neg_even);
    const __m512d v = _mm512_add_pd(_mm512_mul_pd(bv, wr), t);
    const __m512d av = _mm512_loadu_pd(ad + 2 * i);
    _mm512_storeu_pd(ad + 2 * i, _mm512_add_pd(av, v));
    _mm512_storeu_pd(bd + 2 * i, _mm512_sub_pd(av, v));
  }
  const double s = conj_w ? -1.0 : 1.0;
  for (std::size_t i = n4; i < n; ++i) {
    const double wr = w[i].real(), wi = s * w[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    const double vr = br * wr - bi * wi;
    const double vi = br * wi + bi * wr;
    const double ur = a[i].real(), ui = a[i].imag();
    a[i] = {ur + vr, ui + vi};
    b[i] = {ur - vr, ui - vi};
  }
}

// ---------------------------------------------------------------------------
// Single-precision twins.
// ---------------------------------------------------------------------------

void avx512_cmul_inplace_f(cplxf* y, const cplxf* x, std::size_t n) {
  auto* yf = reinterpret_cast<float*>(y);
  const auto* xf = reinterpret_cast<const float*>(x);
  const std::size_t n8 = n & ~std::size_t{7};  // eight complex per vector
  for (std::size_t i = 0; i < n8; i += 8) {
    const __m512 yv = _mm512_loadu_ps(yf + 2 * i);
    const __m512 xv = _mm512_loadu_ps(xf + 2 * i);
    const __m512 xr = _mm512_moveldup_ps(xv);
    const __m512 xi = _mm512_movehdup_ps(xv);
    const __m512 ys = _mm512_permute_ps(yv, 0b10110001);
    const __m512 t = _mm512_mul_ps(ys, xi);
    _mm512_storeu_ps(yf + 2 * i, _mm512_fmaddsub_ps(yv, xr, t));
  }
  for (std::size_t i = n8; i < n; ++i) {
    const float yr = y[i].real(), yi = y[i].imag();
    const float xr = x[i].real(), xi = x[i].imag();
    y[i] = {__builtin_fmaf(yr, xr, -(yi * xi)),
            __builtin_fmaf(yi, xr, yr * xi)};
  }
}

// Like avx512_dot: the float dot keeps the 8-lane scalar tree (AVX2 width).
float avx512_dot_f(const float* a, const float* b, std::size_t n) {
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

void avx512_fir_f(const float* a, const float* x, float* out,
                  std::size_t t, std::size_t n) {
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
  for (; o < n; ++o) out[o] = avx512_dot_f(a, x + o, t);
}

void avx512_sdft_update_f(float* acc_re, float* acc_im, std::uint32_t* phase,
                          const std::uint32_t* step, const float* tab_re,
                          const float* tab_im, float d, std::size_t bins,
                          std::uint32_t period) {
  const __m512 dv = _mm512_set1_ps(d);
  const __m512i per = _mm512_set1_epi32(static_cast<int>(period));
  const std::size_t b16 = bins & ~std::size_t{15};
  for (std::size_t k = 0; k < b16; k += 16) {
    const __m512i ph =
        _mm512_loadu_si512(reinterpret_cast<const void*>(phase + k));
    const __m512 tre = _mm512_i32gather_ps(ph, tab_re, 4);
    const __m512 tim = _mm512_i32gather_ps(ph, tab_im, 4);
    _mm512_storeu_ps(acc_re + k,
                     _mm512_fmadd_ps(dv, tre, _mm512_loadu_ps(acc_re + k)));
    _mm512_storeu_ps(acc_im + k,
                     _mm512_fmadd_ps(dv, tim, _mm512_loadu_ps(acc_im + k)));
    __m512i next = _mm512_add_epi32(
        ph, _mm512_loadu_si512(reinterpret_cast<const void*>(step + k)));
    const __mmask16 ge = _mm512_cmpge_epu32_mask(next, per);
    next = _mm512_mask_sub_epi32(next, ge, next, per);
    _mm512_storeu_si512(reinterpret_cast<void*>(phase + k), next);
  }
  for (std::size_t k = b16; k < bins; ++k) {
    const std::uint32_t p = phase[k];
    acc_re[k] = __builtin_fmaf(d, tab_re[p], acc_re[k]);
    acc_im[k] = __builtin_fmaf(d, tab_im[p], acc_im[k]);
    std::uint32_t next = p + step[k];
    if (next >= period) next -= period;
    phase[k] = next;
  }
}

void avx512_butterfly_f(cplxf* a, cplxf* b, const cplxf* w, std::size_t n,
                        bool conj_w) {
  auto* af = reinterpret_cast<float*>(a);
  auto* bf = reinterpret_cast<float*>(b);
  const auto* wf = reinterpret_cast<const float*>(w);
  const __m512 conj_mask =
      conj_w ? _mm512_set_ps(-0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f,
                             0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f,
                             -0.0f, 0.0f)
             : _mm512_setzero_ps();
  const __m512 neg_even =
      _mm512_set_ps(0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f,
                    -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f);
  const std::size_t n8 = n & ~std::size_t{7};  // eight complex per vector
  for (std::size_t i = 0; i < n8; i += 8) {
    const __m512 wv = _mm512_xor_ps(_mm512_loadu_ps(wf + 2 * i), conj_mask);
    const __m512 bv = _mm512_loadu_ps(bf + 2 * i);
    const __m512 wr = _mm512_moveldup_ps(wv);
    const __m512 wi = _mm512_movehdup_ps(wv);
    const __m512 bs = _mm512_permute_ps(bv, 0b10110001);
    const __m512 t = _mm512_xor_ps(_mm512_mul_ps(bs, wi), neg_even);
    const __m512 v = _mm512_add_ps(_mm512_mul_ps(bv, wr), t);
    const __m512 av = _mm512_loadu_ps(af + 2 * i);
    _mm512_storeu_ps(af + 2 * i, _mm512_add_ps(av, v));
    _mm512_storeu_ps(bf + 2 * i, _mm512_sub_ps(av, v));
  }
  const float s = conj_w ? -1.0f : 1.0f;
  for (std::size_t i = n8; i < n; ++i) {
    const float wr = w[i].real(), wi = s * w[i].imag();
    const float br = b[i].real(), bi = b[i].imag();
    const float vr = br * wr - bi * wi;
    const float vi = br * wi + bi * wr;
    const float ur = a[i].real(), ui = a[i].imag();
    a[i] = {ur + vr, ui + vi};
    b[i] = {ur - vr, ui - vi};
  }
}

constexpr Kernels kAvx512Kernels{"avx512",
                                 avx512_cmul_inplace,
                                 avx512_dot,
                                 avx512_fir,
                                 avx512_sdft_update,
                                 avx512_butterfly,
                                 avx512_cmul_inplace_f,
                                 avx512_dot_f,
                                 avx512_fir_f,
                                 avx512_sdft_update_f,
                                 avx512_butterfly_f};

}  // namespace

const Kernels* avx512_kernels() { return &kAvx512Kernels; }

}  // namespace aqua::dsp::simd

#endif  // AQUA_SIMD_HAVE_AVX512
