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

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

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

// Complex-lane helpers: re/im swapped in every complex lane, and sign
// masks whose XOR negates the real (even) or imaginary (odd) lanes exactly.
inline __m256d swap_ri(__m256d x) { return _mm256_permute_pd(x, 0b0101); }
inline __m256d neg_even_pd() { return _mm256_set_pd(0.0, -0.0, 0.0, -0.0); }
inline __m256d neg_odd_pd() { return _mm256_set_pd(-0.0, 0.0, -0.0, 0.0); }

// A twiddle vector split for the products: real parts duplicated across
// each complex lane, and imaginary parts duplicated with the sign of the
// cross product folded in by XOR, so one plain add finishes the product:
// `flip` = neg_even gives [br*wr + bi*(-wi), bi*wr + br*wi], which is the
// legacy unfused [br*wr - bi*wi, bi*wr + br*wi] exactly (b * (-wi) ==
// -(b * wi) and x + (-y) == x - y in IEEE arithmetic); flip = neg_odd
// gives the same tree for conj(w). No contraction: separate mul, then add.
struct TwPd {
  __m256d re, im;
};
inline TwPd split(__m256d w, __m256d flip) {
  return {_mm256_movedup_pd(w),
          _mm256_xor_pd(_mm256_permute_pd(w, 0b1111), flip)};
}
inline TwPd load_tw(const double* p, __m256d flip) {
  return split(_mm256_loadu_pd(p), flip);
}

// v = b * w per complex lane in the legacy unfused tree.
inline __m256d cmul_tree(__m256d b, TwPd w) {
  return _mm256_add_pd(_mm256_mul_pd(b, w.re),
                       _mm256_mul_pd(swap_ri(b), w.im));
}

// One butterfly per complex lane: v = b * w, then a' = a + v, b' = a - v.
inline void bfly(__m256d& a, __m256d& b, TwPd w) {
  const __m256d v = cmul_tree(b, w);
  const __m256d u = a;
  a = _mm256_add_pd(u, v);
  b = _mm256_sub_pd(u, v);
}

// The same helpers in single precision.
inline __m256 swap_ri(__m256 x) { return _mm256_permute_ps(x, 0b10110001); }
inline __m256 neg_even_ps() {
  return _mm256_castpd_ps(_mm256_set1_pd(
      std::bit_cast<double>(std::uint64_t{0x0000000080000000ull})));
}
inline __m256 neg_odd_ps() {
  return _mm256_castpd_ps(_mm256_set1_pd(
      std::bit_cast<double>(std::uint64_t{0x8000000000000000ull})));
}

struct TwPs {
  __m256 re, im;
};
inline TwPs split(__m256 w, __m256 flip) {
  return {_mm256_moveldup_ps(w), _mm256_xor_ps(_mm256_movehdup_ps(w), flip)};
}
inline TwPs load_tw(const float* p, __m256 flip) {
  return split(_mm256_loadu_ps(p), flip);
}

inline __m256 cmul_tree(__m256 b, TwPs w) {
  return _mm256_add_ps(_mm256_mul_ps(b, w.re),
                       _mm256_mul_ps(swap_ri(b), w.im));
}

inline void bfly(__m256& a, __m256& b, TwPs w) {
  const __m256 v = cmul_tree(b, w);
  const __m256 u = a;
  a = _mm256_add_ps(u, v);
  b = _mm256_sub_ps(u, v);
}

// permute2f128 selectors: low 128-bit halves of (x, y), high halves.
constexpr int kLowHalves = 0x20;   // [x.lo y.lo]
constexpr int kHighHalves = 0x31;  // [x.hi y.hi]

// The register ops fused_fft_pass (simd_internal.h) runs, in either
// precision.
struct Avx2Ops {
  static __m256d load(const double* p) { return _mm256_loadu_pd(p); }
  static __m256 load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(double* p, __m256d v) { _mm256_storeu_pd(p, v); }
  static void store(float* p, __m256 v) { _mm256_storeu_ps(p, v); }
  template <typename T, typename V>
  static auto load_tw(const T* p, V flip) {
    return simd::load_tw(p, flip);
  }
  template <typename V, typename W>
  static void bfly(V& a, V& b, W w) {
    simd::bfly(a, b, w);
  }
};

// Two complex doubles per register. Each 4-point block arrives as
// a = points 0, 2 and b = points 1, 3, loaded straight from their
// bit-reversed source positions, and runs stages 1 and 2 in registers (one
// exchange of 128-bit halves between them restores natural order); the
// rest is fused_fft_pass. In place it is the reference.
void avx2_fft_pass(const double* in, double* d, std::size_t m,
                   const std::uint32_t* bitrev, const cplx* stage_tw,
                   bool conj_w) {
  if (m < 4 || in == d) {
    fft_pass_ref(in, d, m, bitrev, stage_tw, conj_w);
    return;
  }
  const auto* tw = reinterpret_cast<const double*>(stage_tw);
  const __m256d flip = conj_w ? neg_odd_pd() : neg_even_pd();
  const __m128d w1x = _mm_loadu_pd(tw);
  const TwPd w1 = split(_mm256_set_m128d(w1x, w1x), flip);
  const TwPd w2 = load_tw(tw + 2, flip);
  const auto gather = [&](std::size_t s, __m256d& a, __m256d& b) {
    const auto point = [&](std::size_t i) {
      return in + 2 * static_cast<std::size_t>(bitrev[i]);
    };
    a = _mm256_loadu2_m128d(point(s + 2), point(s));
    b = _mm256_loadu2_m128d(point(s + 3), point(s + 1));
  };
  const auto stages = [&](__m256d& a, __m256d& b) {
    bfly(a, b, w1);
    const __m256d lo = _mm256_permute2f128_pd(a, b, kLowHalves);
    b = _mm256_permute2f128_pd(a, b, kHighHalves);
    a = lo;
    bfly(a, b, w2);
  };
  fused_fft_pass<Avx2Ops>(d, m, bitrev, tw, flip, gather, stages);
}

// Packed real-FFT untwiddles, two bins per register: the mirrored bins
// h - k come from one load with its 128-bit halves exchanged, the products
// keep the butterfly's unfused tree, and conjugation is a sign-bit XOR.
void avx2_rfft_untwiddle(const cplx* z, cplx* out, const cplx* tw,
                         std::size_t h) {
  rfft_untwiddle_edges(z, out, h);
  const auto* zd = reinterpret_cast<const double*>(z);
  const auto* wd = reinterpret_cast<const double*>(tw);
  auto* od = reinterpret_cast<double*>(out);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d half_pm = _mm256_set_pd(-0.5, 0.5, -0.5, 0.5);
  std::size_t k = 1;
  for (; k + 2 <= h; k += 2) {
    const __m256d zv = _mm256_loadu_pd(zd + 2 * k);
    const __m256d r = _mm256_loadu_pd(zd + 2 * (h - k - 1));
    const __m256d c =
        _mm256_xor_pd(_mm256_permute2f128_pd(r, r, 0x01), neg_odd_pd());
    const __m256d e = _mm256_mul_pd(half, _mm256_add_pd(zv, c));
    const __m256d o = _mm256_mul_pd(half_pm, swap_ri(_mm256_sub_pd(zv, c)));
    _mm256_storeu_pd(
        od + 2 * k,
        _mm256_add_pd(e, cmul_tree(o, load_tw(wd + 2 * k, neg_even_pd()))));
  }
  rfft_untwiddle_bins_ref(z, out, tw, h, k, h);
}

void avx2_irfft_untwiddle(const cplx* x, cplx* z, const cplx* tw,
                          std::size_t h) {
  const auto* xd = reinterpret_cast<const double*>(x);
  const auto* wd = reinterpret_cast<const double*>(tw);
  auto* zd = reinterpret_cast<double*>(z);
  const __m256d half = _mm256_set1_pd(0.5);
  std::size_t k = 0;
  for (; k + 2 <= h; k += 2) {
    const __m256d xv = _mm256_loadu_pd(xd + 2 * k);
    const __m256d r = _mm256_loadu_pd(xd + 2 * (h - k - 1));
    const __m256d c =
        _mm256_xor_pd(_mm256_permute2f128_pd(r, r, 0x01), neg_odd_pd());
    const __m256d e = _mm256_mul_pd(half, _mm256_add_pd(xv, c));
    const __m256d p = _mm256_mul_pd(half, _mm256_sub_pd(xv, c));
    // O = conj(W^k) * P, then (er - o_im, ei + o_re).
    const __m256d o = cmul_tree(p, load_tw(wd + 2 * k, neg_odd_pd()));
    _mm256_storeu_pd(zd + 2 * k, _mm256_addsub_pd(e, swap_ri(o)));
  }
  irfft_untwiddle_bins_ref(x, z, tw, h, k, h);
}

void avx2_scale(double* x, std::size_t n, double s) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), sv));
  }
  scale_ref(x + i, n - i, s);
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

// V registers of running sums held across the whole run: each sample
// broadcasts its difference once and streams one contiguous phasor row.
template <int V>
void avx2_sdft_block_f(float* acc, const float* rows, const float* x_old,
                       const float* x_new, std::size_t samples,
                       std::size_t width) {
  __m256 a[V];
  for (int v = 0; v < V; ++v) a[v] = _mm256_loadu_ps(acc + 8 * v);
  for (std::size_t i = 0; i < samples; ++i) {
    const __m256 d = _mm256_set1_ps(x_new[i] - x_old[i]);
    const float* row = rows + i * width;
    for (int v = 0; v < V; ++v) {
      a[v] = _mm256_fmadd_ps(d, _mm256_loadu_ps(row + 8 * v), a[v]);
    }
  }
  for (int v = 0; v < V; ++v) _mm256_storeu_ps(acc + 8 * v, a[v]);
}

void avx2_sdft_update_f(float* acc, const float* rows, const float* x_old,
                        const float* x_new, std::size_t samples,
                        std::size_t width) {
  const std::size_t j =
      sdft_register_blocks<8>(width, [&]<int V>(std::size_t c) {
        avx2_sdft_block_f<V>(acc + c, rows + c, x_old, x_new, samples, width);
      });
  sdft_columns_ref(acc + j, rows + j, x_old, x_new, samples, width - j,
                   width);
}

// Four complex floats per register; a complex float is one 64-bit unit.
// Each 8-point block arrives as a = points 0, 2, 4, 6 and b = points
// 1, 3, 5, 7 and runs stages 1, 2 and 4 in registers: an in-lane unpack
// pairs stage 2's points, an exchange of 128-bit halves stage 4's and
// leaves natural order. The rest is fused_fft_pass, as in the double pass.
void avx2_fft_pass_f(const float* in, float* d, std::size_t m,
                     const std::uint32_t* bitrev, const cplxf* stage_tw,
                     bool conj_w) {
  if (m < 8 || in == d) {
    fft_pass_ref(in, d, m, bitrev, stage_tw, conj_w);
    return;
  }
  const auto* tw = reinterpret_cast<const float*>(stage_tw);
  const __m256 flip = conj_w ? neg_odd_ps() : neg_even_ps();
  double w0 = 0.0;  // stage 1's complex twiddle as one 64-bit unit
  std::memcpy(&w0, tw, sizeof w0);
  const TwPs w1 = split(_mm256_castpd_ps(_mm256_set1_pd(w0)), flip);
  const __m128 w2x = _mm_loadu_ps(tw + 2);  // stage_tw[1, 3)
  const TwPs w2 = split(_mm256_set_m128(w2x, w2x), flip);
  const TwPs w4 = load_tw(tw + 6, flip);  // stage_tw[3, 7)
  // A point is one 64-bit unit, loaded on its own (any alignment) and
  // paired up: cheaper than a hardware gather on most cores.
  const auto two = [&](std::size_t i) {  // points i, i + 2
    return _mm_unpacklo_epi64(
        _mm_loadu_si64(in + 2 * static_cast<std::size_t>(bitrev[i])),
        _mm_loadu_si64(in + 2 * static_cast<std::size_t>(bitrev[i + 2])));
  };
  const auto gather = [&](std::size_t s, __m256& a, __m256& b) {
    a = _mm256_castsi256_ps(_mm256_inserti128_si256(
        _mm256_castsi128_si256(two(s)), two(s + 4), 1));
    b = _mm256_castsi256_ps(_mm256_inserti128_si256(
        _mm256_castsi128_si256(two(s + 1)), two(s + 5), 1));
  };
  const auto stages = [&](__m256& a, __m256& b) {
    bfly(a, b, w1);
    __m256d x = _mm256_castps_pd(a), y = _mm256_castps_pd(b);
    a = _mm256_castpd_ps(_mm256_unpacklo_pd(x, y));  // points 0 1 4 5
    b = _mm256_castpd_ps(_mm256_unpackhi_pd(x, y));  // points 2 3 6 7
    bfly(a, b, w2);
    x = _mm256_castps_pd(a);
    y = _mm256_castps_pd(b);
    a = _mm256_castpd_ps(_mm256_permute2f128_pd(x, y, kLowHalves));
    b = _mm256_castpd_ps(_mm256_permute2f128_pd(x, y, kHighHalves));
    bfly(a, b, w4);
  };
  fused_fft_pass<Avx2Ops>(d, m, bitrev, tw, flip, gather, stages);
}

// Four bins per register; the mirrored bins come from one load reversed by
// 64-bit unit.
void avx2_rfft_untwiddle_f(const cplxf* z, cplxf* out, const cplxf* tw,
                           std::size_t h) {
  rfft_untwiddle_edges(z, out, h);
  const auto* zf = reinterpret_cast<const float*>(z);
  const auto* wf = reinterpret_cast<const float*>(tw);
  auto* of = reinterpret_cast<float*>(out);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 half_pm = _mm256_castpd_ps(_mm256_set1_pd(
      std::bit_cast<double>(std::array<float, 2>{0.5f, -0.5f})));
  std::size_t k = 1;
  for (; k + 4 <= h; k += 4) {
    const __m256 zv = _mm256_loadu_ps(zf + 2 * k);
    const __m256d r = _mm256_castps_pd(_mm256_loadu_ps(zf + 2 * (h - k - 3)));
    const __m256 c = _mm256_xor_ps(
        _mm256_castpd_ps(_mm256_permute4x64_pd(r, 0x1B)), neg_odd_ps());
    const __m256 e = _mm256_mul_ps(half, _mm256_add_ps(zv, c));
    const __m256 o = _mm256_mul_ps(half_pm, swap_ri(_mm256_sub_ps(zv, c)));
    _mm256_storeu_ps(
        of + 2 * k,
        _mm256_add_ps(e, cmul_tree(o, load_tw(wf + 2 * k, neg_even_ps()))));
  }
  rfft_untwiddle_bins_ref(z, out, tw, h, k, h);
}

void avx2_irfft_untwiddle_f(const cplxf* x, cplxf* z, const cplxf* tw,
                            std::size_t h) {
  const auto* xf = reinterpret_cast<const float*>(x);
  const auto* wf = reinterpret_cast<const float*>(tw);
  auto* zf = reinterpret_cast<float*>(z);
  const __m256 half = _mm256_set1_ps(0.5f);
  std::size_t k = 0;
  for (; k + 4 <= h; k += 4) {
    const __m256 xv = _mm256_loadu_ps(xf + 2 * k);
    const __m256d r = _mm256_castps_pd(_mm256_loadu_ps(xf + 2 * (h - k - 3)));
    const __m256 c = _mm256_xor_ps(
        _mm256_castpd_ps(_mm256_permute4x64_pd(r, 0x1B)), neg_odd_ps());
    const __m256 e = _mm256_mul_ps(half, _mm256_add_ps(xv, c));
    const __m256 p = _mm256_mul_ps(half, _mm256_sub_ps(xv, c));
    const __m256 o = cmul_tree(p, load_tw(wf + 2 * k, neg_odd_ps()));
    _mm256_storeu_ps(zf + 2 * k, _mm256_addsub_ps(e, swap_ri(o)));
  }
  irfft_untwiddle_bins_ref(x, z, tw, h, k, h);
}

void avx2_scale_f(float* x, std::size_t n, float s) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), sv));
  }
  scale_ref(x + i, n - i, s);
}

constexpr Kernels kAvx2Kernels{"avx2",
                               avx2_cmul_inplace,
                               avx2_dot,
                               avx2_fft_pass,
                               avx2_rfft_untwiddle,
                               avx2_irfft_untwiddle,
                               avx2_scale,
                               avx2_cmul_inplace_f,
                               avx2_dot_f,
                               avx2_sdft_update_f,
                               avx2_fft_pass_f,
                               avx2_rfft_untwiddle_f,
                               avx2_irfft_untwiddle_f,
                               avx2_scale_f};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace aqua::dsp::simd

#endif  // AQUA_SIMD_HAVE_AVX2
