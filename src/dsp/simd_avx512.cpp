// AVX-512 kernel table. This translation unit is the only one compiled with
// -mavx512f -mavx512vl -mavx512dq (see CMakeLists.txt); it is entered only
// after cpu_supports(Isa::kAvx512) confirmed the instructions exist, so the
// rest of the library stays runnable on any x86-64.
//
// Bit-identity discipline: the dot kernel keeps the FIXED lane-accumulator
// structure of the scalar reference (4 double / 8 float lanes), so it runs
// at 256-bit width — widening the accumulator to 512 bits would change the
// reduction tree and the results. The element-independent kernels
// (cmul_inplace, sdft_update, fft_pass) have no cross-element state, so
// they get the full 512-bit width; their per-element expression trees match
// the scalar reference exactly. AVX-512 has no addsub instruction, so the
// complex products' alternating sub/add is spelled as a plain add of a
// cross term whose sign was folded into the twiddle by XOR — IEEE-exact,
// since b * (-w) == -(b * w) and x + (-y) == x - y.
#include "dsp/simd_internal.h"

#if defined(AQUA_SIMD_HAVE_AVX512)

#include <immintrin.h>

#include <array>
#include <bit>
#include <cstdint>

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

// Complex-lane helpers: re/im swapped in every complex lane, and sign
// masks whose XOR negates the real (even) or imaginary (odd) lanes exactly.
inline __m512d swap_ri(__m512d x) { return _mm512_permute_pd(x, 0x55); }
inline __m512d neg_even_pd() {
  return _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
}
inline __m512d neg_odd_pd() {
  return _mm512_set_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
}

// A twiddle vector split for the products: real parts duplicated across
// each complex lane, and imaginary parts duplicated with the sign of the
// cross product folded in by XOR. AVX-512 has no addsub, so `flip` =
// neg_even negates the real lanes' cross term and a plain add follows:
// [br*wr + bi*(-wi), bi*wr + br*wi] is [br*wr - bi*wi, bi*wr + br*wi]
// exactly (b * (-wi) == -(b * wi) and x + (-y) == x - y in IEEE
// arithmetic). flip = neg_odd gives the same tree for conj(w).
struct TwPd {
  __m512d re, im;
};
inline TwPd split(__m512d w, __m512d flip) {
  return {_mm512_movedup_pd(w),
          _mm512_xor_pd(_mm512_permute_pd(w, 0xFF), flip)};
}
inline TwPd load_tw(const double* p, __m512d flip) {
  return split(_mm512_loadu_pd(p), flip);
}

// v = b * w per complex lane in the legacy unfused tree.
inline __m512d cmul_tree(__m512d b, TwPd w) {
  return _mm512_add_pd(_mm512_mul_pd(b, w.re),
                       _mm512_mul_pd(swap_ri(b), w.im));
}

// One butterfly per complex lane: v = b * w, then a' = a + v, b' = a - v.
inline void bfly(__m512d& a, __m512d& b, TwPd w) {
  const __m512d v = cmul_tree(b, w);
  const __m512d u = a;
  a = _mm512_add_pd(u, v);
  b = _mm512_sub_pd(u, v);
}

// The same helpers in single precision.
inline __m512 swap_ri(__m512 x) { return _mm512_permute_ps(x, 0b10110001); }
inline __m512 neg_even_ps() {
  return _mm512_castpd_ps(_mm512_set1_pd(std::bit_cast<double>(
      std::uint64_t{0x0000000080000000ull})));
}
inline __m512 neg_odd_ps() {
  return _mm512_castpd_ps(_mm512_set1_pd(std::bit_cast<double>(
      std::uint64_t{0x8000000000000000ull})));
}

struct TwPs {
  __m512 re, im;
};
inline TwPs split(__m512 w, __m512 flip) {
  return {_mm512_moveldup_ps(w), _mm512_xor_ps(_mm512_movehdup_ps(w), flip)};
}
inline TwPs load_tw(const float* p, __m512 flip) {
  return split(_mm512_loadu_ps(p), flip);
}

inline __m512 cmul_tree(__m512 b, TwPs w) {
  return _mm512_add_ps(_mm512_mul_ps(b, w.re),
                       _mm512_mul_ps(swap_ri(b), w.im));
}

inline void bfly(__m512& a, __m512& b, TwPs w) {
  const __m512 v = cmul_tree(b, w);
  const __m512 u = a;
  a = _mm512_add_ps(u, v);
  b = _mm512_sub_ps(u, v);
}

// Splits a register pair into its even 128-bit units ([a0 a2 b0 b2]) and
// its odd ones ([a1 a3 b1 b3]). On a block whose a holds the even points
// and b the odd ones, this perfect shuffle turns one stage's butterfly
// pairs into the next stage's, and the last one leaves natural order.
inline void deal(__m512d& a, __m512d& b) {
  const __m512d e = _mm512_shuffle_f64x2(a, b, 0x88);
  b = _mm512_shuffle_f64x2(a, b, 0xDD);
  a = e;
}

// The register ops fused_fft_pass (simd_internal.h) runs, in either
// precision.
struct Avx512Ops {
  static __m512d load(const double* p) { return _mm512_loadu_pd(p); }
  static __m512 load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(double* p, __m512d v) { _mm512_storeu_pd(p, v); }
  static void store(float* p, __m512 v) { _mm512_storeu_ps(p, v); }
  template <typename T, typename V>
  static auto load_tw(const T* p, V flip) {
    return simd::load_tw(p, flip);
  }
  template <typename V, typename W>
  static void bfly(V& a, V& b, W w) {
    simd::bfly(a, b, w);
  }
};

// Four complex doubles per register. Each 8-point block arrives as
// a = points 0, 2, 4, 6 and b = points 1, 3, 5, 7, gathered straight from
// the source at their bit-reversed positions, and runs stages 1, 2 and 4
// in registers; the rest is fused_fft_pass. In place it is the reference.
void avx512_fft_pass(const double* in, double* d, std::size_t m,
                     const std::uint32_t* bitrev, const cplx* stage_tw,
                     bool conj_w) {
  if (m < 8 || in == d) {
    fft_pass_ref(in, d, m, bitrev, stage_tw, conj_w);
    return;
  }
  const auto* tw = reinterpret_cast<const double*>(stage_tw);
  const __m512d flip = conj_w ? neg_odd_pd() : neg_even_pd();
  // Stage twiddles laid out for the dealt lanes: stage 1's one factor in
  // every unit, stage 2's two as [w0 w0 w1 w1], stage 4's four in order.
  const TwPd w1 = split(_mm512_broadcast_f64x2(_mm_loadu_pd(tw)), flip);
  const __m512d w2x = _mm512_broadcast_f64x4(_mm256_loadu_pd(tw + 2));
  const TwPd w2 = split(_mm512_shuffle_f64x2(w2x, w2x, 0x50), flip);
  const TwPd w4 = load_tw(tw + 6, flip);
  // One 128-bit load per point: on current cores four loads and three
  // inserts beat a hardware gather of the same eight doubles.
  const auto point = [&](std::size_t i) {
    return in + 2 * static_cast<std::size_t>(bitrev[i]);
  };
  const auto four = [&](std::size_t i) {  // points i, i + 2, i + 4, i + 6
    return _mm512_insertf64x4(
        _mm512_castpd256_pd512(_mm256_loadu2_m128d(point(i + 2), point(i))),
        _mm256_loadu2_m128d(point(i + 6), point(i + 4)), 1);
  };
  const auto gather = [&](std::size_t s, __m512d& a, __m512d& b) {
    a = four(s);
    b = four(s + 1);
  };
  const auto stages = [&](__m512d& a, __m512d& b) {
    bfly(a, b, w1);
    deal(a, b);
    bfly(a, b, w2);
    deal(a, b);
    bfly(a, b, w4);
  };
  fused_fft_pass<Avx512Ops>(d, m, bitrev, tw, flip, gather, stages);
}

// Packed real-FFT untwiddles, four bins per register: the mirrored bins
// h - k come from one load reversed by 128-bit unit, the products keep the
// butterfly's unfused tree, and every negation is a sign-bit XOR.
void avx512_rfft_untwiddle(const cplx* z, cplx* out, const cplx* tw,
                           std::size_t h) {
  rfft_untwiddle_edges(z, out, h);
  const auto* zd = reinterpret_cast<const double*>(z);
  const auto* wd = reinterpret_cast<const double*>(tw);
  auto* od = reinterpret_cast<double*>(out);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d half_pm = _mm512_set_pd(-0.5, 0.5, -0.5, 0.5, -0.5, 0.5,
                                        -0.5, 0.5);
  std::size_t k = 1;
  for (; k + 4 <= h; k += 4) {
    const __m512d zv = _mm512_loadu_pd(zd + 2 * k);
    const __m512d r = _mm512_loadu_pd(zd + 2 * (h - k - 3));
    const __m512d c =
        _mm512_xor_pd(_mm512_shuffle_f64x2(r, r, 0x1B), neg_odd_pd());
    const __m512d e = _mm512_mul_pd(half, _mm512_add_pd(zv, c));
    const __m512d o = _mm512_mul_pd(half_pm, swap_ri(_mm512_sub_pd(zv, c)));
    _mm512_storeu_pd(
        od + 2 * k,
        _mm512_add_pd(e, cmul_tree(o, load_tw(wd + 2 * k, neg_even_pd()))));
  }
  rfft_untwiddle_bins_ref(z, out, tw, h, k, h);
}

void avx512_irfft_untwiddle(const cplx* x, cplx* z, const cplx* tw,
                            std::size_t h) {
  const auto* xd = reinterpret_cast<const double*>(x);
  const auto* wd = reinterpret_cast<const double*>(tw);
  auto* zd = reinterpret_cast<double*>(z);
  const __m512d half = _mm512_set1_pd(0.5);
  std::size_t k = 0;
  for (; k + 4 <= h; k += 4) {
    const __m512d xv = _mm512_loadu_pd(xd + 2 * k);
    const __m512d r = _mm512_loadu_pd(xd + 2 * (h - k - 3));
    const __m512d c =
        _mm512_xor_pd(_mm512_shuffle_f64x2(r, r, 0x1B), neg_odd_pd());
    const __m512d e = _mm512_mul_pd(half, _mm512_add_pd(xv, c));
    const __m512d p = _mm512_mul_pd(half, _mm512_sub_pd(xv, c));
    // O = conj(W^k) * P, then (er - o_im, ei + o_re).
    const __m512d o = cmul_tree(p, load_tw(wd + 2 * k, neg_odd_pd()));
    _mm512_storeu_pd(
        zd + 2 * k, _mm512_add_pd(e, _mm512_xor_pd(swap_ri(o), neg_even_pd())));
  }
  irfft_untwiddle_bins_ref(x, z, tw, h, k, h);
}

void avx512_scale(double* x, std::size_t n, double s) {
  const __m512d sv = _mm512_set1_pd(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(_mm512_loadu_pd(x + i), sv));
  }
  scale_ref(x + i, n - i, s);
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

// V registers of running sums held across the whole run (see the AVX2
// block); the tail narrower than one register runs masked at full width.
template <int V>
void avx512_sdft_block_f(float* acc, const float* rows, const float* x_old,
                         const float* x_new, std::size_t samples,
                         std::size_t width) {
  __m512 a[V];
  for (int v = 0; v < V; ++v) a[v] = _mm512_loadu_ps(acc + 16 * v);
  for (std::size_t i = 0; i < samples; ++i) {
    const __m512 d = _mm512_set1_ps(x_new[i] - x_old[i]);
    const float* row = rows + i * width;
    for (int v = 0; v < V; ++v) {
      a[v] = _mm512_fmadd_ps(d, _mm512_loadu_ps(row + 16 * v), a[v]);
    }
  }
  for (int v = 0; v < V; ++v) _mm512_storeu_ps(acc + 16 * v, a[v]);
}

void avx512_sdft_update_f(float* acc, const float* rows, const float* x_old,
                          const float* x_new, std::size_t samples,
                          std::size_t width) {
  const std::size_t j =
      sdft_register_blocks<16>(width, [&]<int V>(std::size_t c) {
        avx512_sdft_block_f<V>(acc + c, rows + c, x_old, x_new, samples,
                               width);
      });
  if (j == width) return;
  const auto m = static_cast<__mmask16>((1u << (width - j)) - 1u);
  __m512 a = _mm512_maskz_loadu_ps(m, acc + j);
  for (std::size_t i = 0; i < samples; ++i) {
    const __m512 d = _mm512_set1_ps(x_new[i] - x_old[i]);
    a = _mm512_fmadd_ps(d, _mm512_maskz_loadu_ps(m, rows + i * width + j), a);
  }
  _mm512_mask_storeu_ps(acc + j, m, a);
}

// A complex float is one 64-bit unit: the single-precision deal splits a
// register pair into its even and odd 64-bit units.
inline void deal(__m512& a, __m512& b) {
  const __m512d x = _mm512_castps_pd(a), y = _mm512_castps_pd(b);
  a = _mm512_castpd_ps(_mm512_permutex2var_pd(
      x, _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0), y));
  b = _mm512_castpd_ps(_mm512_permutex2var_pd(
      x, _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1), y));
}

// The eight complex floats from tw spread so unit u holds tw[units[u]]:
// the lane layout of a dealt in-register stage.
inline TwPs spread_tw(const float* tw, __m512i units, __m512 flip) {
  return split(_mm512_castpd_ps(_mm512_permutexvar_pd(
      units, _mm512_castps_pd(_mm512_loadu_ps(tw)))), flip);
}

// Eight complex floats per register: each 16-point block arrives as its
// even and its odd points and runs stages 1, 2, 4 and 8 in registers (the
// deals bring it back to natural order). The rest is fused_fft_pass, as
// in the double pass.
void avx512_fft_pass_f(const float* in, float* d, std::size_t m,
                       const std::uint32_t* bitrev, const cplxf* stage_tw,
                       bool conj_w) {
  if (m < 16 || in == d) {
    fft_pass_ref(in, d, m, bitrev, stage_tw, conj_w);
    return;
  }
  const auto* tw = reinterpret_cast<const float*>(stage_tw);
  const __m512 flip = conj_w ? neg_odd_ps() : neg_even_ps();
  // Dealt lane layouts: stage 1's factor everywhere, stage 2's two as
  // [w0 x4, w1 x4], stage 4's four as [w0 w0 w1 w1 ...], stage 8's eight
  // in order.
  const TwPs w1 = spread_tw(tw, _mm512_setzero_si512(), flip);
  const TwPs w2 =
      spread_tw(tw + 2, _mm512_set_epi64(1, 1, 1, 1, 0, 0, 0, 0), flip);
  const TwPs w4 =
      spread_tw(tw + 6, _mm512_set_epi64(3, 3, 2, 2, 1, 1, 0, 0), flip);
  const TwPs w8 = load_tw(tw + 14, flip);
  // A point is one 64-bit unit, loaded on its own (any alignment) and
  // paired up: on current cores that beats a hardware gather.
  const auto two = [&](std::size_t i) {  // points i, i + 2
    return _mm_unpacklo_epi64(
        _mm_loadu_si64(in + 2 * static_cast<std::size_t>(bitrev[i])),
        _mm_loadu_si64(in + 2 * static_cast<std::size_t>(bitrev[i + 2])));
  };
  const auto eight = [&](std::size_t i) {  // points i, i + 2, ..., i + 14
    const __m256i lo = _mm256_inserti128_si256(
        _mm256_castsi128_si256(two(i)), two(i + 4), 1);
    const __m256i hi = _mm256_inserti128_si256(
        _mm256_castsi128_si256(two(i + 8)), two(i + 12), 1);
    return _mm512_castsi512_ps(
        _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1));
  };
  const auto gather = [&](std::size_t s, __m512& a, __m512& b) {
    a = eight(s);
    b = eight(s + 1);
  };
  const auto stages = [&](__m512& a, __m512& b) {
    bfly(a, b, w1);
    deal(a, b);
    bfly(a, b, w2);
    deal(a, b);
    bfly(a, b, w4);
    deal(a, b);
    bfly(a, b, w8);
  };
  fused_fft_pass<Avx512Ops>(d, m, bitrev, tw, flip, gather, stages);
}

// Eight bins per register; the mirrored bins come from one load reversed
// by 64-bit unit.
void avx512_rfft_untwiddle_f(const cplxf* z, cplxf* out, const cplxf* tw,
                             std::size_t h) {
  rfft_untwiddle_edges(z, out, h);
  const auto* zf = reinterpret_cast<const float*>(z);
  const auto* wf = reinterpret_cast<const float*>(tw);
  auto* of = reinterpret_cast<float*>(out);
  const __m512i reverse = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 half_pm = _mm512_castpd_ps(_mm512_set1_pd(
      std::bit_cast<double>(std::array<float, 2>{0.5f, -0.5f})));
  std::size_t k = 1;
  for (; k + 8 <= h; k += 8) {
    const __m512 zv = _mm512_loadu_ps(zf + 2 * k);
    const __m512 r = _mm512_loadu_ps(zf + 2 * (h - k - 7));
    const __m512 c = _mm512_xor_ps(
        _mm512_castpd_ps(_mm512_permutexvar_pd(reverse, _mm512_castps_pd(r))),
        neg_odd_ps());
    const __m512 e = _mm512_mul_ps(half, _mm512_add_ps(zv, c));
    const __m512 o = _mm512_mul_ps(half_pm, swap_ri(_mm512_sub_ps(zv, c)));
    _mm512_storeu_ps(
        of + 2 * k,
        _mm512_add_ps(e, cmul_tree(o, load_tw(wf + 2 * k, neg_even_ps()))));
  }
  rfft_untwiddle_bins_ref(z, out, tw, h, k, h);
}

void avx512_irfft_untwiddle_f(const cplxf* x, cplxf* z, const cplxf* tw,
                              std::size_t h) {
  const auto* xf = reinterpret_cast<const float*>(x);
  const auto* wf = reinterpret_cast<const float*>(tw);
  auto* zf = reinterpret_cast<float*>(z);
  const __m512i reverse = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512 half = _mm512_set1_ps(0.5f);
  std::size_t k = 0;
  for (; k + 8 <= h; k += 8) {
    const __m512 xv = _mm512_loadu_ps(xf + 2 * k);
    const __m512 r = _mm512_loadu_ps(xf + 2 * (h - k - 7));
    const __m512 c = _mm512_xor_ps(
        _mm512_castpd_ps(_mm512_permutexvar_pd(reverse, _mm512_castps_pd(r))),
        neg_odd_ps());
    const __m512 e = _mm512_mul_ps(half, _mm512_add_ps(xv, c));
    const __m512 p = _mm512_mul_ps(half, _mm512_sub_ps(xv, c));
    const __m512 o = cmul_tree(p, load_tw(wf + 2 * k, neg_odd_ps()));
    _mm512_storeu_ps(
        zf + 2 * k, _mm512_add_ps(e, _mm512_xor_ps(swap_ri(o), neg_even_ps())));
  }
  irfft_untwiddle_bins_ref(x, z, tw, h, k, h);
}

void avx512_scale_f(float* x, std::size_t n, float s) {
  const __m512 sv = _mm512_set1_ps(s);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_mul_ps(_mm512_loadu_ps(x + i), sv));
  }
  scale_ref(x + i, n - i, s);
}

constexpr Kernels kAvx512Kernels{"avx512",
                                 avx512_cmul_inplace,
                                 avx512_dot,
                                 avx512_fft_pass,
                                 avx512_rfft_untwiddle,
                                 avx512_irfft_untwiddle,
                                 avx512_scale,
                                 avx512_cmul_inplace_f,
                                 avx512_dot_f,
                                 avx512_sdft_update_f,
                                 avx512_fft_pass_f,
                                 avx512_rfft_untwiddle_f,
                                 avx512_irfft_untwiddle_f,
                                 avx512_scale_f};

}  // namespace

const Kernels* avx512_kernels() { return &kAvx512Kernels; }

}  // namespace aqua::dsp::simd

#endif  // AQUA_SIMD_HAVE_AVX512
