// AVX-512 kernel table. This translation unit is the only one compiled with
// -mavx512f -mavx512vl -mavx512dq (see CMakeLists.txt); it is entered only
// after cpu_supports(Isa::kAvx512) confirmed the instructions exist, so the
// rest of the library stays runnable on any x86-64.
//
// Bit-identity discipline: the dot kernel keeps the FIXED lane-accumulator
// structure of the scalar reference (4 double / 8 float lanes), so it runs
// at 256-bit width — widening the accumulator to 512 bits would change the
// reduction tree and the results. fir keeps that tree per output but turns
// it lane-major (one register of consecutive outputs per dot lane), so it
// gets the full width. The element-independent kernels (cmul_inplace,
// sdft_update, fft_pass) have no cross-element state, so they get the full
// 512-bit width; their per-element expression trees match the scalar
// reference exactly. AVX-512 has no addsub instruction, so the butterfly's
// alternating sub/add is spelled as an XOR sign flip of the even (real)
// lanes followed by a plain add — IEEE-exact, x + (-y) == x - y.
#include "dsp/simd_internal.h"

#if defined(AQUA_SIMD_HAVE_AVX512)

#include <immintrin.h>

#include <cstring>

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

// fir runs lane-major: a run of 8 * G consecutive outputs keeps one
// 512-bit accumulator per (dot lane l, group g), whose element r holds lane
// l of output o + 8g + r. Tap i adds broadcast(a[i]) * x[o + 8g + r + i]
// to lane i mod 4 in ascending i, and the lanes reduce as
// (l0 + l1) + (l2 + l3): dot's exact tree for every output, with each tap
// broadcast shared by the whole run and 4 * G independent FMA chains.
template <std::size_t G>
void avx512_fir_run(const double* a, const double* x, double* out,
                    std::size_t t) {
  __m512d acc[4][G];
  for (std::size_t l = 0; l < 4; ++l) {
    for (std::size_t g = 0; g < G; ++g) acc[l][g] = _mm512_setzero_pd();
  }
  const auto tap = [&](std::size_t l, std::size_t i) {
    const __m512d av = _mm512_set1_pd(a[i]);
    for (std::size_t g = 0; g < G; ++g) {
      acc[l][g] = _mm512_fmadd_pd(av, _mm512_loadu_pd(x + i + 8 * g),
                                  acc[l][g]);
    }
  };
  const std::size_t t4 = t & ~std::size_t{3};
  for (std::size_t i = 0; i < t4; i += 4) {
    tap(0, i);
    tap(1, i + 1);
    tap(2, i + 2);
    tap(3, i + 3);
  }
  for (std::size_t l = 0; l < 3; ++l) {
    if (t4 + l < t) tap(l, t4 + l);
  }
  for (std::size_t g = 0; g < G; ++g) {
    _mm512_storeu_pd(out + 8 * g,
                     _mm512_add_pd(_mm512_add_pd(acc[0][g], acc[1][g]),
                                   _mm512_add_pd(acc[2][g], acc[3][g])));
  }
}

void avx512_fir(const double* a, const double* x, double* out,
                std::size_t t, std::size_t n) {
  std::size_t o = 0;
  for (; o + 16 <= n; o += 16) avx512_fir_run<2>(a, x + o, out + o, t);
  for (; o + 8 <= n; o += 8) avx512_fir_run<1>(a, x + o, out + o, t);
  for (; o < n; ++o) out[o] = avx512_dot(a, x + o, t);
}

// One butterfly per complex lane: v = b * w with the legacy unfused tree,
// then a' = a + v, b' = a - v. `w` arrives already conjugated if asked.
inline void bfly(__m512d& a, __m512d& b, __m512d w) {
  // Flips the even (real) lanes of the cross product so a plain add
  // reproduces addsub: [br*wr - bi*wi, bi*wr + br*wi].
  const __m512d neg_even =
      _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
  const __m512d wr = _mm512_movedup_pd(w);
  const __m512d wi = _mm512_permute_pd(w, 0xFF);
  const __m512d bs = _mm512_permute_pd(b, 0x55);  // [bi br ...]
  const __m512d t = _mm512_xor_pd(_mm512_mul_pd(bs, wi), neg_even);
  const __m512d v = _mm512_add_pd(_mm512_mul_pd(b, wr), t);
  const __m512d u = a;
  a = _mm512_add_pd(u, v);
  b = _mm512_sub_pd(u, v);
}

// Interleaves 128-bit units of two registers: lo = [a0 b0 a1 b1],
// hi = [a2 b2 a3 b3] (indices count 64-bit elements; 8+ selects b).
inline __m512d zip128_lo(__m512d a, __m512d b) {
  return _mm512_permutex2var_pd(a, _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0),
                                b);
}
inline __m512d zip128_hi(__m512d a, __m512d b) {
  return _mm512_permutex2var_pd(
      a, _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4), b);
}

// 128-bit-unit shuffles of _mm512_shuffle_f64x2 / _f32x4: even units of
// (x, y), odd units, low halves, high halves.
constexpr int kEvenUnits = 0x88;  // [x0 x2 y0 y2]
constexpr int kOddUnits = 0xDD;   // [x1 x3 y1 y3]
constexpr int kLowHalves = 0x44;  // [x0 x1 y0 y1]
constexpr int kHighHalves = 0xEE; // [x2 x3 y2 y3]

// Four complex doubles per register. Half-blocks of 1 and 2 points are
// narrower than a register, so those stages gather 4 and 2 blocks into
// each (a, b) register pair and scatter them back; every wider stage runs
// its blocks straight from memory.
void avx512_fft_pass(cplx* data, std::size_t m, const cplx* stage_tw,
                     bool conj_w) {
  if (m < 8) {
    fft_pass_ref(data, m, stage_tw, conj_w);
    return;
  }
  auto* d = reinterpret_cast<double*>(data);
  const auto* tw = reinterpret_cast<const double*>(stage_tw);
  // XOR with -0.0 on the imaginary lanes conjugates exactly (sign flip).
  const __m512d conj_mask =
      conj_w ? _mm512_set_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0)
             : _mm512_setzero_pd();
  // half = 1: blocks (c0 c1), (c2 c3), ... — a = even points, b = odd.
  {
    const __m512d w = _mm512_xor_pd(
        _mm512_broadcast_f64x2(_mm_loadu_pd(tw)), conj_mask);
    for (std::size_t s = 0; s < m; s += 8) {
      const __m512d z0 = _mm512_loadu_pd(d + 2 * s);
      const __m512d z1 = _mm512_loadu_pd(d + 2 * s + 8);
      __m512d a = _mm512_shuffle_f64x2(z0, z1, kEvenUnits);
      __m512d b = _mm512_shuffle_f64x2(z0, z1, kOddUnits);
      bfly(a, b, w);
      _mm512_storeu_pd(d + 2 * s, zip128_lo(a, b));
      _mm512_storeu_pd(d + 2 * s + 8, zip128_hi(a, b));
    }
  }
  // half = 2: blocks (c0 c1 | c2 c3), ... — twiddles stage_tw[1, 3).
  {
    const __m512d w = _mm512_xor_pd(
        _mm512_broadcast_f64x4(_mm256_loadu_pd(tw + 2)), conj_mask);
    for (std::size_t s = 0; s < m; s += 8) {
      const __m512d z0 = _mm512_loadu_pd(d + 2 * s);
      const __m512d z1 = _mm512_loadu_pd(d + 2 * s + 8);
      __m512d a = _mm512_shuffle_f64x2(z0, z1, kLowHalves);
      __m512d b = _mm512_shuffle_f64x2(z0, z1, kHighHalves);
      bfly(a, b, w);
      _mm512_storeu_pd(d + 2 * s, _mm512_shuffle_f64x2(a, b, kLowHalves));
      _mm512_storeu_pd(d + 2 * s + 8,
                       _mm512_shuffle_f64x2(a, b, kHighHalves));
    }
  }
  for (std::size_t half = 4; half < m; half <<= 1) {
    const double* w = tw + 2 * (half - 1);
    for (std::size_t s = 0; s < m; s += 2 * half) {
      double* ad = d + 2 * s;
      double* bd = ad + 2 * half;
      for (std::size_t k = 0; k < 2 * half; k += 8) {
        __m512d a = _mm512_loadu_pd(ad + k);
        __m512d b = _mm512_loadu_pd(bd + k);
        bfly(a, b, _mm512_xor_pd(_mm512_loadu_pd(w + k), conj_mask));
        _mm512_storeu_pd(ad + k, a);
        _mm512_storeu_pd(bd + k, b);
      }
    }
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

inline void bfly(__m512& a, __m512& b, __m512 w) {
  const __m512 neg_even =
      _mm512_set_ps(0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f,
                    -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f);
  const __m512 wr = _mm512_moveldup_ps(w);
  const __m512 wi = _mm512_movehdup_ps(w);
  const __m512 bs = _mm512_permute_ps(b, 0b10110001);
  const __m512 t = _mm512_xor_ps(_mm512_mul_ps(bs, wi), neg_even);
  const __m512 v = _mm512_add_ps(_mm512_mul_ps(b, wr), t);
  const __m512 u = a;
  a = _mm512_add_ps(u, v);
  b = _mm512_sub_ps(u, v);
}

// Eight complex floats per register: the 1-, 2- and 4-point half-blocks
// are narrower than a register. A complex float is one 64-bit unit, so the
// gathers reuse the double-precision unit shuffles: half = 1 pairs 64-bit
// units (unpacklo/hi), half = 2 moves 128-bit units (as double's half = 1),
// half = 4 moves 256-bit halves (as double's half = 2).
void avx512_fft_pass_f(cplxf* data, std::size_t m, const cplxf* stage_tw,
                       bool conj_w) {
  if (m < 16) {
    fft_pass_ref(data, m, stage_tw, conj_w);
    return;
  }
  auto* d = reinterpret_cast<float*>(data);
  const auto* tw = reinterpret_cast<const float*>(stage_tw);
  const __m512 conj_mask =
      conj_w ? _mm512_set_ps(-0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f,
                             0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f,
                             -0.0f, 0.0f)
             : _mm512_setzero_ps();
  const auto load = [d](std::size_t i) {
    return _mm512_castps_pd(_mm512_loadu_ps(d + 2 * i));
  };
  const auto store = [d](std::size_t i, __m512d v) {
    _mm512_storeu_ps(d + 2 * i, _mm512_castpd_ps(v));
  };
  const auto butterfly = [&](__m512d& a, __m512d& b, __m512 w) {
    __m512 af = _mm512_castpd_ps(a);
    __m512 bf = _mm512_castpd_ps(b);
    bfly(af, bf, _mm512_xor_ps(w, conj_mask));
    a = _mm512_castps_pd(af);
    b = _mm512_castps_pd(bf);
  };
  // half = 1: a = even points, b = odd, twiddle stage_tw[0] everywhere.
  {
    double w0 = 0.0;  // the complex twiddle's 64 bits
    std::memcpy(&w0, tw, sizeof w0);
    const __m512 w = _mm512_castpd_ps(_mm512_set1_pd(w0));
    for (std::size_t s = 0; s < m; s += 16) {
      const __m512d z0 = load(s), z1 = load(s + 8);
      __m512d a = _mm512_unpacklo_pd(z0, z1);
      __m512d b = _mm512_unpackhi_pd(z0, z1);
      butterfly(a, b, w);
      store(s, _mm512_unpacklo_pd(a, b));
      store(s + 8, _mm512_unpackhi_pd(a, b));
    }
  }
  // half = 2: twiddles stage_tw[1, 3) in every 128-bit unit.
  {
    const __m512 w = _mm512_broadcast_f32x4(_mm_loadu_ps(tw + 2));
    for (std::size_t s = 0; s < m; s += 16) {
      const __m512d z0 = load(s), z1 = load(s + 8);
      __m512d a = _mm512_shuffle_f64x2(z0, z1, kEvenUnits);
      __m512d b = _mm512_shuffle_f64x2(z0, z1, kOddUnits);
      butterfly(a, b, w);
      store(s, zip128_lo(a, b));
      store(s + 8, zip128_hi(a, b));
    }
  }
  // half = 4: twiddles stage_tw[3, 7) in both 256-bit halves.
  {
    const __m512 w = _mm512_castpd_ps(_mm512_broadcast_f64x4(
        _mm256_castps_pd(_mm256_loadu_ps(tw + 6))));
    for (std::size_t s = 0; s < m; s += 16) {
      const __m512d z0 = load(s), z1 = load(s + 8);
      __m512d a = _mm512_shuffle_f64x2(z0, z1, kLowHalves);
      __m512d b = _mm512_shuffle_f64x2(z0, z1, kHighHalves);
      butterfly(a, b, w);
      store(s, _mm512_shuffle_f64x2(a, b, kLowHalves));
      store(s + 8, _mm512_shuffle_f64x2(a, b, kHighHalves));
    }
  }
  for (std::size_t half = 8; half < m; half <<= 1) {
    const float* w = tw + 2 * (half - 1);
    for (std::size_t s = 0; s < m; s += 2 * half) {
      float* ad = d + 2 * s;
      float* bd = ad + 2 * half;
      for (std::size_t k = 0; k < 2 * half; k += 16) {
        __m512 a = _mm512_loadu_ps(ad + k);
        __m512 b = _mm512_loadu_ps(bd + k);
        bfly(a, b, _mm512_xor_ps(_mm512_loadu_ps(w + k), conj_mask));
        _mm512_storeu_ps(ad + k, a);
        _mm512_storeu_ps(bd + k, b);
      }
    }
  }
}

constexpr Kernels kAvx512Kernels{"avx512",
                                 avx512_cmul_inplace,
                                 avx512_dot,
                                 avx512_fir,
                                 avx512_fft_pass,
                                 avx512_cmul_inplace_f,
                                 avx512_dot_f,
                                 avx512_sdft_update_f,
                                 avx512_fft_pass_f};

}  // namespace

const Kernels* avx512_kernels() { return &kAvx512Kernels; }

}  // namespace aqua::dsp::simd

#endif  // AQUA_SIMD_HAVE_AVX512
