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

// fir runs lane-major: a run of 4 * G consecutive outputs keeps one
// accumulator per (dot lane l, group g), whose element r holds lane l of
// output o + 4g + r. Tap i adds broadcast(a[i]) * x[o + 4g + r + i] to
// lane i mod 4 in ascending i, and the lanes reduce as (l0 + l1) +
// (l2 + l3): dot's exact tree for every output, with each tap broadcast
// shared by the whole run and 4 * G independent FMA chains in flight.
template <std::size_t G>
void avx2_fir_run(const double* a, const double* x, double* out,
                  std::size_t t) {
  __m256d acc[4][G];
  for (std::size_t l = 0; l < 4; ++l) {
    for (std::size_t g = 0; g < G; ++g) acc[l][g] = _mm256_setzero_pd();
  }
  const auto tap = [&](std::size_t l, std::size_t i) {
    const __m256d av = _mm256_set1_pd(a[i]);
    for (std::size_t g = 0; g < G; ++g) {
      acc[l][g] = _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i + 4 * g),
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
    _mm256_storeu_pd(out + 4 * g,
                     _mm256_add_pd(_mm256_add_pd(acc[0][g], acc[1][g]),
                                   _mm256_add_pd(acc[2][g], acc[3][g])));
  }
}

void avx2_fir(const double* a, const double* x, double* out, std::size_t t,
             std::size_t n) {
  std::size_t o = 0;
  for (; o + 8 <= n; o += 8) avx2_fir_run<2>(a, x + o, out + o, t);
  for (; o + 4 <= n; o += 4) avx2_fir_run<1>(a, x + o, out + o, t);
  for (; o < n; ++o) out[o] = avx2_dot(a, x + o, t);
}

// One butterfly per complex lane: v = b * w with the legacy unfused tree
// (separate mul then addsub — no contraction; even lanes br*wr - bi*wi,
// odd lanes bi*wr + br*wi), then a' = a + v, b' = a - v.
inline void bfly(__m256d& a, __m256d& b, __m256d w) {
  const __m256d wr = _mm256_movedup_pd(w);          // [wr0 wr0 wr1 wr1]
  const __m256d wi = _mm256_permute_pd(w, 0b1111);  // [wi0 wi0 wi1 wi1]
  const __m256d bs = _mm256_permute_pd(b, 0b0101);  // [bi0 br0 bi1 br1]
  const __m256d v = _mm256_addsub_pd(_mm256_mul_pd(b, wr),
                                     _mm256_mul_pd(bs, wi));
  const __m256d u = a;
  a = _mm256_add_pd(u, v);
  b = _mm256_sub_pd(u, v);
}

// permute2f128 selectors: low 128-bit halves of (x, y), high halves.
constexpr int kLowHalves = 0x20;   // [x.lo y.lo]
constexpr int kHighHalves = 0x31;  // [x.hi y.hi]

// Two complex doubles per register. The 1-point half-blocks are narrower
// than a register, so that stage gathers two blocks into each (a, b)
// register pair and scatters them back; every wider stage runs its blocks
// straight from memory.
void avx2_fft_pass(cplx* data, std::size_t m, const cplx* stage_tw,
                   bool conj_w) {
  if (m < 4) {
    fft_pass_ref(data, m, stage_tw, conj_w);
    return;
  }
  auto* d = reinterpret_cast<double*>(data);
  const auto* tw = reinterpret_cast<const double*>(stage_tw);
  // XOR-ing the imaginary lanes with -0.0 conjugates exactly (sign flip).
  const __m256d conj_mask = conj_w ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
                                   : _mm256_setzero_pd();
  {
    const __m128d w1 = _mm_loadu_pd(tw);
    const __m256d w = _mm256_xor_pd(_mm256_set_m128d(w1, w1), conj_mask);
    for (std::size_t s = 0; s < m; s += 4) {
      const __m256d z0 = _mm256_loadu_pd(d + 2 * s);
      const __m256d z1 = _mm256_loadu_pd(d + 2 * s + 4);
      __m256d a = _mm256_permute2f128_pd(z0, z1, kLowHalves);
      __m256d b = _mm256_permute2f128_pd(z0, z1, kHighHalves);
      bfly(a, b, w);
      _mm256_storeu_pd(d + 2 * s, _mm256_permute2f128_pd(a, b, kLowHalves));
      _mm256_storeu_pd(d + 2 * s + 4,
                       _mm256_permute2f128_pd(a, b, kHighHalves));
    }
  }
  for (std::size_t half = 2; half < m; half <<= 1) {
    const double* w = tw + 2 * (half - 1);
    for (std::size_t s = 0; s < m; s += 2 * half) {
      double* ad = d + 2 * s;
      double* bd = ad + 2 * half;
      for (std::size_t k = 0; k < 2 * half; k += 4) {
        __m256d a = _mm256_loadu_pd(ad + k);
        __m256d b = _mm256_loadu_pd(bd + k);
        bfly(a, b, _mm256_xor_pd(_mm256_loadu_pd(w + k), conj_mask));
        _mm256_storeu_pd(ad + k, a);
        _mm256_storeu_pd(bd + k, b);
      }
    }
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

inline void bfly(__m256& a, __m256& b, __m256 w) {
  const __m256 wr = _mm256_moveldup_ps(w);
  const __m256 wi = _mm256_movehdup_ps(w);
  const __m256 bs = _mm256_permute_ps(b, 0b10110001);
  const __m256 v = _mm256_addsub_ps(_mm256_mul_ps(b, wr),
                                    _mm256_mul_ps(bs, wi));
  const __m256 u = a;
  a = _mm256_add_ps(u, v);
  b = _mm256_sub_ps(u, v);
}

// Four complex floats per register: the 1- and 2-point half-blocks are
// narrower than a register. A complex float is one 64-bit unit, so
// half = 1 pairs 64-bit units (unpacklo/hi_pd) and half = 2 moves 128-bit
// halves (as double's half = 1).
void avx2_fft_pass_f(cplxf* data, std::size_t m, const cplxf* stage_tw,
                     bool conj_w) {
  if (m < 8) {
    fft_pass_ref(data, m, stage_tw, conj_w);
    return;
  }
  auto* d = reinterpret_cast<float*>(data);
  const auto* tw = reinterpret_cast<const float*>(stage_tw);
  const __m256 conj_mask =
      conj_w ? _mm256_set_ps(-0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f,
                             0.0f)
             : _mm256_setzero_ps();
  const auto load = [d](std::size_t i) {
    return _mm256_castps_pd(_mm256_loadu_ps(d + 2 * i));
  };
  const auto store = [d](std::size_t i, __m256d v) {
    _mm256_storeu_ps(d + 2 * i, _mm256_castpd_ps(v));
  };
  const auto butterfly = [&](__m256d& a, __m256d& b, __m256 w) {
    __m256 af = _mm256_castpd_ps(a);
    __m256 bf = _mm256_castpd_ps(b);
    bfly(af, bf, _mm256_xor_ps(w, conj_mask));
    a = _mm256_castps_pd(af);
    b = _mm256_castps_pd(bf);
  };
  {
    double w0 = 0.0;  // the complex twiddle's 64 bits
    std::memcpy(&w0, tw, sizeof w0);
    const __m256 w = _mm256_castpd_ps(_mm256_set1_pd(w0));
    for (std::size_t s = 0; s < m; s += 8) {
      const __m256d z0 = load(s), z1 = load(s + 4);
      __m256d a = _mm256_unpacklo_pd(z0, z1);
      __m256d b = _mm256_unpackhi_pd(z0, z1);
      butterfly(a, b, w);
      store(s, _mm256_unpacklo_pd(a, b));
      store(s + 4, _mm256_unpackhi_pd(a, b));
    }
  }
  {
    const __m128 w2 = _mm_loadu_ps(tw + 2);  // stage_tw[1, 3)
    const __m256 w = _mm256_set_m128(w2, w2);
    for (std::size_t s = 0; s < m; s += 8) {
      const __m256d z0 = load(s), z1 = load(s + 4);
      __m256d a = _mm256_permute2f128_pd(z0, z1, kLowHalves);
      __m256d b = _mm256_permute2f128_pd(z0, z1, kHighHalves);
      butterfly(a, b, w);
      store(s, _mm256_permute2f128_pd(a, b, kLowHalves));
      store(s + 4, _mm256_permute2f128_pd(a, b, kHighHalves));
    }
  }
  for (std::size_t half = 4; half < m; half <<= 1) {
    const float* w = tw + 2 * (half - 1);
    for (std::size_t s = 0; s < m; s += 2 * half) {
      float* ad = d + 2 * s;
      float* bd = ad + 2 * half;
      for (std::size_t k = 0; k < 2 * half; k += 8) {
        __m256 a = _mm256_loadu_ps(ad + k);
        __m256 b = _mm256_loadu_ps(bd + k);
        bfly(a, b, _mm256_xor_ps(_mm256_loadu_ps(w + k), conj_mask));
        _mm256_storeu_ps(ad + k, a);
        _mm256_storeu_ps(bd + k, b);
      }
    }
  }
}

constexpr Kernels kAvx2Kernels{"avx2",
                               avx2_cmul_inplace,
                               avx2_dot,
                               avx2_fir,
                               avx2_fft_pass,
                               avx2_cmul_inplace_f,
                               avx2_dot_f,
                               avx2_sdft_update_f,
                               avx2_fft_pass_f};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace aqua::dsp::simd

#endif  // AQUA_SIMD_HAVE_AVX2
