// AArch64 NEON kernel table. Advanced SIMD is part of the AArch64 baseline,
// so this TU needs no special compile flags — CMake simply includes it on
// ARM builds.
//
// The kernels reproduce the scalar reference expression tree exactly
// (vfmaq_f64 pairs with std::fma; the two 128-bit accumulators hold lanes
// {0,1} and {2,3} of the shared 4-lane structure; reductions run in the
// fixed (l0 + l1) + (l2 + l3) order), so results are bit-identical to the
// scalar kernels.
#include "dsp/simd_internal.h"

#if defined(AQUA_SIMD_HAVE_NEON)

#include <arm_neon.h>

#include <cstring>

namespace aqua::dsp::simd {

namespace {

void neon_cmul_inplace(cplx* y, const cplx* x, std::size_t n) {
  auto* yd = reinterpret_cast<double*>(y);
  const auto* xd = reinterpret_cast<const double*>(x);
  for (std::size_t i = 0; i < n; ++i) {
    const float64x2_t yv = vld1q_f64(yd + 2 * i);       // [yr yi]
    const float64x2_t xv = vld1q_f64(xd + 2 * i);       // [xr xi]
    const float64x2_t ys = vextq_f64(yv, yv, 1);        // [yi yr]
    const float64x2_t xi = vdupq_laneq_f64(xv, 1);      // [xi xi]
    float64x2_t t = vmulq_f64(ys, xi);                  // [yi*xi yr*xi]
    // Negate lane 0 so the fused multiply-add below lands on
    // re = fma(yr, xr, -(yi*xi)), im = fma(yi, xr, yr*xi).
    t = vsetq_lane_f64(-vgetq_lane_f64(t, 0), t, 0);
    vst1q_f64(yd + 2 * i, vfmaq_laneq_f64(t, yv, xv, 0));
  }
}

double neon_dot(const double* a, const double* b, std::size_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);  // lanes {0, 1}: elements 4k, 4k+1
  float64x2_t acc23 = vdupq_n_f64(0.0);  // lanes {2, 3}: elements 4k+2, 4k+3
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    acc01 = vfmaq_f64(acc01, vld1q_f64(a + i), vld1q_f64(b + i));
    acc23 = vfmaq_f64(acc23, vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
  }
  double lane[4] = {vgetq_lane_f64(acc01, 0), vgetq_lane_f64(acc01, 1),
                    vgetq_lane_f64(acc23, 0), vgetq_lane_f64(acc23, 1)};
  for (std::size_t i = n4; i < n; ++i) {
    lane[i & 3] = __builtin_fma(a[i], b[i], lane[i & 3]);
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

// The whole radix-2 pass: the reference permutation, then the stages. One
// complex double fills a register, so every stage runs its blocks straight
// from memory, one butterfly per point.
void neon_fft_pass(const double* in, double* d, std::size_t m,
                   const std::uint32_t* bitrev, const cplx* stage_tw,
                   bool conj_w) {
  bitrev_ref(in, d, m, bitrev);
  const auto* tw = reinterpret_cast<const double*>(stage_tw);
  // XOR-ing with -0.0 flips signs exactly: conj_mask negates the imaginary
  // lane of w, neg_even negates the real lane of the cross product so a
  // plain add yields the br*wr - bi*wi / bi*wr + br*wi legacy tree.
  const std::uint64_t sign = 0x8000000000000000ull;
  const uint64x2_t conj_mask =
      conj_w ? vsetq_lane_u64(sign, vdupq_n_u64(0), 1) : vdupq_n_u64(0);
  const uint64x2_t neg_even = vsetq_lane_u64(sign, vdupq_n_u64(0), 0);
  for (std::size_t half = 1; half < m; half <<= 1) {
    const double* wd = tw + 2 * (half - 1);
    for (std::size_t s = 0; s < m; s += 2 * half) {
      double* ad = d + 2 * s;
      double* bd = ad + 2 * half;
      for (std::size_t i = 0; i < half; ++i) {
        const float64x2_t wv = vreinterpretq_f64_u64(veorq_u64(
            vreinterpretq_u64_f64(vld1q_f64(wd + 2 * i)), conj_mask));
        const float64x2_t bv = vld1q_f64(bd + 2 * i);  // [br bi]
        const float64x2_t bs = vextq_f64(bv, bv, 1);   // [bi br]
        const float64x2_t m1 =
            vmulq_f64(bv, vdupq_laneq_f64(wv, 0));  // [br*wr bi*wr]
        float64x2_t m2 =
            vmulq_f64(bs, vdupq_laneq_f64(wv, 1));  // [bi*wi br*wi]
        m2 = vreinterpretq_f64_u64(
            veorq_u64(vreinterpretq_u64_f64(m2), neg_even));
        const float64x2_t v = vaddq_f64(m1, m2);  // [br*wr-bi*wi bi*wr+br*wi]
        const float64x2_t av = vld1q_f64(ad + 2 * i);
        vst1q_f64(ad + 2 * i, vaddq_f64(av, v));
        vst1q_f64(bd + 2 * i, vsubq_f64(av, v));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Single-precision twins: same trees, two complex (four fp32 lanes) per
// 128-bit vector; dot_f holds the 8-lane structure in two accumulators.
// ---------------------------------------------------------------------------

void neon_cmul_inplace_f(cplxf* y, const cplxf* x, std::size_t n) {
  auto* yf = reinterpret_cast<float*>(y);
  const auto* xf = reinterpret_cast<const float*>(x);
  const uint32x4_t neg_even = {0x80000000u, 0u, 0x80000000u, 0u};
  const std::size_t n2 = n & ~std::size_t{1};
  for (std::size_t i = 0; i < n2; i += 2) {
    const float32x4_t yv = vld1q_f32(yf + 2 * i);  // [yr0 yi0 yr1 yi1]
    const float32x4_t xv = vld1q_f32(xf + 2 * i);
    const float32x4_t xr = vtrn1q_f32(xv, xv);  // [xr0 xr0 xr1 xr1]
    const float32x4_t xi = vtrn2q_f32(xv, xv);  // [xi0 xi0 xi1 xi1]
    const float32x4_t ys = vrev64q_f32(yv);     // [yi0 yr0 yi1 yr1]
    float32x4_t t = vmulq_f32(ys, xi);          // [yi*xi yr*xi ...]
    t = vreinterpretq_f32_u32(veorq_u32(vreinterpretq_u32_f32(t), neg_even));
    vst1q_f32(yf + 2 * i, vfmaq_f32(t, yv, xr));
  }
  if (n2 < n) {
    const float yr = y[n2].real(), yi = y[n2].imag();
    const float xr = x[n2].real(), xi = x[n2].imag();
    y[n2] = {__builtin_fmaf(yr, xr, -(yi * xi)),
             __builtin_fmaf(yi, xr, yr * xi)};
  }
}

float neon_dot_f(const float* a, const float* b, std::size_t n) {
  float32x4_t acc03 = vdupq_n_f32(0.0f);  // lanes {0..3}
  float32x4_t acc47 = vdupq_n_f32(0.0f);  // lanes {4..7}
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    acc03 = vfmaq_f32(acc03, vld1q_f32(a + i), vld1q_f32(b + i));
    acc47 = vfmaq_f32(acc47, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  float lane[8] = {vgetq_lane_f32(acc03, 0), vgetq_lane_f32(acc03, 1),
                   vgetq_lane_f32(acc03, 2), vgetq_lane_f32(acc03, 3),
                   vgetq_lane_f32(acc47, 0), vgetq_lane_f32(acc47, 1),
                   vgetq_lane_f32(acc47, 2), vgetq_lane_f32(acc47, 3)};
  for (std::size_t i = n8; i < n; ++i) {
    lane[i & 7] = __builtin_fmaf(a[i], b[i], lane[i & 7]);
  }
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

// V registers of running sums held across the whole run: each sample
// streams one contiguous phasor row (no gather, no per-bin indices).
template <int V>
void neon_sdft_block_f(float* acc, const float* rows, const float* x_old,
                       const float* x_new, std::size_t samples,
                       std::size_t width) {
  float32x4_t a[V];
  for (int v = 0; v < V; ++v) a[v] = vld1q_f32(acc + 4 * v);
  for (std::size_t i = 0; i < samples; ++i) {
    const float d = x_new[i] - x_old[i];
    const float* row = rows + i * width;
    for (int v = 0; v < V; ++v) {
      a[v] = vfmaq_n_f32(a[v], vld1q_f32(row + 4 * v), d);
    }
  }
  for (int v = 0; v < V; ++v) vst1q_f32(acc + 4 * v, a[v]);
}

void neon_sdft_update_f(float* acc, const float* rows, const float* x_old,
                        const float* x_new, std::size_t samples,
                        std::size_t width) {
  const std::size_t j =
      sdft_register_blocks<4>(width, [&]<int V>(std::size_t c) {
        neon_sdft_block_f<V>(acc + c, rows + c, x_old, x_new, samples, width);
      });
  sdft_columns_ref(acc + j, rows + j, x_old, x_new, samples, width - j,
                   width);
}

// Two butterflies of complex floats per register: v = b * w with the
// legacy tree, a' = a + v, b' = a - v. `w` arrives already conjugated.
inline void bfly(float32x4_t& a, float32x4_t& b, float32x4_t w) {
  const uint32x4_t neg_even = {0x80000000u, 0u, 0x80000000u, 0u};
  const float32x4_t wr = vtrn1q_f32(w, w);
  const float32x4_t wi = vtrn2q_f32(w, w);
  const float32x4_t bs = vrev64q_f32(b);
  const float32x4_t m1 = vmulq_f32(b, wr);
  float32x4_t m2 = vmulq_f32(bs, wi);
  m2 = vreinterpretq_f32_u32(veorq_u32(vreinterpretq_u32_f32(m2), neg_even));
  const float32x4_t v = vaddq_f32(m1, m2);
  const float32x4_t u = a;
  a = vaddq_f32(u, v);
  b = vsubq_f32(u, v);
}

// Two complex floats per register: the 1-point half-blocks are narrower
// than a register, so that stage pairs two blocks' 64-bit points into each
// (a, b) register pair (zip1/zip2) and back; wider stages run from memory.
// The permutation is the reference one.
void neon_fft_pass_f(const float* in, float* d, std::size_t m,
                     const std::uint32_t* bitrev, const cplxf* stage_tw,
                     bool conj_w) {
  if (m < 4) {
    fft_pass_ref(in, d, m, bitrev, stage_tw, conj_w);
    return;
  }
  bitrev_ref(in, d, m, bitrev);
  const auto* tw = reinterpret_cast<const float*>(stage_tw);
  const uint32x4_t conj_mask = conj_w
                                   ? uint32x4_t{0u, 0x80000000u, 0u,
                                                0x80000000u}
                                   : vdupq_n_u32(0u);
  const auto conj = [&](float32x4_t w) {
    return vreinterpretq_f32_u32(
        veorq_u32(vreinterpretq_u32_f32(w), conj_mask));
  };
  {
    double w0 = 0.0;  // the complex twiddle's 64 bits
    std::memcpy(&w0, tw, sizeof w0);
    const float32x4_t w = conj(vreinterpretq_f32_f64(vdupq_n_f64(w0)));
    for (std::size_t s = 0; s < m; s += 4) {
      const float64x2_t z0 = vreinterpretq_f64_f32(vld1q_f32(d + 2 * s));
      const float64x2_t z1 = vreinterpretq_f64_f32(vld1q_f32(d + 2 * s + 4));
      float32x4_t a = vreinterpretq_f32_f64(vzip1q_f64(z0, z1));
      float32x4_t b = vreinterpretq_f32_f64(vzip2q_f64(z0, z1));
      bfly(a, b, w);
      const float64x2_t a2 = vreinterpretq_f64_f32(a);
      const float64x2_t b2 = vreinterpretq_f64_f32(b);
      vst1q_f32(d + 2 * s, vreinterpretq_f32_f64(vzip1q_f64(a2, b2)));
      vst1q_f32(d + 2 * s + 4, vreinterpretq_f32_f64(vzip2q_f64(a2, b2)));
    }
  }
  for (std::size_t half = 2; half < m; half <<= 1) {
    const float* w = tw + 2 * (half - 1);
    for (std::size_t s = 0; s < m; s += 2 * half) {
      float* ad = d + 2 * s;
      float* bd = ad + 2 * half;
      for (std::size_t k = 0; k < 2 * half; k += 4) {
        float32x4_t a = vld1q_f32(ad + k);
        float32x4_t b = vld1q_f32(bd + k);
        bfly(a, b, conj(vld1q_f32(w + k)));
        vst1q_f32(ad + k, a);
        vst1q_f32(bd + k, b);
      }
    }
  }
}

// The real-FFT glue runs the scalar reference (compiled here, under this
// TU's flags): NEON versions are left for a host that can test them.
constexpr Kernels kNeonKernels{"neon",
                               neon_cmul_inplace,
                               neon_dot,
                               neon_fft_pass,
                               rfft_untwiddle_ref<double>,
                               irfft_untwiddle_ref<double>,
                               scale_ref<double>,
                               neon_cmul_inplace_f,
                               neon_dot_f,
                               neon_sdft_update_f,
                               neon_fft_pass_f,
                               rfft_untwiddle_ref<float>,
                               irfft_untwiddle_ref<float>,
                               scale_ref<float>};

}  // namespace

const Kernels* neon_kernels() { return &kNeonKernels; }

}  // namespace aqua::dsp::simd

#endif  // AQUA_SIMD_HAVE_NEON
