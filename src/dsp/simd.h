// Runtime-dispatched SIMD kernels for the hot inner loops.
//
// The zero-allocation DSP core reduced every hot path to tight
// span-over-span passes; this header names those passes as five kernel
// families and selects the widest implementation the running CPU supports
// once at startup (AVX-512 or AVX2+FMA on x86-64, NEON on AArch64,
// portable scalar anywhere):
//
//   * `cmul_inplace` — the overlap-save block multiply-accumulate: the
//     pointwise spectrum product at the center of every `FftFilter` block
//     and of every Bluestein transform.
//   * `dot` — the FIR dot product: the preamble sliding segment metric
//     and short-template direct correlation.
//   * `sdft_update` — the sliding-DFT bin update: a run of consecutive
//     samples of `moving_dft_power`'s running recurrence, one fused
//     multiply-add per active bin (real and imaginary part) per sample
//     against a contiguous row of the cached phasor table. The vector
//     targets hold a block of bins in registers for the whole run.
//   * `fft_pass` — one whole power-of-two transform: the bit-reversal
//     permutation plus every radix-2 butterfly stage (twiddle multiply
//     plus add/sub), one kernel call per transform. The vector targets
//     gather the bit-reversed points straight into registers and run the
//     stages narrower than a few registers there before the first store,
//     then run the wider stages two at a time (each block of four
//     quarter-vectors is loaded once for both stages), so the dispatch is
//     paid once per transform and the data crosses memory about half as
//     often as one pass per stage.
//   * the packed real FFT's O(n) glue — `rfft_untwiddle` (split the
//     half-size transform of the even/odd-interleaved samples into the
//     real spectrum), `irfft_untwiddle` (its exact inverse) and `scale`
//     (the inverse transforms' 1/N).
//
// Each family has exactly the precisions the library runs: `cmul_inplace`,
// `dot`, `fft_pass` and the real-FFT glue have a double entry and a float
// entry (`*_f`, twice the lanes at the same vector width — the point of the
// single-precision receive front end); `sdft_update` is float only (the
// tone decoders).
//
// Every implementation of a kernel computes the SAME floating-point
// expression tree — fixed lane-accumulator structure (4 double / 8 float
// lanes for dot), fused multiply-adds (`std::fma` in the scalar build)
// where every target fuses, plain mul/add in the FFT butterflies and the
// real-FFT untwiddles where the legacy std::complex tree must be preserved
// (sign flips as exact XORs), fixed reduction order — so
// the kernels are bit-identical across dispatch targets, not merely
// close. That is what lets the streaming invariants (chunking-invariant
// scanners, thread-count-invariant sweeps) survive vectorization, and it
// is asserted by tests/test_simd.cpp on every target buildable on the
// host. Bit-identity holds per precision: every target's float kernels
// agree with every other target's float kernels, but float results are of
// course not the double results.
//
// Dispatch is decided once (first use) from cpuid; `AQUA_SIMD=scalar`
// (or `avx2` / `avx512` / `neon`) overrides it for A/B measurement and
// testing.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/types.h"

namespace aqua::dsp::simd {

/// Instruction-set targets a kernel table can be built for.
enum class Isa {
  kScalar,  ///< portable C++ (std::fma), always available
  kAvx2,    ///< x86-64 AVX2 + FMA
  kAvx512,  ///< x86-64 AVX-512 (F + VL + DQ)
  kNeon,    ///< AArch64 Advanced SIMD
};

/// One resolved set of kernel entry points. All entries of a table come
/// from the same ISA; tables are immutable and process-lifetime.
struct Kernels {
  /// Human-readable target name ("scalar", "avx2", "avx512", "neon").
  const char* name;

  /// Pointwise in-place complex product: y[i] *= x[i] for i < n.
  /// Per element: re' = fma(yr, xr, -(yi*xi)); im' = fma(yi, xr, yr*xi).
  void (*cmul_inplace)(cplx* y, const cplx* x, std::size_t n);

  /// Fused-multiply-add dot product sum_i a[i] * b[i].
  /// Element i accumulates into lane (i mod 4); lanes reduce as
  /// (l0 + l1) + (l2 + l3). Identical tree on every target.
  double (*dot)(const double* a, const double* b, std::size_t n);

  /// One whole radix-2 transform of `m` (a power of two) points stored as
  /// interleaved (re, im) pairs at any element alignment. First the
  /// bit-reversal permutation `bitrev` (bitrev[i] = i with its log2(m)
  /// bits reversed; the vector targets rely on its structure): out point
  /// i = in point bitrev[i] when `in` and `out` differ (they must not
  /// otherwise overlap), pairwise swaps when they are the same pointer
  /// (the vector targets run the reference then: no hot path is in place).
  /// Then the stages, in order half = 1,
  /// 2, 4, ..., m/2; the stage with half-block h reads its twiddles
  /// w[k] = stage_tw[h - 1 + k], k < h. Each block of 2h points starting
  /// at s does, for k < h, with
  ///   a = out[s + k], b = out[s + h + k],
  ///   w = conj_w ? conj(w[k]) : w[k],
  ///   v = b * w   (plain mul/sub tree: vr = br*wr - bi*wi,
  ///                vi = br*wi + bi*wr — NOT fused, matching the
  ///                historical std::complex product so double FFT
  ///                results are unchanged from the scalar era)
  ///   a' = a + v;  b' = a - v.
  /// Targets may fuse stages and the permutation in any way that keeps
  /// every point's butterflies and their order.
  void (*fft_pass)(const double* in, double* out, std::size_t m,
                   const std::uint32_t* bitrev, const cplx* stage_tw,
                   bool conj_w);

  /// Packed real-FFT forward untwiddle for n = 2h real samples: `z` is the
  /// h-point transform of the samples read as h complex pairs, `tw[k]` =
  /// e^{-j 2 pi k / n}; writes the h + 1 bins out[0..h]:
  ///   out[0] = (zr0 + zi0, 0),  out[h] = (zr0 - zi0, 0), and for
  ///   0 < k < h, with (cr, ci) = (z[h-k].re, -z[h-k].im):
  ///   er = 0.5*(zr + cr), ei = 0.5*(zi + ci),
  ///   o_re = 0.5*(zi - ci), o_im = -0.5*(zr - cr),
  ///   out[k] = (er + (wr*o_re - wi*o_im), ei + (wr*o_im + wi*o_re)).
  void (*rfft_untwiddle)(const cplx* z, cplx* out, const cplx* tw,
                         std::size_t h);
  /// Its exact inverse over the h + 1 bins x[0..h]: for k < h, with
  /// (cr, ci) = (x[h-k].re, -x[h-k].im) and (wr, wi) = conj(tw[k]):
  ///   er = 0.5*(xr + cr), ei = 0.5*(xi + ci),
  ///   pr = 0.5*(xr - cr), pi = 0.5*(xi - ci),
  ///   o_re = wr*pr - wi*pi, o_im = wr*pi + wi*pr,
  ///   z[k] = (er - o_im, ei + o_re).
  void (*irfft_untwiddle)(const cplx* x, cplx* z, const cplx* tw,
                          std::size_t h);
  /// x[i] = x[i] * s for i < n: the inverse transforms' 1/N.
  void (*scale)(double* x, std::size_t n, double s);

  /// Single-precision twins of cmul_inplace, dot, fft_pass and the
  /// real-FFT glue. Same expression trees evaluated in float (std::fma ->
  /// fmaf; dot_f uses 8 lanes with the ((l0+l1)+(l2+l3)) +
  /// ((l4+l5)+(l6+l7)) reduction).
  void (*cmul_inplace_f)(cplxf* y, const cplxf* x, std::size_t n);
  float (*dot_f)(const float* a, const float* b, std::size_t n);

  /// Sliding-DFT run of `samples` updates over `width` float running sums
  /// (the split-complex bins: real parts, then imaginary parts). Update i
  /// adds d_i = x_new[i] - x_old[i] times phasor row i, which starts at
  /// rows + i * width:
  ///   acc[j] = fmaf(d_i, rows[i * width + j], acc[j])
  /// for i = 0, 1, ..., samples - 1 in that order, for every j < width.
  void (*sdft_update_f)(float* acc, const float* rows, const float* x_old,
                        const float* x_new, std::size_t samples,
                        std::size_t width);
  void (*fft_pass_f)(const float* in, float* out, std::size_t m,
                     const std::uint32_t* bitrev, const cplxf* stage_tw,
                     bool conj_w);
  void (*rfft_untwiddle_f)(const cplxf* z, cplxf* out, const cplxf* tw,
                           std::size_t h);
  void (*irfft_untwiddle_f)(const cplxf* x, cplxf* z, const cplxf* tw,
                            std::size_t h);
  void (*scale_f)(float* x, std::size_t n, float s);
};

/// The kernel table selected for this process: the widest ISA the CPU
/// supports among those compiled in, unless overridden by the AQUA_SIMD
/// environment variable ("scalar", "avx2", "avx512", "neon"; unknown or
/// unsupported values fall back to auto-detection with a stderr warning).
/// Decided on first call, then constant.
const Kernels& active();

/// Table for a specific target, or nullptr when that target is not
/// compiled into this binary or not runnable on this CPU. kScalar is
/// always available. Used by the equivalence tests and benches.
const Kernels* kernels_for(Isa isa);

/// True when the running CPU can execute `isa`.
bool cpu_supports(Isa isa);

// ---------------------------------------------------------------------------
// Precision-overloaded dispatch helpers so code templated on the sample type
// calls the right table entry without `if constexpr` at every site.
// ---------------------------------------------------------------------------

inline void cmul_inplace(const Kernels& k, cplx* y, const cplx* x,
                         std::size_t n) {
  k.cmul_inplace(y, x, n);
}
inline void cmul_inplace(const Kernels& k, cplxf* y, const cplxf* x,
                         std::size_t n) {
  k.cmul_inplace_f(y, x, n);
}

inline void fft_pass(const Kernels& k, const double* in, double* out,
                     std::size_t m, const std::uint32_t* bitrev,
                     const cplx* stage_tw, bool conj_w) {
  k.fft_pass(in, out, m, bitrev, stage_tw, conj_w);
}
inline void fft_pass(const Kernels& k, const float* in, float* out,
                     std::size_t m, const std::uint32_t* bitrev,
                     const cplxf* stage_tw, bool conj_w) {
  k.fft_pass_f(in, out, m, bitrev, stage_tw, conj_w);
}

inline void rfft_untwiddle(const Kernels& k, const cplx* z, cplx* out,
                           const cplx* tw, std::size_t h) {
  k.rfft_untwiddle(z, out, tw, h);
}
inline void rfft_untwiddle(const Kernels& k, const cplxf* z, cplxf* out,
                           const cplxf* tw, std::size_t h) {
  k.rfft_untwiddle_f(z, out, tw, h);
}

inline void irfft_untwiddle(const Kernels& k, const cplx* x, cplx* z,
                            const cplx* tw, std::size_t h) {
  k.irfft_untwiddle(x, z, tw, h);
}
inline void irfft_untwiddle(const Kernels& k, const cplxf* x, cplxf* z,
                            const cplxf* tw, std::size_t h) {
  k.irfft_untwiddle_f(x, z, tw, h);
}

inline void scale(const Kernels& k, double* x, std::size_t n, double s) {
  k.scale(x, n, s);
}
inline void scale(const Kernels& k, float* x, std::size_t n, float s) {
  k.scale_f(x, n, s);
}

}  // namespace aqua::dsp::simd
