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
//   * `fir` — a run of FIR outputs, each one `dot` over a window sliding
//     by one sample: `StreamingFir::process` (ambient-noise shaping and
//     carrier sense). The vector targets run it
//     lane-major: one register of consecutive outputs per dot lane, each
//     tap broadcast once for the whole run, so the FMA chains run side by
//     side (throughput- rather than latency-bound) while each output keeps
//     `dot`'s exact tree.
//   * `sdft_update` — the sliding-DFT bin update: a run of consecutive
//     samples of `moving_dft_power`'s running recurrence, one fused
//     multiply-add per active bin (real and imaginary part) per sample
//     against a contiguous row of the cached phasor table. The vector
//     targets hold a block of bins in registers for the whole run.
//   * `fft_pass` — every radix-2 butterfly stage of one power-of-two
//     transform over bit-reversed data: twiddle multiply plus add/sub,
//     one kernel call per transform. Stages narrower than a vector pack
//     several blocks into one register; wider stages loop over their
//     blocks inside the kernel, so the dispatch is paid once per
//     transform rather than once per half-block.
//
// Each family has exactly the precisions the library runs: `cmul_inplace`,
// `dot` and `fft_pass` have a double entry and a float entry (`*_f`, twice
// the lanes at the same vector width — the point of the single-precision
// receive front end); `fir` is double only (the medium's noise shaping and
// carrier sense) and `sdft_update` float only (the tone decoders).
//
// Every implementation of a kernel computes the SAME floating-point
// expression tree — fixed lane-accumulator structure (4 double / 8 float
// lanes for dot), fused multiply-adds (`std::fma` in the scalar build)
// where every target fuses, plain mul/add in the FFT butterflies where the
// legacy std::complex tree must be preserved, fixed reduction order — so
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

  /// FIR run: out[i] = dot(a, x + i, t) for i < n, bit for bit (every
  /// output keeps dot's lane structure and reduction). Reads
  /// x[0, n + t - 1).
  void (*fir)(const double* a, const double* x, double* out, std::size_t t,
              std::size_t n);

  /// Whole radix-2 pass over `m` (a power of two) bit-reversed points,
  /// in place. Stages run in order half = 1, 2, 4, ..., m/2; the stage
  /// with half-block h reads its twiddles w[k] = stage_tw[h - 1 + k],
  /// k < h. Each block of 2h points starting at s does, for k < h, with
  ///   a = data[s + k], b = data[s + h + k],
  ///   w = conj_w ? conj(w[k]) : w[k],
  ///   v = b * w   (plain mul/sub tree: vr = br*wr - bi*wi,
  ///                vi = br*wi + bi*wr — NOT fused, matching the
  ///                historical std::complex product so double FFT
  ///                results are unchanged from the scalar era)
  ///   a' = a + v;  b' = a - v.
  void (*fft_pass)(cplx* data, std::size_t m, const cplx* stage_tw,
                   bool conj_w);

  /// Single-precision twins of cmul_inplace, dot and fft_pass. Same
  /// expression trees evaluated in float (std::fma -> fmaf; dot_f uses 8
  /// lanes with the ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) reduction).
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
  void (*fft_pass_f)(cplxf* data, std::size_t m, const cplxf* stage_tw,
                     bool conj_w);
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

inline void fft_pass(const Kernels& k, cplx* data, std::size_t m,
                     const cplx* stage_tw, bool conj_w) {
  k.fft_pass(data, m, stage_tw, conj_w);
}
inline void fft_pass(const Kernels& k, cplxf* data, std::size_t m,
                     const cplxf* stage_tw, bool conj_w) {
  k.fft_pass_f(data, m, stage_tw, conj_w);
}

}  // namespace aqua::dsp::simd
