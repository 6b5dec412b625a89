// Internal wiring between the SIMD dispatcher and the per-arch kernel
// translation units. Not part of the public dsp API.
#pragma once

#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "dsp/simd.h"

namespace aqua::dsp::simd {

// Reference bit-reversal permutation of m points stored as (re, im) pairs:
// a gather when out of place, pairwise swaps in place (see
// Kernels::fft_pass). Pairs are copied as values, so any element alignment
// works. `static` gives each kernel TU its own copy, compiled under that
// TU's flags.
template <typename T>
static inline void bitrev_ref(const T* in, T* out, std::size_t m,
                              const std::uint32_t* bitrev) {
  if (in != out) {
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = bitrev[i];
      out[2 * i] = in[2 * j];
      out[2 * i + 1] = in[2 * j + 1];
    }
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) {
      std::swap(out[2 * i], out[2 * j]);
      std::swap(out[2 * i + 1], out[2 * j + 1]);
    }
  }
}

// Reference radix-2 butterflies over one half-block of n points: the tree
// every fft_pass reproduces (see Kernels::fft_pass).
template <typename T>
static inline void butterfly_ref(T* a, T* b, const std::complex<T>* w,
                                 std::size_t n, bool conj_w) {
  const T s = conj_w ? T(-1) : T(1);
  for (std::size_t i = 0; i < n; ++i) {
    const T wr = w[i].real(), wi = s * w[i].imag();
    const T br = b[2 * i], bi = b[2 * i + 1];
    const T vr = br * wr - bi * wi;
    const T vi = br * wi + bi * wr;
    const T ur = a[2 * i], ui = a[2 * i + 1];
    a[2 * i] = ur + vr;
    a[2 * i + 1] = ui + vi;
    b[2 * i] = ur - vr;
    b[2 * i + 1] = ui - vi;
  }
}

// The whole transform, permutation then stage by stage and block by block:
// the scalar (and NEON) tables' fft_pass entries and the vector targets'
// short-size path.
template <typename T>
static inline void fft_pass_ref(const T* in, T* out, std::size_t m,
                                const std::uint32_t* bitrev,
                                const std::complex<T>* stage_tw,
                                bool conj_w) {
  bitrev_ref(in, out, m, bitrev);
  for (std::size_t half = 1; half < m; half <<= 1) {
    for (std::size_t s = 0; s < m; s += 2 * half) {
      butterfly_ref(out + 2 * s, out + 2 * (s + half), stage_tw + (half - 1),
                    half, conj_w);
    }
  }
}

// The vector targets' out-of-place fft_pass (see Kernels::fft_pass), for
// m >= kLanes, where a register V holds kLanes values of T, i.e. half a
// block of kLanes points. Each block is gathered from its bit-reversed
// source positions as a = its even points, b = its odd points
// (`gather(s, a, b)` for the block starting at point s) and runs every
// stage narrower than kLanes in registers (`narrow_stages(a, b)`). When
// the stage count left over is odd, two such blocks also run stage kLanes
// between them, so the wider stages all pair up. Blocks are visited in
// bit-reversed order (block q starts at point bitrev[q]), so consecutive
// blocks read the same cache lines. The wider stages then run two at a
// time: each group of four quarter-vectors is loaded once, runs stage h's
// two butterflies, then stage 2h's two, and is stored once. `Ops` holds
// the calling TU's register ops (load, store, load_tw, bfly), so each TU
// instantiates this under its own flags.
template <typename Ops, typename T, typename V, typename Gather,
          typename Narrow>
static inline void fused_fft_pass(T* d, std::size_t m,
                                  const std::uint32_t* bitrev, const T* tw,
                                  V flip, Gather&& gather,
                                  Narrow&& narrow_stages) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(T);
  const bool pair_blocks =
      std::countr_zero(m) % 2 != std::countr_zero(kLanes) % 2;
  const std::size_t block = pair_blocks ? 2 * kLanes : kLanes;
  if (pair_blocks) {
    const T* w = tw + 2 * (kLanes - 1);  // stage kLanes, two registers
    const auto wlo = Ops::load_tw(w, flip);
    const auto whi = Ops::load_tw(w + kLanes, flip);
    for (std::size_t q = 0; q < m / block; ++q) {
      const std::size_t s = bitrev[q];
      V a0, b0, a1, b1;
      gather(s, a0, b0);
      narrow_stages(a0, b0);
      gather(s + kLanes, a1, b1);
      narrow_stages(a1, b1);
      Ops::bfly(a0, a1, wlo);
      Ops::bfly(b0, b1, whi);
      Ops::store(d + 2 * s, a0);
      Ops::store(d + 2 * s + kLanes, b0);
      Ops::store(d + 2 * s + 2 * kLanes, a1);
      Ops::store(d + 2 * s + 3 * kLanes, b1);
    }
  } else {
    for (std::size_t q = 0; q < m / block; ++q) {
      const std::size_t s = bitrev[q];
      V a, b;
      gather(s, a, b);
      narrow_stages(a, b);
      Ops::store(d + 2 * s, a);
      Ops::store(d + 2 * s + kLanes, b);
    }
  }
  for (std::size_t half = block; half < m; half *= 4) {
    const T* wa = tw + 2 * (half - 1);
    const T* wb = tw + 2 * (2 * half - 1);
    for (std::size_t s = 0; s < m; s += 4 * half) {
      T* q = d + 2 * s;
      const std::size_t q1 = 2 * half, q2 = 4 * half, q3 = 6 * half;
      for (std::size_t k = 0; k < 2 * half; k += kLanes) {
        V a0 = Ops::load(q + k);
        V a1 = Ops::load(q + q1 + k);
        V a2 = Ops::load(q + q2 + k);
        V a3 = Ops::load(q + q3 + k);
        const auto w = Ops::load_tw(wa + k, flip);
        Ops::bfly(a0, a1, w);
        Ops::bfly(a2, a3, w);
        Ops::bfly(a0, a2, Ops::load_tw(wb + k, flip));
        Ops::bfly(a1, a3, Ops::load_tw(wb + 2 * half + k, flip));
        Ops::store(q + k, a0);
        Ops::store(q + q1 + k, a1);
        Ops::store(q + q2 + k, a2);
        Ops::store(q + q3 + k, a3);
      }
    }
  }
}

// Reference forward untwiddle of bins [k0, k1), 0 < k0 <= k1 <= h (see
// Kernels::rfft_untwiddle). The sign flips are unary negations, which the
// vector targets spell as exact XORs.
template <typename T>
static inline void rfft_untwiddle_bins_ref(const std::complex<T>* z,
                                           std::complex<T>* out,
                                           const std::complex<T>* tw,
                                           std::size_t h, std::size_t k0,
                                           std::size_t k1) {
  const T half = T(0.5);
  for (std::size_t k = k0; k < k1; ++k) {
    const T zr = z[k].real(), zi = z[k].imag();
    const T cr = z[h - k].real(), ci = -z[h - k].imag();  // conj
    const T er = half * (zr + cr), ei = half * (zi + ci);
    const T o_re = half * (zi - ci), o_im = -half * (zr - cr);
    const T wr = tw[k].real(), wi = tw[k].imag();
    out[k] = {er + (wr * o_re - wi * o_im), ei + (wr * o_im + wi * o_re)};
  }
}

// The DC and Nyquist bins every target writes the same way.
template <typename T>
static inline void rfft_untwiddle_edges(const std::complex<T>* z,
                                        std::complex<T>* out, std::size_t h) {
  out[0] = {z[0].real() + z[0].imag(), T(0)};
  out[h] = {z[0].real() - z[0].imag(), T(0)};
}

template <typename T>
static inline void rfft_untwiddle_ref(const std::complex<T>* z,
                                      std::complex<T>* out,
                                      const std::complex<T>* tw,
                                      std::size_t h) {
  rfft_untwiddle_edges(z, out, h);
  rfft_untwiddle_bins_ref(z, out, tw, h, 1, h);
}

// Reference inverse untwiddle of points [k0, k1), k1 <= h (see
// Kernels::irfft_untwiddle).
template <typename T>
static inline void irfft_untwiddle_bins_ref(const std::complex<T>* x,
                                            std::complex<T>* z,
                                            const std::complex<T>* tw,
                                            std::size_t h, std::size_t k0,
                                            std::size_t k1) {
  const T half = T(0.5);
  for (std::size_t k = k0; k < k1; ++k) {
    const T xr = x[k].real(), xi = x[k].imag();
    const T cr = x[h - k].real(), ci = -x[h - k].imag();  // conj
    const T er = half * (xr + cr), ei = half * (xi + ci);
    const T pr = half * (xr - cr), pi = half * (xi - ci);  // W^k O
    const T wr = tw[k].real(), wi = -tw[k].imag();         // conj(W^k)
    const T o_re = wr * pr - wi * pi, o_im = wr * pi + wi * pr;  // O
    z[k] = {er - o_im, ei + o_re};  // E + j O
  }
}

template <typename T>
static inline void irfft_untwiddle_ref(const std::complex<T>* x,
                                       std::complex<T>* z,
                                       const std::complex<T>* tw,
                                       std::size_t h) {
  irfft_untwiddle_bins_ref(x, z, tw, h, 0, h);
}

template <typename T>
static inline void scale_ref(T* x, std::size_t n, T s) {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] * s;
}

// Reference sliding-DFT run over the first `cols` of `width` running sums
// (see Kernels::sdft_update_f): the vector targets' tail for the columns
// narrower than one register.
static inline void sdft_columns_ref(float* acc, const float* rows,
                                    const float* x_old, const float* x_new,
                                    std::size_t samples, std::size_t cols,
                                    std::size_t width) {
  for (std::size_t i = 0; i < samples; ++i) {
    const float d = x_new[i] - x_old[i];
    const float* row = rows + i * width;
    for (std::size_t j = 0; j < cols; ++j) {
      acc[j] = std::fma(d, row[j], acc[j]);
    }
  }
}

// Covers the first columns of `width` running sums with register blocks of
// 8, 4, 2 and 1 vectors of kLanes lanes, calling block.operator()<V>(j)
// for the block of V vectors at column j; returns the first column left
// for the caller's tail.
template <std::size_t kLanes, typename Block>
static inline std::size_t sdft_register_blocks(std::size_t width,
                                               Block&& block) {
  std::size_t j = 0;
  for (; j + 8 * kLanes <= width; j += 8 * kLanes) {
    block.template operator()<8>(j);
  }
  if (j + 4 * kLanes <= width) {
    block.template operator()<4>(j);
    j += 4 * kLanes;
  }
  if (j + 2 * kLanes <= width) {
    block.template operator()<2>(j);
    j += 2 * kLanes;
  }
  if (j + kLanes <= width) {
    block.template operator()<1>(j);
    j += kLanes;
  }
  return j;
}

// The whole run: the scalar table's sdft_update_f entry.
static inline void sdft_update_ref(float* acc, const float* rows,
                                   const float* x_old, const float* x_new,
                                   std::size_t samples, std::size_t width) {
  sdft_columns_ref(acc, rows, x_old, x_new, samples, width, width);
}

// Defined in simd_avx2.cpp / simd_avx512.cpp / simd_neon.cpp when CMake
// compiles them in (the TU carries the per-arch compile flags; nothing
// outside it is built with anything beyond the baseline ISA).
#if defined(AQUA_SIMD_HAVE_AVX2)
const Kernels* avx2_kernels();
#endif
#if defined(AQUA_SIMD_HAVE_AVX512)
const Kernels* avx512_kernels();
#endif
#if defined(AQUA_SIMD_HAVE_NEON)
const Kernels* neon_kernels();
#endif

}  // namespace aqua::dsp::simd
