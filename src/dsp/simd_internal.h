// Internal wiring between the SIMD dispatcher and the per-arch kernel
// translation units. Not part of the public dsp API.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>

#include "dsp/simd.h"

namespace aqua::dsp::simd {

// Reference radix-2 butterflies over one half-block of n points: the tree
// every fft_pass reproduces (see Kernels::fft_pass). The vector targets
// run it for transforms too short for their registers. `static` gives each
// kernel TU its own copy, compiled under that TU's flags.
template <typename T>
static inline void butterfly_ref(std::complex<T>* a, std::complex<T>* b,
                                 const std::complex<T>* w, std::size_t n,
                                 bool conj_w) {
  const T s = conj_w ? T(-1) : T(1);
  for (std::size_t i = 0; i < n; ++i) {
    const T wr = w[i].real(), wi = s * w[i].imag();
    const T br = b[i].real(), bi = b[i].imag();
    const T vr = br * wr - bi * wi;
    const T vi = br * wi + bi * wr;
    const T ur = a[i].real(), ui = a[i].imag();
    a[i] = {ur + vr, ui + vi};
    b[i] = {ur - vr, ui - vi};
  }
}

// The whole pass, stage by stage and block by block: the scalar table's
// fft_pass entries.
template <typename T>
static inline void fft_pass_ref(std::complex<T>* data, std::size_t m,
                                const std::complex<T>* stage_tw,
                                bool conj_w) {
  for (std::size_t half = 1; half < m; half <<= 1) {
    for (std::size_t s = 0; s < m; s += 2 * half) {
      butterfly_ref(data + s, data + s + half, stage_tw + (half - 1), half,
                    conj_w);
    }
  }
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
