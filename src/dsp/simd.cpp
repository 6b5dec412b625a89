// Scalar reference kernels and the runtime dispatch decision.
//
// This translation unit is compiled with -ffp-contract=off (see
// CMakeLists.txt) so the FFT pass and untwiddle kernels' plain mul/add
// trees cannot be contracted into fused multiply-adds on targets whose
// baseline has FMA (AArch64); fusion is only ever spelled explicitly via
// std::fma.
#include "dsp/simd.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "dsp/simd_internal.h"

namespace aqua::dsp::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These spell out the exact expression tree every
// vector implementation must reproduce: std::fma where the vector units fuse,
// fixed-lane accumulation (4 double / 8 float) with a fixed reduction order,
// and an unfused mul/add tree in the FFT butterflies and real-FFT
// untwiddles (the historical std::complex product, kept so double FFT
// outputs are bit-identical to the scalar era; spelled once, in
// simd_internal.h, as fft_pass_ref and the *_untwiddle_ref templates).
// ---------------------------------------------------------------------------

void scalar_cmul_inplace(cplx* y, const cplx* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double yr = y[i].real(), yi = y[i].imag();
    const double xr = x[i].real(), xi = x[i].imag();
    y[i] = {std::fma(yr, xr, -(yi * xi)), std::fma(yi, xr, yr * xi)};
  }
}

void scalar_cmul_inplace_f(cplxf* y, const cplxf* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float yr = y[i].real(), yi = y[i].imag();
    const float xr = x[i].real(), xi = x[i].imag();
    y[i] = {std::fma(yr, xr, -(yi * xi)), std::fma(yi, xr, yr * xi)};
  }
}

double scalar_dot(const double* a, const double* b, std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    lane[0] = std::fma(a[i], b[i], lane[0]);
    lane[1] = std::fma(a[i + 1], b[i + 1], lane[1]);
    lane[2] = std::fma(a[i + 2], b[i + 2], lane[2]);
    lane[3] = std::fma(a[i + 3], b[i + 3], lane[3]);
  }
  for (std::size_t i = n4; i < n; ++i) {
    lane[i & 3] = std::fma(a[i], b[i], lane[i & 3]);
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

float scalar_dot_f(const float* a, const float* b, std::size_t n) {
  float lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      lane[l] = std::fma(a[i + l], b[i + l], lane[l]);
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    lane[i & 7] = std::fma(a[i], b[i], lane[i & 7]);
  }
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

constexpr Kernels kScalarKernels{"scalar",
                                 scalar_cmul_inplace,
                                 scalar_dot,
                                 fft_pass_ref<double>,
                                 rfft_untwiddle_ref<double>,
                                 irfft_untwiddle_ref<double>,
                                 scale_ref<double>,
                                 scalar_cmul_inplace_f,
                                 scalar_dot_f,
                                 sdft_update_ref,
                                 fft_pass_ref<float>,
                                 rfft_untwiddle_ref<float>,
                                 irfft_untwiddle_ref<float>,
                                 scale_ref<float>};

// Widest supported target among those compiled in, in preference order.
const Kernels* detect() {
#if defined(AQUA_SIMD_HAVE_AVX512)
  if (cpu_supports(Isa::kAvx512)) {
    if (const Kernels* k = avx512_kernels()) return k;
  }
#endif
#if defined(AQUA_SIMD_HAVE_AVX2)
  if (cpu_supports(Isa::kAvx2)) {
    if (const Kernels* k = avx2_kernels()) return k;
  }
#endif
#if defined(AQUA_SIMD_HAVE_NEON)
  if (cpu_supports(Isa::kNeon)) {
    if (const Kernels* k = neon_kernels()) return k;
  }
#endif
  return &kScalarKernels;
}

const Kernels* select() {
  // lint: det-ok(ISA override read once at startup; every kernel is bit-identical)
  if (const char* want = std::getenv("AQUA_SIMD")) {
    if (std::strcmp(want, "scalar") == 0) return &kScalarKernels;
    Isa isa = Isa::kScalar;
    bool known = false;
    if (std::strcmp(want, "avx2") == 0) {
      isa = Isa::kAvx2;
      known = true;
    } else if (std::strcmp(want, "avx512") == 0) {
      isa = Isa::kAvx512;
      known = true;
    } else if (std::strcmp(want, "neon") == 0) {
      isa = Isa::kNeon;
      known = true;
    }
    if (known) {
      if (const Kernels* k = kernels_for(isa)) return k;
      std::fprintf(stderr,
                   "aqua: AQUA_SIMD=%s not available on this build/CPU; "
                   "auto-detecting instead\n",
                   want);
    } else {
      std::fprintf(stderr,
                   "aqua: unknown AQUA_SIMD=%s (expected "
                   "scalar|avx2|avx512|neon); auto-detecting instead\n",
                   want);
    }
  }
  return detect();
}

}  // namespace

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;  // Advanced SIMD is mandatory on AArch64.
#else
      return false;
#endif
  }
  return false;
}

const Kernels* kernels_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarKernels;
    case Isa::kAvx2:
#if defined(AQUA_SIMD_HAVE_AVX2)
      if (cpu_supports(Isa::kAvx2)) return avx2_kernels();
#endif
      return nullptr;
    case Isa::kAvx512:
#if defined(AQUA_SIMD_HAVE_AVX512)
      if (cpu_supports(Isa::kAvx512)) return avx512_kernels();
#endif
      return nullptr;
    case Isa::kNeon:
#if defined(AQUA_SIMD_HAVE_NEON)
      if (cpu_supports(Isa::kNeon)) return neon_kernels();
#endif
      return nullptr;
  }
  return nullptr;
}

const Kernels& active() {
  // Decided once; `static` initialization is thread-safe and the tables are
  // immutable, so the selected pointer is safe to read from any thread.
  static const Kernels* chosen = select();
  return *chosen;
}

}  // namespace aqua::dsp::simd
