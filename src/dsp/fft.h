// Fast Fourier transforms implemented from scratch.
//
// Power-of-two sizes use an iterative radix-2 Cooley-Tukey kernel: one
// runtime-dispatched SIMD call (dsp/simd.h) gathers the bit-reversed points
// and runs every butterfly stage; every
// other size (e.g. the 960-point OFDM symbol used by the modem) goes through
// Bluestein's chirp-z algorithm built on top of the radix-2 kernel. Plans are
// cached per size so repeated transforms only pay for twiddle generation once;
// the cache read path is contention-free (per-thread pointer map backed by a
// shared_mutex-guarded global), so worker pools never serialize on it.
//
// Plans are templated on the sample type: `BasicFftPlan<double>` is the
// estimation-grade transform, `BasicFftPlan<float>` feeds the
// single-precision receive front end (double the SIMD lanes, half the cache
// footprint). `FftPlan`/`RfftPlan` alias the double instantiations so every
// historical call site compiles unchanged, and the double results are
// bit-identical to the pre-template scalar implementation.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"
#include "dsp/workspace.h"

namespace aqua::dsp {

/// Reusable FFT plan for a fixed transform size and sample type. Immutable
/// after construction, so one plan may be shared by any number of threads.
/// Construction precomputes twiddles and, for non power-of-two sizes, the
/// Bluestein chirp pair. Twiddles are always generated in double and rounded
/// once, so the float plan's tables are the correctly-rounded narrowing of
/// the double plan's.
template <typename T>
class BasicFftPlan {
 public:
  using C = std::complex<T>;

  /// Creates a plan for `n`-point transforms. `n` must be >= 1.
  explicit BasicFftPlan(std::size_t n);

  /// Transform size this plan was built for.
  std::size_t size() const { return n_; }

  /// Out-of-place forward DFT: X[k] = sum_n x[n] e^{-j 2 pi k n / N}.
  /// `in` and `out` must both have size() elements and may alias.
  /// Scratch comes from `ws`.
  void forward(std::span<const C> in, std::span<C> out, Workspace& ws) const;

  /// Out-of-place inverse DFT, normalized by 1/N so inverse(forward(x)) == x.
  void inverse(std::span<const C> in, std::span<C> out, Workspace& ws) const;

 private:
  // The transforms run on interleaved (re, im) pairs, so the packed real
  // FFT can hand its real input and output buffers over without copies.
  // radix2 permutes `in` into `out` (in place when they are the same
  // buffer) and runs every butterfly stage: one SIMD fft_pass call.
  void radix2(std::span<const T> in, std::span<T> out, bool invert) const;
  void transform(std::span<const T> in, std::span<T> out, bool invert,
                 Workspace& ws) const;
  // transform plus the 1/N scale.
  void inverse_pairs(std::span<const T> in, std::span<T> out,
                     Workspace& ws) const;

  std::size_t n_ = 0;
  bool pow2_ = false;
  // Radix-2 machinery (for n_ itself when pow2_, else for bluestein size m_).
  std::size_t m_ = 0;                // power-of-two work size
  std::vector<std::uint32_t> bitrev_;  // bit-reversal permutation for m_
  // Per-stage contiguous twiddles for the SIMD pass kernel: the stage
  // with half-block `h` owns entries [h-1, 2h-1) = w_m^{k * (m/2h)} for
  // k < h; m-1 entries total.
  std::vector<C> stage_tw_;
  // Bluestein machinery.
  std::vector<C> chirp_;      // e^{-j pi k^2 / n}
  std::vector<C> chirp_fft_;  // FFT of the zero-padded conjugate chirp

  template <typename>
  friend class BasicRfftPlan;     // runs the half-size transform on pairs
  friend struct FftPlanTestPeer;  // white-box access for the throw test
};

using FftPlan = BasicFftPlan<double>;

extern template class BasicFftPlan<double>;
extern template class BasicFftPlan<float>;

/// Packed real-input FFT plan: an n-point real transform computed as one
/// n/2-point complex transform of the even/odd-interleaved samples plus an
/// O(n) untwiddle pass — half the transform work and half the spectrum
/// footprint of the complex path, for the price of one twiddle table. The
/// half-size transform reads the real input as pairs in place (and the
/// inverse writes its pairs straight into the real output), and the
/// untwiddles and the inverse's 1/N run as SIMD kernels, so a call leases
/// one half-size scratch buffer and copies nothing. Any element alignment
/// of the real buffers works.
///
/// Real signals are the common case here (every waveform entering
/// `FftFilter`, `CrossCorrelator` and the OFDM modulator is real), so the
/// whole overlap-save engine runs on this plan. Odd sizes fall back to the
/// full complex transform internally and keep the same API and results.
///
/// Like BasicFftPlan, a BasicRfftPlan is immutable after construction and
/// may be shared by any number of threads.
template <typename T>
class BasicRfftPlan {
 public:
  using C = std::complex<T>;

  /// Creates a plan for `n`-point real transforms. `n` must be >= 1.
  explicit BasicRfftPlan(std::size_t n);

  /// Real transform size this plan was built for.
  std::size_t size() const { return n_; }
  /// Number of packed spectrum bins: n/2 + 1 (bins 0..n/2; the upper half
  /// of the full spectrum is their conjugate mirror).
  std::size_t spectrum_size() const { return n_ / 2 + 1; }

  /// Forward transform: out[k] = DFT_n(in)[k] for k in [0, n/2].
  /// in.size() must be size(), out.size() must be spectrum_size().
  void forward(std::span<const T> in, std::span<C> out, Workspace& ws) const;

  /// Inverse transform (normalized by 1/n): reconstructs the real signal
  /// whose packed spectrum is `in`. The caller asserts `in` is the
  /// half-spectrum of a real signal (bins 0 and n/2 real up to numerical
  /// noise); overlap-save products of two real-signal spectra always are.
  /// in.size() must be spectrum_size(), out.size() must be size().
  void inverse(std::span<const C> in, std::span<T> out, Workspace& ws) const;

 private:
  std::size_t n_ = 0;
  std::size_t h_ = 0;  ///< n/2 (even-size packed path only)
  const BasicFftPlan<T>* half_ = nullptr;  ///< n/2-point plan (even n >= 2)
  const BasicFftPlan<T>* full_ = nullptr;  ///< odd-n / n == 1 fallback
  std::vector<C> twiddle_;  ///< e^{-j 2 pi k / n}, k in [0, n/2]
};

using RfftPlan = BasicRfftPlan<double>;

extern template class BasicRfftPlan<double>;
extern template class BasicRfftPlan<float>;

/// Shared per-size plan cache. The returned reference is valid for the
/// lifetime of the process; repeated lookups from the same thread take a
/// lock-free thread-local fast path. `plan_of(n)` is the double plan;
/// `plan_of<float>(n)` the single-precision one.
template <typename T = double>
const BasicFftPlan<T>& plan_of(std::size_t n);

/// Shared per-size packed real-FFT plan cache (same contract as plan_of).
template <typename T = double>
const BasicRfftPlan<T>& rplan_of(std::size_t n);

extern template const BasicFftPlan<double>& plan_of<double>(std::size_t);
extern template const BasicFftPlan<float>& plan_of<float>(std::size_t);
extern template const BasicRfftPlan<double>& rplan_of<double>(std::size_t);
extern template const BasicRfftPlan<float>& rplan_of<float>(std::size_t);

/// Forward FFT of a complex signal (any length >= 1). Convenience wrapper
/// around the shared plan cache.
std::vector<cplx> fft(std::span<const cplx> x);

/// Inverse FFT (normalized by 1/N).
std::vector<cplx> ifft(std::span<const cplx> x);

/// Zero-allocation variants writing into caller buffers (out.size() must
/// equal x.size(); scratch comes from `ws`).
void fft_into(std::span<const cplx> x, std::span<cplx> out, Workspace& ws);
void ifft_into(std::span<const cplx> x, std::span<cplx> out, Workspace& ws);

/// Packed forward real FFT: the n/2 + 1 non-redundant bins of an n-point
/// real signal, through the shared RfftPlan cache. Zero-allocation variant
/// writes into a caller buffer of rplan_of(x.size()).spectrum_size().
/// The float overloads run the single-precision plan.
std::vector<cplx> rfft(std::span<const double> x);
void rfft_into(std::span<const double> x, std::span<cplx> out, Workspace& ws);
void rfft_into(std::span<const float> x, std::span<cplxf> out, Workspace& ws);

/// Packed inverse real FFT (normalized by 1/n): reconstructs `n` real
/// samples from the n/2 + 1 packed bins. The allocating form takes the
/// target length explicitly because spec.size() alone cannot distinguish
/// even n from n + 1; the `_into` form infers it from out.size().
std::vector<double> irfft(std::span<const cplx> spec, std::size_t n);
void irfft_into(std::span<const cplx> spec, std::span<double> out,
                Workspace& ws);
void irfft_into(std::span<const cplxf> spec, std::span<float> out,
                Workspace& ws);

/// Forward FFT of a real signal; returns all N complex bins (the packed
/// transform plus its conjugate mirror).
std::vector<cplx> fft_real(std::span<const double> x);

/// Inverse FFT returning only the real part (caller asserts the spectrum is
/// conjugate-symmetric up to numerical noise; only bins [0, N/2] are read).
std::vector<double> ifft_real(std::span<const cplx> x);

/// Returns the smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

}  // namespace aqua::dsp
