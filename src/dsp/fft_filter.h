// Overlap-save FFT filtering with a cached kernel spectrum.
//
// Convolving an N-sample capture with an M-tap kernel one output block at a
// time costs O(N log B) for a fixed FFT block size B, instead of the
// O(N * M) of a direct loop or the O(N log N) (with a giant, often
// Bluestein-sized transform) of zero-padding the whole capture. The kernel
// spectrum is computed once at construction, so repeated calls — the 128-tap
// receive bandpass, the 512-tap device responses, the 8-symbol preamble
// correlation template — pay only the per-block signal transforms.
//
// Both the signal and the kernel are real, so every block runs through the
// packed real FFT (BasicRfftPlan): each transform is one half-size complex
// FFT, the cached kernel spectrum stores only the m/2 + 1 non-redundant
// bins, and the per-block spectrum product runs over half the bins through
// the runtime-dispatched SIMD kernel (dsp/simd.h).
//
// The engine is templated on the sample type: `FftFilter` (double) serves
// the estimation path, `BasicFftFilter<float>` the single-precision receive
// front end. The block-size cost model is precision-independent, so the
// float engine picks the same blocks as the double one.
//
// A BasicFftFilter is immutable after construction and may be shared across
// threads; all per-call scratch comes from the caller's Workspace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/fft.h"
#include "dsp/types.h"
#include "dsp/workspace.h"

namespace aqua::dsp {

/// Below this x.size() * kernel.size() product a direct loop beats the FFT
/// machinery (and is exact); above it overlap-save wins. This is the
/// per-call crossover for a constructed engine, whose kernel spectrum is
/// already paid for.
inline constexpr std::size_t kDirectConvOpsThreshold = std::size_t{1} << 14;

/// Crossover for one-shot free functions (convolve, cross_correlate),
/// which would pay the engine construction — kernel copy + FFT + plan
/// lookup — on every call; the direct loop stays competitive to a much
/// larger op product there.
inline constexpr std::size_t kOneShotDirectConvOpsThreshold = std::size_t{1}
                                                              << 18;

/// Upper bound on the valid outputs per streaming block (Stream).
/// Streams trade a little per-output efficiency for bounded latency: a
/// batch-optimal block for a long kernel (e.g. the 7680-sample preamble
/// template) can hold back seconds of audio, which no realtime front end
/// can afford. 16384 samples is ~0.34 s at 48 kHz.
inline constexpr std::size_t kMaxStreamStep = std::size_t{1} << 14;

/// The step() a BasicFftFilter over a `taps`-long kernel chooses under
/// `max_step` (and so the worst-case output lag + 1 of a Stream over it),
/// computed without building the engine. Latency budgets derive from it.
std::size_t overlap_save_step(std::size_t taps,
                              std::size_t max_step = kMaxStreamStep);

/// Streaming-capable overlap-save convolution engine for one real kernel.
template <typename T>
class BasicFftFilter {
 public:
  using C = std::complex<T>;

  /// Builds the engine for `kernel` (must be non-empty). Chooses the FFT
  /// block size minimizing estimated per-output cost and caches the kernel
  /// spectrum at that size. `max_step` bounds the valid outputs per block
  /// (i.e. the worst-case latency of a Stream over this engine); the
  /// default allows the unconstrained batch optimum.
  explicit BasicFftFilter(std::vector<T> kernel,
                          std::size_t max_step = static_cast<std::size_t>(-1));

  std::size_t kernel_size() const { return kernel_.size(); }
  const std::vector<T>& kernel() const { return kernel_; }
  /// FFT block size chosen for this kernel (power of two).
  std::size_t fft_size() const { return m_; }
  /// New input samples consumed per block (fft_size - kernel_size + 1).
  std::size_t step() const { return step_; }
  /// Full-convolution output length for an n-sample input. Zero stays zero:
  /// convolving nothing yields nothing, matching convolve() on empty input.
  std::size_t output_length(std::size_t n) const {
    return n == 0 ? 0 : n + kernel_.size() - 1;
  }

  /// Full linear convolution: out.size() must be x.size() + kernel_size - 1.
  void convolve_into(std::span<const T> x, std::span<T> out,
                     Workspace& ws) const;
  std::vector<T> convolve(std::span<const T> x, Workspace& ws) const;

  /// "Same"-size filtering with group-delay compensation, matching
  /// dsp::filter_same: out.size() must equal x.size().
  void filter_same_into(std::span<const T> x, std::span<T> out,
                        Workspace& ws) const;
  std::vector<T> filter_same(std::span<const T> x, Workspace& ws) const;

  /// Stateful streaming mode: carries the kernel-length input tail between
  /// calls so a continuous signal is filtered chunk by chunk with every
  /// sample transformed exactly once. Output is the causal full
  /// convolution (y[p] = sum_j kernel[j] * x[p - j], zero prehistory),
  /// emitted in whole step()-sized blocks aligned to the absolute input
  /// timeline: the produced sample sequence is bit-identical for any
  /// chunking of the same input stream, because every block transforms the
  /// same absolute input window through the same FFT path. Outputs
  /// therefore lag inputs by at most step() - 1 samples.
  ///
  /// A Stream references its parent engine (which must outlive it) and is
  /// single-threaded mutable state; the parent remains shareable.
  class Stream {
   public:
    /// `max_step` bounds the per-block output count (worst-case latency).
    /// When the parent's own block already satisfies it, the cached kernel
    /// spectrum is shared; otherwise a latency-bounded block is chosen and
    /// its spectrum computed once here.
    explicit Stream(const BasicFftFilter& filter,
                    std::size_t max_step = kMaxStreamStep);

    /// Valid outputs per block (worst-case output lag is step() - 1).
    std::size_t step() const { return step_; }
    std::size_t fft_size() const { return m_; }

    /// Consumes `x` and appends every newly completed output sample to
    /// `out`. Returns the number of samples appended.
    std::size_t push(std::span<const T> x, std::vector<T>& out,
                     Workspace& ws);

    /// Totals since construction / reset().
    std::uint64_t consumed() const { return consumed_; }
    std::uint64_t produced() const { return produced_; }

    /// Forgets all history (restarts the stream at absolute sample 0).
    void reset();

   private:
    const BasicFftFilter* filter_;
    std::size_t m_ = 0;
    std::size_t step_ = 0;
    const BasicRfftPlan<T>* plan_ = nullptr;
    std::vector<C> own_kernel_fft_;  ///< empty when sharing the parent's
    std::vector<T> pending_;         ///< [taps-1 history | unprocessed]
    std::uint64_t consumed_ = 0;
    std::uint64_t produced_ = 0;
  };

 private:
  std::vector<T> kernel_;
  std::size_t m_ = 0;     ///< FFT block size (power of two)
  std::size_t step_ = 0;  ///< valid outputs per block
  const BasicRfftPlan<T>* plan_ = nullptr;  ///< shared cache, process lifetime
  std::vector<C> kernel_fft_;  ///< packed kernel spectrum (m/2 + 1 bins)
};

using FftFilter = BasicFftFilter<double>;

extern template class BasicFftFilter<double>;
extern template class BasicFftFilter<float>;

}  // namespace aqua::dsp
