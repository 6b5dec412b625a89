// Cross-correlation primitives used by preamble detection.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft_filter.h"
#include "dsp/types.h"
#include "dsp/workspace.h"

namespace aqua::dsp {

/// Sliding cross-correlation of `x` against the template `ref`:
/// out[i] = sum_j x[i+j] * ref[j], for i in [0, x.size() - ref.size()].
/// Uses FFT convolution; returns empty if ref is longer than x.
std::vector<double> cross_correlate(std::span<const double> x,
                                    std::span<const double> ref);

/// Cross-correlation normalized by the energy of the window and of the
/// template, giving values in roughly [-1, 1] independent of receive gain.
std::vector<double> normalized_cross_correlate(std::span<const double> x,
                                               std::span<const double> ref);

/// Index of the maximum element; 0 on empty input.
std::size_t argmax(std::span<const double> x);

/// Moving sum of `x*x` over windows of `win` samples:
/// out[i] = sum_{j<win} x[i+j]^2 (running-sum based, O(n), periodically
/// re-accumulated so rounding drift cannot survive a loud-then-quiet
/// capture). out.size() must be x.size() - win + 1. The accumulator is
/// always double — for float signals the recurrence would otherwise lose
/// the quiet-window bits it exists to protect.
template <typename T>
void sliding_energy_into(std::span<const T> x, std::size_t win,
                         std::span<T> out);
std::vector<double> sliding_energy(std::span<const double> x, std::size_t win);

extern template void sliding_energy_into<double>(std::span<const double>,
                                                 std::size_t,
                                                 std::span<double>);
extern template void sliding_energy_into<float>(std::span<const float>,
                                                std::size_t, std::span<float>);

/// Template-cached sliding correlator: the time-reversed template and its
/// overlap-save spectrum are built once, so every detect() call pays only
/// the per-block signal transforms. Immutable after construction;
/// shareable across threads. `CrossCorrelator` is the double instantiation;
/// the float one correlates fp32 signals.
template <typename T>
class BasicCrossCorrelator {
 public:
  /// `ref` must be non-empty.
  explicit BasicCrossCorrelator(std::vector<T> ref);

  std::size_t ref_size() const { return ref_size_; }
  double ref_energy() const { return ref_energy_; }

  /// Number of valid correlation lags for an `n`-sample signal (0 when the
  /// signal is shorter than the template).
  std::size_t output_length(std::size_t n) const {
    return n >= ref_size_ ? n - ref_size_ + 1 : 0;
  }

  /// Raw sliding dot products: out[i] = sum_j x[i+j] * ref[j].
  /// out.size() must be output_length(x.size()).
  void correlate_into(std::span<const T> x, std::span<T> out,
                      Workspace& ws) const;

  /// Energy-normalized correlation (same contract as
  /// normalized_cross_correlate).
  void normalized_into(std::span<const T> x, std::span<T> out,
                       Workspace& ws) const;
  std::vector<T> normalized(std::span<const T> x, Workspace& ws) const;

 private:
  std::size_t ref_size_ = 0;
  double ref_energy_ = 0.0;  ///< template energy, accumulated in double
  BasicFftFilter<T> conv_;   ///< kernel = time-reversed template
};

using CrossCorrelator = BasicCrossCorrelator<double>;

extern template class BasicCrossCorrelator<double>;
extern template class BasicCrossCorrelator<float>;

}  // namespace aqua::dsp
