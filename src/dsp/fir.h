// FIR filter design (windowed sinc) and application.
//
// The modem uses a 128-order bandpass (1-4 kHz at 48 kHz) on the receive path
// exactly as the paper describes (section 2.3.2); the channel simulator uses
// fractional-delay sinc filters to place multipath taps between samples.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/types.h"
#include "dsp/window.h"

namespace aqua::dsp {

class Workspace;

/// Designs a linear-phase lowpass FIR via the windowed-sinc method.
/// `cutoff_hz` is the -6 dB edge; `taps` is the filter length (order + 1).
std::vector<double> design_lowpass(double cutoff_hz, double sample_rate_hz,
                                   std::size_t taps,
                                   WindowType window = WindowType::kHamming);

/// Designs a linear-phase bandpass FIR (lowpass difference construction).
std::vector<double> design_bandpass(double low_hz, double high_hz,
                                    double sample_rate_hz, std::size_t taps,
                                    WindowType window = WindowType::kHamming);

/// Designs an FIR from frequency-domain magnitude samples (frequency-sampling
/// method with linear phase). `magnitude[k]` is the desired gain at
/// k * sample_rate / n for k in [0, n/2]; the result has `n` taps.
std::vector<double> design_from_magnitude(std::span<const double> magnitude,
                                          std::size_t n,
                                          WindowType window = WindowType::kHann);

/// Windowed-sinc fractional-delay filter approximating a delay of
/// `delay_samples` (may be non-integer) with `taps` coefficients. The
/// integer part of the delay must already be accounted for by the caller;
/// `delay_samples` should be in [0, taps). Used to synthesize multipath taps.
std::vector<double> design_fractional_delay(double delay_samples,
                                            std::size_t taps);

/// Full linear convolution: output length = x.size() + h.size() - 1.
/// Uses direct convolution for short filters, FFT overlap for long ones.
std::vector<double> convolve(std::span<const double> x,
                             std::span<const double> h);

/// Full linear convolution through one packed real FFT of
/// next_pow2(x.size() + h.size() - 1) points, every buffer leased from
/// `ws`: forward both operands, multiply, inverse. out.size() must be
/// x.size() + h.size() - 1 (both operands non-empty). Suits a short block
/// against a kernel that changes from call to call, so there is no kernel
/// spectrum worth caching.
void fft_convolve_into(std::span<const double> x, std::span<const double> h,
                       std::span<double> out, Workspace& ws);

/// Complex full linear convolution.
std::vector<cplx> convolve(std::span<const cplx> x, std::span<const cplx> h);

/// "Same"-size filtering with group-delay compensation: applies `h` to `x`
/// and returns x.size() samples aligned so a linear-phase filter introduces
/// no apparent shift.
std::vector<double> filter_same(std::span<const double> x,
                                std::span<const double> h);

/// Stateful streaming FIR filter for block-based (real-time style)
/// processing. Feed blocks in order; the filter keeps history across calls.
///
/// Every output is one contiguous dot product of the reversed taps against
/// a persistent [history | block] window buffer, computed by the
/// runtime-dispatched SIMD fir kernel (several outputs per pass, each
/// bit-identical to a lone dot). Each output depends only on its own
/// absolute input window, so the stream is bit-identical for any chunking
/// of the same input.
class StreamingFir {
 public:
  explicit StreamingFir(std::vector<double> taps);

  /// Processes one block; returns the same number of samples as `in`.
  std::vector<double> process(std::span<const double> in);

  /// Processes one block into `out`, which must hold in.size() samples.
  void process(std::span<const double> in, std::span<double> out);

  /// Clears the internal history.
  void reset();

  std::size_t tap_count() const { return taps_.size(); }

 private:
  std::vector<double> taps_;
  std::vector<double> rtaps_;  // taps reversed: window dot == convolution
  std::vector<double> buf_;    // [tap_count()-1 history | current block]
};

/// Evaluates the frequency response of an FIR at `freq_hz`.
cplx fir_response(std::span<const double> taps, double freq_hz,
                  double sample_rate_hz);

}  // namespace aqua::dsp
