// FIR filter design (windowed sinc) and application.
//
// The modem uses a 128-order bandpass (1-4 kHz at 48 kHz) on the receive path
// exactly as the paper describes (section 2.3.2); the channel simulator
// designs its device responses and ambient-noise shaping by frequency
// sampling. Streaming filters run on fft_filter.h's overlap-save engine.
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

/// Evaluates the frequency response of an FIR at `freq_hz`.
cplx fir_response(std::span<const double> taps, double freq_hz,
                  double sample_rate_hz);

}  // namespace aqua::dsp
