#include "dsp/fir.h"

#include <algorithm>
#include <stdexcept>

#include "dsp/fft.h"
#include "dsp/fft_filter.h"
#include "dsp/simd.h"
#include "dsp/workspace.h"

namespace aqua::dsp {

namespace {

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

}  // namespace

std::vector<double> design_lowpass(double cutoff_hz, double sample_rate_hz,
                                   std::size_t taps, WindowType window) {
  if (taps == 0) throw std::invalid_argument("design_lowpass: taps == 0");
  if (cutoff_hz <= 0.0 || cutoff_hz >= sample_rate_hz / 2.0) {
    throw std::invalid_argument("design_lowpass: cutoff out of range");
  }
  const double fc = cutoff_hz / sample_rate_hz;  // normalized (cycles/sample)
  const double center = static_cast<double>(taps - 1) / 2.0;
  std::vector<double> w = make_window(window, taps);
  std::vector<double> h(taps);
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - center;
    h[i] = 2.0 * fc * sinc(2.0 * fc * t) * w[i];
    sum += h[i];
  }
  // Normalize DC gain to exactly 1.
  for (double& v : h) v /= sum;
  return h;
}

std::vector<double> design_bandpass(double low_hz, double high_hz,
                                    double sample_rate_hz, std::size_t taps,
                                    WindowType window) {
  if (low_hz <= 0.0 || high_hz <= low_hz || high_hz >= sample_rate_hz / 2.0) {
    throw std::invalid_argument("design_bandpass: band out of range");
  }
  // Difference of two lowpasses designed without DC normalization, so the
  // pass-band gain lands at ~1.
  const double center = static_cast<double>(taps - 1) / 2.0;
  std::vector<double> w = make_window(window, taps);
  const double f1 = low_hz / sample_rate_hz;
  const double f2 = high_hz / sample_rate_hz;
  std::vector<double> h(taps);
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - center;
    h[i] = (2.0 * f2 * sinc(2.0 * f2 * t) - 2.0 * f1 * sinc(2.0 * f1 * t)) * w[i];
  }
  // Normalize gain at the band center to 1.
  const double fc_hz = 0.5 * (low_hz + high_hz);
  const double g = std::abs(fir_response(h, fc_hz, sample_rate_hz));
  if (g > 0.0) {
    for (double& v : h) v /= g;
  }
  return h;
}

std::vector<double> design_from_magnitude(std::span<const double> magnitude,
                                          std::size_t n, WindowType window) {
  if (n == 0 || magnitude.size() != n / 2 + 1) {
    throw std::invalid_argument("design_from_magnitude: need n/2+1 samples");
  }
  // Build a conjugate-symmetric spectrum with linear phase (delay (n-1)/2)
  // and inverse transform.
  std::vector<cplx> spec(n, cplx{0.0, 0.0});
  const double delay = static_cast<double>(n - 1) / 2.0;
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const double phase = -kTwoPi * static_cast<double>(k) * delay /
                         static_cast<double>(n);
    const cplx v = magnitude[k] * cplx{std::cos(phase), std::sin(phase)};
    spec[k] = v;
    if (k != 0 && k != n - k) spec[n - k] = std::conj(v);
  }
  std::vector<double> h = ifft_real(spec);
  std::vector<double> w = make_window(window, n);
  for (std::size_t i = 0; i < n; ++i) h[i] *= w[i];
  return h;
}

std::vector<double> convolve(std::span<const double> x,
                             std::span<const double> h) {
  if (x.empty() || h.empty()) return {};
  const std::size_t out_len = x.size() + h.size() - 1;
  // Direct convolution for short kernels; overlap-save otherwise. The
  // shorter operand becomes the kernel (convolution commutes), so the FFT
  // block size tracks the kernel, not the capture: an N-sample signal costs
  // O(N log B) instead of one next_pow2(N+M) transform.
  if (h.size() * x.size() <= kOneShotDirectConvOpsThreshold) {
    std::vector<double> y(out_len, 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      for (std::size_t j = 0; j < h.size(); ++j) y[i + j] += xi * h[j];
    }
    return y;
  }
  const std::span<const double> kernel = h.size() <= x.size() ? h : x;
  const std::span<const double> signal = h.size() <= x.size() ? x : h;
  const FftFilter filt(std::vector<double>(kernel.begin(), kernel.end()));
  Workspace ws;
  return filt.convolve(signal, ws);
}

void fft_convolve_into(std::span<const double> x, std::span<const double> h,
                       std::span<double> out, Workspace& ws) {
  const std::size_t m = next_pow2(out.size());
  const RfftPlan& plan = rplan_of(m);
  Scratch<double> a_s(ws, m);
  Scratch<double> b_s(ws, m);
  Scratch<cplx> fa_s(ws, plan.spectrum_size());
  Scratch<cplx> fb_s(ws, plan.spectrum_size());
  std::span<double> a = a_s.span();
  std::span<double> b = b_s.span();
  std::copy(x.begin(), x.end(), a.begin());
  std::fill(a.begin() + static_cast<std::ptrdiff_t>(x.size()), a.end(), 0.0);
  std::copy(h.begin(), h.end(), b.begin());
  std::fill(b.begin() + static_cast<std::ptrdiff_t>(h.size()), b.end(), 0.0);
  plan.forward(a, fa_s.span(), ws);
  plan.forward(b, fb_s.span(), ws);
  simd::cmul_inplace(simd::active(), fa_s->data(), fb_s->data(),
                     plan.spectrum_size());
  plan.inverse(fa_s.span(), a, ws);
  std::copy_n(a.begin(), out.size(), out.begin());
}

std::vector<cplx> convolve(std::span<const cplx> x, std::span<const cplx> h) {
  if (x.empty() || h.empty()) return {};
  const std::size_t out_len = x.size() + h.size() - 1;
  if (h.size() * x.size() <= kOneShotDirectConvOpsThreshold) {
    std::vector<cplx> y(out_len, cplx{});
    for (std::size_t i = 0; i < x.size(); ++i) {
      const cplx xi = x[i];
      for (std::size_t j = 0; j < h.size(); ++j) y[i + j] += xi * h[j];
    }
    return y;
  }
  const std::size_t m = next_pow2(out_len);
  std::vector<cplx> a(m, cplx{}), b(m, cplx{});
  std::copy(x.begin(), x.end(), a.begin());
  std::copy(h.begin(), h.end(), b.begin());
  std::vector<cplx> fa = fft(a);
  std::vector<cplx> fb = fft(b);
  for (std::size_t i = 0; i < m; ++i) fa[i] *= fb[i];
  std::vector<cplx> full = ifft(fa);
  full.resize(out_len);
  return full;
}

std::vector<double> filter_same(std::span<const double> x,
                                std::span<const double> h) {
  std::vector<double> full = convolve(x, h);
  const std::size_t delay = (h.size() - 1) / 2;
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = full[i + delay];
  return out;
}

cplx fir_response(std::span<const double> taps, double freq_hz,
                  double sample_rate_hz) {
  const double w = kTwoPi * freq_hz / sample_rate_hz;
  cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const double phase = -w * static_cast<double>(i);
    acc += taps[i] * cplx{std::cos(phase), std::sin(phase)};
  }
  return acc;
}

}  // namespace aqua::dsp
