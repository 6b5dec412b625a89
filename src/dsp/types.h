// Common scalar/complex types and small numeric helpers shared by all of
// aquacomm's signal-processing code.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <numbers>
#include <span>
#include <vector>

namespace aqua::dsp {

/// Complex sample type used throughout the library.
using cplx = std::complex<double>;

/// Single-precision complex sample type used by the float receive path.
using cplxf = std::complex<float>;

/// Sanctioned double->float narrowing for the mic-boundary conversion. The
/// receive front end (bandpass + preamble correlation + tone scans) runs
/// single-precision; every narrowing conversion into that path must go
/// through these helpers so the `float-narrow` lint rule can tell the one
/// intentional precision boundary apart from accidental truncation.
inline float narrow_sample(double v) { return static_cast<float>(v); }

/// Narrows a block of samples at the mic boundary (see narrow_sample).
inline void narrow_samples(std::span<const double> in, std::span<float> out) {
  const std::size_t n = std::min(in.size(), out.size());
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<float>(in[i]);
}

/// Converts a double sample block to the requested sample type. Identity for
/// T = double; the sanctioned mic-boundary narrowing for T = float, which
/// builds the fp32 front end's filter taps and correlation templates.
template <typename T>
std::vector<T> convert_samples(std::span<const double> in) {
  std::vector<T> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = static_cast<T>(in[i]);
  return out;
}

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Converts a linear power ratio to decibels. Clamps at -300 dB for zero.
inline double power_to_db(double power) {
  if (power <= 0.0) return -300.0;
  return 10.0 * std::log10(power);
}

/// Converts a linear amplitude ratio to decibels.
inline double amplitude_to_db(double amplitude) {
  if (amplitude <= 0.0) return -300.0;
  return 20.0 * std::log10(amplitude);
}

/// Converts decibels to a linear power ratio.
inline double db_to_power(double db) { return std::pow(10.0, db / 10.0); }

/// Converts decibels to a linear amplitude ratio.
inline double db_to_amplitude(double db) { return std::pow(10.0, db / 20.0); }

/// Mean of the squared magnitude of a signal (average power).
inline double mean_power(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return acc / static_cast<double>(x.size());
}

/// Mean of the squared magnitude of a complex signal.
inline double mean_power(std::span<const cplx> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (const cplx& v : x) acc += std::norm(v);
  return acc / static_cast<double>(x.size());
}

/// Sum of squared magnitudes (energy) of a real signal.
inline double energy(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return acc;
}

/// Energy of a single-precision signal, accumulated in double so the float
/// receive path normalizes against the same reference scale as the double
/// path.
inline double energy(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += static_cast<double>(v) * static_cast<double>(v);
  return acc;
}

/// Root-mean-square amplitude of a real signal.
inline double rms(std::span<const double> x) { return std::sqrt(mean_power(x)); }

/// Scales a signal in place so its RMS equals `target_rms`. No-op on silence.
inline void normalize_rms(std::span<double> x, double target_rms) {
  const double r = rms(x);
  if (r <= 0.0) return;
  const double g = target_rms / r;
  for (double& v : x) v *= g;
}

/// Returns true when |a - b| <= tol.
inline bool near(double a, double b, double tol = 1e-9) {
  return std::abs(a - b) <= tol;
}

}  // namespace aqua::dsp
