// Waveform-level carrier sensing (section 2.4).
//
// Every 80 ms the node measures the average energy in the 1-4 kHz
// communication band; the channel is busy when the level exceeds a
// threshold calibrated from a few seconds of ambient noise measured before
// use in each environment.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft_filter.h"

namespace aqua::mac {

/// Streaming energy detector over the communication band.
class CarrierSense {
 public:
  /// `measure_interval_s` is the paper's 80 ms; `threshold_margin_db` is
  /// how far above the calibrated noise floor the busy threshold sits.
  /// Throws std::invalid_argument when the interval rounds to no samples.
  CarrierSense(double sample_rate_hz = 48000.0,
               double measure_interval_s = 0.08,
               double threshold_margin_db = 6.0);

  /// Calibrates the busy threshold from ambient noise (a few seconds of
  /// samples captured while nobody transmits).
  void calibrate(std::span<const double> ambient_noise);

  /// Feeds one measurement window worth of samples (or any block); returns
  /// the measured band energies, one per completed 80 ms interval.
  std::vector<double> feed(std::span<const double> samples);

  /// True when the most recent completed interval exceeded the threshold.
  bool busy() const { return last_level_ > threshold_; }

  double threshold() const { return threshold_; }
  double last_level() const { return last_level_; }
  std::size_t interval_samples() const { return interval_samples_; }

 private:
  std::size_t interval_samples_;
  double threshold_margin_db_;
  double threshold_ = 0.0;
  double last_level_ = 0.0;
  dsp::FftFilter bandpass_;
  /// Raw input: the bandpass's history (its last kernel_size() - 1
  /// samples, zeros at start) followed by the current interval so far.
  std::vector<double> pending_;
};

}  // namespace aqua::mac
