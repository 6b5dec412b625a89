#include "mac/carrier_sense.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fir.h"
#include "dsp/types.h"
#include "dsp/workspace.h"

namespace aqua::mac {

CarrierSense::CarrierSense(double sample_rate_hz, double measure_interval_s,
                           double threshold_margin_db)
    : interval_samples_(static_cast<std::size_t>(measure_interval_s *
                                                 sample_rate_hz + 0.5)),
      threshold_margin_db_(threshold_margin_db),
      bandpass_(dsp::design_bandpass(1000.0, 4000.0, sample_rate_hz, 129)),
      pending_(bandpass_.kernel_size() - 1, 0.0) {
  if (interval_samples_ == 0) {
    throw std::invalid_argument("CarrierSense: empty measurement interval");
  }
}

void CarrierSense::calibrate(std::span<const double> ambient_noise) {
  // The causal filter output over the capture from zero history: the first
  // ambient_noise.size() samples of the full convolution.
  dsp::Workspace ws;
  const std::vector<double> filtered = bandpass_.convolve(ambient_noise, ws);
  const double noise_power = dsp::mean_power(
      std::span<const double>(filtered).first(ambient_noise.size()));
  threshold_ = noise_power * dsp::db_to_power(threshold_margin_db_);
}

std::vector<double> CarrierSense::feed(std::span<const double> samples) {
  // Each completed interval filters [history | interval] in one call; the
  // outputs past the history are the causal filter's outputs over the
  // interval, so a level arrives at the interval's last input sample.
  const std::size_t hist = bandpass_.kernel_size() - 1;
  std::vector<double> levels;
  dsp::Workspace ws;
  std::size_t i = 0;
  while (i < samples.size()) {
    const std::size_t take = std::min(
        samples.size() - i, hist + interval_samples_ - pending_.size());
    const auto from = samples.begin() + static_cast<std::ptrdiff_t>(i);
    pending_.insert(pending_.end(), from,
                    from + static_cast<std::ptrdiff_t>(take));
    i += take;
    if (pending_.size() < hist + interval_samples_) break;
    dsp::ScratchReal filtered(ws, bandpass_.output_length(pending_.size()));
    bandpass_.convolve_into(pending_, filtered.span(), ws);
    last_level_ = dsp::mean_power(std::span<const double>(filtered.span())
                                      .subspan(hist, interval_samples_));
    levels.push_back(last_level_);
    pending_.erase(pending_.begin(),
                   pending_.end() - static_cast<std::ptrdiff_t>(hist));
  }
  return levels;
}

}  // namespace aqua::mac
