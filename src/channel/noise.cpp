#include "channel/noise.h"

#include <cmath>

namespace aqua::channel {

double noise_floor_rms(const NoiseParams& p) {
  return p.reference_rms * dsp::db_to_amplitude(p.level_db);
}

std::vector<double> NoiseGenerator::design_shaping_filter(
    const NoiseParams& p, double fs) {
  // Frequency-sampled magnitude: low-frequency bump below the knee,
  // gentle decay to the tail cutoff, near-zero above.
  const std::size_t n = 512;
  std::vector<double> mag(n / 2 + 1);
  for (std::size_t k = 0; k < mag.size(); ++k) {
    const double f = static_cast<double>(k) * fs / static_cast<double>(n);
    const double knee = p.knee_hz;
    // Smooth low-frequency boost that fades across the knee.
    const double bump_db =
        p.low_freq_boost_db / (1.0 + std::pow(f / knee, 3.0));
    // Tail roll-off toward the cutoff.
    double tail_db = 0.0;
    if (f > knee) {
      tail_db = -10.0 * (f - knee) / std::max(p.tail_cutoff_hz - knee, 1.0);
    }
    if (f > p.tail_cutoff_hz) {
      tail_db -= 30.0 * (f - p.tail_cutoff_hz) / 1000.0;
    }
    mag[k] = std::pow(10.0, (bump_db + tail_db) / 20.0);
  }
  mag[0] *= 0.2;  // keep DC bounded
  return dsp::design_from_magnitude(mag, n);
}

NoiseGenerator::NoiseGenerator(const NoiseParams& params,
                               double sample_rate_hz, std::uint64_t seed)
    : params_(params),
      sample_rate_hz_(sample_rate_hz),
      rng_(seed),
      burst_rng_(seed * 0x9E3779B97F4A7C15ULL + 0x6A09E667F3BCC909ULL),
      shaping_taps_(design_shaping_filter(params, sample_rate_hz)),
      shaping_(shaping_taps_) {
  // Calibrate the shaped floor RMS empirically once (deterministic warmup
  // with a private RNG so the stream itself is unaffected).
  std::mt19937_64 warm_rng(seed ^ 0xABCDEF);
  std::normal_distribution<double> g(0.0, 1.0);
  dsp::StreamingFir warm(shaping_taps_);
  std::vector<double> white(8192);
  for (double& v : white) v = g(warm_rng);
  std::vector<double> shaped = warm.process(white);
  const double raw_rms = dsp::rms(shaped);
  const double target = noise_floor_rms(params_);
  floor_rms_ = target;
  gain_ = raw_rms > 0.0 ? target / raw_rms : 0.0;
}

double NoiseGenerator::psd_one_sided(double freq_hz) const {
  const double mag =
      std::abs(dsp::fir_response(shaping_taps_, freq_hz, sample_rate_hz_));
  return 2.0 / sample_rate_hz_ * gain_ * gain_ * mag * mag;
}

std::vector<double> NoiseGenerator::generate(std::size_t n) {
  std::vector<double> out(n);
  generate(out);
  return out;
}

void NoiseGenerator::generate(std::span<double> out) {
  const std::size_t n = out.size();
  white_.resize(n);
  for (double& v : white_) v = gauss_(rng_);
  shaping_.process(white_, out);
  for (double& v : out) v *= gain_;

  const double dt = 1.0 / sample_rate_hz_;
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const double p_burst = params_.bubble_rate_hz * dt;
  const double burst_decay = std::exp(-dt / 0.008);  // per-sample envelope
  for (std::size_t i = 0; i < n; ++i) {
    // Impulsive bubble bursts: Poisson arrivals, exponentially decaying
    // envelopes of white noise (spiky, which is what stresses plain
    // cross-correlation detection in the paper).
    if (params_.bubble_rate_hz > 0.0 && uni(burst_rng_) < p_burst) {
      burst_remaining_ = 0.02 + 0.03 * uni(burst_rng_);
      burst_env_ = params_.bubble_gain * floor_rms_;
    }
    if (burst_remaining_ > 0.0) {
      out[i] += burst_env_ * burst_gauss_(burst_rng_);
      burst_env_ *= burst_decay;
      burst_remaining_ -= dt;
    }
    // Boat machinery tones with slow random amplitude wander.
    if (!params_.boat_tones_hz.empty()) {
      double tone_sum = 0.0;
      for (std::size_t j = 0; j < params_.boat_tones_hz.size(); ++j) {
        const double f = params_.boat_tones_hz[j];
        tone_sum += std::sin(dsp::kTwoPi * f * t_ +
                             0.7 * static_cast<double>(j));
      }
      const double wander = 0.75 + 0.25 * std::sin(dsp::kTwoPi * 0.13 * t_);
      out[i] += params_.boat_tone_gain * floor_rms_ * wander * tone_sum /
                static_cast<double>(params_.boat_tones_hz.size());
    }
    t_ += dt;
  }
}

}  // namespace aqua::channel
