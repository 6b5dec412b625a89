#include "channel/device.h"

#include <cmath>
#include <random>

namespace aqua::channel {

namespace {

// Smooth band-edge model: second-order high-pass roll-on below lo, power-law
// roll-off above hi.
double band_edge_gain(double f, double lo, double hi, double hi_slope) {
  if (f <= 0.0) return 0.0;
  const double lo_ratio = f / lo;
  const double lo_gain = lo_ratio * lo_ratio / (1.0 + lo_ratio * lo_ratio);
  double hi_gain = 1.0;
  if (f > hi) {
    hi_gain = std::pow(hi / f, hi_slope);
  }
  return lo_gain * hi_gain;
}

// Per-model base parameters. Numbers chosen so that the S9 is the reference
// device, the watch is quieter and narrower-band, and each model's notch
// placement statistics differ (Fig. 3a).
struct ModelParams {
  double tx_level;
  double lo_edge;
  double hi_edge;
  double hi_slope;
  int speaker_notches;
  int mic_notches;
  double notch_depth_lo_db;
  double notch_depth_hi_db;
  std::uint64_t model_seed;
};

ModelParams params_for(DeviceModel m) {
  switch (m) {
    case DeviceModel::kGalaxyS9:
      return {1.00, 350.0, 4100.0, 3.0, 2, 2, 8.0, 16.0, 0x51d3a};
    case DeviceModel::kPixel4:
      return {0.90, 420.0, 3900.0, 3.4, 3, 2, 10.0, 18.0, 0x9e21b};
    case DeviceModel::kOnePlus8Pro:
      return {0.95, 380.0, 4200.0, 2.8, 2, 3, 9.0, 20.0, 0x17c44};
    case DeviceModel::kGalaxyWatch4:
      return {0.55, 600.0, 3600.0, 4.0, 3, 3, 10.0, 20.0, 0x3b9f1};
  }
  return {1.0, 400.0, 4000.0, 3.0, 2, 2, 8.0, 16.0, 0};
}

std::vector<Notch> draw_notches(std::mt19937_64& rng, int count,
                                double depth_lo, double depth_hi) {
  std::uniform_real_distribution<double> center(1100.0, 4600.0);
  std::uniform_real_distribution<double> depth(depth_lo, depth_hi);
  std::uniform_real_distribution<double> width(120.0, 350.0);
  std::vector<Notch> notches;
  notches.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    notches.push_back({center(rng), depth(rng), width(rng)});
  }
  return notches;
}

}  // namespace

DeviceProfile::DeviceProfile(DeviceModel model, std::uint64_t unit_seed,
                             CaseType case_type)
    : model_(model), unit_seed_(unit_seed), case_type_(case_type) {
  const ModelParams p = params_for(model);
  tx_level_ = p.tx_level;
  lo_edge_hz_ = p.lo_edge;
  hi_edge_hz_ = p.hi_edge;
  hi_slope_ = p.hi_slope;

  std::mt19937_64 rng(p.model_seed ^ (unit_seed * 0x9E3779B97F4A7C15ULL));
  speaker_notches_ = draw_notches(rng, p.speaker_notches, p.notch_depth_lo_db,
                                  p.notch_depth_hi_db);
  mic_notches_ = draw_notches(rng, p.mic_notches, p.notch_depth_lo_db,
                              p.notch_depth_hi_db);
  // Speaker/mic physical separation (bottom-firing speaker vs top mic on a
  // phone; both near the bezel on a watch). Small per-unit jitter.
  std::uniform_real_distribution<double> jitter(-0.01, 0.01);
  if (model == DeviceModel::kGalaxyWatch4) {
    speaker_offset_m_ = 0.015 + jitter(rng);
    mic_offset_m_ = -0.015 + jitter(rng);
  } else {
    speaker_offset_m_ = 0.06 + jitter(rng);
    mic_offset_m_ = -0.07 + jitter(rng);
  }
}

double DeviceProfile::notch_gain(const std::vector<Notch>& notches,
                                 double freq_hz) {
  double gain_db = 0.0;
  for (const Notch& n : notches) {
    const double d = (freq_hz - n.center_hz) / (n.width_hz * 0.5);
    gain_db -= n.depth_db * std::exp(-d * d);
  }
  return std::pow(10.0, gain_db / 20.0);
}

double DeviceProfile::case_gain(double freq_hz) const {
  switch (case_type_) {
    case CaseType::kNone:
      return 1.0;
    case CaseType::kSoftPouch:
      // Thin PVC: ~2 dB broadband, slightly worse at high frequency.
      return std::pow(10.0, -(2.0 + 0.3 * freq_hz / 1000.0) / 20.0);
    case CaseType::kHardCase:
      // Polycarbonate shell (Fig. 11): ~8 dB plus high-frequency emphasis
      // of the loss.
      return std::pow(10.0, -(8.0 + 0.8 * freq_hz / 1000.0) / 20.0);
  }
  return 1.0;
}

double DeviceProfile::speaker_gain(double freq_hz, bool immersed) const {
  const double notches = immersed ? notch_gain(speaker_notches_, freq_hz) : 1.0;
  return tx_level_ * band_edge_gain(freq_hz, lo_edge_hz_, hi_edge_hz_, hi_slope_) *
         notches * case_gain(freq_hz);
}

double DeviceProfile::mic_gain(double freq_hz, bool immersed) const {
  // Microphones are wider-band than the tiny speaker: relax the edges.
  const double notches = immersed ? notch_gain(mic_notches_, freq_hz) : 1.0;
  return band_edge_gain(freq_hz, lo_edge_hz_ * 0.5, hi_edge_hz_ * 1.4,
                        hi_slope_ * 0.7) *
         notches * case_gain(freq_hz);
}

double DeviceProfile::orientation_gain(double azimuth_deg, double freq_hz) const {
  // Body shadowing: smooth attenuation up to ~8 dB at 180 degrees, slightly
  // stronger at high frequencies (shorter wavelengths diffract less).
  const double a = std::abs(azimuth_deg) / 180.0;  // 0..1
  const double freq_factor = 0.7 + 0.3 * std::min(freq_hz / 4000.0, 1.5);
  const double loss_db = 8.0 * a * a * freq_factor;
  return std::pow(10.0, -loss_db / 20.0);
}

std::string DeviceProfile::name() const {
  switch (model_) {
    case DeviceModel::kGalaxyS9: return "Samsung Galaxy S9";
    case DeviceModel::kPixel4: return "Google Pixel 4";
    case DeviceModel::kOnePlus8Pro: return "OnePlus 8 Pro";
    case DeviceModel::kGalaxyWatch4: return "Samsung Galaxy Watch 4";
  }
  return "unknown";
}

std::vector<double> DeviceProfile::sample_response(bool speaker, std::size_t n,
                                                   double sample_rate_hz,
                                                   bool immersed) const {
  std::vector<double> mag(n / 2 + 1);
  for (std::size_t k = 0; k < mag.size(); ++k) {
    const double f = static_cast<double>(k) * sample_rate_hz /
                     static_cast<double>(n);
    mag[k] = speaker ? speaker_gain(f, immersed) : mic_gain(f, immersed);
  }
  return mag;
}

}  // namespace aqua::channel
