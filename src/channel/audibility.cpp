#include "channel/audibility.h"

#include <algorithm>
#include <cmath>

#include "channel/multipath.h"
#include "dsp/types.h"

namespace aqua::channel {

namespace {

// Fixed headroom multiplier absorbing what the closed-form bound does not
// model exactly: depth swing moving images, endpoint clamping, and the
// scatterer taps' window placement. +6 dB on top of an already worst-case
// product keeps the decision conservative without wrecking the cull rate.
constexpr double kGeometryHeadroomDb = 6.0;

double clamp_depth(double z, double water_depth) {
  return std::clamp(z, 0.05, std::max(water_depth - 0.05, 0.1));
}

}  // namespace

double frac_interp_l1(std::size_t frac_taps) {
  const std::size_t half = frac_taps / 2;
  double worst = 1.0;
  // The kernel's L1 norm depends on where the tap center falls between
  // samples; scan the fraction densely and keep the max.
  for (int f = 0; f <= 64; ++f) {
    const double frac = static_cast<double>(f) / 64.0;
    double l1 = 0.0;
    for (std::ptrdiff_t i = -static_cast<std::ptrdiff_t>(half);
         i <= static_cast<std::ptrdiff_t>(half); ++i) {
      const double u = static_cast<double>(i) - frac;
      const double sinc =
          std::abs(u) < 1e-12 ? 1.0 : std::sin(dsp::kPi * u) / (dsp::kPi * u);
      const double w =
          0.5 + 0.5 * std::cos(dsp::kPi * u / (static_cast<double>(half) + 1.0));
      l1 += std::abs(sinc * std::max(w, 0.0));
    }
    worst = std::max(worst, l1);
  }
  return worst;
}

double closest_range_m(const LinkConfig& cfg, const MobilityModel& mobility,
                       double t_s, double horizon_s) {
  // max_offset_m bounds |offset| over [0, t_end], which covers
  // [t_s, t_s + horizon_s].
  const double excursion =
      mobility.max_offset_m(std::max(t_s, 0.0) + std::max(horizon_s, 0.0));
  return std::max(0.5, cfg.range_m - excursion);
}

double peak_gain_bound(const LinkConfig& cfg, const MobilityModel& mobility,
                       double device_l1, double t_s, double horizon_s) {
  return peak_gain_bound_at(cfg, device_l1,
                            closest_range_m(cfg, mobility, t_s, horizon_s));
}

double peak_gain_bound_at(const LinkConfig& cfg, double device_l1,
                          double range) {
  // The interpolation kernel's L1 norm is a constant of the renderer.
  static const double interp_l1 = frac_interp_l1();

  double path_l1 = 0.0;
  if (cfg.in_air) {
    // Single line-of-sight tap with amplitude 1 / max(length, 1) and
    // length >= horizontal range.
    path_l1 = 1.0 / std::max(range, 1.0);
  } else {
    Geometry g;
    g.range_m = range;
    const double depth = cfg.site.water_depth_m;
    g.source_depth_m = clamp_depth(
        cfg.tx_depth_m + cfg.tx_device.speaker_offset_m(), depth);
    g.receiver_depth_m =
        clamp_depth(cfg.rx_depth_m + cfg.rx_device.mic_offset_m(), depth);
    g.water_depth_m = depth;
    WaveguideParams wp = cfg.site.waveguide;
    // Surface roughness randomizes the surface coefficient per block but
    // clamps it to <= 1; pinning it at 1 dominates every draw. The bottom
    // coefficient is deterministic, so its configured value is exact.
    wp.surface_reflection = 1.0;
    for (const Path& p : compute_paths(g, wp)) {
      path_l1 += std::abs(p.amplitude);
    }
  }
  return device_l1 * path_l1 * interp_l1 *
         dsp::db_to_amplitude(kGeometryHeadroomDb);
}

bool pair_inaudible(double gain_bound, double tx_peak, double mic_floor_rms,
                    double margin_db) {
  if (mic_floor_rms <= 0.0) return false;
  return gain_bound * tx_peak < mic_floor_rms * dsp::db_to_amplitude(margin_db);
}

double audible_range_m(const LinkConfig& proto, double device_l1,
                       double mic_floor_rms, const AudibilityParams& params,
                       double excursion_allowance_m) {
  if (mic_floor_rms <= 0.0) {
    // Nothing can ever be culled against a silent medium.
    return 1e9;
  }
  const MobilityModel mobility = link_mobility(proto);
  const auto inaudible_at = [&](double center_range) {
    LinkConfig cfg = proto;
    cfg.range_m =
        std::max(0.5, center_range - std::max(excursion_allowance_m, 0.0));
    const double g =
        peak_gain_bound(cfg, mobility, device_l1, 0.0, params.horizon_s);
    return pair_inaudible(g, params.tx_peak, mic_floor_rms, params.margin_db);
  };
  if (!inaudible_at(2e5)) return 1e9;  // floor too quiet to ever cull
  double lo = 0.5;
  double hi = 2e5;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (inaudible_at(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  // The path-gain bound is not perfectly monotone in range (image sums);
  // pad the bisection result so the topology cut stays conservative.
  return hi * 1.05 + 1.0;
}

}  // namespace aqua::channel
