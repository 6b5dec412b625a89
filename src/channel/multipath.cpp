#include "channel/multipath.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "channel/absorption.h"

namespace aqua::channel {

namespace {

// Adds one image path given the unfolded vertical distance and bounce
// counts; returns false when the amplitude fell below the pruning floor.
bool add_path(std::vector<Path>& out, double range_m, double vertical_m,
              int ns, int nb, const WaveguideParams& p, double direct_amp) {
  const double length = std::hypot(range_m, vertical_m);
  const double refl = std::pow(p.surface_reflection, ns) *
                      std::pow(p.bottom_reflection, nb);
  // Sign: each surface bounce flips polarity (pressure-release boundary).
  const double sign = (ns % 2 == 0) ? 1.0 : -1.0;
  // Spreading + (scalar) absorption evaluated at the band center 2.5 kHz.
  const double amp = sign * refl * transmission_amplitude(length, 2500.0);
  if (std::abs(amp) < p.min_relative_amplitude * direct_amp) return false;
  out.push_back({length / kSoundSpeedWater, amp, ns, nb});
  return true;
}

}  // namespace

std::vector<Path> compute_paths(const Geometry& geom,
                                const WaveguideParams& params) {
  if (geom.water_depth_m <= 0.0 || geom.range_m <= 0.0) {
    throw std::invalid_argument("compute_paths: bad geometry");
  }
  const double zs = geom.source_depth_m;
  const double zr = geom.receiver_depth_m;
  const double d = geom.water_depth_m;
  const double r = geom.range_m;

  const double direct_len = std::hypot(r, zr - zs);
  const double direct_amp = transmission_amplitude(direct_len, 2500.0);

  std::vector<Path> paths;
  // Four image families per order m (Jensen et al., Computational Ocean
  // Acoustics, ch. 2): vertical distances and bounce counts.
  for (int m = 0; m <= params.max_order; ++m) {
    bool any = false;
    const double md = 2.0 * static_cast<double>(m) * d;
    // (m surface, m bottom): v = 2md + (zr - zs)
    any |= add_path(paths, r, md + (zr - zs), m, m, params, direct_amp);
    // (m+1 surface, m bottom): v = 2md + (zr + zs)
    any |= add_path(paths, r, md + (zr + zs), m + 1, m, params, direct_amp);
    // (m surface, m+1 bottom): v = 2(m+1)d - (zr + zs)
    any |= add_path(paths, r, 2.0 * (m + 1) * d - (zr + zs), m, m + 1, params,
                    direct_amp);
    // (m+1 surface, m+1 bottom): v = 2(m+1)d - (zr - zs)
    any |= add_path(paths, r, 2.0 * (m + 1) * d - (zr - zs), m + 1, m + 1,
                    params, direct_amp);
    if (!any && m > 0) break;  // all four families fell below the floor
  }

  // Discrete scatterers (dock pillars, walls): delayed, attenuated copies
  // with random excess path length, deterministic per site seed.
  if (params.scatterer_count > 0) {
    std::mt19937_64 rng(params.scatter_seed);
    std::uniform_real_distribution<double> extra(
        0.0002, std::max(0.0004, params.scatter_max_extra_delay_s));
    std::uniform_real_distribution<double> strength(0.2, 1.0);
    std::uniform_int_distribution<int> polarity(0, 1);
    const double direct_delay = direct_len / kSoundSpeedWater;
    for (int i = 0; i < params.scatterer_count; ++i) {
      const double dt = extra(rng);
      const double path_len = (direct_delay + dt) * kSoundSpeedWater;
      const double amp = params.scatter_strength * strength(rng) *
                         transmission_amplitude(path_len, 2500.0) *
                         (polarity(rng) ? 1.0 : -1.0);
      if (std::abs(amp) < params.min_relative_amplitude * direct_amp) continue;
      paths.push_back({direct_delay + dt, amp, 0, 0});
    }
  }

  std::sort(paths.begin(), paths.end(),
            [](const Path& a, const Path& b) { return a.delay_s < b.delay_s; });
  return paths;
}

std::vector<double> paths_to_impulse_response(const std::vector<Path>& paths,
                                              double sample_rate_hz,
                                              double* bulk_delay_s,
                                              std::size_t frac_taps) {
  if (paths.empty()) {
    if (bulk_delay_s) *bulk_delay_s = 0.0;
    return {};
  }
  const double t0 = paths.front().delay_s;
  if (bulk_delay_s) *bulk_delay_s = t0;
  return paths_to_impulse_response_ref(paths, sample_rate_hz, t0, frac_taps);
}

std::size_t impulse_response_length(const std::vector<Path>& paths,
                                    double sample_rate_hz,
                                    double reference_delay_s,
                                    std::size_t frac_taps) {
  if (paths.empty()) return 0;
  double max_rel = 0.0;
  for (const Path& p : paths) {
    max_rel = std::max(max_rel, p.delay_s - reference_delay_s);
  }
  return static_cast<std::size_t>(max_rel * sample_rate_hz) + frac_taps + 1;
}

void build_tap_table(const std::vector<Path>& paths, double sample_rate_hz,
                     double reference_delay_s, TapTable& table,
                     std::size_t frac_taps) {
  const double t0 = reference_delay_s;
  const std::size_t half = frac_taps / 2;
  table.length =
      impulse_response_length(paths, sample_rate_hz, t0, frac_taps);
  table.delays.clear();
  table.first.clear();
  table.offset.assign(1, 0);
  table.sinc.clear();
  table.window.clear();
  const auto len = static_cast<std::ptrdiff_t>(table.length);
  // Windowed sinc (Hann over the kernel extent) at u = i - tap_center. One
  // tap to the next, u grows by exactly 1: sin(pi u) only flips sign, and
  // the Hann phase pi u / (half + 1) turns by a fixed step.
  const double hann_rate = dsp::kPi / (static_cast<double>(half) + 1.0);
  const double step_re = std::cos(hann_rate);
  const double step_im = std::sin(hann_rate);
  for (const Path& p : paths) {
    table.delays.push_back(p.delay_s);
    const double tap_center = (p.delay_s - t0) * sample_rate_hz +
                              static_cast<double>(half);
    const std::ptrdiff_t center =
        static_cast<std::ptrdiff_t>(std::llround(tap_center));
    const std::ptrdiff_t lo =
        std::max<std::ptrdiff_t>(center - static_cast<std::ptrdiff_t>(half), 0);
    const std::ptrdiff_t hi =
        std::min(center + static_cast<std::ptrdiff_t>(half), len - 1);
    table.first.push_back(static_cast<std::size_t>(lo));
    // u_lo less its nearest integer is exact, and keeps sin(pi u) accurate
    // relative to u on the tap nearest a grid-aligned centre.
    const double u_lo = static_cast<double>(lo) - tap_center;
    const double whole = std::round(u_lo);
    double sin_pi_u = std::sin(dsp::kPi * (u_lo - whole));
    if (static_cast<long long>(whole) % 2 != 0) sin_pi_u = -sin_pi_u;
    double hann_re = std::cos(hann_rate * u_lo);
    double hann_im = std::sin(hann_rate * u_lo);
    for (std::ptrdiff_t i = lo; i <= hi; ++i) {
      const double u = static_cast<double>(i) - tap_center;
      table.sinc.push_back(std::abs(u) < 1e-12 ? 1.0
                                               : sin_pi_u / (dsp::kPi * u));
      table.window.push_back(std::max(0.5 + 0.5 * hann_re, 0.0));
      sin_pi_u = -sin_pi_u;
      const double re = hann_re * step_re - hann_im * step_im;
      hann_im = hann_im * step_re + hann_re * step_im;
      hann_re = re;
    }
    table.offset.push_back(table.sinc.size());
  }
}

bool tap_table_matches(const TapTable& table, const std::vector<Path>& paths) {
  if (table.delays.size() != paths.size()) return false;
  for (std::size_t k = 0; k < paths.size(); ++k) {
    if (table.delays[k] != paths[k].delay_s) return false;
  }
  return true;
}

void render_taps(const std::vector<Path>& paths, const TapTable& table,
                 std::span<double> h) {
  std::fill(h.begin(), h.end(), 0.0);
  for (std::size_t k = 0; k < paths.size(); ++k) {
    const double amp = paths[k].amplitude;
    std::size_t i = table.first[k];
    for (std::size_t t = table.offset[k]; t < table.offset[k + 1]; ++t) {
      h[i++] += amp * table.sinc[t] * table.window[t];
    }
  }
}

std::vector<double> paths_to_impulse_response_ref(
    const std::vector<Path>& paths, double sample_rate_hz,
    double reference_delay_s, std::size_t frac_taps) {
  TapTable table;
  build_tap_table(paths, sample_rate_hz, reference_delay_s, table, frac_taps);
  std::vector<double> h(table.length);
  render_taps(paths, table, h);
  return h;
}

dsp::cplx paths_frequency_response(const std::vector<Path>& paths,
                                   double freq_hz) {
  dsp::cplx acc{0.0, 0.0};
  for (const Path& p : paths) {
    const double phase = -dsp::kTwoPi * freq_hz * p.delay_s;
    acc += p.amplitude * dsp::cplx{std::cos(phase), std::sin(phase)};
  }
  return acc;
}

}  // namespace aqua::channel
