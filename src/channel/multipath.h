// Image-method multipath for a shallow-water (Pekeris) waveguide.
//
// The water column is bounded by a pressure-release surface (reflection
// coefficient ~ -1 with a small roughness loss) and a partially reflecting
// bottom. Source images are enumerated in the four standard families per
// reflection order; each propagation path contributes a tap with spherical
// spreading 1/L, the product of boundary reflection coefficients, and Thorp
// absorption. Site-specific scatterers (dock pillars, walls) add extra
// delayed taps, which is what produces the deep frequency-selective fades
// of the paper's lake location.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace aqua::channel {

/// One propagation path from source to receiver.
struct Path {
  double delay_s = 0.0;      ///< absolute propagation delay
  double amplitude = 0.0;    ///< signed linear amplitude (surface flips sign)
  int surface_bounces = 0;
  int bottom_bounces = 0;
};

/// Geometry of a single link through the waveguide.
struct Geometry {
  double range_m = 10.0;       ///< horizontal separation
  double source_depth_m = 1.0;
  double receiver_depth_m = 1.0;
  double water_depth_m = 5.0;
};

/// Boundary/scatter parameters of a site.
struct WaveguideParams {
  double surface_reflection = 0.95;  ///< magnitude (phase flip is implicit)
  double bottom_reflection = 0.45;   ///< magnitude, sign positive
  int max_order = 12;                ///< image families enumerated per side
  double min_relative_amplitude = 1e-3;  ///< prune taps below this vs direct
  int scatterer_count = 0;           ///< extra discrete reflectors
  double scatter_strength = 0.3;     ///< relative amplitude scale of scatter
  double scatter_max_extra_delay_s = 0.004;
  std::uint64_t scatter_seed = 1;    ///< reflector placement seed
};

/// Enumerates image-method paths for `geom` in a waveguide with `params`.
/// Paths are sorted by delay; the first entry is the direct path.
std::vector<Path> compute_paths(const Geometry& geom,
                                const WaveguideParams& params);

/// Renders paths into a discrete-time impulse response at `sample_rate_hz`.
/// The bulk delay of the earliest path is removed and returned via
/// `bulk_delay_samples`; tap positions are relative to it. Fractional
/// delays use windowed-sinc interpolation (`frac_taps` wide).
std::vector<double> paths_to_impulse_response(const std::vector<Path>& paths,
                                              double sample_rate_hz,
                                              double* bulk_delay_s = nullptr,
                                              std::size_t frac_taps = 33);

/// As above, but tap positions are relative to the caller-chosen
/// `reference_delay_s` (which must be <= every path delay). Used by the
/// time-varying channel so consecutive blocks share one delay origin and
/// path motion appears as smooth tap drift (physical Doppler).
std::vector<double> paths_to_impulse_response_ref(
    const std::vector<Path>& paths, double sample_rate_hz,
    double reference_delay_s, std::size_t frac_taps = 33);

/// The delay-dependent half of paths_to_impulse_response_ref: every path's
/// in-range windowed-sinc taps without its amplitude. A time-varying link
/// whose path delays hold from one block to the next (a static geometry
/// under a rough surface, where only the surface bounces' amplitudes
/// change) keeps its table and re-renders only the amplitudes.
struct TapTable {
  std::size_t length = 0;           ///< response length in samples
  std::vector<double> delays;       ///< path delays the table was built for
  std::vector<std::size_t> first;   ///< per path: response index of its first tap
  std::vector<std::size_t> offset;  ///< per path + 1: start in sinc/window
  std::vector<double> sinc;         ///< in-range taps, path after path
  std::vector<double> window;       ///< their max(Hann, 0) weights
};

/// Fills `table` (reusing its capacity) for `paths` relative to
/// `reference_delay_s`, as paths_to_impulse_response_ref places them.
void build_tap_table(const std::vector<Path>& paths, double sample_rate_hz,
                     double reference_delay_s, TapTable& table,
                     std::size_t frac_taps = 33);

/// Whether `table` was built for exactly these path delays (bit for bit),
/// so its taps still hold.
bool tap_table_matches(const TapTable& table, const std::vector<Path>& paths);

/// Renders `paths` through `table` (built for their delays) into `h`,
/// which must hold table.length samples: h[i] += amplitude * sinc * window
/// over each path's taps, in path order. The one renderer behind
/// paths_to_impulse_response_ref.
void render_taps(const std::vector<Path>& paths, const TapTable& table,
                 std::span<double> h);

/// Length of the response paths_to_impulse_response_ref renders for
/// `paths` (0 when there are none), without rendering it.
std::size_t impulse_response_length(const std::vector<Path>& paths,
                                    double sample_rate_hz,
                                    double reference_delay_s,
                                    std::size_t frac_taps = 33);

/// Frequency response of a path set at `freq_hz` (sum of delayed phasors).
dsp::cplx paths_frequency_response(const std::vector<Path>& paths,
                                   double freq_hz);

}  // namespace aqua::channel
