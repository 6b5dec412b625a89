// Physics-based audibility culling for the shared acoustic medium.
//
// A directed path whose *best-case* received peak cannot rise above a
// margin below the receiving microphone's ambient noise floor contributes
// nothing a receiver could ever act on — the medium skips its multipath
// convolution entirely. The bound is built from worst-case pieces so the
// decision is conservative by construction:
//
//   |mic|inf <= ||h_tx||_1 * (sum_k |a_k|) * L1(sinc) * ||h_rx||_1 * |spk|inf
//
// with the path amplitudes a_k evaluated at the closest geometry mobility
// can reach inside the re-evaluation horizon, the surface reflection pinned
// to its physical maximum of 1, and an extra fixed headroom on top for
// depth wiggle. The default margin sits 40 dB below the floor RMS, which
// also clears the preamble correlator's processing gain (~37 dB for the
// 0.1 s preamble) — validated end-to-end by the culled-vs-unculled event
// equivalence property test.
#pragma once

#include <cstddef>

#include "channel/channel.h"
#include "channel/mobility.h"

namespace aqua::channel {

/// Tuning of the conservative audibility decision.
struct AudibilityParams {
  /// A path is culled only when its peak-gain bound stays this many dB
  /// *below* the mic's noise floor RMS (negative = below). -40 dB leaves
  /// room for the receiver's correlation processing gain.
  double margin_db = -40.0;
  /// Cull decisions are re-evaluated every this many seconds of medium
  /// time; the geometry bound covers the whole window, so a node cannot
  /// swing into audibility between evaluations unnoticed.
  double horizon_s = 0.5;
  /// Assumed speaker peak amplitude. Observed transmit peaks above this
  /// trigger an immediate re-evaluation with the observed value, so the
  /// bound tracks louder-than-assumed senders.
  double tx_peak = 1.0;
};

/// Max-over-fraction L1 norm of the Hann-windowed-sinc fractional-delay
/// kernel multipath rendering uses (`frac_taps` wide) — the exact kernel
/// of paths_to_impulse_response_ref, so the interpolation stage of the
/// bound is rigorous, not an estimate.
double frac_interp_l1(std::size_t frac_taps = 33);

/// Conservative upper bound on |mic peak| / |speaker peak| for the link
/// `cfg` anywhere in [t_s, t_s + horizon_s]. `device_l1` is the product of
/// the L1 norms of the link's speaker and microphone FIRs (see
/// link_device_fir); `mobility` must be the link's own trajectory (see
/// link_mobility).
double peak_gain_bound(const LinkConfig& cfg, const MobilityModel& mobility,
                       double device_l1, double t_s, double horizon_s);

/// The closest range (>= 0.5 m) mobility lets the link `cfg` reach anywhere
/// in [t_s, t_s + horizon_s]: the only way peak_gain_bound depends on time.
double closest_range_m(const LinkConfig& cfg, const MobilityModel& mobility,
                       double t_s, double horizon_s);

/// peak_gain_bound for a known closest range (see closest_range_m).
double peak_gain_bound_at(const LinkConfig& cfg, double device_l1,
                          double range);

/// The cull decision: true when a speaker peak of `tx_peak` through a path
/// bounded by `gain_bound` stays `margin_db` below `mic_floor_rms`. A
/// silent medium (floor 0) never culls — there is no noise to hide under.
bool pair_inaudible(double gain_bound, double tx_peak, double mic_floor_rms,
                    double margin_db);

/// Largest center-to-center distance at which a pair shaped like `proto`
/// could still be audible (plus `excursion_allowance_m` of slack for
/// mobility the caller expects over the whole run). Topology builders use
/// this to skip connect() entirely for pairs that can never wake up, which
/// is what turns dense deployments from O(N^2) into O(audible pairs).
double audible_range_m(const LinkConfig& proto, double device_l1,
                       double mic_floor_rms, const AudibilityParams& params,
                       double excursion_allowance_m = 0.0);

}  // namespace aqua::channel
