// Moving-window DFT power for the feedback/ID/ACK sliding-FFT decoders.
//
// The protocol's tone decoders (section 2.2.3) slide an n-point FFT across
// the capture and look only at the ~60 active in-band bins, and only at
// the window starts of their search grid. Computing a full n-point
// transform per window position costs O(n log n) every few samples; this
// instead maintains, per bin b, the running sum
//     S_b(s) = sum_{i < n} x[s+i] * e^{-j 2 pi b (s+i) / n}
// updated in O(1) per sample (the phasor e^{-j 2 pi b m / n} has period n
// because b is an integer bin, so the subtracted and added terms share one
// phasor: S_b(s+1) = S_b(s) + (x[s+n] - x[s]) * P[s mod n][b]).
// |S_b(s)|^2 equals the squared magnitude of DFT bin b of the window at s —
// the window-start phase e^{-j 2 pi b s / n} the FFT convention drops has
// unit modulus.
//
// P is a table of n rows, one per sample phase m, holding the phasor
// e^{-j 2 pi p / n} with p = (b * m) mod n for every active bin b. Each
// sample's update is then one contiguous row streamed through a fused
// multiply-add per bin (dsp::simd::active().sdft_update), with no per-bin
// indices or gathers; the table is built once per (n, bins) and shared
// process-wide (dsp/plan_cache.h). The sums are re-seeded every 4096
// starts — against rounding drift growing with the capture length — from
// ONE packed real FFT of the window (rfft_into), rotated by the same
// table's row.
//
// The bank runs in fp32, the precision of the receive front end it serves:
// float phasor table, float running sums, and the fp32 sdft kernel (twice
// the bins per vector of a double one). The table is indexed by the
// integer sample phase, so phase never drifts; the periodic re-seed bounds
// the amplitude drift.
//
// Only the grid's rows are written, and the slide stops at the last one.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/workspace.h"

namespace aqua::dsp {

/// The window starts a tone decoder reads: `repeats` rows `hop` apart for
/// each of `starts` search positions `step` apart, i.e. row (j, r) is the
/// window at start s = j * step + r * hop.
struct PowerGrid {
  std::size_t step = 1;
  std::size_t hop = 0;
  std::size_t repeats = 1;
  std::size_t starts = 0;
};

/// Squared DFT-bin magnitudes at the window starts of `grid`:
///   out[(j * grid.repeats + r) * num_bins + k]
///       == |DFT_window(x[s..s+window))[first_bin + k]|^2,
///   s = j * grid.step + r * grid.hop,
/// up to rounding, so one search position's repeats sit contiguously. Rows
/// that share a start (hop a multiple of step) hold the same values. Every
/// value is bit-identical to the one a denser grid writes at the same start
/// (the dense grid is {1, 0, 1, x.size() - window + 1}). `out.size()` must
/// be starts * repeats * num_bins. Requires window >= 1, x.size() >=
/// window, step >= 1, repeats >= 1, first_bin + num_bins <= window, and
/// the last row's start (starts - 1) * step + (repeats - 1) * hop at most
/// x.size() - window.
void moving_dft_power(std::span<const float> x, std::size_t window,
                      std::size_t first_bin, std::size_t num_bins,
                      const PowerGrid& grid, std::span<float> out,
                      Workspace& ws);

/// The moving-DFT phasor table for one window and bin range. Row m
/// (m < window) holds, for active bin b = first_bin + k, the phasor
/// e^{-j 2 pi p / window} with p = (b * m) mod window, evaluated in double
/// and rounded once to float, split-complex: real parts at [k], then
/// imaginary parts at [num_bins + k].
struct SdftPhasors {
  /// (window, first_bin, num_bins): the cache key.
  struct Key {
    std::size_t window = 0;
    std::size_t first_bin = 0;
    std::size_t num_bins = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  explicit SdftPhasors(const Key& key);

  /// Row m: 2 * num_bins values.
  const float* row(std::size_t m) const {
    return values.data() + m * 2 * key.num_bins;
  }

  Key key;
  std::vector<float> values;  ///< window rows of 2 * num_bins
};

/// The process-wide cached table for (window, first_bin, num_bins): built
/// on first use, then shared by every caller and thread (one address).
const SdftPhasors& sdft_phasors(std::size_t window, std::size_t first_bin,
                                std::size_t num_bins);

}  // namespace aqua::dsp
