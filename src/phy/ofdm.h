// OFDM symbol modulation/demodulation.
//
// Symbols carry complex values on the active bins (1-4 kHz); the
// time-domain waveform is real (conjugate-symmetric IFFT). A cyclic prefix
// of cp_samples() is prepended to data symbols.
#pragma once

#include <span>
#include <vector>

#include "dsp/fft.h"
#include "dsp/types.h"
#include "dsp/workspace.h"
#include "phy/params.h"

namespace aqua::phy {

/// Modulator/demodulator for one OFDM numerology. Uses the shared FFT plan
/// cache, so construction is cheap and instances are freely copyable.
///
/// Time-domain symbols are real, so both directions run on the packed real
/// FFT: modulation synthesizes from the n/2 + 1 half-spectrum (the
/// Hermitian mirror is implicit), demodulation reads the active bins out
/// of one packed forward transform. The full complex plan is kept for the
/// (never-default) numerologies whose active band would cross n/2.
class Ofdm {
 public:
  explicit Ofdm(const OfdmParams& params);

  const OfdmParams& params() const { return params_; }

  /// Builds one time-domain symbol (no CP) from complex values on the
  /// active bins: `bins[k]` rides on FFT bin first_bin()+k. `bins` may be
  /// shorter than num_bins(); missing bins are zero.
  std::vector<double> modulate(std::span<const dsp::cplx> bins) const;

  /// As modulate(), but bins are placed starting at active-bin offset
  /// `bin_offset` (used to transmit inside an adapted sub-band).
  std::vector<double> modulate_at(std::span<const dsp::cplx> bins,
                                  std::size_t bin_offset) const;

  /// Zero-allocation modulate_at: `out` must be symbol_samples() long.
  void modulate_into(std::span<const dsp::cplx> bins, std::size_t bin_offset,
                     std::span<double> out, dsp::Workspace& ws) const;

  /// Prepends the cyclic prefix to a symbol.
  std::vector<double> add_cp(std::span<const double> symbol) const;

  /// Convenience: modulate + add_cp.
  std::vector<double> modulate_with_cp(std::span<const dsp::cplx> bins,
                                       std::size_t bin_offset = 0) const;

  /// Demodulates one symbol: `symbol` must be symbol_samples() long and
  /// CP-free/aligned. Returns the num_bins() active-bin values.
  std::vector<dsp::cplx> demodulate(std::span<const double> symbol) const;

  /// Zero-allocation demodulate: `bins` must be num_bins() long.
  void demodulate_into(std::span<const double> symbol,
                       std::span<dsp::cplx> bins, dsp::Workspace& ws) const;

  /// Scales a time-domain symbol so that full-band unit-magnitude bins give
  /// a waveform with approximately unit peak. All modulate() outputs are
  /// already normalized so the *total transmit power* is the same no matter
  /// how many bins carry energy (power reallocation, section 2.2.2).
  double power_norm(std::size_t active_bin_count) const;

 private:
  OfdmParams params_;
  const dsp::FftPlan* plan_;    ///< shared cache entry, process lifetime
  const dsp::RfftPlan* rplan_;  ///< packed real plan for the same size
  bool band_packed_ = false;    ///< active band fits in the packed bins
};

}  // namespace aqua::phy
