// Per-subcarrier channel and SNR estimation from the preamble
// (section 2.2.2, "SNR estimation per frequency bin").
//
// For each active bin k the eight preamble symbols provide eight
// observations y(k) of the known transmitted vector x(k) (CAZAC value times
// PN signs). An MMSE estimator gives H(k); the SNR follows from the ratio
// of explained to residual energy.
#pragma once

#include <span>
#include <vector>

#include "phy/ofdm.h"
#include "phy/params.h"

namespace aqua::phy {

/// Channel estimate over the active band.
struct ChannelEstimate {
  std::vector<dsp::cplx> h;      ///< complex gain per active bin
  std::vector<double> snr_db;    ///< estimated SNR per active bin (dB)
};

/// Estimates H and per-bin SNR from a received preamble.
/// `rx_preamble` must point at the first sample of the first preamble
/// symbol (as produced by Preamble::detect) and contain at least
/// 8 * symbol_samples() samples. `cazac_bins` is the transmitted
/// frequency-domain sequence (unit modulus). Scratch comes from `ws`.
ChannelEstimate estimate_channel(const Ofdm& ofdm,
                                 std::span<const double> rx_preamble,
                                 std::span<const dsp::cplx> cazac_bins,
                                 dsp::Workspace& ws);

}  // namespace aqua::phy
