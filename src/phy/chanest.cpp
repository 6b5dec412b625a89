#include "phy/chanest.h"

#include <cmath>
#include <stdexcept>

namespace aqua::phy {

ChannelEstimate estimate_channel(const Ofdm& ofdm,
                                 std::span<const double> rx_preamble,
                                 std::span<const dsp::cplx> cazac_bins,
                                 dsp::Workspace& ws) {
  const OfdmParams& p = ofdm.params();
  const std::size_t n = p.symbol_samples();
  const std::size_t nsym = OfdmParams::kPreambleSymbols;
  if (rx_preamble.size() < nsym * n) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("estimate_channel: preamble too short");
  }
  if (cazac_bins.size() != p.num_bins()) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("estimate_channel: wrong CAZAC length");
  }

  // Demodulate the eight symbols into one leased bins-by-symbol matrix.
  dsp::ScratchCplx y_s(ws, nsym * p.num_bins());
  std::span<dsp::cplx> ymat = y_s.span();
  const auto y = [&](std::size_t s) {
    return ymat.subspan(s * p.num_bins(), p.num_bins());
  };
  for (std::size_t s = 0; s < nsym; ++s) {
    ofdm.demodulate_into(rx_preamble.subspan(s * n, n), y(s), ws);
  }

  // The transmitted value on bin k during symbol s is
  // sign(s) * scale * cazac(k); the scale is the modulator's power norm for
  // a full-band symbol. Fold it into x so H is the physical channel gain.
  const double scale = ofdm.power_norm(p.num_bins());

  ChannelEstimate est;
  est.h.resize(p.num_bins());       // lint: alloc-ok(sizes the returned per-packet estimate)
  est.snr_db.resize(p.num_bins());  // lint: alloc-ok(sizes the returned per-packet estimate)
  for (std::size_t k = 0; k < p.num_bins(); ++k) {
    // MMSE (here: least-squares over the 8 observations, which is the MMSE
    // solution for uniform priors): H = x^H y / (x^H x).
    dsp::cplx num{0.0, 0.0};
    double den = 0.0;
    for (std::size_t s = 0; s < nsym; ++s) {
      const dsp::cplx x =
          scale * static_cast<double>(OfdmParams::kPnSigns[s]) * cazac_bins[k];
      num += std::conj(x) * y(s)[k];
      den += std::norm(x);
    }
    const dsp::cplx h = den > 0.0 ? num / den : dsp::cplx{0.0, 0.0};
    est.h[k] = h;
    // SNR_k = ||H x||^2 / ||y - H x||^2 (paper's estimator).
    double sig = 0.0;
    double err = 0.0;
    for (std::size_t s = 0; s < nsym; ++s) {
      const dsp::cplx x =
          scale * static_cast<double>(OfdmParams::kPnSigns[s]) * cazac_bins[k];
      sig += std::norm(h * x);
      err += std::norm(y(s)[k] - h * x);
    }
    est.snr_db[k] = err > 0.0 ? dsp::power_to_db(sig / err) : 300.0;
  }
  return est;
}

}  // namespace aqua::phy
