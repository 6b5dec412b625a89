#include "phy/ofdm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aqua::phy {

namespace {
// Mean time-domain power of every transmitted OFDM symbol. Keeping this
// constant regardless of how many bins are active implements the paper's
// power reallocation: a narrower band puts more power per bin.
constexpr double kTargetMeanPower = 0.05;
}  // namespace

Ofdm::Ofdm(const OfdmParams& params)
    : params_(params),
      plan_(&dsp::plan_of(params.symbol_samples())),
      rplan_(&dsp::rplan_of(params.symbol_samples())),
      // Strictly inside (0, n/2): the packed transform represents the DC
      // and Nyquist bins as real, so a band touching either must take the
      // full complex path to carry complex constellation points there.
      band_packed_(params.first_bin() >= 1 && params.last_bin() >= 1 &&
                   params.last_bin() - 1 < params.symbol_samples() / 2) {}

double Ofdm::power_norm(std::size_t active_bin_count) const {
  if (active_bin_count == 0) return 0.0;
  const double n = static_cast<double>(params_.symbol_samples());
  return n * std::sqrt(kTargetMeanPower /
                       (2.0 * static_cast<double>(active_bin_count)));
}

std::vector<double> Ofdm::modulate(std::span<const dsp::cplx> bins) const {
  return modulate_at(bins, 0);
}

std::vector<double> Ofdm::modulate_at(std::span<const dsp::cplx> bins,
                                      std::size_t bin_offset) const {
  std::vector<double> out(params_.symbol_samples());
  dsp::Workspace ws;
  modulate_into(bins, bin_offset, out, ws);
  return out;
}

void Ofdm::modulate_into(std::span<const dsp::cplx> bins,
                         std::size_t bin_offset, std::span<double> out,
                         dsp::Workspace& ws) const {
  const std::size_t n = params_.symbol_samples();
  if (bin_offset + bins.size() > params_.num_bins()) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("Ofdm::modulate_at: bins exceed active band");
  }
  if (out.size() != n) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("Ofdm::modulate_into: wrong output length");
  }
  std::size_t active = 0;
  for (const dsp::cplx& b : bins) {
    if (std::norm(b) > 1e-20) ++active;
  }
  const double scale = power_norm(active == 0 ? 1 : active);
  const std::size_t k0 = params_.first_bin() + bin_offset;
  if (band_packed_) {
    // Real waveform via the packed inverse: populate only the n/2 + 1
    // half-spectrum; the Hermitian mirror is implicit in the transform.
    dsp::ScratchCplx spec_s(ws, rplan_->spectrum_size());
    std::span<dsp::cplx> spec = spec_s.span();
    std::fill(spec.begin(), spec.end(), dsp::cplx{0.0, 0.0});
    for (std::size_t i = 0; i < bins.size(); ++i) {
      spec[k0 + i] = bins[i] * scale;
    }
    rplan_->inverse(spec, out, ws);
    return;
  }
  dsp::ScratchCplx spec_s(ws, n);
  dsp::ScratchCplx time_s(ws, n);
  std::span<dsp::cplx> spec = spec_s.span();
  std::fill(spec.begin(), spec.end(), dsp::cplx{0.0, 0.0});
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const std::size_t k = k0 + i;
    spec[k] = bins[i] * scale;
    spec[n - k] = std::conj(spec[k]);  // Hermitian symmetry -> real waveform
  }
  std::span<dsp::cplx> time = time_s.span();
  plan_->inverse(spec, time, ws);
  for (std::size_t i = 0; i < n; ++i) out[i] = time[i].real();
}

std::vector<double> Ofdm::add_cp(std::span<const double> symbol) const {
  const std::size_t cp = params_.cp_samples();
  if (symbol.size() != params_.symbol_samples()) {
    throw std::invalid_argument("Ofdm::add_cp: wrong symbol length");
  }
  std::vector<double> out;
  out.reserve(symbol.size() + cp);
  out.insert(out.end(), symbol.end() - static_cast<std::ptrdiff_t>(cp),
             symbol.end());
  out.insert(out.end(), symbol.begin(), symbol.end());
  return out;
}

std::vector<double> Ofdm::modulate_with_cp(std::span<const dsp::cplx> bins,
                                           std::size_t bin_offset) const {
  return add_cp(modulate_at(bins, bin_offset));
}

std::vector<dsp::cplx> Ofdm::demodulate(std::span<const double> symbol) const {
  std::vector<dsp::cplx> bins(params_.num_bins());
  dsp::Workspace ws;
  demodulate_into(symbol, bins, ws);
  return bins;
}

void Ofdm::demodulate_into(std::span<const double> symbol,
                           std::span<dsp::cplx> bins,
                           dsp::Workspace& ws) const {
  const std::size_t n = params_.symbol_samples();
  if (symbol.size() != n) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("Ofdm::demodulate: wrong symbol length");
  }
  if (bins.size() != params_.num_bins()) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("Ofdm::demodulate_into: wrong bins length");
  }
  if (band_packed_) {
    // One packed forward transform covers every active bin.
    dsp::ScratchCplx spec_s(ws, rplan_->spectrum_size());
    std::span<dsp::cplx> spec = spec_s.span();
    rplan_->forward(symbol, spec, ws);
    for (std::size_t k = 0; k < bins.size(); ++k) {
      bins[k] = spec[params_.first_bin() + k];
    }
    return;
  }
  dsp::ScratchCplx time_s(ws, n);
  dsp::ScratchCplx spec_s(ws, n);
  std::span<dsp::cplx> time = time_s.span();
  for (std::size_t i = 0; i < n; ++i) time[i] = {symbol[i], 0.0};
  std::span<dsp::cplx> spec = spec_s.span();
  plan_->forward(time, spec, ws);
  for (std::size_t k = 0; k < bins.size(); ++k) {
    bins[k] = spec[params_.first_bin() + k];
  }
}

}  // namespace aqua::phy
