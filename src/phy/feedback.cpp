#include "phy/feedback.h"

#include <algorithm>
#include <cmath>

#include "dsp/fir.h"
#include "dsp/sliding_dft.h"

namespace aqua::phy {

namespace {

// The moving-DFT grid of a decoder search over `signal_size` samples:
// every kSearchStep-th start whose kRepeats symbols (`span_needed` samples,
// at most signal_size) all fit, each with its repeats one symbol_total
// apart.
dsp::PowerGrid search_grid(std::size_t signal_size, std::size_t sym_total,
                           std::size_t span_needed) {
  return {FeedbackCodec::kSearchStep, sym_total, FeedbackCodec::kRepeats,
          (signal_size - span_needed) / FeedbackCodec::kSearchStep + 1};
}

// Noncoherent combining of the kRepeats repeated symbols at search
// position `j`, whitened per bin by the edge noise profile. `win` is the
// grid's moving-DFT power matrix, whose rows for position j are the
// kRepeats rows from (j * kRepeats); the whitened sums accumulate in
// double.
void combine_repeats(std::span<const float> win, std::span<const double> noise,
                     std::size_t j, std::span<double> powers) {
  std::fill(powers.begin(), powers.end(), 0.0);
  const std::size_t bins = powers.size();
  for (std::size_t r = 0; r < FeedbackCodec::kRepeats; ++r) {
    const float* row = win.data() + (j * FeedbackCodec::kRepeats + r) * bins;
    for (std::size_t k = 0; k < bins; ++k) {
      powers[k] += static_cast<double>(row[k]) / noise[k];
    }
  }
}

// Per-bin noise profile estimated from the first and last symbol-length
// windows of the capture (at least one of them precedes/follows the symbol
// being searched for). Whitening by this profile removes the receiver-side
// spectral tilt — residual sub-kHz ambient noise in the filter transition
// band, device response slope — that would otherwise bias the top-bin
// search toward the band edges. Fills `noise` (num_bins() values).
void edge_noise_profile(const Ofdm& ofdm, std::span<const float> signal,
                        std::span<double> noise, dsp::Workspace& ws) {
  const std::size_t n = ofdm.params().symbol_samples();
  const std::size_t bins = ofdm.params().num_bins();
  dsp::ScratchCplx spec_s(ws, bins);
  std::span<dsp::cplx> spec = spec_s.span();
  // The OFDM demodulator is estimation machinery and stays double: the
  // float windows are widened into this scratch at the handoff (lossless).
  dsp::ScratchReal window_s(ws, n);
  std::span<double> window = window_s.span();
  // Average several overlapping windows at each edge of the capture (hop
  // n/2); single-window periodograms have far too much variance to divide
  // by. At least one edge precedes/follows the symbol being searched for.
  const auto edge_mean = [&](bool from_start, std::span<double> acc) {
    std::fill(acc.begin(), acc.end(), 0.0);
    std::size_t count = 0;
    for (std::size_t w = 0; w < 4; ++w) {
      const std::size_t off = w * n / 2;
      if (off + n > signal.size()) break;
      const std::size_t start = from_start ? off : signal.size() - n - off;
      for (std::size_t j = 0; j < n; ++j) {
        window[j] = static_cast<double>(signal[start + j]);
      }
      ofdm.demodulate_into(window, spec, ws);
      for (std::size_t k = 0; k < bins; ++k) acc[k] += std::norm(spec[k]);
      ++count;
    }
    if (count > 0) {
      for (double& v : acc) v /= static_cast<double>(count);
    }
  };
  dsp::ScratchReal head_s(ws, bins);
  dsp::ScratchReal tail_s(ws, bins);
  edge_mean(true, head_s.span());
  edge_mean(false, tail_s.span());
  dsp::ScratchReal raw_s(ws, bins);
  std::span<double> raw = raw_s.span();
  for (std::size_t k = 0; k < bins; ++k) {
    raw[k] = std::min((*head_s)[k], (*tail_s)[k]);
  }
  // Smooth across bins (5-bin moving average) and floor against near-zero
  // estimates so no single bin gets an unbounded whitened score.
  for (std::size_t k = 0; k < bins; ++k) {
    double acc = 0.0;
    std::size_t cnt = 0;
    for (std::ptrdiff_t d = -2; d <= 2; ++d) {
      const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(k) + d;
      if (j < 0 || j >= static_cast<std::ptrdiff_t>(bins)) continue;
      acc += raw[static_cast<std::size_t>(j)];
      ++cnt;
    }
    noise[k] = acc / static_cast<double>(cnt);
  }
  dsp::ScratchReal sorted_s(ws, bins);
  std::copy(noise.begin(), noise.end(), sorted_s->begin());
  std::nth_element(sorted_s->begin(), sorted_s->begin() + bins / 2,
                   sorted_s->end());
  const double floor_val = 0.2 * (*sorted_s)[bins / 2] + 1e-18;
  for (double& v : noise) v = std::max(v, floor_val);
}

// The front half both decoders share: bandpass `raw` into scratch, take
// the edge noise profile, and run one moving-DFT pass that computes
// exactly the rows the search reads (every search position and each of its
// repeats). Then calls visit(start, powers) for each search position in
// order, with its repeats combined and whitened per bin. Does nothing when
// `raw` is shorter than the kRepeats symbols a search position spans.
template <typename Visit>
void search_positions(const dsp::BasicFftFilter<float>& bandpass,
                      const Ofdm& ofdm, std::span<const float> raw,
                      dsp::Workspace& ws, Visit&& visit) {
  const OfdmParams& params = ofdm.params();
  const std::size_t n = params.symbol_samples();
  const std::size_t bins = params.num_bins();
  const std::size_t sym_total = params.symbol_total_samples();
  const std::size_t span_needed = (FeedbackCodec::kRepeats - 1) * sym_total + n;
  if (raw.size() < span_needed) return;
  // Sub-kHz ambient noise (and machinery tones) otherwise leak into the
  // band-edge FFT bins through the rectangular-window sidelobes and
  // masquerade as a transmitted tone.
  dsp::Scratch<float> filtered_s(ws, raw.size());
  bandpass.filter_same_into(raw, filtered_s.span(), ws);
  std::span<const float> signal = filtered_s.span();

  dsp::ScratchReal noise_s(ws, bins);
  edge_noise_profile(ofdm, signal, noise_s.span(), ws);

  const dsp::PowerGrid grid = search_grid(signal.size(), sym_total,
                                          span_needed);
  dsp::Scratch<float> win_s(ws, grid.starts * grid.repeats * bins);
  dsp::moving_dft_power(signal, n, params.first_bin(), bins, grid,
                        win_s.span(), ws);

  dsp::ScratchReal powers_s(ws, bins);
  for (std::size_t j = 0; j < grid.starts; ++j) {
    combine_repeats(win_s.span(), noise_s.span(), j, powers_s.span());
    visit(j * grid.step, *powers_s);
  }
}

std::vector<double> repeat_symbol(const std::vector<double>& sym,
                                  std::size_t repeats) {
  std::vector<double> out;
  out.reserve(sym.size() * repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    out.insert(out.end(), sym.begin(), sym.end());
  }
  return out;
}

}  // namespace

FeedbackCodec::FeedbackCodec(const OfdmParams& params)
    : params_(params),
      ofdm_(params),
      bandpass_(dsp::convert_samples<float>(
          dsp::design_bandpass(params.band_low_hz, params.band_high_hz,
                               params.sample_rate_hz, 129))) {}

// lint: hot-alloc-ok(control-plane encode: one short feedback burst per band exchange, not per sample)
std::vector<double> FeedbackCodec::encode_band(const BandSelection& band) const {
  std::vector<dsp::cplx> bins(params_.num_bins(), dsp::cplx{0.0, 0.0});
  bins.at(band.begin_bin) = {1.0, 0.0};
  bins.at(band.end_bin) = {1.0, 0.0};
  return repeat_symbol(ofdm_.modulate_with_cp(bins), kRepeats);
}

// lint: hot-alloc-ok(control-plane encode: one short feedback burst per tone exchange, not per sample)
std::vector<double> FeedbackCodec::encode_tone(std::size_t bin) const {
  std::vector<dsp::cplx> bins(params_.num_bins(), dsp::cplx{0.0, 0.0});
  bins.at(bin) = {1.0, 0.0};
  return repeat_symbol(ofdm_.modulate_with_cp(bins), kRepeats);
}

std::optional<FeedbackDecode> FeedbackCodec::decode_band(
    std::span<const float> raw, dsp::Workspace& ws) const {
  std::optional<FeedbackDecode> best;
  double best_peak_sum = 0.0;
  search_positions(bandpass_, ofdm_, raw, ws,
                   [&](std::size_t start, std::vector<double>& powers) {
    // Top-2 whitened (per-bin SNR) powers.
    double total = 0.0;
    std::size_t i1 = 0, i2 = 0;
    double p1 = -1.0, p2 = -1.0;
    for (std::size_t k = 0; k < powers.size(); ++k) {
      const double p = powers[k];
      total += p;
      if (p > p1) {
        p2 = p1; i2 = i1;
        p1 = p; i1 = k;
      } else if (p > p2) {
        p2 = p; i2 = k;
      }
    }
    if (total <= 1e-18) return;
    // peak_sum below is p1 or p1 + p2, never above this bound, so a window
    // whose bound already misses the fraction fails the test below whatever
    // `single` decides: skip it before paying for the median.
    if ((p1 + std::max(p2, 0.0)) / total < kMinPeakFraction) return;
    // A single-bin band (begin == end) puts everything in one bin. The
    // second peak then sits at the noise floor — compare it against the
    // median of the remaining bins rather than against p1, because a wide
    // band whose end tone fell into a frequency fade can be 20+ dB below
    // the start tone yet still far above noise.
    std::nth_element(powers.begin(), powers.begin() + powers.size() / 2,
                     powers.end());
    const double median = powers[powers.size() / 2];
    // Single-bin band: the second peak is at the noise floor, below the
    // plausible dynamic range of a genuine second tone (30 dB covers the
    // deepest fades the band selector would still pick), or it is leakage
    // into the immediate neighbor of the main peak.
    const std::size_t bin_dist = i1 > i2 ? i1 - i2 : i2 - i1;
    const bool single = p2 < 5.0 * median || p2 < 1e-3 * p1 ||
                        (bin_dist <= 1 && p2 < 0.02 * p1);
    const double peak_sum = p1 + (single ? 0.0 : p2);
    const double frac = peak_sum / total;
    if (frac < kMinPeakFraction) return;
    BandSelection band;
    band.begin_bin = single ? i1 : std::min(i1, i2);
    band.end_bin = single ? i1 : std::max(i1, i2);
    // Rank candidate windows by absolute (whitened) tone power, not by the
    // concentration ratio: a half-overlapping window can look "cleaner"
    // while capturing far less of the symbol.
    if (!best || peak_sum > best_peak_sum) {
      best = FeedbackDecode{band, start, frac};
      best_peak_sum = peak_sum;
    }
  });
  return best;
}

std::optional<ToneDecode> FeedbackCodec::decode_tone(
    std::span<const float> raw, dsp::Workspace& ws) const {
  std::optional<ToneDecode> best;
  double best_peak = 0.0;
  search_positions(bandpass_, ofdm_, raw, ws,
                   [&](std::size_t start, const std::vector<double>& powers) {
    double total = 0.0;
    double p1 = -1.0;
    std::size_t i1 = 0;
    for (std::size_t k = 0; k < powers.size(); ++k) {
      const double p = powers[k];
      total += p;
      if (p > p1) {
        p1 = p;
        i1 = k;
      }
    }
    if (total <= 1e-18) return;
    const double frac = p1 / total;
    if (frac < kMinPeakFraction) return;
    if (!best || p1 > best_peak) {
      best = ToneDecode{i1, start, frac};
      best_peak = p1;
    }
  });
  return best;
}

}  // namespace aqua::phy
