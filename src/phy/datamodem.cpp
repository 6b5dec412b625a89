#include "phy/datamodem.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "dsp/correlate.h"
#include "dsp/fir.h"

namespace aqua::phy {

namespace {

constexpr std::size_t kBandpassTaps = 129;  // "128 order FIR bandpass"
constexpr std::uint64_t kTrainingSeed = 0xA0C0DEULL;

dsp::cplx bpsk(std::uint8_t bit) {
  return bit ? dsp::cplx{-1.0, 0.0} : dsp::cplx{1.0, 0.0};
}

}  // namespace

DataModem::DataModem(const OfdmParams& params)
    : params_(params),
      ofdm_(params),
      codec_(coding::CodeRate::kRate2_3),
      bandpass_(dsp::design_bandpass(params.band_low_hz, params.band_high_hz,
                                     params.sample_rate_hz, kBandpassTaps)) {}

// lint: hot-alloc-ok(deterministic PRNG expansion of the training row — O(width) once per band decision, not per sample)
std::vector<std::uint8_t> DataModem::training_bits(std::size_t width) const {
  std::mt19937_64 rng(kTrainingSeed);
  std::vector<std::uint8_t> bits(width);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

std::size_t DataModem::data_symbol_count(std::size_t info_bits,
                                         std::size_t band_width) const {
  const std::size_t coded = coding::coded_length(info_bits, codec_.rate());
  return (coded + band_width - 1) / band_width;
}

std::vector<double> DataModem::modulate_rows(
    std::span<const std::uint8_t> abs_bits, const BandSelection& band,
    dsp::Workspace& ws) const {
  const std::size_t width = band.width();
  if (abs_bits.size() % width != 0) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("modulate_rows: ragged rows");
  }
  const std::size_t rows = abs_bits.size() / width;
  const std::size_t n = params_.symbol_samples();
  const std::size_t cp = params_.cp_samples();
  const std::size_t sym_total = n + cp;
  // lint: alloc-ok(owns the returned waveform; encode is the cold transmit side)
  std::vector<double> waveform(rows * sym_total);
  dsp::ScratchCplx bins_s(ws, width);
  std::span<dsp::cplx> bins = bins_s.span();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < width; ++k) {
      bins[k] = bpsk(abs_bits[r * width + k]);
    }
    // Modulate straight into the output row, then copy the symbol tail in
    // front of it as the cyclic prefix.
    std::span<double> row(waveform.data() + r * sym_total + cp, n);
    ofdm_.modulate_into(bins, band.begin_bin, row, ws);
    std::copy_n(row.end() - static_cast<std::ptrdiff_t>(cp), cp,
                waveform.begin() + static_cast<std::ptrdiff_t>(r * sym_total));
  }
  return waveform;
}

std::vector<double> DataModem::encode(std::span<const std::uint8_t> info_bits,
                                      const BandSelection& band,
                                      bool use_differential) const {
  return encode_coded(codec_.encode(info_bits), band, use_differential);
}

// lint: hot-alloc-ok(cold transmit side: one encode per outgoing packet, dominated by the channel's seconds-long airtime)
std::vector<double> DataModem::encode_coded(
    std::span<const std::uint8_t> coded_bits, const BandSelection& band,
    bool use_differential) const {
  const std::size_t width = band.width();
  // Pad to a whole number of symbols, then interleave (the decoder
  // deinterleaves whole symbols and trims the padding afterwards).
  std::vector<std::uint8_t> padded(coded_bits.begin(), coded_bits.end());
  const std::size_t rows = (padded.size() + width - 1) / width;
  padded.resize(rows * width, 0);
  coding::SubcarrierInterleaver il(width);
  std::vector<std::uint8_t> interleaved = il.interleave(padded);

  const std::vector<std::uint8_t> train = training_bits(width);
  std::vector<std::uint8_t> abs_bits;
  if (use_differential) {
    // Reference-zero differential rows, then XOR every row with the
    // training pattern: row0 becomes the training symbol and the XOR
    // between consecutive rows stays equal to the data bits.
    abs_bits = coding::differential_encode(interleaved, width);
    for (std::size_t r = 0; r < rows + 1; ++r) {
      for (std::size_t k = 0; k < width; ++k) {
        abs_bits[r * width + k] =
            static_cast<std::uint8_t>(abs_bits[r * width + k] ^ train[k]);
      }
    }
  } else {
    // Coherent mode: training row followed by the raw rows.
    abs_bits.reserve((rows + 1) * width);
    abs_bits.insert(abs_bits.end(), train.begin(), train.end());
    abs_bits.insert(abs_bits.end(), interleaved.begin(), interleaved.end());
  }
  dsp::Workspace ws;
  return modulate_rows(abs_bits, band, ws);
}

// lint: hot-alloc-ok(per-band training-template cache: builds once per band, then serves the cached entry by reference)
const DataModem::TrainingTemplate& DataModem::training_template(
    const BandSelection& band) const {
  const std::uint32_t key = (static_cast<std::uint32_t>(band.begin_bin) << 16) |
                            static_cast<std::uint32_t>(band.end_bin);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (const auto it = training_cache_.find(key);
        it != training_cache_.end()) {
      return *it->second;
    }
  }
  // Build outside the lock (modulation is the expensive part); a racing
  // builder for the same band loses and its copy is discarded.
  dsp::Workspace ws;
  std::vector<double> wave = modulate_rows(training_bits(band.width()), band,
                                           ws);
  dsp::CrossCorrelator corr(wave);
  // lint: alloc-ok(per-band template cache entry, built once)
  auto entry = std::make_unique<const TrainingTemplate>(
      TrainingTemplate{std::move(wave), std::move(corr)});
  std::lock_guard<std::mutex> lock(cache_mu_);
  const auto [it, inserted] = training_cache_.try_emplace(key, std::move(entry));
  return *it->second;
}

std::vector<double> DataModem::training_waveform(
    const BandSelection& band) const {
  return training_template(band).waveform;
}

DataDecodeResult DataModem::decode(std::span<const double> signal,
                                   const BandSelection& band,
                                   std::size_t info_bits,
                                   const DecodeOptions& options,
                                   dsp::Workspace& ws) const {
  const std::size_t coded = coding::coded_length(info_bits, codec_.rate());
  return decode_impl(signal, band, coded, /*run_viterbi=*/true, info_bits,
                     options, ws);
}

DataDecodeResult DataModem::decode_coded(std::span<const double> signal,
                                         const BandSelection& band,
                                         std::size_t coded_bits,
                                         const DecodeOptions& options,
                                         dsp::Workspace& ws) const {
  return decode_impl(signal, band, coded_bits, /*run_viterbi=*/false, 0,
                     options, ws);
}

DataDecodeResult DataModem::decode_impl(std::span<const double> signal,
                                        const BandSelection& band,
                                        std::size_t coded_bits,
                                        bool run_viterbi,
                                        std::size_t info_bits,
                                        const DecodeOptions& options,
                                        dsp::Workspace& ws) const {
  DataDecodeResult result;
  const std::size_t width = band.width();
  const std::size_t n = params_.symbol_samples();
  const std::size_t cp = params_.cp_samples();
  const std::size_t sym_total = n + cp;
  const std::size_t rows = (coded_bits + width - 1) / width;
  const std::size_t region = (rows + 1) * sym_total;

  // Receive bandpass (1-4 kHz), group-delay compensated.
  dsp::ScratchReal filtered_s(ws, signal.size());
  bandpass_.filter_same_into(signal, filtered_s.span(), ws);
  std::span<const double> filtered = filtered_s.span();

  // Locate the training symbol: cross-correlation with the known waveform
  // plus an energy gate in each symbol interval. The per-band template and
  // its spectrum come from the cache.
  std::size_t start = 0;
  double training_metric = 0.0;
  const TrainingTemplate& tmpl = training_template(band);
  const std::vector<double>& tw = tmpl.waveform;
  if (options.search_window > 0) {
    const std::size_t span_len =
        std::min(filtered.size(), options.search_window + tw.size());
    const std::size_t corr_len =
        tmpl.correlator.output_length(span_len);
    if (corr_len == 0) return result;
    dsp::ScratchReal corr_s(ws, corr_len);
    tmpl.correlator.normalized_into(filtered.first(span_len), corr_s.span(),
                                    ws);
    std::span<const double> corr = corr_s.span();
    const std::size_t peak = dsp::argmax(corr);
    // Sanity gate only: the protocol's preamble detection is the real
    // packet-presence authority; narrowband templates correlate with
    // bandlimited noise too strongly for an amplitude gate alone.
    if (corr[peak] < 0.10) return result;
    // Data symbols correlate with the training symbol (identically so in
    // one-bin bands when a data symbol repeats it), and narrowband
    // correlations have broad oscillating mainlobes. Take the EARLIEST
    // near-maximal local maximum: the training symbol precedes all data
    // symbols by construction, and requiring a local max within a
    // CP-sized neighborhood skips the rising carrier ripple.
    start = peak;
    const std::size_t guard = params_.cp_samples();
    for (std::size_t i = 0; i < peak; ++i) {
      if (corr[i] < 0.90 * corr[peak]) continue;
      const std::size_t lo = i > guard ? i - guard : 0;
      const std::size_t hi = std::min(i + guard + 1, corr.size());
      bool is_local_max = true;
      for (std::size_t j = lo; j < hi; ++j) {
        if (corr[j] > corr[i]) {
          is_local_max = false;
          break;
        }
      }
      if (is_local_max) {
        start = i;
        break;
      }
    }
    training_metric = corr[start];
  }
  // Report the correlation even when the data region is truncated and the
  // decode fails: callers use it to tell a genuine (cut short) packet from
  // a noise lock.
  result.training_metric = training_metric;
  if (start + region > filtered.size()) return result;
  result.found = true;
  result.training_start = start;

  // Equalizer trained on the training symbol.
  dsp::ScratchReal equalized_s(ws, region);
  std::span<double> equalized = equalized_s.span();
  if (options.use_equalizer) {
    const std::size_t taps = params_.equalizer_taps();
    const std::size_t train_len =
        std::min(sym_total + cp, filtered.size() - start);
    MmseEqualizer eq = MmseEqualizer::train(
        filtered.subspan(start, train_len), tw, taps, taps / 2);
    const std::size_t eq_len =
        std::min(region + taps, filtered.size() - start);
    dsp::ScratchReal eq_out_s(ws, eq_len);
    eq.apply_into(filtered.subspan(start, eq_len), eq_out_s.span());
    const std::size_t copy_len = std::min(eq_len, region);
    std::copy_n(eq_out_s->begin(), copy_len, equalized.begin());
    std::fill(equalized.begin() + static_cast<std::ptrdiff_t>(copy_len),
              equalized.end(), 0.0);
  } else {
    const std::size_t len = std::min(region, filtered.size() - start);
    std::copy_n(filtered.begin() + static_cast<std::ptrdiff_t>(start), len,
                equalized.begin());
    std::fill(equalized.begin() + static_cast<std::ptrdiff_t>(len),
              equalized.end(), 0.0);
  }

  // Per-symbol FFT over the selected band.
  dsp::ScratchCplx y_s(ws, (rows + 1) * width);
  std::span<dsp::cplx> y = y_s.span();
  dsp::ScratchCplx bins_s(ws, params_.num_bins());
  std::span<dsp::cplx> bins = bins_s.span();
  for (std::size_t r = 0; r <= rows; ++r) {
    const std::size_t sym_start = r * sym_total + cp;
    ofdm_.demodulate_into(equalized.subspan(sym_start, n), bins, ws);
    for (std::size_t k = 0; k < width; ++k) {
      y[r * width + k] = bins[band.begin_bin + k];
    }
  }

  // Soft demodulation. The coding APIs return owning vectors; this is the
  // per-packet tail (a handful of kB once per decoded packet), not the
  // per-sample streaming path.
  std::vector<double> soft;  // lint: alloc-ok(per-packet soft buffer; coding APIs return owning vectors)
  if (options.use_differential) {
    soft = coding::differential_decode_soft(y, width);
  } else {
    // Coherent: channel reference from the training row.
    // lint: alloc-ok(small per-packet training pattern)
    const std::vector<std::uint8_t> train = training_bits(width);
    soft.resize(rows * width);  // lint: alloc-ok(per-packet soft buffer)
    for (std::size_t k = 0; k < width; ++k) {
      const dsp::cplx h = y[k] * (train[k] ? -1.0 : 1.0);
      for (std::size_t r = 1; r <= rows; ++r) {
        soft[(r - 1) * width + k] = (y[r * width + k] * std::conj(h)).real();
      }
    }
  }

  // Deinterleave and trim the padding.
  coding::SubcarrierInterleaver il(width);
  // lint: alloc-ok(per-packet LLR buffer; the deinterleaver returns an owning vector)
  std::vector<double> llr = il.deinterleave(soft);
  llr.resize(coded_bits);  // lint: alloc-ok(shrink only; never reallocates)
  result.coded_llr = std::move(llr);
  const std::vector<double>& coded_llr = result.coded_llr;
  result.coded_hard.resize(coded_bits);  // lint: alloc-ok(sizes the returned per-packet result)
  for (std::size_t i = 0; i < coded_bits; ++i) {
    result.coded_hard[i] = coded_llr[i] >= 0.0 ? 0 : 1;
  }
  if (run_viterbi) {
    result.info_bits = codec_.decode(coded_llr, info_bits);
  }
  return result;
}

}  // namespace aqua::phy
