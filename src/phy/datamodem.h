// Data-portion encoder/decoder (section 2.3).
//
// Transmit: info bits -> rate-2/3 convolutional code -> subcarrier
// interleaving -> differential BPSK across consecutive symbols -> OFDM
// within the adapted band [f_begin, f_end], with a known training symbol in
// front (equalizer training + differential reference).
//
// Receive: 128-order 1-4 kHz bandpass -> locate the training symbol by
// cross-correlation + energy detection -> train the time-domain MMSE
// equalizer -> per-symbol FFT -> differential soft demodulation ->
// deinterleave -> Viterbi.
//
// The receive bandpass spectrum is cached at construction, and per-band
// training waveforms (plus their correlation templates) are cached on first
// use, so repeated encode/decode calls for the same band never rebuild
// them. All decode scratch comes from a Workspace.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "coding/convolutional.h"
#include "core/annotations.h"
#include "coding/differential.h"
#include "coding/interleaver.h"
#include "dsp/correlate.h"
#include "dsp/fft_filter.h"
#include "dsp/workspace.h"
#include "phy/bandselect.h"
#include "phy/equalizer.h"
#include "phy/ofdm.h"

namespace aqua::phy {

/// Decoder knobs for the ablation experiments.
struct DecodeOptions {
  bool use_equalizer = true;      ///< Fig. 17 discussion / ablation
  bool use_differential = true;   ///< Fig. 14c: coherent fallback when false
  std::size_t search_window = 0;  ///< samples to search for the training
                                  ///< symbol around the nominal start
                                  ///< (0 = trust the given alignment)
};

/// Decode result with the intermediate hard decisions the paper's BER
/// metrics are computed from.
struct DataDecodeResult {
  bool found = false;                      ///< training symbol located
  /// Normalized training-symbol correlation at the chosen alignment
  /// (0 when the caller trusted the given alignment, i.e. no search ran).
  /// `found` is a weak gate by design; streaming callers that lack the
  /// protocol's preamble authority can use this to reject noise decodes.
  double training_metric = 0.0;
  std::size_t training_start = 0;          ///< sample index into the input
  std::vector<std::uint8_t> info_bits;     ///< Viterbi output
  std::vector<std::uint8_t> coded_hard;    ///< pre-Viterbi hard decisions
  std::vector<double> coded_llr;           ///< pre-Viterbi soft values
};

/// OFDM data modem bound to one numerology.
class DataModem {
 public:
  explicit DataModem(const OfdmParams& params);

  /// Number of OFDM data symbols needed for `info_bits` info bits in an
  /// `band_width`-bin band (rate-2/3 coding, 6 tail bits).
  std::size_t data_symbol_count(std::size_t info_bits,
                                std::size_t band_width) const;

  /// Encodes info bits into the data waveform: training symbol followed by
  /// data symbols, all with CP, all inside `band`.
  std::vector<double> encode(std::span<const std::uint8_t> info_bits,
                             const BandSelection& band,
                             bool use_differential = true) const;

  /// Encodes pre-coded (already channel-coded) bits directly — used by the
  /// BER-vs-SNR experiment which measures uncoded BER over the full band.
  std::vector<double> encode_coded(std::span<const std::uint8_t> coded_bits,
                                   const BandSelection& band,
                                   bool use_differential = true) const;

  /// The known training waveform (with CP) for a band.
  std::vector<double> training_waveform(const BandSelection& band) const;

  /// Decodes `info_bits` info bits from `signal`, whose sample 0 should be
  /// at (or `options.search_window` samples before) the training symbol.
  /// Scratch comes from `ws`.
  DataDecodeResult decode(std::span<const double> signal,
                          const BandSelection& band, std::size_t info_bits,
                          const DecodeOptions& options,
                          dsp::Workspace& ws) const;

  /// Decodes raw coded bits (no Viterbi) — counterpart of encode_coded().
  DataDecodeResult decode_coded(std::span<const double> signal,
                                const BandSelection& band,
                                std::size_t coded_bits,
                                const DecodeOptions& options,
                                dsp::Workspace& ws) const;

  const OfdmParams& params() const { return params_; }

  /// Training-symbol coded bits for a band width (PRBS, fixed seed).
  std::vector<std::uint8_t> training_bits(std::size_t width) const;

 private:
  /// Per-band cache entry: the training waveform and its correlator (the
  /// reversed template + spectrum), built once per (begin_bin, end_bin).
  struct TrainingTemplate {
    std::vector<double> waveform;
    dsp::CrossCorrelator correlator;
  };

  const TrainingTemplate& training_template(const BandSelection& band) const;
  std::vector<double> modulate_rows(std::span<const std::uint8_t> abs_bits,
                                    const BandSelection& band,
                                    dsp::Workspace& ws) const;
  DataDecodeResult decode_impl(std::span<const double> signal,
                               const BandSelection& band,
                               std::size_t coded_bits, bool run_viterbi,
                               std::size_t info_bits,
                               const DecodeOptions& options,
                               dsp::Workspace& ws) const;

  OfdmParams params_;
  Ofdm ofdm_;
  coding::ConvolutionalCodec codec_;
  dsp::FftFilter bandpass_;  ///< receive bandpass, cached spectrum

  // Lazy per-band template cache. The mutex only guards the map itself;
  // entries are immutable once inserted (stable addresses via unique_ptr),
  // so decode paths hold the lock only for the lookup.
  mutable std::mutex cache_mu_;
  mutable std::unordered_map<std::uint32_t,
                             std::unique_ptr<const TrainingTemplate>>
      training_cache_ AQUA_GUARDED_BY(cache_mu_);
};

}  // namespace aqua::phy
