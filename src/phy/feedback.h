// Feedback / ID / ACK symbols (sections 2.2.3 and 2.3 "Encoding ID and
// ACKs").
//
// The band-selection feedback is one OFDM symbol with ALL transmit power in
// the two bins (f_begin, f_end); the receiver finds it with a sliding FFT
// and picks the top-2 bins. Device IDs and ACKs use the same trick with a
// single bin. The sliding FFT is evaluated with a moving-window DFT bank
// (dsp/sliding_dft.h) that updates each active bin in O(1) per sample, so a
// capture costs O(N * bins) instead of one full transform per window. The
// decoders read fp32 captures, narrowed once at the mic boundary: the
// bandpass and the moving-DFT power matrix run in float, the decision
// metrics (noise whitening, top-bin sums) accumulate in double.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsp/fft_filter.h"
#include "dsp/workspace.h"
#include "phy/bandselect.h"
#include "phy/ofdm.h"

namespace aqua::phy {

/// Decoded feedback with detection metadata.
struct FeedbackDecode {
  BandSelection band;
  std::size_t symbol_start = 0;  ///< sample index of the detected symbol
  double peak_fraction = 0.0;    ///< top-2 power / total in-band power
};

/// Decoded single-tone symbol (ID or ACK).
struct ToneDecode {
  std::size_t bin = 0;           ///< active-bin index carrying the power
  std::size_t symbol_start = 0;
  double peak_fraction = 0.0;    ///< top-1 power / total in-band power
};

/// Encoder/decoder for feedback and tone symbols at one numerology.
class FeedbackCodec {
 public:
  explicit FeedbackCodec(const OfdmParams& params);

  /// One OFDM symbol (with CP) carrying the band edges. All power goes to
  /// bins band.begin_bin and band.end_bin (one bin when they coincide).
  std::vector<double> encode_band(const BandSelection& band) const;

  /// One OFDM symbol (with CP) carrying a single tone on active bin `bin`
  /// (device ID 0..num_bins-1, or the ACK bin).
  std::vector<double> encode_tone(std::size_t bin) const;

  /// Searches `signal` for a two-tone feedback symbol using a sliding FFT
  /// on the kSearchStep grid. Returns nullopt when no window concentrates
  /// at least kMinPeakFraction of its in-band power in two bins. Scratch
  /// comes from `ws`.
  std::optional<FeedbackDecode> decode_band(std::span<const float> signal,
                                            dsp::Workspace& ws) const;

  /// Searches `signal` for a single-tone symbol (same grid and threshold).
  std::optional<ToneDecode> decode_tone(std::span<const float> signal,
                                        dsp::Workspace& ws) const;

  /// ACKs ride on the first active bin (1 kHz), per the paper.
  static constexpr std::size_t kAckBin = 0;

  /// Tone symbols are repeated back-to-back this many times; the decoder
  /// combines the repeats noncoherently (+3 dB and time diversity against
  /// impulsive noise) at negligible airtime cost (~21 ms per repeat).
  static constexpr std::size_t kRepeats = 2;

  /// The decoders' sliding-FFT search tries a symbol start every this many
  /// samples: finer than the cyclic prefix (67 samples at 50 Hz spacing),
  /// so some candidate window lies wholly inside each received symbol.
  static constexpr std::size_t kSearchStep = 8;

  /// Detection threshold: the top bin(s) must hold at least this fraction
  /// of a window's whitened in-band power.
  static constexpr double kMinPeakFraction = 0.3;

  const OfdmParams& params() const { return params_; }

 private:
  OfdmParams params_;
  Ofdm ofdm_;
  dsp::BasicFftFilter<float> bandpass_;  ///< receive bandpass, cached spectrum
};

}  // namespace aqua::phy
