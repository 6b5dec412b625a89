// Preamble construction, detection and synchronization (section 2.2.1).
//
// The preamble is eight identical CAZAC-filled OFDM symbols, each multiplied
// by a PN sign [-1,1,1,1,1,1,-1,1]. Detection is two-stage: a cheap
// normalized cross-correlation produces candidates; a normalized sliding
// segment correlation (robust to gain changes and impulsive noise) confirms
// them and yields sample-accurate timing.
//
// Both stages live in one incremental fp32 front end, PreambleScanner,
// which the streaming modem feeds from the microphone. Preamble::detect()
// is that scanner run over a finished capture, narrowed once to float.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsp/fft_filter.h"
#include "dsp/workspace.h"
#include "phy/ofdm.h"
#include "phy/params.h"

namespace aqua::phy {

/// Result of a confirmed preamble detection.
struct PreambleDetection {
  std::size_t start_index = 0;   ///< first sample of the first symbol
  double sliding_metric = 0.0;   ///< confirmation metric in [0, ~0.95]
  double coarse_peak = 0.0;      ///< normalized cross-correlation peak
};

/// Builder + detector for the CAZAC preamble.
class Preamble {
 public:
  explicit Preamble(const OfdmParams& params);

  /// Transmit waveform: 8 signed CAZAC OFDM symbols, preceded by one cyclic
  /// prefix (copy of the first symbol's tail) to absorb multipath.
  const std::vector<double>& waveform() const { return waveform_; }

  /// The CAZAC frequency-domain values on the active bins (unit modulus).
  const std::vector<dsp::cplx>& cazac_bins() const { return cazac_bins_; }

  /// Length of the core preamble (8 symbols, no CP).
  std::size_t core_samples() const { return core_samples_; }

  /// Detects the preamble anywhere in `signal`: the capture is narrowed
  /// once to float (the mic-boundary conversion) into scratch from `ws`,
  /// then one PreambleScanner pass (receive bandpass, then both detection
  /// stages) runs over it, followed by silence. Returns the confirmed
  /// detection with the highest sliding metric whose core lies inside
  /// `signal`, or nullopt.
  std::optional<PreambleDetection> detect(std::span<const double> signal,
                                          dsp::Workspace& ws) const;

  /// Normalized sliding segment-correlation metric for a window starting at
  /// `start`: the segment dot products run through the fp32 dispatched
  /// kernel, the metric itself accumulates in double.
  double sliding_metric_at(std::span<const float> signal,
                           std::size_t start) const;

  /// Detection thresholds. The paper reports a clean preamble scoring
  /// > 0.6 and spiky noise < 0.2. After the receive bandpass, our measured
  /// noise-only metric stays below ~0.11 while a 30 m (lowest-SNR)
  /// preamble scores 0.15-0.48, so the decision threshold sits at 0.22 —
  /// the same 2x margin over the noise metric the paper's 0.6/0.2 pair
  /// provides, shifted for the simulated link budget.
  static constexpr double kSlidingThreshold = 0.22;
  static constexpr double kCoarseThreshold = 0.20;
  /// Sliding-correlation step during confirmation (paper: 8).
  static constexpr std::size_t kSlidingStep = 8;
  /// Receive bandpass length (taps).
  static constexpr std::size_t kBandpassTaps = 129;

  /// The core correlation template (waveform without the cyclic prefix).
  std::vector<double> core_template() const;

 private:
  friend class PreambleScanner;

  OfdmParams params_;
  Ofdm ofdm_;
  std::vector<dsp::cplx> cazac_bins_;
  std::vector<double> one_symbol_;       ///< unsigned CAZAC symbol
  std::vector<double> waveform_;         ///< CP + 8 signed symbols
  std::vector<float> bandpass_;          ///< receive bandpass taps (fp32)
  std::size_t core_samples_ = 0;
};

/// Incremental preamble front end for the streaming receiver.
///
/// Feed arbitrary chunks of the microphone stream with scan(); each sample
/// passes the receive bandpass and the core-template correlation exactly
/// once (stateful overlap-save streams), so per-push cost is
/// O(chunk · log B) regardless of how much audio the caller retains.
/// Confirmed detections are emitted exactly once each, with start_index in
/// absolute stream coordinates; detections closer than one core length are
/// merged (highest sliding metric wins).
///
/// Every decision point (filter blocks, energy re-accumulation, candidate
/// windows, merge spans) lives on the absolute sample grid, so the emitted
/// sequence is bit-identical for any chunking of the same stream. Decisions
/// lag the input by a bounded amount (correlation block + confirmation
/// span, ~0.4 s at the default numerology), never by the buffer length.
///
/// The samples are fp32, narrowed once at the mic boundary: the bandpass
/// and correlation engines and the rings are float, while every decision
/// metric and the energy recurrence accumulate in double.
class PreambleScanner {
 public:
  explicit PreambleScanner(const Preamble& preamble);

  /// Consumes the next chunk and appends any newly confirmed detections.
  void scan(std::span<const float> chunk, std::vector<PreambleDetection>& out,
            dsp::Workspace& ws);

  /// Raw samples consumed so far.
  std::uint64_t consumed() const { return consumed_; }

  /// Every detection starting before this stream position has been emitted.
  std::uint64_t decided_through() const;

  /// Worst-case decision lag at `params`, in samples: a detection starting
  /// at stream position p is emitted by the scan() that consumes sample
  /// p + lag, and decided_through() never trails consumed() by more. It is
  /// the bandpass block and group delay, the correlation block, one
  /// candidate window, and the confirmation span (two cores, a symbol and
  /// the fine-pass step). The correlation block is a power of two, so the
  /// lag does not scale linearly with the symbol (~0.55 s at 50 Hz, ~3.7 s
  /// at 10 Hz).
  static std::size_t max_decision_lag(const OfdmParams& params);

  void reset();

 private:
  void advance(std::vector<PreambleDetection>& out);
  void process_window(std::uint64_t lo, std::uint64_t hi,
                      std::vector<PreambleDetection>& out);
  void trim_rings();
  double metric_at(std::uint64_t abs_index) const;

  const Preamble* pre_;
  std::size_t n_ = 0;       ///< symbol samples
  std::size_t core_ = 0;    ///< core template length
  std::size_t delay_ = 0;   ///< bandpass group delay
  std::size_t window_ = 0;  ///< candidate window width (n / 2)
  double ref_energy_ = 0.0;
  dsp::BasicFftFilter<float> band_engine_;  ///< receive bandpass
  dsp::BasicFftFilter<float> corr_engine_;  ///< latency-bounded reversed template
  dsp::BasicFftFilter<float>::Stream band_stream_;
  dsp::BasicFftFilter<float>::Stream corr_stream_;

  // Rings over the absolute timeline: element 0 of each vector is the
  // absolute index stored in the matching *_base_.
  std::vector<float> filt_;  ///< filter-same-aligned bandpassed samples
  std::uint64_t filt_base_ = 0;
  std::vector<float> corr_vals_;  ///< raw correlation per lag
  std::uint64_t corr_base_ = 0;
  std::vector<float> coarse_;  ///< normalized correlation per lag
  std::uint64_t coarse_base_ = 0;

  std::size_t conv_drop_ = 0;  ///< leading conv outputs to discard (delay)
  std::size_t corr_drop_ = 0;  ///< leading conv outputs to discard (L - 1)
  double energy_acc_ = 0.0;    ///< running core-window energy at next_lag_-1
  std::uint64_t next_lag_ = 0;     ///< next coarse lag to compute
  std::uint64_t next_window_ = 0;  ///< next candidate window to decide
  std::optional<PreambleDetection> pending_;  ///< best in the open merge span
  std::uint64_t consumed_ = 0;
  std::vector<float> conv_tmp_;
  std::vector<float> corr_tmp_;
};

}  // namespace aqua::phy
