// Underwater ambient noise synthesis matching the paper's Fig. 4
// measurements: strong energy below 1 kHz (flow noise, bubbles), a
// decaying tail up to ~4.5 kHz, site-dependent overall level (9 dB spread),
// impulsive bubble bursts, and narrowband boat machinery tones at busy
// sites.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft_filter.h"
#include "dsp/types.h"
#include "dsp/workspace.h"

namespace aqua::channel {

/// Ambient-noise parameters for a site.
struct NoiseParams {
  double level_db = 0.0;          ///< site offset relative to reference
  double reference_rms = 0.008;   ///< RMS of the shaped noise floor at 0 dB
  double low_freq_boost_db = 18.0;///< extra power below the knee (Fig. 4)
  double knee_hz = 900.0;         ///< transition out of the low-freq bump
  double tail_cutoff_hz = 4800.0; ///< noise becomes negligible above this
  double bubble_rate_hz = 0.0;    ///< impulsive burst arrivals per second
  double bubble_gain = 6.0;       ///< burst amplitude relative to floor RMS
  std::vector<double> boat_tones_hz;  ///< machinery lines (busy sites)
  double boat_tone_gain = 3.0;    ///< tone amplitude relative to floor RMS
};

/// RMS of the shaped noise floor a NoiseGenerator built from `p` would
/// report, without constructing one (the floor is a pure function of the
/// params). The audibility culler compares conservative path-gain bounds
/// against this value.
double noise_floor_rms(const NoiseParams& p);

/// The noise generator's random source: the draws of a libstdc++
/// `std::mt19937_64` seeded `seed`, as seen through one
/// `std::normal_distribution<double>(0, 1)` and any number of
/// `std::uniform_real_distribution<double>(0, 1)`, reproduced bit for bit
/// (the `.aqt` corpus and every figure depend on these exact sequences).
/// What differs is the cost per draw:
///  - the engine twists all 312 state words at once, branch-free
///    (`(0 - (y & 1)) & kMatrixA` instead of a branch on a random bit), and
///    tempers them into a buffer that draws are handed out from;
///  - uniform() is libstdc++'s `generate_canonical<double, 53>`, the
///    64-bit word over 2^64 with the same `>= 1 -> nextafter(1, 0)` guard,
///    but converts the word as `hi * 2^32 + lo`: that sum is rounded once,
///    so it equals `static_cast<double>(word)` without the conversion's
///    branch on the top bit;
///  - normal() is Marsaglia's polar method exactly as libstdc++ runs it,
///    keeping the saved second variate (`_M_saved`) for the next call.
/// noise.cpp builds with -ffp-contract=off so that no target fuses the
/// polar `x*x + y*y` into an FMA.
class NoiseRng {
 public:
  explicit NoiseRng(std::uint64_t seed);

  /// Next `std::mt19937_64` output.
  std::uint64_t next() {
    if (pos_ == kStateWords) refill();
    return words_[pos_++];
  }

  /// `std::uniform_real_distribution<double>(0, 1)` on this engine.
  double uniform() { return uniform_of(next()); }

  /// The value uniform() returns when the word it draws is `word`.
  /// Non-decreasing in `word`.
  static double uniform_of(std::uint64_t word);

  /// The smallest word whose uniform_of() is not below `p`, for p < 1:
  /// `uniform() < p` decides exactly as `next() < uniform_threshold(p)`
  /// and consumes the same word.
  static std::uint64_t uniform_threshold(double p);

  /// `std::normal_distribution<double>(0, 1)` on this engine.
  double normal();

 private:
  static constexpr std::size_t kStateWords = 312;
  void refill();

  std::array<std::uint64_t, kStateWords> state_;
  std::array<std::uint64_t, kStateWords> words_;  ///< tempered state_
  std::size_t pos_ = kStateWords;
  double saved_normal_ = 0.0;
  bool has_saved_normal_ = false;
};

/// Streaming colored-noise generator. Deterministic for a given seed, and
/// chunking-invariant: generate(a) followed by generate(b) produces the
/// same samples as generate(a + b). The floor is white normals shaped by a
/// 512-tap filter on the overlap-save stream: the normals are drawn one
/// stream block at a time, on the absolute sample grid, and each call is
/// served from blocks already shaped (the input is synthetic, so drawing
/// ahead adds no lag). The noise floor and the impulsive
/// bursts draw from separate RNG streams, so the per-call draw counts of
/// one cannot shift the other's sequence. The boat tones and their
/// amplitude wander are unit phasors rotated once per sample and
/// re-anchored from their exact phase at fixed points of the absolute
/// sample grid, so where a call starts cannot change them either.
class NoiseGenerator {
 public:
  /// Throws std::invalid_argument unless bubble_rate_hz is below the
  /// sample rate (a burst may start on any sample, with probability
  /// bubble_rate_hz / sample_rate_hz).
  NoiseGenerator(const NoiseParams& params, double sample_rate_hz,
                 std::uint64_t seed);

  /// Produces the next `n` samples of ambient noise.
  std::vector<double> generate(std::size_t n);

  /// Writes the next out.size() samples of ambient noise into `out` (same
  /// samples as generate(out.size())), leasing the white-noise block from
  /// `ws`; allocates nothing once `ws` has served one block.
  void generate(std::span<double> out, dsp::Workspace& ws);

  /// RMS of the shaped noise floor (excluding bursts/tones).
  double floor_rms() const { return floor_rms_; }

  /// The floor's shaping filter (before the calibration gain).
  const std::vector<double>& shaping_taps() const {
    return shaping_->kernel();
  }

  /// One-sided power spectral density of the noise floor at `freq_hz`
  /// (per Hz), excluding bursts and tones. Used for analytic SNR checks.
  double psd_one_sided(double freq_hz) const;

  const NoiseParams& params() const { return params_; }

  /// Samples between the tone phasors' re-anchors on the absolute grid.
  static constexpr std::uint64_t kToneAnchorSamples = 1024;

 private:
  /// e^{i(2 pi cycles_per_sample k + phase)} at absolute sample k.
  struct Rotor {
    Rotor(double cycles, double phase0);
    /// Sets the value to sample k's from the exact phase.
    void anchor(std::uint64_t k);
    /// Rotates the value on to the next sample's.
    void advance() {
      const double r = re * step_re - im * step_im;
      im = im * step_re + re * step_im;
      re = r;
    }
    double cycles_per_sample;
    double phase;
    double step_re, step_im;    ///< one sample's rotation
    double re = 1.0, im = 0.0;  ///< value at the next sample
  };

  void add_bursts(std::span<double> out);
  void add_tones(std::span<double> out);

  NoiseParams params_;
  double sample_rate_hz_;
  NoiseRng rng_;        ///< noise-floor stream (step() normals per block)
  NoiseRng burst_rng_;  ///< burst arrivals + burst noise
  /// The shaping filter, designed once; heap-held so the stream's pointer
  /// to it survives moving the generator.
  std::unique_ptr<const dsp::FftFilter> shaping_;
  dsp::FftFilter::Stream stream_;
  std::vector<double> shaped_;  ///< the current shaped block (unscaled)
  std::size_t served_ = 0;      ///< samples of shaped_ already handed out
  double floor_rms_ = 0.0;
  double gain_ = 1.0;              ///< white->target-RMS scale factor
  std::uint64_t sample_ = 0;       ///< absolute index of the next sample
  std::uint64_t burst_threshold_ = 0;  ///< burst when a word is below it
  double burst_remaining_ = 0.0;   ///< seconds left in the active burst
  double burst_env_ = 0.0;
  std::vector<Rotor> tones_;       ///< one per boat tone
  Rotor wander_;                   ///< the tones' 0.13 Hz amplitude wander

  static std::vector<double> design_shaping_filter(const NoiseParams& p,
                                                   double fs);
};

}  // namespace aqua::channel
